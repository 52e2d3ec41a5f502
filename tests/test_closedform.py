import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import secrate.closedform as cf
import secrate.optimizer as opt
from secrate.errors import (
    AlphaZero, DegenerateDistributionWarning, RangeError, Undefined,
)
from secrate.model import PowerSplit, SystemParams, make_split, validate

from conftest import (
    MIN_PA_UNDERFLOW, mp_log_survival, passive_convex_level, random_params, random_point,
    random_split,
)


def _raw_params(**overrides) -> SystemParams:
    """Unvalidated params for formula-level checks (some use N=2 identities)."""
    base = dict(
        n_antennas=4, k_passive=1, m_active=1,
        var_ab=1.0, var_aea=1.0, var_aek=1.0, var_eab=1.0,
        var_jb=1.0, var_jea=1.0, var_jek=1.0,
        p_max=100.0, p_ea=10.0, r_b=4.0, delta=0.1, epsilon=0.01,
    )
    base.update(overrides)
    return SystemParams(**base)


# ---------------------------------------------------------------------------
# CDFs
# ---------------------------------------------------------------------------

def test_cdf_snr_active_anchors():
    params = _raw_params(n_antennas=2)
    split = PowerSplit(p_a=1.0, theta=0.5, p_ja=1.0, p_jp=1.0)
    # unit signal and jamming scales: 1 - (1/(1+x))^(N-1)
    assert cf.cdf_snr_active(0.0, params, split) == 0.0
    assert cf.cdf_snr_active(1.0, params, split) == pytest.approx(0.5, rel=1e-12)


def _positive_zero(value) -> bool:
    return value == 0.0 and math.copysign(1.0, value) == 1.0


def test_cdf_snr_active_zero_jamming_flagged():
    # no AN on the active beams: the SNR of every perfect-estimate active
    # kernel is unbounded, and the imperfect one's too once no passive AN leaks
    params = _raw_params(m_active=2, rho_ea=0.6)
    silent = PowerSplit(p_a=100.0, theta=0.0, p_ja=0.0, p_jp=0.0)
    passive_only = PowerSplit(p_a=100.0, theta=0.0, p_ja=0.0, p_jp=100.0)
    for cdf, split in ((cf.cdf_snr_active, silent), (cf.cdf_snr_active, passive_only),
                       (cf.cdf_snr_active_multi, silent), (cf.cdf_snr_active_multi, passive_only),
                       (cf.cdf_snr_active_imperfect, silent)):
        with pytest.warns(DegenerateDistributionWarning):
            assert _positive_zero(cdf(3.0, params, split))
        with pytest.warns(DegenerateDistributionWarning):
            assert cdf(np.array([0.0, 3.0, np.inf]), params, split).tolist() == [0.0] * 3
    with pytest.warns(DegenerateDistributionWarning):  # a perfect estimate lets no AN leak
        assert cf.cdf_snr_active_imperfect(3.0, replace(params, rho_ea=1.0), passive_only) == 0.0


def test_cdf_snr_active_imperfect_sees_leaking_an_at_zero_beam_power():
    # passive AN leaks through the estimation error: a proper distribution, no warning
    params = _raw_params(rho_ea=0.6)
    split = PowerSplit(p_a=100.0, theta=0.0, p_ja=0.0, p_jp=100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cf.cdf_snr_active_imperfect(3.0, params, split)
    # s = 3 / 100; only the leakage term: 1 - (1 + p_jp rho_bar s / (N-2))^-(N-2)
    assert got == pytest.approx(-math.expm1(-2.0 * math.log1p(100.0 * 0.64 * 0.03 / 2.0)),
                                rel=1e-12)
    assert 0.7 < got < 0.75


def test_cdf_snr_passive_zero_jamming_flagged():
    params = _raw_params(m_active=2)
    split = PowerSplit(p_a=100.0, theta=0.0, p_ja=0.0, p_jp=0.0)
    for cdf in (cf.cdf_snr_passive, cf.cdf_snr_passive_multi):
        with pytest.warns(DegenerateDistributionWarning):
            assert _positive_zero(cdf(3.0, params, split))
        # AN on either the beams or the passive subspace reaches a passive eavesdropper
        for jammed in (PowerSplit(p_a=100.0, theta=1.0, p_ja=100.0, p_jp=0.0),
                       PowerSplit(p_a=100.0, theta=0.0, p_ja=0.0, p_jp=100.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert 0.0 < cdf(3.0, params, jammed) < 1.0


def test_cdf_snr_bob_anchors():
    params = _raw_params(p_ea=1.0, var_eab=1.0, var_ab=1.0)
    assert cf.cdf_snr_bob(0.0, params, 1.0) == 0.0
    assert cf.cdf_snr_bob(1.0, params, 1.0) == pytest.approx(0.5, rel=1e-12)


def test_cdf_snr_bob_takes_its_limit_when_the_ratio_overflows():
    # x p_ea var_eab / (p_a var_ab) beyond the float range overflowed with a
    # warning, and t / (1 + t) was inf / inf, NaN; the limit is 1
    params = _raw_params(p_ea=1.0, var_eab=1.0, var_ab=1.0)
    tiny = _raw_params(var_ab=1e-10)  # p_a var_ab rounds to 0 at p_a = 1e-320
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cf.cdf_snr_bob(1.0, params, 1e-310) == 1.0
        assert cf.cdf_snr_bob(np.array([1e300, 0.0]), params, 1e-10).tolist() == [1.0, 0.0]
        assert cf.cdf_snr_bob(1.0, tiny, 1e-320) == 1.0
        assert cf.transmission_outage(params, 1e-310) == 1.0
        # the noise-limited outage divided by p_a var_ab = 0 (ZeroDivisionError)
        assert cf.transmission_outage_noise_limited(tiny, 1e-320) == 1.0
    # a finite ratio keeps the plain formula's bits
    rng = np.random.default_rng(59)
    x = 10.0 ** rng.uniform(-10.0, 10.0, 200)
    t = x * params.p_ea * params.var_eab / (0.3 * params.var_ab)
    assert np.array_equal(cf.cdf_snr_bob(x, params, 0.3), t / (1.0 + t))


def test_cdf_snr_bob_where_both_products_leave_the_float_range():
    # x p_ea var_eab and p_a var_ab both beyond the float range (inf / inf) or
    # both rounded to 0 (0 / 0) gave NaN with an invalid-value warning; the
    # ratio t is 1 at every point below, so the CDF is 1/2
    big = _raw_params(p_ea=2.0 ** 300, var_eab=2.0 ** 200, var_ab=2.0 ** 1000)
    small = _raw_params(p_ea=2.0 ** -300, var_eab=2.0 ** -200, var_ab=2.0 ** -1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cf.cdf_snr_bob(np.array([2.0 ** 600, 2.0 ** 1000, np.inf, 0.0]), big, 2.0 ** 100)
        assert got[:2] == pytest.approx([0.5, 2.0 ** 400 / (1.0 + 2.0 ** 400)], rel=1e-12)
        assert got[2:].tolist() == [1.0, 0.0]
        assert cf.cdf_snr_bob(2.0 ** -600, small, 2.0 ** -100) == pytest.approx(0.5, rel=1e-12)
        assert cf.cdf_snr_bob(0.0, small, 2.0 ** -100) == 0.0
        # the scenario a fuzz run met, at r_s = 0 (x about 9e307): t is exact
        # in rationals
        fuzz = _raw_params(p_ea=1.65e110, var_eab=2.5e75, var_ab=2.7e176, r_b=1023.0)
        x = cf.rate_gap_threshold(fuzz.r_b, 0.0)
        for p_a in (1e132, 3e140, 1e300):
            t = (Fraction(x) * Fraction(fuzz.p_ea) * Fraction(fuzz.var_eab)
                 / (Fraction(p_a) * Fraction(fuzz.var_ab)))
            assert cf.cdf_snr_bob(x, fuzz, p_a) == pytest.approx(float(t / (1 + t)), rel=1e-12)
    assert np.isnan(cf.cdf_snr_bob(np.nan, big, 2.0 ** 100))


@pytest.mark.parametrize("which", ["bob", "active", "passive", "active_imperfect",
                                   "active_multi", "passive_multi"])
def test_cdf_shape_properties(which):
    rng = np.random.default_rng(41)
    for _ in range(20):
        m = 2 if which.endswith("multi") else 1
        rho_ea = 0.6 if which == "active_imperfect" else 1.0
        params = random_params(rng, m_active=m, rho_ea=rho_ea, n_lo=4)
        split, _ = random_split(rng, params)
        grid = np.geomspace(1e-6, 1e9, 200)
        fns = {
            "bob": lambda x: cf.cdf_snr_bob(x, params, split.p_a),
            "active": lambda x: cf.cdf_snr_active(x, params, split),
            "passive": lambda x: cf.cdf_snr_passive(x, params, split),
            "active_imperfect": lambda x: cf.cdf_snr_active_imperfect(x, params, split),
            "active_multi": lambda x: cf.cdf_snr_active_multi(x, params, split),
            "passive_multi": lambda x: cf.cdf_snr_passive_multi(x, params, split),
        }
        values = np.asarray(fns[which](grid))
        assert fns[which](0.0) == 0.0
        assert np.all(np.diff(values) >= -1e-15)
        assert np.all((values >= 0.0) & (values <= 1.0))
        assert values[-1] > 1.0 - 1e-3


# ---------------------------------------------------------------------------
# Transmission outage and minimum power
# ---------------------------------------------------------------------------

def test_transmission_outage_anchors():
    params = _raw_params(r_b=1e-12)
    assert cf.transmission_outage(params, 10.0) <= 1e-11
    # threshold equal to the jamming scale puts the outage at one half
    params = _raw_params(r_b=1.0, p_ea=1.0, var_eab=1.0, var_ab=1.0)
    assert cf.transmission_outage(params, 1.0) == pytest.approx(0.5, rel=1e-12)


def test_transmission_outage_an_leakage_anchors():
    params = _raw_params(rho_b=0.5)
    assert cf.transmission_outage_an_leakage(params, params.p_max) == 0.0
    # exponent ln 2 -> outage one half
    x = cf.rate_gap_threshold(params.r_b, 0.0)
    c = (1.0 - 0.5 ** 2) * params.var_jb * x / params.var_ab
    p_a = params.p_max / (1.0 + np.log(2.0) / c)
    assert cf.transmission_outage_an_leakage(params, p_a) == pytest.approx(0.5, rel=1e-9)
    with pytest.raises(RangeError):
        cf.transmission_outage_an_leakage(_raw_params(rho_b=1.0), 10.0)


def test_min_pa_noise_limited_anchor():
    params = _raw_params(delta=1.0 - np.exp(-1.0), var_ab=1.0, r_b=3.0)
    assert cf.min_pa(params, "noise_limited") == pytest.approx(2.0 ** 3 - 1.0, rel=1e-12)


def test_min_pa_round_trips():
    rng = np.random.default_rng(43)
    for _ in range(50):
        params = random_params(rng)
        assert cf.transmission_outage(
            params, cf.min_pa(params, "interference_limited")
        ) == pytest.approx(params.delta, abs=1e-9)
        assert cf.transmission_outage_noise_limited(
            params, cf.min_pa(params, "noise_limited")
        ) == pytest.approx(params.delta, abs=1e-9)
        imperfect = random_params(rng, rho_b=float(rng.uniform(0.0, 0.95)))
        assert cf.transmission_outage_an_leakage(
            imperfect, cf.min_pa(imperfect, "an_leakage")
        ) == pytest.approx(imperfect.delta, abs=1e-9)


@pytest.mark.parametrize("fields, mode", MIN_PA_UNDERFLOW,
                         ids=[mode for _, mode in MIN_PA_UNDERFLOW])
def test_min_pa_that_rounds_to_zero_is_a_range_error(fields, mode):
    with pytest.raises(RangeError, match="minimum Alice power"):
        cf.min_pa(SystemParams(**fields), mode)


def test_min_pa_keeps_a_subnormal_power():
    # positive but below the smallest normal float: returned as computed
    params = _raw_params(var_ab=1e10, r_b=1e-300)
    p_a = cf.min_pa(params, "noise_limited")
    x = cf.rate_gap_threshold(params.r_b, 0.0)
    assert 0.0 < p_a < 2.2250738585072014e-308
    assert p_a == x / (-math.log1p(-params.delta) * params.var_ab)


@pytest.mark.parametrize("fields, mode, power", [
    (dict(delta=1e-297, var_ab=1e-28), "noise_limited", math.inf),
    (dict(delta=1e-297, var_ab=1e-28), "interference_limited", math.inf),
    (dict(rho_b=0.5, var_jb=1e-300, r_b=1e-30), "an_leakage", 0.0),
])
def test_min_pa_survives_a_denominator_that_underflows(fields, mode, power):
    # the product under the fraction bar rounds to 0 (it raised
    # ZeroDivisionError): the power overflows to inf, which the searches
    # report as PA_EXCEEDS_PMAX, or rounds to 0, a RangeError
    params = validate(_raw_params(**fields))
    if power == 0.0:
        with pytest.raises(RangeError, match="minimum Alice power"):
            cf.min_pa(params, mode)
        return
    assert cf.min_pa(params, mode) == power
    result = opt.maximize_for(params, pa_mode=mode)
    assert result.infeasibility_reason == "PA_EXCEEDS_PMAX"


def test_min_pa_mode_resolution():
    perfect = _raw_params()
    assert cf.resolve_pa_mode(perfect, "auto") == "noise_limited"
    leaky = _raw_params(rho_b=0.7)
    assert cf.resolve_pa_mode(leaky, "auto") == "an_leakage"
    with pytest.raises(RangeError):
        cf.resolve_pa_mode(perfect, "bogus")
    with pytest.raises(RangeError):
        cf.min_pa(perfect, "an_leakage")


# ---------------------------------------------------------------------------
# Secrecy outage probabilities
# ---------------------------------------------------------------------------

def test_sop_active_anchors():
    params = _raw_params()
    split = make_split(params, 40.0, 0.0)
    assert cf.sop_active(params, split, 2.0) == 1.0
    # N=2 with theta*alpha = 1 halves the survival
    params2 = _raw_params(n_antennas=2, p_max=2.0, r_b=1.0)
    split2 = PowerSplit(p_a=1.0, theta=1.0, p_ja=1.0, p_jp=0.0)
    assert cf.sop_active(params2, split2, 0.0) == pytest.approx(0.5, rel=1e-12)


def test_sop_active_matches_cdf():
    rng = np.random.default_rng(47)
    for _ in range(100):
        params = random_params(rng)
        split, r_s = random_split(rng, params)
        x = cf.rate_gap_threshold(params.r_b, r_s)
        assert cf.sop_active(params, split, r_s) == pytest.approx(
            1.0 - cf.cdf_snr_active(x, params, split), abs=1e-12)


def test_sop_passive_anchors():
    rng = np.random.default_rng(53)
    for _ in range(20):
        params = random_params(rng)
        split, _ = random_split(rng, params)
        assert cf.sop_passive(params, split, params.r_b) == 1.0


def test_sop_passive_single_matches_cdf():
    rng = np.random.default_rng(59)
    for _ in range(100):
        params = SystemParams(**{**random_params(rng).__dict__, "k_passive": 1})
        split, r_s = random_split(rng, params)
        x = cf.rate_gap_threshold(params.r_b, r_s)
        assert cf.sop_passive(params, split, r_s) == pytest.approx(
            1.0 - cf.cdf_snr_passive(x, params, split), abs=1e-12)


def test_sop_active_imperfect_reductions():
    rng = np.random.default_rng(61)
    for _ in range(100):
        params = random_params(rng)  # rho_ea = 1
        split, r_s = random_split(rng, params)
        assert cf.sop_active_imperfect(params, split, r_s) == pytest.approx(
            cf.sop_active(params, split, r_s), abs=1e-12)


def test_sop_active_imperfect_theta_zero_rho_zero():
    rng = np.random.default_rng(67)
    for _ in range(50):
        params = random_params(rng, rho_ea=0.0)
        p_a, _, r_s = random_point(rng, params)
        split = make_split(params, p_a, 0.0)
        n = params.n_antennas
        alpha = cf.alpha_ratio(params, p_a, r_s)
        expected = (1.0 + alpha / (n - 2)) ** (2 - n)
        assert cf.sop_active_imperfect(params, split, r_s) == pytest.approx(
            expected, rel=1e-12)


def test_sop_active_imperfect_rho_zero_exponential_route():
    # At rho = 0 the mispointed-beam gain is a plain exponential; the general
    # expression must collapse to the product of the two simple Laplace factors.
    rng = np.random.default_rng(71)
    for _ in range(100):
        params = random_params(rng, rho_ea=0.0)
        split, r_s = random_split(rng, params)
        n = params.n_antennas
        alpha = cf.alpha_ratio(params, p_a := split.p_a, r_s)
        theta = split.theta
        simple = (1.0 / (1.0 + theta * alpha)
                  * (1.0 + (1.0 - theta) * alpha / (n - 2)) ** (2 - n))
        assert cf.sop_active_imperfect(params, split, r_s) == pytest.approx(
            simple, abs=1e-12)
        assert p_a == split.p_a


def test_multi_reductions_match_single():
    rng = np.random.default_rng(73)
    for _ in range(100):
        params = random_params(rng)  # m_active = 1
        split, r_s = random_split(rng, params)
        x = cf.rate_gap_threshold(params.r_b, r_s)
        for grid_x in (x, 0.37 * x, 2.9 * x):
            assert cf.cdf_snr_active_multi(grid_x, params, split) == pytest.approx(
                cf.cdf_snr_active(grid_x, params, split), abs=1e-15)
            assert cf.cdf_snr_passive_multi(grid_x, params, split) == pytest.approx(
                cf.cdf_snr_passive(grid_x, params, split), abs=1e-15)
        assert cf.cdf_snr_active_multi(0.0, params, split) == 0.0
        assert cf.sop_active_multi(params, split, params.r_b) == 1.0


def test_sop_grid_matches_scalars():
    rng = np.random.default_rng(79)
    for m, which_pair in ((1, ("active", "passive")),
                          (1, ("active_imperfect", "passive")),
                          (2, ("active_multi", "passive_multi"))):
        rho = 0.7 if "imperfect" in which_pair[0] else 1.0
        params = random_params(rng, m_active=m, rho_ea=rho, n_lo=4)
        p_a, _, _ = random_point(rng, params)
        rs_grid = np.linspace(0.0, params.r_b * 0.95, 13)
        th_grid = np.linspace(0.0, 1.0, 17)
        scalar = {
            "active": cf.sop_active, "active_imperfect": cf.sop_active_imperfect,
            "active_multi": cf.sop_active_multi, "passive": cf.sop_passive,
            "passive_multi": cf.sop_passive_multi,
        }
        for which in which_pair:
            grid = cf.sop_grid(params, p_a, rs_grid, th_grid, which)
            for i in (0, 5, 12):
                for j in (0, 8, 16):
                    split = make_split(params, p_a, th_grid[j])
                    assert grid[i, j] == pytest.approx(
                        float(scalar[which](params, split, rs_grid[i])),
                        rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("fn", [cf.sop_active, cf.sop_active_imperfect, cf.sop_active_multi,
                                cf.sop_passive, cf.sop_passive_multi])
def test_sop_rejects_rate_outside_zero_r_b(fn):
    params = random_params(np.random.default_rng(83), m_active=2, rho_ea=0.7)
    split = make_split(params, 0.5 * params.p_max, 0.4)
    # r_s = r_b leaves no secrecy margin: certain outage, not an error
    assert fn(params, split, params.r_b) == 1.0
    for r_s in (np.nextafter(params.r_b, np.inf), params.r_b + 1.0, -1e-12, np.nan):
        with pytest.raises(RangeError, match="r_s"):
            fn(params, split, r_s)


def test_sop_grid_rejects_rate_outside_zero_r_b():
    params = random_params(np.random.default_rng(89))
    th_grid = np.linspace(0.0, 1.0, 5)
    edge = cf.sop_grid(params, 10.0, np.array([0.0, params.r_b]), th_grid, "passive")
    assert np.all(edge[1] == 1.0)
    for bad in (params.r_b * 1.5, -0.5):
        with pytest.raises(RangeError, match="r_s"):
            cf.sop_grid(params, 10.0, np.array([0.0, 1.0, bad]), th_grid, "passive")


@pytest.mark.parametrize("count", [1, 2, 5, 64])
@pytest.mark.parametrize("eps", [1e-12, 1e-3, 0.2, 1.0 - 1e-9])
def test_secrecy_level_matches_mpmath(count, eps):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        exact = mpmath.log(1 - (1 - mpmath.mpf(eps)) ** (mpmath.mpf(1) / count))
        got = cf.secrecy_level(eps, count)
        assert abs(got - exact) <= 1e-14 * abs(exact), (got, exact)


def test_secrecy_level_survives_a_subnormal_epsilon():
    assert cf.secrecy_level(5e-324, 64) == pytest.approx(np.log(5e-324) - np.log(64.0))


KINDS = ("active", "active_imperfect", "active_multi", "passive", "passive_multi")


@pytest.mark.parametrize("kind", KINDS)
def test_log_survival_level_agrees_with_sop(kind):
    # SOP <= epsilon exactly where the log-survival is at most the level,
    # wherever rounding cannot decide the comparison either way
    rng = np.random.default_rng(97)
    thetas = np.linspace(0.0, 1.0, 201)
    decided = 0
    for _ in range(40):
        params = random_params(rng, m_active=int(rng.integers(1, 4)), n_lo=5,
                               rho_ea=float(rng.uniform(0.05, 0.95)))
        p_a, _, r_s = random_point(rng, params)
        sop = cf.sop_theta_curve(kind, params, p_a, r_s)(thetas)
        log_sf, level = cf.log_sf_theta_curve(kind, params, p_a, r_s, params.epsilon)
        clear = np.abs(sop - params.epsilon) > 1e-9 * params.epsilon
        assert np.array_equal((sop <= params.epsilon)[clear], (log_sf(thetas) <= level)[clear])
        decided += int(np.count_nonzero(clear & (sop <= params.epsilon)))
    assert decided > 0


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------

def _central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_sop_active_dtheta_sign_and_fd():
    rng = np.random.default_rng(83)
    for _ in range(100):
        params = random_params(rng)
        p_a, theta, r_s = random_point(rng, params)
        split = make_split(params, p_a, theta)
        deriv = cf.sop_active_dtheta(params, split, r_s)
        assert deriv < 0.0
        fd = _central_diff(
            lambda t: cf.sop_active(params, make_split(params, p_a, t), r_s),
            theta, 1e-6)
        assert deriv == pytest.approx(fd, rel=1e-4, abs=1e-9)


def test_sop_passive_dtheta_stationary_point_and_signs():
    rng = np.random.default_rng(89)
    for _ in range(100):
        params = random_params(rng)
        p_a, theta, r_s = random_point(rng, params)
        n = params.n_antennas
        at_min = make_split(params, p_a, 1.0 / (n - 1))
        assert abs(cf.sop_passive_dtheta(params, at_min, r_s)) <= 1e-9
        at_zero = make_split(params, p_a, 0.0)
        assert cf.sop_passive_dtheta(params, at_zero, r_s) < 0.0
        split = make_split(params, p_a, theta)
        fd = _central_diff(
            lambda t: cf.sop_passive(params, make_split(params, p_a, t), r_s),
            theta, 1e-6)
        assert cf.sop_passive_dtheta(params, split, r_s) == pytest.approx(
            fd, rel=1e-4, abs=1e-9)


def test_sop_active_imperfect_dtheta_fd():
    rng = np.random.default_rng(97)
    for _ in range(100):
        params = random_params(rng, rho_ea=float(rng.uniform(0.05, 0.95)))
        p_a, theta, r_s = random_point(rng, params)
        split = make_split(params, p_a, theta)
        fd = _central_diff(
            lambda t: cf.sop_active_imperfect(params, make_split(params, p_a, t), r_s),
            theta, 1e-6)
        assert cf.sop_active_dtheta(params, split, r_s) == pytest.approx(
            fd, rel=1e-4, abs=1e-9)


def test_sop_active_imperfect_drho_fd_and_sign():
    rng = np.random.default_rng(101)
    for _ in range(100):
        rho = float(rng.uniform(0.05, 0.95))
        params = random_params(rng, rho_ea=rho)
        p_a, theta, r_s = random_point(rng, params)
        split = make_split(params, p_a, theta)

        def by_rho(r):
            scenario = SystemParams(**{**params.__dict__, "rho_ea": r})
            return cf.sop_active_imperfect(scenario, split, r_s)

        fd = _central_diff(by_rho, rho, 1e-6)
        deriv = cf.sop_active_imperfect_drho(params, split, r_s)
        assert deriv == pytest.approx(fd, rel=1e-4, abs=1e-9)
        # the derivative's sign follows theta relative to 1/(N-1)
        sign = np.sign(deriv)
        expected = -np.sign(theta * (params.n_antennas - 1) - 1.0)
        if abs(theta * (params.n_antennas - 1) - 1.0) > 1e-6:
            assert sign == expected or deriv == 0.0


def test_sop_active_imperfect_drho_at_a_perfect_estimate_is_the_left_derivative():
    # at rho_ea = 1 (where 0 was returned) the derivative is the one-sided
    # one toward rho_ea < 1, -2 alpha ((N-1) theta - 1) SOP. The one-sided
    # difference errs by O(h) with a factor that grows with alpha, so the
    # step shrinks until the rounding of rho_bar takes over
    rng = np.random.default_rng(151)
    for _ in range(100):
        params = random_params(rng)
        p_a, theta, r_s = random_point(rng, params)
        split = make_split(params, p_a, theta)
        sop = cf.sop_active_imperfect(params, split, r_s)
        deriv = cf.sop_active_imperfect_drho(params, split, r_s)
        errors = []
        for k in range(5, 11):
            rho = 1.0 - 10.0 ** -k
            below = cf.sop_active_imperfect(replace(params, rho_ea=rho), split, r_s)
            errors.append(abs((sop - below) / (1.0 - rho) - deriv))
        assert min(errors) <= 1e-5 * abs(deriv)
        lead = theta * (params.n_antennas - 1) - 1.0
        assert deriv == pytest.approx(-2.0 * cf.alpha_ratio(params, p_a, r_s) * lead * sop,
                                      rel=1e-12)
        if abs(lead) > 1e-6:
            assert np.sign(deriv) == -np.sign(lead)


def test_theta_profile_roots_and_condition():
    rng = np.random.default_rng(103)
    for _ in range(200):
        params = random_params(rng, rho_ea=float(rng.uniform(0.05, 0.95)))
        p_a, _, r_s = random_point(rng, params)
        profile = cf.active_sop_theta_profile(params, p_a, r_s)
        assert profile.theta_neg < 0.0 < profile.theta_pos
        assert profile.min_value < 0.0
        assert abs(cf.active_sop_theta_quadratic(
            params, p_a, r_s, profile.theta_pos)) <= 1e-9
        assert profile.decreasing_on_unit == (profile.theta_pos > 1.0)
        assert cf.monotone_condition(params, p_a, r_s) == profile.decreasing_on_unit


def test_theta_profile_rejects_degenerate_rho():
    rng = np.random.default_rng(107)
    for rho in (0.0, 1.0):
        params = random_params(rng, rho_ea=rho)
        p_a, _, r_s = random_point(rng, params)
        with pytest.raises(Undefined):
            cf.active_sop_theta_profile(params, p_a, r_s)


def test_theta_profile_alpha_zero():
    rng = np.random.default_rng(109)
    params = random_params(rng, rho_ea=0.5)
    with pytest.raises(AlphaZero):
        cf.active_sop_theta_profile(params, params.p_max, 1.0)


def test_theta_quadratic_raises_the_profiles_typed_errors():
    # it raised ZeroDivisionError at rho_ea = 1 and at alpha = 0
    rng = np.random.default_rng(157)
    for rho in (0.0, 1.0):
        params = random_params(rng, rho_ea=rho)
        p_a, theta, r_s = random_point(rng, params)
        with pytest.raises(Undefined):
            cf.active_sop_theta_quadratic(params, p_a, r_s, theta)
    params = random_params(rng, rho_ea=0.5)
    with pytest.raises(AlphaZero):
        cf.active_sop_theta_quadratic(params, params.p_max, 1.0, 0.5)


def test_derivative_vanishes_at_profile_root():
    rng = np.random.default_rng(149)
    seen = 0
    for _ in range(300):
        params = random_params(rng, rho_ea=float(rng.uniform(0.05, 0.95)))
        p_a, _, r_s = random_point(rng, params)
        profile = cf.active_sop_theta_profile(params, p_a, r_s)
        if 0.0 < profile.theta_pos < 1.0:
            seen += 1
            split = make_split(params, p_a, profile.theta_pos)
            assert abs(cf.sop_active_dtheta(params, split, r_s)) <= 1e-9
    assert seen > 50


def test_profile_sign_pattern_on_grid():
    rng = np.random.default_rng(113)
    theta_grid = np.linspace(1e-4, 1.0 - 1e-4, 1000)
    for _ in range(30):
        params = random_params(rng, rho_ea=float(rng.uniform(0.05, 0.95)))
        p_a, _, r_s = random_point(rng, params)
        profile = cf.active_sop_theta_profile(params, p_a, r_s)
        derivs = np.array([
            cf.sop_active_dtheta(params, make_split(params, p_a, t), r_s)
            for t in theta_grid])
        if profile.decreasing_on_unit:
            assert np.all(derivs < 0.0)
        else:
            crossings = np.count_nonzero(np.diff(np.sign(derivs)) != 0)
            assert crossings == 1
            assert np.all(derivs[theta_grid < profile.theta_pos - 1e-3] < 0.0)
            assert np.all(derivs[theta_grid > profile.theta_pos + 1e-3] > 0.0)


# ---------------------------------------------------------------------------
# Monotonicity and convexity properties
# ---------------------------------------------------------------------------

def _sop_between(params, fn, p_a, r_s, theta):
    return float(fn(params, make_split(params, p_a, theta), r_s))


@pytest.mark.parametrize("fn,m,rho", [
    (cf.sop_active, 1, 1.0),
    (cf.sop_passive, 1, 1.0),
    (cf.sop_active_imperfect, 1, 0.7),
    (cf.sop_active_multi, 2, 1.0),
    (cf.sop_passive_multi, 2, 1.0),
])
def test_sop_monotone_in_power_and_rate(fn, m, rho):
    rng = np.random.default_rng(127)
    for _ in range(10):
        params = random_params(rng, m_active=m, rho_ea=rho, n_lo=4)
        theta = float(rng.uniform(0.05, 0.95))
        r_s = 0.5 * params.r_b
        powers = np.linspace(0.05, 0.999, 120) * params.p_max
        by_power = [_sop_between(params, fn, p, r_s, theta) for p in powers]
        assert np.all(np.diff(by_power) >= -1e-12)
        p_a = 0.4 * params.p_max
        rates = np.linspace(0.0, params.r_b, 120)
        by_rate = [_sop_between(params, fn, p_a, r, theta) for r in rates]
        assert np.all(np.diff(by_rate) >= -1e-12)


def test_sop_active_strictly_decreasing_in_theta():
    rng = np.random.default_rng(131)
    for _ in range(20):
        params = random_params(rng)
        p_a, _, r_s = random_point(rng, params)
        thetas = np.linspace(0.0, 1.0, 200)
        values = [_sop_between(params, cf.sop_active, p_a, r_s, t) for t in thetas]
        assert np.all(np.diff(values) < 0.0)


def test_sop_passive_convex_with_inner_minimum():
    rng = np.random.default_rng(137)
    thetas = np.linspace(0.0, 1.0, 201)
    for _ in range(20):
        params = random_params(rng)
        p_a, _, r_s = random_point(rng, params)
        values = np.array([_sop_between(params, cf.sop_passive, p_a, r_s, t)
                           for t in thetas])
        # 1-(1-G)^K with log-convex G is convex where G <= 1/K, i.e. where
        # SOP <= 1-(1-1/K)^K: everywhere for K = 1, not in general for K >= 2
        k = params.k_passive
        inside = values <= passive_convex_level(k)
        triples = inside[:-2] & inside[1:-1] & inside[2:]
        assert k > 1 or triples.all()
        assert np.all(np.diff(values, 2)[triples] >= -1e-8)
        n = params.n_antennas
        idx = int(np.argmin(values))
        assert abs(thetas[idx] - 1.0 / (n - 1)) <= thetas[1] - thetas[0] + 1e-12


def test_wide_arrays_stay_in_log_space():
    # N and K up to ~64 must neither underflow nor produce junk
    params = SystemParams(
        n_antennas=64, k_passive=64, m_active=1,
        var_ab=10.0, var_aea=1.0, var_aek=1.0, var_eab=1.0,
        var_jb=1.0, var_jea=2.0, var_jek=2.0,
        p_max=1e4, p_ea=10.0, r_b=8.0, delta=0.1, epsilon=1e-2)
    split = make_split(params, 500.0, 0.4)
    p1 = float(cf.sop_active(params, split, 6.0))
    p2 = float(cf.sop_passive(params, split, 6.0))
    assert 0.0 < p1 < 1e-100  # deep tail resolved by the direct survival form
    assert 0.0 < p2 < 1e-15 and np.isfinite(p2)
    x = cf.rate_gap_threshold(params.r_b, 6.0)
    assert 1.0 - cf.cdf_snr_active(x, params, split) == pytest.approx(p1, abs=1e-12)
    imperfect = SystemParams(**{**params.__dict__, "rho_ea": 0.7})
    assert 0.0 < float(cf.sop_active_imperfect(imperfect, split, 6.0)) < 1.0


def test_sop_active_imperfect_monotone_in_rho_above_knee():
    # A sharper estimate can only help once the active beam carries at least
    # 1/(N-1) of the AN budget.
    rng = np.random.default_rng(139)
    for _ in range(20):
        base = random_params(rng)
        n = base.n_antennas
        theta = float(rng.uniform(1.0 / (n - 1), 1.0))
        p_a, _, r_s = random_point(rng, base)
        split = make_split(base, p_a, theta)
        rhos = np.linspace(0.0, 1.0, 100)
        values = [cf.sop_active_imperfect(
            SystemParams(**{**base.__dict__, "rho_ea": r}), split, r_s)
            for r in rhos]
        assert np.all(np.diff(values) <= 1e-12)


def test_imperfect_log_survival_takes_its_limit_when_alpha_overflows():
    # s = inf used to give (n-2)*log1p(inf) + (-inf) = NaN with a RuntimeWarning
    n, rho = 6, 0.5
    scenario = _raw_params(n_antennas=n, rho_ea=rho)
    for theta in (0.0, 0.3, 1.0):
        assert cf.log_sf_at("active_imperfect", scenario, theta, float("inf")) == -np.inf
    assert cf.log_sf_at("active_imperfect", scenario, 0.0, float("inf"), 0.0) == 0.0  # no AN
    s = np.array([0.5, np.inf, 3e300])
    got = cf.log_sf_at("active_imperfect", scenario, 0.3, s, 0.7)
    assert got[1] == -np.inf
    for i in (0, 2):  # finite entries keep the floats they have without the inf
        assert got[i] == cf.log_sf_at("active_imperfect", scenario, 0.3, s[i:i + 1], 0.7)[0]
    params = _raw_params(n_antennas=n, var_jea=1e300, rho_ea=rho)
    split = make_split(params, 0.5 * params.p_max, 0.4)
    assert cf.cdf_snr_active_imperfect(np.inf, params, split) == 1.0
    assert cf.cdf_snr_active_imperfect(np.array([1e-10, np.inf]), params, split).tolist() == [
        cf.cdf_snr_active_imperfect(1e-10, params, split), 1.0]
    huge = _raw_params(n_antennas=n, var_jea=1e300, var_aea=1e-300, rho_ea=rho, r_b=1000.0)
    assert cf.alpha_ratio(huge, 10.0, 0.0) == np.inf
    assert cf.sop_active_imperfect(huge, make_split(huge, 10.0, 0.4), 0.0) == 0.0


_TAIL_SOPS = {"active": cf.sop_active, "active_imperfect": cf.sop_active_imperfect,
              "active_multi": cf.sop_active_multi, "passive": cf.sop_passive,
              "passive_multi": cf.sop_passive_multi}
_TAIL_CDFS = {"active": cf.cdf_snr_active, "active_imperfect": cf.cdf_snr_active_imperfect,
              "active_multi": cf.cdf_snr_active_multi, "passive": cf.cdf_snr_passive,
              "passive_multi": cf.cdf_snr_passive_multi}
_TAIL_TARGETS = (1e-300, 1e-100, 1e-12, 0.5, 1.0 - 1e-12)
_BELOW_NORMAL = 1e-310  # a value that underflows the doubles may read 0


def _mp_scale(mp, kind, params, p_a, x):
    """s = var_j * x / (p_a * var_a) of ``kind``'s link."""
    var_j, var_a = ((params.var_jea, params.var_aea) if kind.startswith("active")
                    else (params.var_jek, params.var_aek))
    return mp.mpf(var_j) * x / (mp.mpf(p_a) * mp.mpf(var_a))


def _straddle(fn, lo, hi, target, log_scale):
    """(a, b) adjacent to float resolution with fn(a) < target <= fn(b), for an
    increasing fn; None when fn(lo) already reaches the target."""
    if fn(lo) >= target:
        return None
    for _ in range(2100):
        mid = math.sqrt(lo) * math.sqrt(hi) if log_scale else 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        lo, hi = (mid, hi) if fn(mid) < target else (lo, mid)
    return lo, hi


def _tail_scenario(rng, kind):
    """N = K = 64; M up to N - 2 for the multi kinds; rho_ea and theta drawn so
    that the imperfect kind reaches its deep tail too (rho_ea near 1, theta = 1)."""
    m = int(rng.choice([2, int(rng.integers(2, 62)), 62])) if kind.endswith("multi") else 1
    rho = 1.0
    if kind == "active_imperfect":
        rho = float(rng.choice([rng.uniform(0.05, 0.95), 1.0 - 10.0 ** -rng.uniform(2.0, 6.0)]))
    var = lambda: float(10.0 ** rng.uniform(-1.0, 1.0))  # noqa: E731
    params = _raw_params(n_antennas=64, k_passive=64, m_active=m, rho_ea=rho, r_b=1000.0,
                         var_aea=var(), var_aek=var(), var_jea=var(), var_jek=var())
    theta = float(rng.choice([rng.uniform(0.01, 0.99), 1.0]))
    return params, make_split(params, float(rng.uniform(0.05, 0.95)) * params.p_max, theta)


@pytest.mark.parametrize("kind", KINDS)
def test_wide_counts_match_mpmath_in_both_tails(kind):
    # N = K = 64 and M up to N - 2 against 50-digit mpmath, at points on both
    # sides of SOP and CDF values from 1e-300 to 1 - 1e-12
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(list(KINDS).index(kind) + 227)
    reached = {"sop": set(), "cdf": set()}
    with mp.workdps(50):
        for _ in range(12):
            params, split = _tail_scenario(rng, kind)
            count = {"active_multi": params.m_active, "passive": params.k_passive,
                     "passive_multi": params.k_passive}.get(kind, 1)

            def sop(r_s):
                return float(_TAIL_SOPS[kind](params, split, r_s))

            def cdf(x):
                return float(_TAIL_CDFS[kind](x, params, split))

            rates = [float(rng.uniform(0.0, params.r_b))]
            levels = [float(10.0 ** rng.uniform(-300.0, 300.0))]
            for target in _TAIL_TARGETS:
                pair = _straddle(sop, 0.0, params.r_b, target, False)
                if pair:
                    reached["sop"].add(target)
                    rates.extend(pair)
                pair = _straddle(cdf, 1e-305, 1e305, target, True)
                if pair:
                    reached["cdf"].add(target)
                    levels.extend(pair)
            for r_s in rates:
                x = mp.mpf(2) ** (mp.mpf(params.r_b) - mp.mpf(r_s)) - 1
                s = _mp_scale(mp, kind, params, split.p_a, x) * (
                    mp.mpf(params.p_max) - mp.mpf(split.p_a))
                g = mp.exp(mp_log_survival(mp, kind, params, split.theta, 1.0 - split.theta, s))
                exact = -mp.expm1(count * mp.log1p(-g))  # 1 - (1 - g)**count
                got = sop(r_s)
                assert abs(got - exact) <= 1e-9 * exact + _BELOW_NORMAL, (r_s, got, exact)
            for x in levels:
                s = _mp_scale(mp, kind, params, split.p_a, mp.mpf(x))
                exact = -mp.expm1(mp_log_survival(mp, kind, params, split.p_ja, split.p_jp, s))
                got = cdf(x)
                assert abs(got - exact) <= 1e-9 * exact + _BELOW_NORMAL, (x, got, exact)
    assert reached == {"sop": set(_TAIL_TARGETS), "cdf": set(_TAIL_TARGETS)}


@pytest.mark.parametrize("alpha", [1e155, 1e200, 1e300])
def test_theta_profile_root_survives_an_overflowing_b_squared(alpha):
    # b * b overflows beyond alpha ~ 1e154; the positive root tends to 1/(N-1)
    n, rho = 6, 0.5
    params = _raw_params(n_antennas=n, var_jea=alpha, rho_ea=rho)
    p_a, r_s = 0.5 * params.p_max, params.r_b - 1.0  # alpha = var_jea * (2 - 1)
    assert cf.alpha_ratio(params, p_a, r_s) == pytest.approx(alpha, rel=1e-12)
    profile = cf.active_sop_theta_profile(params, p_a, r_s)
    assert abs(profile.theta_pos - 1.0 / (n - 1)) <= 1e-12
    assert profile.theta_neg < 0.0
    assert not profile.decreasing_on_unit
    assert cf.monotone_condition(params, p_a, r_s) == profile.decreasing_on_unit
    a, b, c = (Fraction(v) for v in cf._quadratic_coeffs(
        n, float(cf.alpha_ratio(params, p_a, r_s)), rho))
    assert math.isfinite(profile.min_value)
    assert profile.min_value == pytest.approx(float(c - b * b / (4 * a)), rel=1e-12)


def test_theta_profile_takes_its_limit_when_alpha_overflows():
    # alpha = inf: the roots tend to 0 and 1/(N-1), the vertex value to -inf
    n = 6
    huge = _raw_params(n_antennas=n, var_jea=1e300, var_aea=1e-300, rho_ea=0.5, r_b=1000.0)
    assert cf.alpha_ratio(huge, 10.0, 0.0) == math.inf
    profile = cf.active_sop_theta_profile(huge, 10.0, 0.0)
    assert profile.theta_pos == 1.0 / (n - 1)
    assert profile.theta_neg == 0.0 and profile.min_value == -math.inf
    assert not profile.decreasing_on_unit
    assert cf.monotone_condition(huge, 10.0, 0.0) == profile.decreasing_on_unit
    # a finite alpha whose leading coefficient (N-1) r / (N-2) overflows
    for alpha in (1.5e308, float(np.finfo(float).max)):
        t_neg, t_pos, vertex = cf._quadratic_roots(n, alpha, 0.5)
        assert t_pos == pytest.approx(1.0 / (n - 1), rel=1e-15)
        assert -1e-300 <= t_neg <= 0.0
        # c - b^2 / 4a tends to -r / (4 (N-1) (N-2)), r = (1 - rho^2) alpha
        assert vertex == pytest.approx(-0.75 * alpha / (4 * (n - 1) * (n - 2)), rel=1e-12)
    near_max = _raw_params(n_antennas=n, var_jea=1.5e308, rho_ea=0.5)  # raised ZeroDivisionError
    p_a, r_s = 0.5 * near_max.p_max, near_max.r_b - 1.0  # alpha = var_jea
    profile = cf.active_sop_theta_profile(near_max, p_a, r_s)
    assert profile.theta_pos == pytest.approx(1.0 / (n - 1), rel=1e-15)
    assert not profile.decreasing_on_unit


def _plain_log_sf(kind, w_beam, w_pas, s, n, m, rho_ea=1.0):
    """The kernels' formulas without any overflow handling, with math.log1p
    on floats and np.log1p on arrays, as the kernels take them."""
    log1p = math.log1p if isinstance(s, float) else np.log1p
    if kind == "passive":
        return -m * log1p(w_beam / m * s) - (n - m - 1) * log1p(w_pas * s / (n - m - 1))
    rho_bar = 1.0 - rho_ea ** 2
    log_sf = (2 - m - n) * log1p(w_beam / m * s)
    if rho_bar:
        log_sf = ((n - 2) * log1p(w_beam * rho_bar * s) + log_sf
                  - (n - 2) * log1p(w_pas * rho_bar * s / (n - 2)))
    return log_sf


def _kernel_kinds(m, rho_ea=1.0):
    """(active kind, passive kind) whose kernels read M = ``m`` beams and ``rho_ea``."""
    if m > 1:
        return "active_multi", "passive_multi"
    return ("active" if rho_ea == 1.0 else "active_imperfect"), "passive"


def test_kernels_take_their_limit_at_theta_ends_when_s_overflows():
    # 0 * inf used to reach log1p as NaN: a term with zero AN weight adds 0
    inf = math.inf
    for n, m in ((6, 1), (6, 2), (9, 4)):
        params = _raw_params(n_antennas=n, m_active=m)
        active, passive = _kernel_kinds(m)
        assert cf.log_sf_at(active, params, 0.0, inf, 1.0) == 0.0  # passive AN never reaches it
        assert cf.log_sf_at(active, params, 1.0, inf, 0.0) == -inf
        for theta in (0.0, 1.0):
            assert cf.log_sf_at(passive, params, theta, inf) == -inf
        assert cf.log_sf_at(passive, params, 0.0, inf, 0.0) == 0.0
    params = _raw_params(n_antennas=6, m_active=2)
    theta = np.array([0.0, 0.4, 1.0, 0.0, 1.0])
    s = np.array([inf, inf, inf, 2.5, 1e300])
    assert cf.log_sf_at("active_multi", params, theta, s)[:3].tolist() == [0.0, -inf, -inf]
    assert cf.log_sf_at("passive_multi", params, theta, s)[:3].tolist() == [-inf, -inf, -inf]
    # finite s, the theta ends included, keeps the plain formulas' floats
    rng = np.random.default_rng(41)
    s = 10.0 ** rng.uniform(-300.0, 308.0, 400)
    theta = np.where(rng.random(400) < 0.5, rng.integers(0, 2, 400), rng.random(400))
    for n, m, rho in ((6, 1, 1.0), (6, 1, 0.5), (8, 3, 1.0)):
        params = _raw_params(n_antennas=n, m_active=m, rho_ea=rho)
        for kind, name in zip(_kernel_kinds(m, rho), ("active", "passive")):
            def kernel(w_beam, w_pas, s, kind=kind):
                return cf.log_sf_at(kind, params, w_beam, s, w_pas)

            want = _plain_log_sf(name, theta, 1.0 - theta, s, n, m, rho)
            assert np.array_equal(kernel(theta, 1.0 - theta, s), want)
            for i in range(0, 400, 37):
                w = (float(theta[i]), 1.0 - float(theta[i]), float(s[i]))
                assert kernel(*w) == _plain_log_sf(name, *w, n, m, rho)


def test_cdf_reaches_the_overflow_limit_without_a_warning():
    # var_j * x beyond the float range is the kernel's s = inf limit
    params = _raw_params(n_antennas=6, var_jea=1e300, var_jek=1e300, rho_ea=0.5)
    split = make_split(params, 0.5 * params.p_max, 0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cf.cdf_snr_active_imperfect(np.array([1e10]), params, split).tolist() == [1.0]
        assert cf.cdf_snr_active_imperfect(1e10, params, split) == 1.0
        assert cf.cdf_snr_passive(np.array([1e10, 1e-10]), params, split)[0] == 1.0
    # a finite s whose product with an AN power overflows: the imperfect
    # kernel's inf - inf was NaN, and every kernel warned
    moderate = _raw_params(n_antennas=6, m_active=2, rho_ea=0.5)
    split = make_split(moderate, 1.0, 0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cdf in _TAIL_CDFS.values():
            assert cdf(1e307, moderate, split) == 1.0
            assert cdf(np.array([1e307, 1e-300]), moderate, split)[0] == 1.0


def test_cdf_takes_a_scale_lost_to_overflow_through_logs():
    # p_a var_a beyond the float range made s = var_j x / (p_a var_a) 0 at
    # x = 1e300, and inf / inf (NaN, with a warning) at x = inf. Scaled by
    # 1e299 and 1e300, the scenario is one with s = 10 at x = 1, p_ja s = 4.5
    big = _raw_params(n_antennas=6, m_active=2, rho_ea=0.5, p_max=1e300, var_aea=1e300,
                      var_aek=1e300)
    small = _raw_params(n_antennas=6, m_active=2, rho_ea=0.5, p_max=1.0)
    big_split, small_split = make_split(big, 1e299, 0.5), make_split(small, 0.1, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, cdf in _TAIL_CDFS.items():
            want = cdf(1.0, small, small_split)
            assert 0.9 < want < 1.0
            assert cdf(1e300, big, big_split) == pytest.approx(want, rel=1e-12), kind
            assert cdf(np.array([0.0, 1e300, math.inf]), big, big_split).tolist() == [
                0.0, pytest.approx(want, rel=1e-12), 1.0], kind


def test_log_survival_of_floats_is_a_float():
    # the rate search's case takes no numpy scalar: a float theta and s give
    # a float, the s = inf limit included, and the array path's value to
    # rounding (math.log1p and np.log1p may differ by an ulp)
    params = _raw_params(n_antennas=6, m_active=2, rho_ea=0.5)
    for kind in KINDS:
        for theta in (0.0, 0.3, 1.0):
            for s in (0.0, 0.5, 3e300, math.inf):
                got = cf.log_sf_at(kind, params, theta, s)
                want = cf.log_sf_at(kind, params, np.array([theta]), np.array([s]))[0]
                assert type(got) is float, (kind, theta, s)
                assert got == pytest.approx(want, rel=1e-14, abs=0.0), (kind, theta, s)


def test_lambda_cap_is_zero_at_a_perfect_estimate_when_alpha_overflows():
    # (1 - rho_ea^2) alpha was 0 * inf, NaN
    huge = _raw_params(var_jea=1e300, var_aea=1e-300, r_b=1000.0)
    ratios = cf.derived_ratios(huge, 10.0, 0.0)
    assert ratios.alpha == math.inf and ratios.lambda_cap == 0.0
    assert cf.derived_ratios(replace(huge, rho_ea=0.5), 10.0, 0.0).lambda_cap == math.inf


def test_derivatives_stay_finite_at_the_float_extremes():
    # alpha ** 2 overflowed (OverflowError) and 0 * inf gave NaN; the SOP is
    # flat at s = inf, and a slope at an SOP that underflows is 0
    rng = np.random.default_rng(163)
    derivatives = (cf.sop_active_dtheta, cf.sop_passive_dtheta, cf.sop_active_imperfect_drho)
    for _ in range(300):
        rho = float(rng.choice([0.0, 0.5, 1.0 - 1e-16, 1.0]))
        huge = 10.0 ** float(rng.uniform(-300.0, 300.0))
        params = _raw_params(n_antennas=int(rng.integers(3, 40)), var_jea=huge, var_jek=huge,
                             k_passive=int(rng.integers(1, 100)), rho_ea=rho)
        theta = float(rng.choice([0.0, 1.0, float(rng.random())]))
        split = make_split(params, params.p_max * 10.0 ** float(rng.uniform(-300.0, 0.0)), theta)
        r_s = float(rng.choice([0.0, rng.uniform(0.0, params.r_b)]))
        for derivative in derivatives:
            assert not math.isnan(derivative(params, split, r_s))


@pytest.mark.parametrize("call", [
    lambda p: cf.sop_theta_curve("bogus", p, 50.0, 1.0),
    lambda p: cf.log_sf_theta_curve("bogus", p, 50.0, 1.0, p.epsilon),
    lambda p: cf.sop_grid(p, 50.0, np.array([1.0]), np.array([0.5]), "bogus"),
    lambda p: cf.sop_grid_mask(p, 50.0, np.array([1.0]), np.array([0.5]), "bogus"),
    lambda p: cf.sop_tiles(p, 50.0, np.array([1.0]), np.array([0.5]), "bogus", np.array([0])),
    lambda p: opt.theta_interval("bogus", p, 50.0, 1.0),
], ids=["sop_theta_curve", "log_sf_theta_curve", "sop_grid", "sop_grid_mask", "sop_tiles",
        "theta_interval"])
def test_unknown_sop_kind_is_a_range_error(call):
    with pytest.raises(RangeError, match="unknown SOP kind 'bogus'; expected one of"):
        call(_raw_params())


# ---------------------------------------------------------------------------
# The SOP mask settled a theta cell at a time
# ---------------------------------------------------------------------------

def _mask_scenarios(kind):
    """Two criterion-5-range scenarios of ``kind`` at their minimum power
    (capped at p_max), and the overflowed-alpha scenario, whose alpha and
    beta are inf at the low rates, at its own."""
    rng = np.random.default_rng(KINDS.index(kind) + 331)
    m = 2 if kind.endswith("multi") else 1
    out = []
    for rho in (float(rng.uniform(0.05, 0.95)), 0.0):
        params = random_params(rng, m_active=m, n_lo=4, r_b_lo=2.0, r_b_hi=6.0,
                               rho_ea=rho if kind == "active_imperfect" else 1.0)
        out.append((params, min(cf.min_pa(params, "noise_limited"), params.p_max)))
    huge = validate(SystemParams(
        n_antennas=6, k_passive=2, m_active=m, var_ab=1e300, var_aea=2.0, var_aek=2.0,
        var_eab=1.5, var_jb=1.2, var_jea=1e300, var_jek=1e300, p_max=1e4, p_ea=10.0,
        r_b=1000.0, delta=0.1, epsilon=0.01, rho_ea=0.5))
    p_a = cf.min_pa(huge, "noise_limited")
    assert cf.log_sf_scale(kind, huge, p_a, 0.0) == math.inf
    return out + [(huge, p_a)]


@pytest.mark.parametrize("kind", KINDS)
def test_sop_grid_mask_is_the_sop_grid_against_epsilon(kind):
    # bit for bit, on theta grids whose last cell holds 1 point or a full
    # cell, at epsilon from the extremes through the criterion-5 range, and
    # at knife edges: the SOP of a grid point beside a cell corner
    rng = np.random.default_rng(KINDS.index(kind) + 337)
    cell = cf._GRID_CELL
    settled = formed = knife_edges = 0
    for params, p_a in _mask_scenarios(kind):
        rates = np.linspace(0.0, params.r_b, 24, endpoint=False)
        for size in (100, 150, 4 * cell + 1, 1001, 10_000):
            thetas = np.linspace(0.0, 1.0, size)
            sop = cf.sop_grid(params, p_a, rates, thetas, kind)
            eps_list = [1e-300, 1e-12, 0.999, 1.0 - 1e-9] + [
                float(10.0 ** rng.uniform(-3.0, -0.7)) for _ in range(2)]
            for row in rng.integers(0, rates.size, 4):
                for corner in (cell * int(rng.integers(1, -(-size // cell))), size - 1):
                    for point in (corner - 1, corner):
                        if 0.0 < sop[row, point] < 1.0:
                            eps_list.append(float(sop[row, point]))
                            knife_edges += 1
            for eps in eps_list:
                mask, points = cf.sop_grid_mask(replace(params, epsilon=eps), p_a, rates,
                                                thetas, kind)
                assert mask.shape == sop.shape
                assert np.array_equal(mask, sop <= eps), (params, size, eps)
                assert 0 <= points <= sop.size
                settled += points < sop.size
                formed += points > 0
    assert settled and formed and knife_edges > 50, (settled, formed, knife_edges)


@pytest.mark.parametrize("kind", KINDS)
def test_sop_tiles_settle_only_what_every_point_of_the_tile_agrees_with(kind):
    # a tile of consecutive rate rows by one theta cell is above epsilon only
    # where every SOP in it is, and at most epsilon only where every SOP is,
    # with knife-edge epsilons at the SOPs of the tiles' corner points
    rng = np.random.default_rng(KINDS.index(kind) + 347)
    cell = cf._GRID_CELL
    settled = 0
    for params, p_a in _mask_scenarios(kind):
        for rows, size, group in ((24, 150, 5), (129, 1001, 32), (64, 100, 1)):
            rates = np.linspace(0.0, params.r_b, rows, endpoint=False)
            thetas = np.linspace(0.0, 1.0, size)
            sop = cf.sop_grid(params, p_a, rates, thetas, kind)
            starts = np.maximum(np.arange(rows % -group, rows, group), 0)
            ends = np.append(starts[1:], rows)
            corners = sop[np.ix_(np.concatenate([starts, ends - 1]),
                                 np.arange(0, size, cell))].ravel()
            knife_edges = rng.permutation(corners[(corners > 0.0) & (corners < 1.0)])[:4]
            eps_list = [1e-300, 0.999, 1.0 - 1e-9] + [float(e) for e in knife_edges]
            for eps in eps_list:
                above, below = cf.sop_tiles(replace(params, epsilon=eps), p_a, rates, thetas,
                                            kind, starts)
                assert above.shape == below.shape == (starts.size, -(-size // cell))
                for g, (start, end) in enumerate(zip(starts, ends)):
                    for c in range(above.shape[1]):
                        tile = sop[start:end, c * cell:(c + 1) * cell]
                        assert not above[g, c] or (tile > eps).all(), (params, eps, g, c)
                        assert not below[g, c] or (tile <= eps).all(), (params, eps, g, c)
                settled += int(above.sum() + below.sum())
    assert settled > 0
