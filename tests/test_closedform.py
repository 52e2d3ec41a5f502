import numpy as np
import pytest

import secrate.closedform as cf
from secrate.errors import (
    AlphaZero, DegenerateDistributionWarning, RangeError, Undefined,
)
from secrate.model import PowerSplit, SystemParams, make_split

from conftest import passive_convex_level, random_params, random_point, random_split


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


def test_cdf_snr_active_zero_jamming_flagged():
    params = _raw_params()
    split = PowerSplit(p_a=100.0, theta=0.0, p_ja=0.0, p_jp=0.0)
    with pytest.warns(DegenerateDistributionWarning):
        assert cf.cdf_snr_active(3.0, params, split) == 0.0


def test_cdf_snr_passive_zero_jamming_flagged():
    params = _raw_params()
    split = PowerSplit(p_a=100.0, theta=0.0, p_ja=0.0, p_jp=0.0)
    with pytest.warns(DegenerateDistributionWarning):
        assert cf.cdf_snr_passive(3.0, params, split) == 0.0


def test_cdf_snr_bob_anchors():
    params = _raw_params(p_ea=1.0, var_eab=1.0, var_ab=1.0)
    assert cf.cdf_snr_bob(0.0, params, 1.0) == 0.0
    assert cf.cdf_snr_bob(1.0, params, 1.0) == pytest.approx(0.5, rel=1e-12)


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
