"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS line on success; run with ``pytest -v -s`` to see
them. The pinned scenarios cover the shipped sweep-config parameter sets
plus imperfect-estimate, zero-correlation, multi-eavesdropper, and wide-array
cases, so that every closed form meets its sampling oracle at least once.
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest

import secrate.cli as cli
import secrate.closedform as cf
import secrate.montecarlo as mc
import secrate.optimizer as opt
from secrate.beamform import passive_null_basis, zero_forcing_beams
from secrate.model import SystemParams, db_to_linear as dB, make_split, validate

from conftest import passive_convex_level, random_params, random_point

STEP = 0.01
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _report(number: int, name: str) -> None:
    print(f"[acceptance {number}] {name}: PASS")


def _mk(**kw) -> SystemParams:
    return validate(SystemParams(**kw))


# name -> (params, pa_rule, theta, r_s); pa_rule is a mode string or a budget fraction
PINNED = {
    "antennas": (_mk(n_antennas=6, k_passive=1, var_ab=dB(10), var_aea=dB(3), var_aek=dB(3),
                 var_eab=dB(3), var_jb=dB(2), var_jea=dB(7), var_jek=dB(7),
                 p_max=dB(40), p_ea=dB(10), r_b=8, delta=0.1, epsilon=1e-2),
             0.3, 0.3, 7.6),
    "passive_gain_targets": (_mk(n_antennas=4, k_passive=3, var_ab=dB(10), var_aea=dB(3), var_aek=dB(3),
                 var_eab=dB(3), var_jb=dB(2), var_jea=dB(7), var_jek=dB(7),
                 p_max=dB(40), p_ea=dB(10), r_b=8, delta=0.1, epsilon=1e-2),
             0.3, 0.3, 7.2),
    "bob_estimate": (_mk(n_antennas=4, k_passive=5, var_ab=dB(20), var_aea=dB(2), var_aek=dB(2),
                 var_eab=dB(3), var_jb=dB(2), var_jea=dB(10), var_jek=dB(10),
                 p_max=dB(40), p_ea=dB(10), r_b=8, delta=0.1, epsilon=1e-2, rho_b=0.8),
             "an_leakage", 0.3, 5.0),
    "active_gain_bob_estimate": (_mk(n_antennas=6, k_passive=5, var_ab=dB(20), var_aea=dB(10), var_aek=dB(2),
                 var_eab=dB(3), var_jb=dB(2), var_jea=dB(5), var_jek=dB(5),
                 p_max=dB(30), p_ea=dB(10), r_b=8, delta=0.2, epsilon=1e-2, rho_b=0.9),
             "an_leakage", 0.3, 5.5),
    "passive_gain_estimates": (_mk(n_antennas=5, k_passive=3, var_ab=dB(15), var_aea=dB(5), var_aek=dB(5),
                 var_eab=dB(3), var_jb=dB(2), var_jea=dB(3), var_jek=dB(5),
                 p_max=dB(35), p_ea=dB(10), r_b=8, delta=0.1, epsilon=1e-2, rho_ea=0.6),
             0.3, 0.3, 6.8),
    "an_ratio_passive_gain": (_mk(n_antennas=5, k_passive=4, var_ab=dB(15), var_aea=dB(3), var_aek=dB(5),
                 var_eab=dB(3), var_jb=dB(2), var_jea=dB(3), var_jek=dB(5),
                 p_max=dB(35), p_ea=dB(10), r_b=8, delta=0.1, epsilon=1e-2, rho_ea=0.8),
             "noise_limited", 0.5, 7.8),
    "rho_zero": (_mk(n_antennas=5, k_passive=2, var_ab=dB(12), var_aea=dB(4),
                     var_aek=dB(4), var_eab=dB(2), var_jb=dB(2), var_jea=dB(4),
                     var_jek=dB(4), p_max=dB(30), p_ea=dB(8), r_b=6, delta=0.15,
                     epsilon=1e-2, rho_ea=0.0),
                 0.3, 0.3, 5.1),
    "multi_a": (_mk(n_antennas=5, k_passive=2, m_active=2, var_ab=dB(10), var_aea=dB(3),
                    var_aek=dB(3), var_eab=dB(3), var_jb=dB(2), var_jea=dB(0),
                    var_jek=dB(0), p_max=dB(25), p_ea=dB(10), r_b=8, delta=0.1,
                    epsilon=1e-2),
                0.3, 0.5, 6.8),
    "multi_b": (_mk(n_antennas=6, k_passive=2, m_active=2, var_ab=dB(12), var_aea=dB(5),
                    var_aek=dB(5), var_eab=dB(3), var_jb=dB(2), var_jea=dB(2),
                    var_jek=dB(2), p_max=dB(26), p_ea=dB(10), r_b=7, delta=0.1,
                    epsilon=1e-2),
                "noise_limited", 0.55, 5.6),
    "wide": (_mk(n_antennas=12, k_passive=8, var_ab=dB(10), var_aea=dB(3), var_aek=dB(3),
                 var_eab=dB(3), var_jb=dB(2), var_jea=dB(4), var_jek=dB(4),
                 p_max=dB(30), p_ea=dB(10), r_b=8, delta=0.1, epsilon=1e-2),
             0.3, 0.3, 7.2),
}


def _pinned_split(name):
    params, pa_rule, theta, r_s = PINNED[name]
    p_a = cf.min_pa(params, pa_rule) if isinstance(pa_rule, str) else pa_rule * params.p_max
    assert p_a <= params.p_max
    return params, make_split(params, p_a, theta), r_s


def test_criterion_1_closed_forms_match_monte_carlo():
    started = time.time()
    trials = 100_000
    seen = set()
    for index, name in enumerate(sorted(PINNED)):
        params, split, r_s = _pinned_split(name)
        rows = mc.verification_rows(params, split, r_s, trials, seed=1000 + index)
        for row in rows:
            seen.add(row["name"])
            assert row["passed"], (name, row)
    # every closed form met its oracle somewhere in the pinned set
    assert seen >= {
        "cdf_snr_bob", "cdf_snr_active", "cdf_snr_passive",
        "cdf_snr_active_imperfect", "cdf_snr_active_multi", "cdf_snr_passive_multi",
        "transmission_outage", "transmission_outage_an_leakage",
        "sop_active", "sop_active_imperfect", "sop_active_multi",
        "sop_passive", "sop_passive_multi",
    }
    elapsed = time.time() - started
    assert elapsed < 120.0
    _report(1, f"closed-form vs Monte Carlo on {len(PINNED)} pinned configs "
               f"({elapsed:.0f}s)")


def test_criterion_2_identity_reductions():
    rng = np.random.default_rng(202)
    for _ in range(200):
        params = random_params(rng)
        p_a, theta, r_s = random_point(rng, params)
        split = make_split(params, p_a, theta)
        x = cf.rate_gap_threshold(params.r_b, r_s)
        assert cf.sop_active_imperfect(params, split, r_s) == pytest.approx(
            cf.sop_active(params, split, r_s), abs=1e-12)
        for x_probe in (0.31 * x, x, 4.7 * x):
            assert cf.cdf_snr_active_multi(x_probe, params, split) == pytest.approx(
                cf.cdf_snr_active(x_probe, params, split), abs=1e-12)
            assert cf.cdf_snr_passive_multi(x_probe, params, split) == pytest.approx(
                cf.cdf_snr_passive(x_probe, params, split), abs=1e-12)
        assert cf.sop_active(params, split, r_s) == pytest.approx(
            1.0 - cf.cdf_snr_active(x, params, split), abs=1e-12)
    _report(2, "identity reductions exact to 1e-12")


def _fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_criterion_3_derivatives_and_quadratic():
    rng = np.random.default_rng(303)
    for _ in range(1000):
        perfect = random_params(rng)
        p_a, theta, r_s = random_point(rng, perfect)
        split = make_split(perfect, p_a, theta)
        assert cf.sop_active_dtheta(perfect, split, r_s) == pytest.approx(
            _fd(lambda t: cf.sop_active(perfect, make_split(perfect, p_a, t), r_s),
                theta), rel=1e-4, abs=1e-9)
        assert cf.sop_passive_dtheta(perfect, split, r_s) == pytest.approx(
            _fd(lambda t: cf.sop_passive(perfect, make_split(perfect, p_a, t), r_s),
                theta), rel=1e-4, abs=1e-9)

        rho = float(rng.uniform(0.05, 0.95))
        imperfect = SystemParams(**{**perfect.__dict__, "rho_ea": rho})
        assert cf.sop_active_dtheta(imperfect, split, r_s) == pytest.approx(
            _fd(lambda t: cf.sop_active_imperfect(
                imperfect, make_split(imperfect, p_a, t), r_s), theta),
            rel=1e-4, abs=1e-9)
        assert cf.sop_active_imperfect_drho(imperfect, split, r_s) == pytest.approx(
            _fd(lambda r: cf.sop_active_imperfect(
                SystemParams(**{**imperfect.__dict__, "rho_ea": r}), split, r_s), rho),
            rel=1e-4, abs=1e-9)

        profile = cf.active_sop_theta_profile(imperfect, p_a, r_s)
        assert abs(cf.active_sop_theta_quadratic(
            imperfect, p_a, r_s, profile.theta_pos)) <= 1e-9
        assert profile.decreasing_on_unit == (profile.theta_pos > 1.0)
        assert cf.monotone_condition(imperfect, p_a, r_s) == profile.decreasing_on_unit
    _report(3, "derivatives match finite differences; quadratic root and "
               "monotonicity condition consistent on 1000 configs")


def test_criterion_4_passive_sop_stationary_point_and_minimizer():
    rng = np.random.default_rng(404)
    thetas = np.linspace(0.0, 1.0, 201)
    for _ in range(100):
        params = random_params(rng)
        p_a, _, r_s = random_point(rng, params)
        at_min = make_split(params, p_a, 1.0 / (params.n_antennas - 1))
        assert abs(cf.sop_passive_dtheta(params, at_min, r_s)) <= 1e-9
        values = np.array([
            cf.sop_passive(params, make_split(params, p_a, t), r_s) for t in thetas])
        # unimodal with the unique minimum at 1/(N-1) within grid resolution
        idx = int(np.argmin(values))
        assert abs(thetas[idx] - 1.0 / (params.n_antennas - 1)) <= thetas[1] + 1e-12
        assert np.all(np.diff(values[:idx + 1]) <= 1e-15)
        assert np.all(np.diff(values[idx:]) >= -1e-15)
        # with a single passive eavesdropper the SOP is log-convex, hence convex
        single = SystemParams(**{**params.__dict__, "k_passive": 1})
        single_values = np.array([
            cf.sop_passive(single, make_split(single, p_a, t), r_s) for t in thetas])
        assert np.all(np.diff(single_values, 2) >= -1e-8)
    _report(4, "passive SOP stationary at 1/(N-1), unique minimizer, "
               "single-eavesdropper convexity on 100 configs")


def _sop_passive_d2theta(params, p_a, r_s, theta):
    """Analytic d^2/dtheta^2 of the best-of-K passive SOP, 1-(1-G)^K."""
    n, k = params.n_antennas, params.k_passive
    b = float(cf.beta_ratio(params, p_a, r_s))
    u, v = 1.0 + b * theta, 1.0 + b * (1.0 - theta) / (n - 2)
    g = 1.0 / (u * v ** (n - 2))
    dlog = b / v - b / u
    d2log = (b / u) ** 2 + (b / v) ** 2 / (n - 2)
    g1, g2 = g * dlog, g * (d2log + dlog ** 2)
    return k * (1.0 - g) ** (k - 2) * ((1.0 - g) * g2 - (k - 1) * g1 ** 2)


def test_criterion_4_global_convexity_as_stated():
    """Convexity of the passive SOP in theta, in the form that is true.

    Stated as "convex on all of [0, 1] for every K" the claim is false for
    K >= 2; the name keeps that statement on record and the pinned scenario
    below asserts a counterexample. What holds, and is checked here:

    SOP = 1 - (1-G)^K with the single-eavesdropper outage
    G(theta) = (1+b*theta)^-1 (1+b(1-theta)/(N-2))^-(N-2). log G is a sum of
    -log(1 + affine) terms, hence convex: G G'' >= G'^2, and G is unimodal
    with its minimum at 1/(N-1). Differentiating twice,

        SOP'' = K (1-G)^(K-2) [(1-G) G'' - (K-1) G'^2]
              >= K (1-G)^(K-2) G'^2 (1 - K G) / G,

    which is >= 0 wherever G <= 1/K, i.e. wherever SOP <= L_K = 1-(1-1/K)^K
    (L_K >= 1-1/e). Since G is unimodal that sublevel set is an interval, so
    the SOP is convex on it; for K = 1 it is all of [0, 1].

    Counterexample: K = 5, N = 6, b = 1.107. At theta = 0.995 the SOP is
    0.96 > L_5 = 0.672 and SOP'' = -0.05196 (a 50-digit mpmath derivative
    agrees to all printed digits).
    """
    rng = np.random.default_rng(404)
    thetas = np.linspace(0.0, 1.0, 201)
    violations, checked = [], 0
    for _ in range(100):
        params = random_params(rng)
        p_a, _, r_s = random_point(rng, params)
        values = np.array([
            cf.sop_passive(params, make_split(params, p_a, t), r_s) for t in thetas])
        k = params.k_passive
        inside = values <= passive_convex_level(k)
        triples = inside[:-2] & inside[1:-1] & inside[2:]
        assert k > 1 or triples.all()
        checked += int(triples.sum())
        second = np.diff(values, 2)[triples]
        if second.size and second.min() < -1e-8:
            violations.append((k, float(values.max()), float(second.min())))
    assert not violations, (
        f"{len(violations)}/100 configs are not convex where SOP <= L_K "
        f"(K, peak SOP, worst second difference): {violations[:5]} ...")
    assert checked >= 0.5 * 100 * (len(thetas) - 2)  # the region is not vacuous

    # the unrestricted claim fails: a pinned K = 5, N = 6 scenario bends concave
    params = _mk(n_antennas=6, k_passive=5, var_ab=0.83, var_aea=0.65, var_aek=3.28,
                 var_eab=1.28, var_jb=1.04, var_jea=0.53, var_jek=0.872,
                 p_max=1218.0, p_ea=4.39, r_b=6.5, delta=0.17, epsilon=1.7e-3)
    p_a, r_s, theta, h = 961.0, 2.45, 0.995, 0.005
    sop = [float(cf.sop_passive(params, make_split(params, p_a, t), r_s))
           for t in (theta - h, theta, theta + h)]
    assert sop[1] > passive_convex_level(params.k_passive)
    exact = _sop_passive_d2theta(params, p_a, r_s, theta)
    assert exact == pytest.approx(-0.05196, abs=1e-5)
    assert (sop[0] - 2.0 * sop[1] + sop[2]) / h ** 2 == pytest.approx(exact, rel=1e-3)
    _report(4, "passive SOP convex where SOP <= 1-(1-1/K)^K on 100 configs "
               "(everywhere for K = 1); pinned K = 5 counterexample concave")


def _collect_feasible(rng, algorithm, count):
    out = []
    while len(out) < count:
        if algorithm == "multi":
            params = random_params(rng, m_active=int(rng.integers(2, 4)),
                                   n_lo=4, r_b_lo=2.0, r_b_hi=6.0)
        elif algorithm == "imperfect":
            params = random_params(rng, rho_ea=float(rng.uniform(0.05, 0.95)),
                                   r_b_lo=2.0, r_b_hi=6.0)
        else:
            params = random_params(rng, r_b_lo=2.0, r_b_hi=6.0)
        result = opt.maximize_for(params, algorithm=algorithm, step=STEP,
                                  pa_mode="noise_limited")
        if result.feasible:
            out.append((params, result))
    return out


@pytest.fixture(scope="module")
def feasible_results():
    rng = np.random.default_rng(505)
    return {algorithm: _collect_feasible(rng, algorithm, 100)
            for algorithm in ("perfect", "imperfect", "multi")}


def test_criterion_5_optimizers_match_oracle(feasible_results):
    started = time.time()
    for algorithm, pairs in feasible_results.items():
        for params, result in pairs:
            oracle = opt.grid_search_oracle(params, 1000, 1000, algorithm=algorithm,
                                            pa_mode="noise_limited")
            assert oracle.feasible
            assert abs(result.r_s_star - oracle.r_s_star) <= STEP + 1e-12, (
                algorithm, params, result.r_s_star, oracle.r_s_star)
    elapsed = time.time() - started
    assert elapsed < 300.0
    _report(5, f"sweeps match the 1000x1000 oracle within one step on "
               f"3x100 feasible configs ({elapsed:.0f}s)")


def test_criterion_6_feasibility_certificates(feasible_results):
    sop_pairs = {
        "perfect": (cf.sop_active, cf.sop_passive),
        "imperfect": (cf.sop_active_imperfect, cf.sop_passive),
        "multi": (cf.sop_active_multi, cf.sop_passive_multi),
    }
    for algorithm, pairs in feasible_results.items():
        active_fn, passive_fn = sop_pairs[algorithm]
        for params, result in pairs:
            split = make_split(params, result.p_a_star, result.theta_star)
            assert cf.transmission_outage_for_mode(
                params, result.p_a_star, "noise_limited") <= params.delta + 1e-9
            assert float(active_fn(params, split, result.r_s_star)) <= params.epsilon + 1e-9
            assert float(passive_fn(params, split, result.r_s_star)) <= params.epsilon + 1e-9
            assert not opt.feasible_any_theta(params, result.p_a_star,
                                              result.r_s_star + STEP, algorithm)
    _report(6, "feasibility certificates and step-optimality on 300 results")


def test_criterion_7_sweep_claims():
    # AN-ratio plateau at 1/(N-1) when the passive constraint dominates
    ratio_scn = PINNED["an_ratio_passive_gain"][0]
    for var_jek_db in (-5.0, 0.0):
        for rho in (0.6, 0.8, 1.0):
            params = SystemParams(**{**ratio_scn.__dict__, "var_jek": dB(var_jek_db),
                                     "rho_ea": rho})
            result = opt.maximize_secrecy_rate_imperfect(params, step=STEP,
                                                         pa_mode="noise_limited")
            assert result.feasible
            assert result.theta_star == pytest.approx(0.25, abs=1e-12)

    # rate grows with the jammer->Bob estimation quality
    leak_scn = PINNED["bob_estimate"][0]
    rates = []
    for rho_b in (0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99):
        params = SystemParams(**{**leak_scn.__dict__, "rho_b": rho_b})
        result = opt.maximize_secrecy_rate(params, step=STEP, pa_mode="an_leakage")
        assert result.feasible
        rates.append(result.r_s_star)
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    # rate curve over the antenna count rises then flattens
    ant_scn = PINNED["antennas"][0]
    by_n = []
    for n in range(4, 17):
        params = SystemParams(**{**ant_scn.__dict__, "n_antennas": n})
        result = opt.maximize_secrecy_rate(params, step=STEP, pa_mode="noise_limited")
        assert result.feasible
        by_n.append(result.r_s_star)
    diffs = np.diff(by_n)
    assert np.all(diffs >= -1e-12)
    assert np.all(diffs[-4:] <= STEP + 1e-12)

    # the active-constraint floor vanishes as the jammer->active gain grows
    rng = np.random.default_rng(707)
    params = random_params(rng)
    p_a, _, r_s = random_point(rng, params)
    floors = [opt.theta_floor_active(
        SystemParams(**{**params.__dict__, "var_jea": params.var_jea * 10.0 ** k}),
        p_a, r_s) for k in range(7)]
    assert all(b < a for a, b in zip(floors, floors[1:]))
    assert floors[-1] < 1e-5

    # higher transmission rate costs secrecy rate once the budget binds
    binding = SystemParams(**{**ant_scn.__dict__, "p_max": dB(28.0)})
    r8 = opt.maximize_secrecy_rate(
        SystemParams(**{**binding.__dict__, "r_b": 8.0}), step=STEP,
        pa_mode="noise_limited")
    r9 = opt.maximize_secrecy_rate(
        SystemParams(**{**binding.__dict__, "r_b": 9.0}), step=STEP,
        pa_mode="noise_limited")
    assert r8.feasible and r9.feasible
    assert r8.r_s_star >= r9.r_s_star

    # the headline claim: an imperfect jammer->Bob estimate (rho_b) costs more
    # secrecy rate than an equally imperfect jammer->active-eavesdropper one
    # (rho_ea), on three shipped scenarios. Under auto the two sides resolve
    # to different pa-modes: an_leakage at rho_b < 1, noise_limited at rho_b = 1
    for name in ("sweep_bob_estimate", "sweep_active_gain_estimates", "sweep_antennas"):
        scn = cli.build_params(cli.load_config(str(CONFIGS / f"{name}.cfg")))
        for rho in (0.3, 0.5, 0.7, 0.9, 0.99):
            bob, active = (opt.maximize_for(
                validate(SystemParams(**{**scn.__dict__, "rho_b": rho_b, "rho_ea": rho_ea})),
                "imperfect", STEP, "auto") for rho_b, rho_ea in ((rho, 1.0), (1.0, rho)))
            assert (bob.trace["pa_mode"], active.trace["pa_mode"]) == ("an_leakage",
                                                                       "noise_limited")
            assert active.feasible, (name, rho)
            assert not bob.feasible or bob.r_s_star < active.r_s_star, (name, rho)
    _report(7, "qualitative sweep claims reproduced; an imperfect jammer->Bob estimate "
               "costs more secrecy rate than a jammer->active-eavesdropper one")


def test_criterion_8_beamformer_invariants_and_distributions():
    # batched, on the construction that verify samples, at M = 1 and M = 2:
    # the invariants on 10k draws, with the passive bases of one stacked SVD;
    # the beam-gain law Gamma(N-1) and the null-space leakage law
    # Gamma(N-M-1) on 1e5 draws, the leakage formed as verify forms it (the
    # channel power less its parts along g_b and in the beam span), which
    # the passive bases must reproduce
    rng = np.random.default_rng(808)

    def cn(*shape, s2=1.0):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
            * np.sqrt(s2 / 2.0)

    def abs2(x):
        return np.real(x) ** 2 + np.imag(x) ** 2

    def gamma_cdf(k, scale):
        # integer shape k: 1 - exp(-y) sum_{i<k} y^i / i!, y = x / scale
        return lambda x: 1.0 - np.exp(-x / scale) * sum(
            (x / scale) ** i / math.factorial(i) for i in range(k))

    n, s2, trials, checked = 6, 2.0, 100_000, 10_000
    for m in (1, 2):
        g_b, g_ea, g_ek = cn(trials, n), cn(trials, n, m, s2=s2), cn(trials, n, s2=s2)
        q_b, beams, ortho = zero_forcing_beams(g_b, g_ea)
        g, w, q = g_b[:checked], beams[:checked], q_b[:checked]
        passive = passive_null_basis(g, w)
        scale = np.linalg.norm(g, axis=1)[:, None]
        assert np.max(np.abs(np.einsum("tnm,tn->tm", w.conj(), g)) / scale) <= 1e-10
        assert np.max(np.abs(np.einsum("tnk,tn->tk", passive.conj(), g)) / scale) <= 1e-10
        assert np.max(np.abs(np.linalg.norm(w, axis=1) - 1.0)) <= 1e-10
        assert np.max(np.abs(np.einsum("tnm,tnk->tmk", w.conj(), passive))) <= 1e-10
        gram = np.einsum("tnk,tnl->tkl", passive.conj(), passive)
        assert np.max(np.abs(gram - np.eye(n - m - 1))) <= 1e-10
        p_mat = np.eye(n) - np.einsum("tn,tk->tnk", q, q.conj())
        assert np.max(np.abs(p_mat @ p_mat - p_mat)) <= 1e-12

        power = np.sum(abs2(g_ek), axis=1)
        leaks = (power - abs2(np.einsum("tn,tn->t", q_b.conj(), g_ek))
                 - np.sum(abs2(np.einsum("tnm,tn->tm", ortho.conj(), g_ek)), axis=1))
        in_basis = np.sum(abs2(np.einsum("tnk,tn->tk", passive.conj(), g_ek[:checked])), axis=1)
        assert np.max(np.abs(in_basis - leaks[:checked]) / power[:checked]) <= 1e-10
        gains = abs2(np.einsum("tnm,tnm->tm", g_ea.conj(), beams)).ravel()
        ks_gain = mc.ks_statistic(gains, gamma_cdf(n - 1, s2))
        assert ks_gain <= 0.01, (m, ks_gain)
        ks_leak = mc.ks_statistic(leaks, gamma_cdf(n - m - 1, s2))
        assert ks_leak <= 0.01, (m, ks_leak)
    _report(8, "beamformer invariants on 10k draws at M = 1 and 2; beam gain and "
               "null-space leakage laws confirmed")


def test_criterion_9_verification_report_determinism(tmp_path, capsys):
    params = PINNED["active_gain_bob_estimate"][0]
    lines = ["n_antennas=6", "k_passive=5", "m_active=1",
             f"var_ab={params.var_ab!r}", f"var_aea={params.var_aea!r}",
             f"var_aek={params.var_aek!r}", f"var_eab={params.var_eab!r}",
             f"var_jb={params.var_jb!r}", f"var_jea={params.var_jea!r}",
             f"var_jek={params.var_jek!r}", f"p_max={params.p_max!r}",
             f"p_ea={params.p_ea!r}", "r_b=8", "delta=0.2", "epsilon=0.01",
             "rho_b=0.9", "theta=0.3", "r_s=5.5"]
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outputs = []
    for run in range(2):
        out_path = tmp_path / f"report{run}.csv"
        code = cli.main(["verify", "--config", str(cfg_path), "--trials", "20000",
                         "--seed", "42", "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    other = tmp_path / "report_other.csv"
    code = cli.main(["verify", "--config", str(cfg_path), "--trials", "20000",
                     "--seed", "43", "--out", str(other)])
    capsys.readouterr()
    assert code == 0
    assert other.read_bytes() != outputs[0]
    _report(9, "verification report byte-identical under a fixed seed")
