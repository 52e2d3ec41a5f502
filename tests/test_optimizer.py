import math
from dataclasses import replace

import numpy as np
import pytest

import secrate.closedform as cf
import secrate.optimizer as opt
from secrate.errors import AlphaZero, RangeError
from secrate.model import SystemParams, make_split, validate

from conftest import (MIN_PA_UNDERFLOW, clipped_reference, full_intersection,
                      log_sf_minimizer, random_params, random_point)

KINDS = ("active", "active_imperfect", "active_multi", "passive", "passive_multi")


def test_theta_floor_inverse_and_anchor():
    rng = np.random.default_rng(7)
    for _ in range(100):
        params = random_params(rng)
        p_a, _, r_s = random_point(rng, params)
        alpha = cf.alpha_ratio(params, p_a, r_s)
        # epsilon chosen so the floor sits exactly at 1
        pinned = SystemParams(**{**params.__dict__,
                                 "epsilon": float((1.0 + alpha) ** (1 - params.n_antennas))})
        assert opt.theta_floor_active(pinned, p_a, r_s) == pytest.approx(1.0, rel=1e-9)
        floor = opt.theta_floor_active(params, p_a, r_s)
        if floor <= 1.0:
            split = make_split(params, p_a, floor)
            assert cf.sop_active(params, split, r_s) == pytest.approx(
                params.epsilon, abs=1e-9)


def test_theta_floor_vanishes_with_antennas():
    # the floor decays like -ln(epsilon)/(alpha (N-1)) for large arrays
    rng = np.random.default_rng(11)
    params = random_params(rng)
    p_a, _, r_s = random_point(rng, params)
    floors = []
    for n in (4, 16, 64, 256, 1024):
        scenario = SystemParams(**{**params.__dict__, "n_antennas": n})
        floors.append(opt.theta_floor_active(scenario, p_a, r_s))
    assert all(b < a for a, b in zip(floors, floors[1:]))
    assert floors[-1] < 5e-3 * floors[0]


def test_theta_floor_alpha_zero():
    rng = np.random.default_rng(13)
    params = random_params(rng)
    with pytest.raises(AlphaZero):
        opt.theta_floor_active(params, params.p_max, 0.5)
    with pytest.raises(AlphaZero):
        opt.theta_floor_active(params, 0.5 * params.p_max, params.r_b)


def test_theta_floor_shrinks_with_jammer_gain():
    # six decades of jammer->active channel quality drive the floor to zero
    rng = np.random.default_rng(17)
    params = random_params(rng)
    p_a, _, r_s = random_point(rng, params)
    floors = []
    for scale in 10.0 ** np.arange(0, 7):
        scenario = SystemParams(**{**params.__dict__, "var_jea": params.var_jea * scale})
        floors.append(opt.theta_floor_active(scenario, p_a, r_s))
    assert all(b < a for a, b in zip(floors, floors[1:]))
    assert floors[-1] < 1e-5


def _interval_round_trip(params, p_a, r_s, interval, fn):
    if interval.empty:
        return
    for endpoint, boundary in ((interval.lo, 0.0), (interval.hi, 1.0)):
        if endpoint != boundary:
            value = fn(params, make_split(params, p_a, endpoint), r_s)
            assert value == pytest.approx(params.epsilon, abs=1e-9)


def test_theta_interval_passive_cases():
    rng = np.random.default_rng(19)
    vacuous_seen = empty_seen = interior_seen = False
    for _ in range(300):
        params = random_params(rng)
        p_a, _, r_s = random_point(rng, params)
        interval = opt.theta_interval_passive(params, p_a, r_s)
        n = params.n_antennas
        at_min = cf.sop_passive(params, make_split(params, p_a, 1.0 / (n - 1)), r_s)
        if at_min > params.epsilon:
            assert interval.empty
            empty_seen = True
            continue
        _interval_round_trip(params, p_a, r_s, interval, cf.sop_passive)
        if interval.lo == 0.0 and interval.hi == 1.0:
            vacuous_seen = True
        if interval.lo > 0.0 and interval.hi < 1.0:
            interior_seen = True
    assert vacuous_seen and empty_seen and interior_seen


def test_theta_interval_passive_near_vacuous_epsilon():
    rng = np.random.default_rng(23)
    params = SystemParams(**{**random_params(rng).__dict__, "epsilon": 1.0 - 1e-9})
    p_a, _, _ = random_point(rng, params)
    interval = opt.theta_interval_passive(params, p_a, 0.9 * params.r_b)
    worst = max(cf.sop_passive(params, make_split(params, p_a, t), 0.9 * params.r_b)
                for t in (0.0, 1.0))
    if worst <= params.epsilon:
        assert (interval.lo, interval.hi) == (0.0, 1.0)


def test_theta_interval_active_imperfect_reduces_at_perfect_rho():
    rng = np.random.default_rng(29)
    for _ in range(100):
        params = random_params(rng)  # rho_ea = 1
        p_a, _, r_s = random_point(rng, params)
        interval = opt.theta_interval_active_imperfect(params, p_a, r_s)
        floor = opt.theta_floor_active(params, p_a, r_s)
        if floor > 1.0:
            assert interval.empty
        else:
            assert interval.lo == pytest.approx(max(0.0, floor), abs=1e-12)
            assert interval.hi == 1.0


def test_theta_interval_active_imperfect_round_trip():
    rng = np.random.default_rng(31)
    nonempty = 0
    for _ in range(200):
        rho = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.05, 0.95))
        params = random_params(rng, rho_ea=rho)
        p_a, _, r_s = random_point(rng, params)
        interval = opt.theta_interval_active_imperfect(params, p_a, r_s)
        if not interval.empty:
            nonempty += 1
            _interval_round_trip(params, p_a, r_s, interval, cf.sop_active_imperfect)
    assert nonempty > 20


def test_theta_interval_multi_round_trips():
    rng = np.random.default_rng(37)
    nonempty = 0
    for _ in range(100):
        params = random_params(rng, m_active=2, n_lo=4)
        p_a, _, r_s = random_point(rng, params)
        active = opt.theta_interval_active_multi(params, p_a, r_s)
        passive = opt.theta_interval_passive_multi(params, p_a, r_s)
        _interval_round_trip(params, p_a, r_s, active, cf.sop_active_multi)
        _interval_round_trip(params, p_a, r_s, passive, cf.sop_passive_multi)
        if not active.empty and not passive.empty:
            nonempty += 1
    assert nonempty > 10


def test_multi_floor_at_one_beam_is_the_single_floor():
    # one closed-form floor serves both perfect-estimate active kinds
    rng = np.random.default_rng(43)
    seen = {"empty": 0, "interior": 0}
    for _ in range(200):
        params = random_params(rng)  # m_active = 1
        p_a, _, r_s = random_point(rng, params)
        single = opt.theta_interval("active", params, p_a, r_s)
        assert repr(opt.theta_interval("active_multi", params, p_a, r_s)) == repr(single)
        seen["empty" if single.empty else "interior"] += 1
    assert min(seen.values()) > 20, seen


@pytest.mark.parametrize("p_a", [0.0, -1.0, math.nan, math.inf, 2e4])  # p_max is 1e4
def test_alice_power_outside_0_p_max_is_rejected(baseline_params, p_a):
    params = baseline_params
    r_s = 0.5 * params.r_b
    rates, thetas = np.array([0.0, r_s]), np.array([0.0, 0.5, 1.0])
    calls = [lambda: cf.alpha_ratio(params, p_a, r_s), lambda: cf.beta_ratio(params, p_a, r_s),
             lambda: cf.derived_ratios(params, p_a, r_s)]
    for kind in KINDS:
        calls += [lambda k=kind: opt.theta_interval(k, params, p_a, r_s),
                  lambda k=kind: cf.sop_theta_curve(k, params, p_a, r_s),
                  lambda k=kind: cf.log_sf_theta_curve(k, params, p_a, r_s, params.epsilon),
                  lambda k=kind: cf.sop_grid(params, p_a, rates, thetas, k)]
    calls += [lambda a=a: opt.feasible_any_theta(params, p_a, r_s, a) for a in opt.ALGORITHMS]
    for call in calls:
        with pytest.raises(RangeError, match="p_a"):
            call()


def test_alice_power_at_p_max_leaves_no_an_margin(baseline_params):
    params = baseline_params
    p_a, r_s = params.p_max, 0.5 * params.r_b
    assert cf.alpha_ratio(params, p_a, r_s) == cf.beta_ratio(params, p_a, r_s) == 0.0
    with pytest.raises(AlphaZero):
        opt.theta_floor_active(params, p_a, r_s)
    for kind in KINDS:
        assert opt.theta_interval(kind, params, p_a, r_s).empty, kind
    assert not opt.feasible_any_theta(params, p_a, r_s, "perfect")


def test_maximize_vacuous_constraints_hits_rate_ceiling():
    rng = np.random.default_rng(41)
    base = random_params(rng)
    params = validate(SystemParams(**{
        **base.__dict__, "delta": 1.0 - 1e-9, "epsilon": 1.0 - 1e-9, "r_b": 4.0}))
    result = opt.maximize_secrecy_rate(params, step=0.01, pa_mode="noise_limited")
    assert result.feasible
    assert result.r_s_star == pytest.approx(3.99, abs=1e-9)
    oracle = opt.grid_search_oracle(params, 400, 100, algorithm="perfect",
                                    pa_mode="noise_limited")
    assert oracle.r_s_star == pytest.approx(3.99, abs=1e-12)


def test_maximize_infeasible_power():
    rng = np.random.default_rng(43)
    base = random_params(rng)
    params = SystemParams(**{**base.__dict__, "delta": 1e-9, "p_max": 10.0,
                             "r_b": 12.0})
    result = opt.maximize_secrecy_rate(params, pa_mode="noise_limited")
    assert not result.feasible
    assert result.infeasibility_reason == "PA_EXCEEDS_PMAX"
    assert result.p_a_star > params.p_max


def test_maximize_no_theta_at_zero_rate():
    # weak jammer->active link and a strict target: even r_s = 0 fails
    params = validate(SystemParams(
        n_antennas=4, k_passive=1, m_active=1,
        var_ab=10.0, var_aea=10.0, var_aek=10.0, var_eab=1.0,
        var_jb=1.0, var_jea=1e-7, var_jek=1e-7,
        p_max=200.0, p_ea=1.0, r_b=6.0, delta=0.2, epsilon=1e-3,
    ))
    result = opt.maximize_secrecy_rate(params, pa_mode="noise_limited")
    assert not result.feasible
    assert result.infeasibility_reason == "NO_THETA_AT_RS0"


def test_maximize_fig_scenario_against_oracle(baseline_params):
    result = opt.maximize_secrecy_rate(baseline_params, step=0.01,
                                       pa_mode="noise_limited")
    oracle = opt.grid_search_oracle(baseline_params, 1000, 1000,
                                    algorithm="perfect", pa_mode="noise_limited")
    assert result.feasible and oracle.feasible
    assert abs(result.r_s_star - oracle.r_s_star) <= 0.01 + 1e-12


def test_rate_ceiling_monotone_in_transmission_rate(baseline_params):
    # A larger transmission rate diverts power from the AN; the secrecy rate
    # can only drop once the budget actually binds (Alice's share is sizable).
    from secrate.model import db_to_linear
    binding = SystemParams(**{**baseline_params.__dict__, "p_max": db_to_linear(28.0)})
    results = []
    for r_b in (8.0, 9.0):
        params = SystemParams(**{**binding.__dict__, "r_b": r_b})
        results.append(opt.maximize_secrecy_rate(params, pa_mode="noise_limited"))
    assert results[0].feasible and results[1].feasible
    assert results[0].p_a_star / binding.p_max > 0.3  # budget genuinely binding
    assert results[0].r_s_star >= results[1].r_s_star


def test_imperfect_reduces_to_perfect_at_rho_one(baseline_params):
    params = SystemParams(**{**baseline_params.__dict__, "k_passive": 3})
    a = opt.maximize_secrecy_rate(params, step=0.01, pa_mode="noise_limited")
    b = opt.maximize_secrecy_rate_imperfect(params, step=0.01, pa_mode="noise_limited")
    assert (a.feasible, a.r_s_star, a.theta_star, a.p_a_star) == \
           (b.feasible, b.r_s_star, b.theta_star, b.p_a_star)


def test_multi_with_single_eavesdropper_matches_perfect(baseline_params):
    a = opt.maximize_secrecy_rate(baseline_params, step=0.01, pa_mode="noise_limited")
    b = opt.maximize_secrecy_rate_multi(baseline_params, step=0.01,
                                        pa_mode="noise_limited")
    assert abs(a.r_s_star - b.r_s_star) <= 0.01 + 1e-12


def test_rate_nonincreasing_in_active_eavesdropper_count(baseline_params):
    # extra active eavesdroppers split the beam power and add intercept
    # chances; they can only cost secrecy rate
    rates = []
    for m in (1, 2, 3):
        params = SystemParams(**{**baseline_params.__dict__, "m_active": m,
                                 "k_passive": 2})
        result = opt.maximize_secrecy_rate_multi(params, pa_mode="noise_limited")
        assert result.feasible
        rates.append(result.r_s_star)
    assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))


def test_rate_nondecreasing_in_estimate_quality():
    # a sharper jammer->active estimate can only help the achievable rate
    from secrate.model import db_to_linear
    base = validate(SystemParams(
        n_antennas=5, k_passive=3, m_active=1,
        var_ab=db_to_linear(15.0), var_aea=db_to_linear(5.0),
        var_aek=db_to_linear(5.0), var_eab=db_to_linear(3.0),
        var_jb=db_to_linear(2.0), var_jea=db_to_linear(3.0),
        var_jek=db_to_linear(5.0), p_max=db_to_linear(35.0),
        p_ea=db_to_linear(10.0), r_b=8.0, delta=0.1, epsilon=1e-2))
    for var_jek_db in (6.0, 12.0, 18.0):
        rates = []
        for rho in (0.6, 0.8, 1.0):
            params = SystemParams(**{**base.__dict__,
                                     "var_jek": db_to_linear(var_jek_db),
                                     "rho_ea": rho})
            result = opt.maximize_secrecy_rate_imperfect(params,
                                                         pa_mode="noise_limited")
            assert result.feasible
            rates.append(result.r_s_star)
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


def test_theta_interval_active_imperfect_vacuous_case():
    # a strongly jammed active eavesdropper makes the whole ratio range valid
    params = validate(SystemParams(
        n_antennas=5, k_passive=2, m_active=1,
        var_ab=10.0, var_aea=1.0, var_aek=1.0, var_eab=1.0,
        var_jb=1.0, var_jea=1e5, var_jek=1.0,
        p_max=1000.0, p_ea=10.0, r_b=6.0, delta=0.1, epsilon=1e-2, rho_ea=0.6,
    ))
    interval = opt.theta_interval_active_imperfect(params, 100.0, 2.0)
    assert (interval.lo, interval.hi) == (0.0, 1.0)


def test_feasibility_certificates(baseline_params):
    rng = np.random.default_rng(47)
    checked = 0
    for _ in range(40):
        params = random_params(rng)
        result = opt.maximize_secrecy_rate(params, pa_mode="noise_limited")
        if not result.feasible:
            continue
        checked += 1
        split = make_split(params, result.p_a_star, result.theta_star)
        assert cf.transmission_outage_noise_limited(
            params, result.p_a_star) <= params.delta + 1e-9
        assert cf.sop_active(params, split, result.r_s_star) <= params.epsilon + 1e-9
        assert cf.sop_passive(params, split, result.r_s_star) <= params.epsilon + 1e-9
        assert not opt.feasible_any_theta(
            params, result.p_a_star, result.r_s_star + 0.01, "perfect")
    assert checked >= 10


def test_theta_star_at_passive_minimum_when_active_slack():
    # strong jammer->active channel: the active constraint is loose everywhere
    params = validate(SystemParams(
        n_antennas=5, k_passive=4, m_active=1,
        var_ab=31.6, var_aea=2.0, var_aek=3.16, var_eab=2.0,
        var_jb=1.58, var_jea=1e4, var_jek=3.16,
        p_max=3162.0, p_ea=10.0, r_b=8.0, delta=0.1, epsilon=1e-2,
    ))
    result = opt.maximize_secrecy_rate(params, pa_mode="noise_limited")
    assert result.feasible
    assert result.theta_star == pytest.approx(0.25, abs=1e-9)
    oracle = opt.grid_search_oracle(params, 800, 801, algorithm="perfect",
                                    pa_mode="noise_limited")
    assert abs(result.r_s_star - oracle.r_s_star) <= 0.01 + 1e-12


def test_active_minimizer_is_one_at_a_subnormal_alpha():
    # the positive root tends to +inf as alpha -> 0; at a subnormal alpha the
    # quadratic's coefficients overflow, and -inf was returned, which
    # theta_interval passed on to log1p (an invalid-value warning)
    params = validate(SystemParams(
        n_antennas=6, k_passive=2, m_active=1,
        var_ab=1.0, var_aea=1.0, var_aek=1.0, var_eab=1.0,
        var_jb=1.0, var_jea=1.1e-311, var_jek=1.0,
        p_max=1.0, p_ea=1.0, r_b=1.0, delta=0.1, epsilon=0.1, rho_ea=0.5,
    ))
    assert cf.alpha_ratio(params, 0.5, 0.0) == 1.1e-311
    assert opt._active_minimizer(params, 1.1e-311) == 1.0
    assert opt.theta_interval("active_imperfect", params, 0.5, 0.0).empty


def test_theta_star_tracks_active_minimizer_when_passive_slack():
    # weak jammer->passive channel, imperfect active estimate: the admissible
    # window collapses around the active-SOP minimizer at the last rate
    params = validate(SystemParams(
        n_antennas=5, k_passive=4, m_active=1,
        var_ab=31.6, var_aea=2.0, var_aek=3.16, var_eab=2.0,
        var_jb=1.58, var_jea=2.0, var_jek=1e4,
        p_max=3162.0, p_ea=10.0, r_b=8.0, delta=0.1, epsilon=1e-2,
        rho_ea=0.6,
    ))
    result = opt.maximize_secrecy_rate_imperfect(params, step=0.0005,
                                                 pa_mode="noise_limited")
    assert result.feasible
    profile = cf.active_sop_theta_profile(params, result.p_a_star, result.r_s_star)
    kinds = cf.scenario_kinds(params, "imperfect")
    interval = full_intersection(params, result.p_a_star, result.r_s_star, kinds)
    lo, hi = interval.lo, interval.hi
    # the admissible window collapses onto the active-SOP minimizer as the
    # rate step shrinks, and always straddles it
    assert hi - lo < 0.08
    assert lo - 1e-9 <= profile.theta_pos <= hi + 1e-9
    assert abs(result.theta_star - profile.theta_pos) <= (hi - lo) + 1e-9
    oracle = opt.grid_search_oracle(params, 800, 801, algorithm="imperfect",
                                    pa_mode="noise_limited")
    assert abs(result.r_s_star - oracle.r_s_star) <= 0.0005 + 0.01 + 1e-12


@pytest.mark.parametrize("step", [float("nan"), float("inf"), 0.0, -1.0])
def test_maximize_rejects_bad_step(baseline_params, step):
    with pytest.raises(RangeError, match="step"):
        opt.maximize_for(baseline_params, step=step, pa_mode="noise_limited")


def _solve_bound(params, step):
    """Interval solves a bisection over the grid indices below r_b may spend."""
    return math.ceil(math.log2(params.r_b / step + 2)) + 1


def test_maximize_rejects_step_with_unbounded_grid(baseline_params):
    # r_b / step overflows: the grid has no last index to bisect from
    with pytest.raises(RangeError, match="step"):
        opt.maximize_for(baseline_params, step=5e-324, pa_mode="noise_limited")


@pytest.mark.parametrize("step, max_solves", [(1e-9, 40), (1e-300, 1001)])
def test_maximize_tiny_step_ends_in_log_time(baseline_params, step, max_solves):
    coarse = opt.maximize_for(baseline_params, step=1e-3, pa_mode="noise_limited")
    result = opt.maximize_for(baseline_params, step=step, pa_mode="noise_limited")
    assert result.feasible
    assert result.steps <= min(max_solves, _solve_bound(baseline_params, step))
    # a finer grid can only refine the coarse answer, by less than one coarse step
    assert coarse.r_s_star <= result.r_s_star < coarse.r_s_star + 1e-3
    assert result.r_s_star < baseline_params.r_b


@pytest.mark.parametrize("scale", [1.0, 1.5, 1e6])
def test_maximize_step_past_r_b_solves_only_zero_rate(baseline_params, scale):
    result = opt.maximize_for(baseline_params, step=scale * baseline_params.r_b,
                              pa_mode="noise_limited")
    assert result.feasible and result.r_s_star == 0.0
    assert result.steps == 1


# ---------------------------------------------------------------------------
# The bisection against the linear walk it replaces
# ---------------------------------------------------------------------------

def _linear_walk(params, algorithm, step, pa_mode):
    """The paper's rate search: step r_s = 0, step, 2 step, ... upward until no
    theta meets both targets, then build the result from the last feasible
    rate. ``steps`` counts the rates solved."""
    mode = cf.resolve_pa_mode(params, pa_mode)
    p_req = cf.min_pa(params, mode)
    if p_req > params.p_max:
        return opt.OptResult(feasible=False, r_s_star=0.0, theta_star=math.nan,
                             p_a_star=p_req, steps=0, infeasibility_reason="PA_EXCEEDS_PMAX",
                             trace={"pa_mode": mode, "algorithm": algorithm})
    kinds = cf.scenario_kinds(params, algorithm)
    best = None
    steps = i = 0
    while i * step < params.r_b - 1e-12:
        steps += 1
        interval = full_intersection(params, p_req, i * step, kinds)
        if interval.empty:
            break
        best = (i * step, interval)
        i += 1
    trace = {"pa_mode": mode, "algorithm": algorithm}
    if best is None:
        return opt.OptResult(feasible=False, r_s_star=0.0, theta_star=math.nan,
                             p_a_star=p_req, steps=steps,
                             infeasibility_reason="NO_THETA_AT_RS0", trace=trace)
    r_star, interval = best
    reference = opt._theta_reference(params, kinds[1])
    trace["theta_reference"] = reference
    return opt.OptResult(feasible=True, r_s_star=r_star, theta_star=interval.clip(reference),
                         p_a_star=p_req, steps=steps, trace=trace)


def _criterion_5_scenario(rng, algorithm):
    """The acceptance suite's criterion-5 generator, infeasible draws kept."""
    if algorithm == "multi":
        return random_params(rng, m_active=int(rng.integers(2, 4)), n_lo=4,
                             r_b_lo=2.0, r_b_hi=6.0)
    if algorithm == "imperfect":
        return random_params(rng, rho_ea=float(rng.uniform(0.05, 0.95)),
                             r_b_lo=2.0, r_b_hi=6.0)
    return random_params(rng, r_b_lo=2.0, r_b_hi=6.0)


def test_probe_is_the_clip_of_the_full_intersection():
    # the probe solves only the crossings the clip of the reference into the
    # intersection reads, and returns the same float, or None exactly where
    # the intersection is empty: at the rates the search probes (around its
    # answer) and across the grid
    rng = np.random.default_rng(1613)
    seen = {"empty": 0, "interior": 0}
    for index in range(90):
        algorithm = opt.ALGORITHMS[index % 3]
        params = _criterion_5_scenario(rng, algorithm)
        p_a = min(cf.min_pa(params, "noise_limited"), params.p_max)
        kinds = cf.scenario_kinds(params, algorithm)
        result = opt.maximize_for(params, algorithm=algorithm, pa_mode="noise_limited")
        rates = [share * params.r_b for share in (0.0, 0.3, 0.6, 0.9)]
        rates += [r for r in (result.r_s_star, result.r_s_star + 0.01) if r < params.r_b]
        for r_s in rates:
            args = (params, p_a, r_s, kinds)
            want = full_intersection(*args)
            got = opt._Search(params, p_a, kinds).theta(r_s)
            assert repr(got) == repr(clipped_reference(*args)), args
            seen["empty" if want.empty else "interior"] += (
                want.empty or 0.0 < want.lo or want.hi < 1.0)
    assert min(seen.values()) > 30, seen


def _near_tie_cases(baseline):
    """(params, p_a, r_s, kinds, the two ends that tie) where an end of one
    interval lies within about 1e-13 of the other's crossing: the active
    floor at the passive lower crossing, and the imperfect-estimate active
    upper crossing at the passive upper one."""
    baseline = replace(baseline, k_passive=16)
    p_a, r_s = 2000.0, 6.5
    passive = opt.theta_interval("passive", baseline, p_a, r_s)
    assert 0.0 < passive.lo and passive.hi < 1.0
    floor = opt.theta_floor_active(baseline, p_a, r_s)
    for offset in (-2e-13, -1e-13, -5e-14, 0.0, 5e-14, 1e-13, 2e-13):
        # the floor scales as 1 / var_jea; the passive interval ignores var_jea
        params = replace(baseline, var_jea=baseline.var_jea * floor / (passive.lo + offset))
        yield params, p_a, r_s, ("active", "passive"), (
            opt.theta_floor_active(params, p_a, r_s), passive.lo)
    # the imperfect upper crossing rises with var_jea: bisect var_jea's
    # scale for each offset of it from the passive upper crossing
    imperfect = replace(baseline, rho_ea=0.3)
    kinds = ("active_imperfect", "passive")

    def upper(scale):
        return opt.theta_interval(kinds[0], replace(imperfect, var_jea=imperfect.var_jea * scale),
                                  p_a, r_s).hi

    for offset in (-1e-13, 0.0, 1e-13):
        lo, hi = 0.1, 1.0  # empty at 0.1; the crossing above the passive one at 1
        assert upper(hi) > passive.hi + offset
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            lo, hi = (lo, mid) if upper(mid) > passive.hi + offset else (mid, hi)
        params = replace(imperfect, var_jea=imperfect.var_jea * hi)
        yield params, p_a, r_s, kinds, (upper(hi), passive.hi)


def test_probe_keeps_the_floats_at_near_ties(baseline_params):
    # an end of one interval within about 1e-13 of the other's crossing: the
    # probe returns the float of the reference clipped into the intersection
    # solved in full. Each tie lies on an end that this clip does not read
    # (the reference 0.2 lies inside both intervals), so the probe solves no
    # crossing here
    cases = list(_near_tie_cases(baseline_params))
    assert len(cases) == 10
    for params, p_a, r_s, kinds, (end, crossing) in cases:
        assert abs(end - crossing) <= 3e-13, (kinds, end, crossing)
        want = full_intersection(params, p_a, r_s, kinds)
        assert not want.empty
        got = opt._Search(params, p_a, kinds).theta(r_s)
        assert repr(got) == repr(clipped_reference(params, p_a, r_s, kinds))


def test_band_margin_bounds_the_rounding_of_the_gap(baseline_params):
    # the band certifies a side of the level only beyond the margin, so the
    # margin must be at least twice what one evaluation errs by: checked
    # against mpmath for the passive kernels and the imperfect-estimate one,
    # whose terms cancel, at s up to the float range's end and rho_ea at and
    # near 0 and 1; the level is the log-survival itself, as at a crossing
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 160
    rng = np.random.default_rng(1621)
    worst = 0.0
    for index in range(3000):
        kind = ("passive", "passive_multi", "active_imperfect")[index % 3]
        n = int(rng.integers(4, 301))
        m = int(rng.integers(2, min(n - 2, 8) + 1)) if kind == "passive_multi" else 1
        rho_ea = float(rng.choice([0.0, rng.uniform(), 10.0 ** rng.uniform(-300, -1),
                                   1.0 - 10.0 ** rng.uniform(-16, -1)]))
        params = replace(baseline_params, n_antennas=n, m_active=m, rho_ea=rho_ea)
        s = float(rng.choice([10.0 ** rng.uniform(-20, 300), 10.0 ** rng.uniform(300, 308.2),
                              10.0 ** rng.uniform(3, 12)]))
        # theta near 1 with rho_ea near 0 is where the imperfect kernel cancels most
        theta = float(rng.choice([rng.uniform(), 10.0 ** rng.uniform(-300, 0),
                                  1.0 - 10.0 ** rng.uniform(-16, -3)]))
        got = float(cf.log_sf_at(kind, params, theta, s))
        # the exact value of the kernel's formula at its own float constants
        th, x, beams = mpmath.mpf(theta), mpmath.mpf(s), (m if kind == "passive_multi" else 1)
        if kind == "active_imperfect":
            rho_bar = mpmath.mpf(1.0 - rho_ea ** 2)
            exact = ((n - 2) * mpmath.log1p(th * rho_bar * x) - (n - 1) * mpmath.log1p(th * x)
                     - (n - 2) * mpmath.log1p((1 - th) * rho_bar * x / (n - 2)))
        else:
            exact = (-beams * mpmath.log1p(th / beams * x)
                     - (n - beams - 1) * mpmath.log1p((1 - th) * x / (n - beams - 1)))
        scale = 1.0 + abs(float(exact)) + cf.log_sf_cancellation(kind, params, s)
        error = float(abs(got - exact)) / (cf._MARGIN * scale)
        assert error <= 0.5, (kind, n, m, rho_ea, s, theta, got, exact)
        worst = max(worst, error)
    assert worst > 0.0


def _assert_matches_linear_walk(params, algorithm, step, pa_mode="noise_limited"):
    result = opt.maximize_for(params, algorithm=algorithm, step=step, pa_mode=pa_mode)
    walk = _linear_walk(params, algorithm, step, pa_mode)
    # repr compares floats bit for bit, NaN included, and the trace in order
    assert repr(replace(result, steps=0)) == repr(replace(walk, steps=0))
    assert result.steps <= _solve_bound(params, step)
    return result, walk


@pytest.mark.parametrize("step", [0.01, 0.003])
@pytest.mark.parametrize("algorithm", opt.ALGORITHMS)
def test_bisection_matches_linear_walk(algorithm, step):
    rng = np.random.default_rng({"perfect": 601, "imperfect": 602, "multi": 603}[algorithm])
    reasons = set()
    for _ in range(30):
        result, walk = _assert_matches_linear_walk(
            _criterion_5_scenario(rng, algorithm), algorithm, step)
        reasons.add(result.infeasibility_reason)
        if result.feasible:
            assert result.steps < walk.steps
    assert "NONE" in reasons


def test_bisection_matches_linear_walk_when_infeasible(baseline_params):
    no_theta = validate(SystemParams(
        n_antennas=4, k_passive=1, m_active=1,
        var_ab=10.0, var_aea=10.0, var_aek=10.0, var_eab=1.0,
        var_jb=1.0, var_jea=1e-7, var_jek=1e-7,
        p_max=200.0, p_ea=1.0, r_b=6.0, delta=0.2, epsilon=1e-3,
    ))
    over_budget = replace(baseline_params, delta=1e-9, p_max=10.0, r_b=12.0)
    for params, reason in ((no_theta, "NO_THETA_AT_RS0"), (over_budget, "PA_EXCEEDS_PMAX")):
        for algorithm in opt.ALGORITHMS:
            result, _ = _assert_matches_linear_walk(params, algorithm, 0.01)
            assert result.infeasibility_reason == reason


# scenarios whose answer on a step of 1.1 times their fine-grid answer is
# grid index 0, with 10 to 50 grid rates above it
_SMALL_ANSWER_SEEDS = {"perfect": 627, "imperfect": 689, "multi": 655}


@pytest.mark.parametrize("offset", [None, -7, -1, 1, 7, "far"])
@pytest.mark.parametrize("where", ["zero", "top"])
@pytest.mark.parametrize("algorithm", opt.ALGORITHMS)
def test_predicted_bracket_only_orders_the_probes(monkeypatch, algorithm, where, offset):
    # the result is the linear walk's, within the probe bound, whatever the
    # boundary prediction says: nothing (None), a bracket 1 or 7 grid indices
    # off either way, or one at the far end of the grid, with the answer at
    # index 0 or at the top index below r_b
    params = _criterion_5_scenario(np.random.default_rng(_SMALL_ANSWER_SEEDS[algorithm]),
                                   algorithm)
    if where == "top":  # near-vacuous targets: every rate below r_b is feasible
        params, step = replace(params, delta=1.0 - 1e-9, epsilon=1.0 - 1e-9, r_b=4.0), 0.01
    else:
        fine = opt.maximize_for(params, algorithm=algorithm, step=1e-3, pa_mode="noise_limited")
        step = 1.1 * fine.r_s_star
    answer = opt.maximize_for(params, algorithm=algorithm, step=step, pa_mode="noise_limited")
    index = round(answer.r_s_star / step)
    assert answer.feasible and index == (0 if where == "zero" else 399)
    assert answer.steps <= 2  # the prediction lands
    if offset == "far":
        offset = math.ceil(params.r_b / step) - 2 if where == "zero" else -index
    bracket = None if offset is None else (index + offset, index + offset + 1)
    monkeypatch.setattr(opt, "_predicted_bracket", lambda *args: bracket)
    _assert_matches_linear_walk(params, algorithm, step)


@pytest.mark.parametrize("algorithm", opt.ALGORITHMS)
def test_a_wide_wrong_bracket_keeps_the_probe_bound(monkeypatch, algorithm):
    # on a 254-rate grid, probing the bracket's ends (252 first, nearer the
    # middle, then 0) would leave a bisection of (0, 252) and one probe over
    # the bound; each probe is moved where the probes left can close it
    params = _criterion_5_scenario(np.random.default_rng(_SMALL_ANSWER_SEEDS[algorithm]),
                                   algorithm)
    monkeypatch.setattr(opt, "_predicted_bracket", lambda *args: (0, 252))
    result, _ = _assert_matches_linear_walk(params, algorithm, params.r_b / 253.5)
    assert 0.0 < result.r_s_star < 252 * params.r_b / 253.5


def test_no_theta_at_zero_rate_takes_one_probe():
    params = validate(SystemParams(
        n_antennas=4, k_passive=1, m_active=1,
        var_ab=10.0, var_aea=10.0, var_aek=10.0, var_eab=1.0,
        var_jb=1.0, var_jea=1e-7, var_jek=1e-7,
        p_max=200.0, p_ea=1.0, r_b=6.0, delta=0.2, epsilon=1e-3,
    ))
    for algorithm in opt.ALGORITHMS:
        result = opt.maximize_for(params, algorithm=algorithm, pa_mode="noise_limited")
        assert result.infeasibility_reason == "NO_THETA_AT_RS0" and result.steps == 1


@pytest.mark.parametrize("algorithm", opt.ALGORITHMS)
def test_the_prediction_lands_for_every_algorithm(algorithm):
    # every active kind runs the prediction's three cases (x_p at the
    # reference, x_a at theta_a, where the two meet); where it lands, a
    # feasible search probes the last feasible rate and the one past it, and
    # an infeasible one probes only rate 0
    rng = np.random.default_rng(2111 + opt.ALGORITHMS.index(algorithm))
    for _ in range(100):
        params = _criterion_5_scenario(rng, algorithm)
        for pa_mode in ("noise_limited", "auto"):
            result = opt.maximize_for(params, algorithm=algorithm, pa_mode=pa_mode)
            assert result.steps <= (2 if result.feasible else 1), (params, pa_mode, result)


def test_passive_threshold_at_the_reference_meets_the_level(baseline_params):
    # at theta = M/(N-1) both passive kernel terms read s/(N-1), so the
    # kernel meets the level L at the closed form s = (N-1) expm1(L/(1-N))
    # that the prediction takes: the float kernel there lies within the
    # rounding margin of L, for every M and K and epsilon over its range
    epsilons = (1e-300, 1e-100, 1e-12, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-16)
    for n in range(3, 65):
        for m in range(1, n - 1):
            kind = "passive_multi" if m > 1 else "passive"
            for k in (1, 2, 9, 64):
                for eps in epsilons:
                    params = replace(baseline_params, n_antennas=n, m_active=m, k_passive=k,
                                     epsilon=eps)
                    level = cf.log_sf_level(kind, params, eps)
                    s = opt._level_scale(level, n - 1, n - 1)
                    got = cf.log_sf_at(kind, params, opt._theta_reference(params, kind), s)
                    assert abs(got - level) <= cf.log_sf_margin(kind, params, s, level), (
                        n, m, k, eps, got, level)


# ---------------------------------------------------------------------------
# The one root core of the band and the boundary prediction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rising", [True, False])
def test_root_core_finds_a_bracketed_root(rising):
    # the sign change of a curved function, with its negative end on either
    # side, is found to the argument tolerance, inside the bracket it keeps
    root = math.log(3.0)
    sign = 1.0 if rising else -1.0
    calls = []

    def fn(x):
        calls.append(x)
        return sign * (math.expm1(x) - 2.0)

    neg, pos = (0.0, 3.0) if rising else (3.0, 0.0)
    x, fx, slope, lo, hi = opt._root(fn, neg, fn(neg), pos, fn(pos), neg, pos,
                                     0.0, opt._ROOT_TOL, opt._ROOT_STEPS)
    assert abs(x - root) <= opt._ROOT_TOL and fx == fn(x)
    assert slope * sign > 0.0 and abs(fx / slope) <= opt._ROOT_TOL
    assert min(lo, hi) < root < max(lo, hi) and fn(lo) < 0.0 < fn(hi)
    assert all(0.0 < c < 3.0 for c in calls[2:])
    assert len(calls) < 20


def test_root_core_steps_out_of_an_open_bracket():
    # phi of the prediction's log-scale roots is -inf where the log-survival
    # rounds to 0: from there the core steps 32 toward the open end until a
    # value is finite, then closes in on the root
    root = 40.0 + math.exp(0.5)
    calls = []

    def phi(u):
        calls.append(u)
        return math.log(u - 40.0) - 0.5 if u > 40.0 else -math.inf

    start = phi(0.0)
    x, _, _, neg, pos = opt._root(phi, -1.0, start - 1.0, 0.0, start, 0.0, math.inf,
                                  0.0, opt._ROOT_TOL, opt._ROOT_STEPS)
    assert calls[1:3] == [32.0, 64.0]
    assert abs(x - root) <= opt._ROOT_TOL
    assert neg < root < pos < math.inf


def test_band_ends_are_given_or_certified():
    # only a point whose gap is beyond the margin narrows the band: the point
    # that stops the secant within the margin never does, nor a probe there
    rng = np.random.default_rng(1709)
    checked = 0
    for _ in range(150):
        params = random_params(rng, m_active=2, n_lo=4, rho_ea=float(rng.uniform(0.05, 0.95)))
        p_a, _, r_s = random_point(rng, params)
        for kind in ("active_imperfect", "passive", "passive_multi"):
            minimizer = log_sf_minimizer(kind, params, p_a, r_s)
            s = cf.log_sf_scale(kind, params, p_a, r_s)
            curve = opt._Constraint(kind, params, p_a).curve(s, minimizer)
            if curve is None:
                continue
            gap, margin, inner, g_inner = curve
            for edge in (0.0, 1.0):
                g_edge = gap(edge)
                if edge == inner or g_edge <= 0.0:
                    continue
                outer, nearer = opt._secant_band(gap, (edge, g_edge), (inner, g_inner),
                                                 margin, inner)
                assert outer == edge or gap(outer) > margin, (kind, edge)
                assert nearer == inner or gap(nearer) < -margin, (kind, edge)
                checked += 1
    assert checked > 100


def test_a_spent_budget_leaves_the_prediction_and_the_band(monkeypatch, baseline_params):
    # no root: the prediction gives up (and the search still bisects to the
    # same answer), and the band keeps the ends it was given. The perfect
    # kinds' prediction at the baseline solves no root (its thresholds at the
    # reference are closed form), so the imperfect kind with the active
    # target binding stands in for it
    perfect = cf.scenario_kinds(baseline_params, "perfect")
    p_req = cf.min_pa(baseline_params, "noise_limited")
    log_x = opt._smallest_threshold(opt._Search(baseline_params, p_req, perfect))
    params = replace(baseline_params, rho_ea=0.5, var_jea=1.0)
    kinds = cf.scenario_kinds(params, "imperfect")
    p_imperfect = cf.min_pa(params, "noise_limited")
    assert math.isfinite(opt._smallest_threshold(opt._Search(params, p_imperfect, kinds)))
    want = opt.maximize_for(params, algorithm="imperfect", pa_mode="noise_limited")
    monkeypatch.setattr(opt, "_ROOT_STEPS", 0)
    assert opt._smallest_threshold(opt._Search(baseline_params, p_req, perfect)) == log_x
    with pytest.raises(opt._NoPrediction):
        opt._smallest_threshold(opt._Search(params, p_imperfect, kinds))
    got = opt.maximize_for(params, algorithm="imperfect", pa_mode="noise_limited")
    assert repr(replace(got, steps=0)) == repr(replace(want, steps=0)) and got.steps > 2

    # the upper passive crossing at 0.9 r_b, where the gap at theta = 1 is 0.27
    r_s = 0.9 * baseline_params.r_b
    minimizer = opt._theta_reference(baseline_params, "passive")
    curve = opt._Constraint("passive", baseline_params, p_req).curve(
        cf.log_sf_scale("passive", baseline_params, p_req, r_s), minimizer)
    gap, margin, inner, g_inner = curve
    outside, inside = (1.0, gap(1.0)), (inner, g_inner)
    assert outside[1] > margin and g_inner < -margin
    monkeypatch.setattr(opt, "_SECANT_STEPS", 0)
    assert opt._secant_band(gap, outside, inside, margin, inner) == (1.0, inner)
    # a budget that runs out before a gap lands within the margin leaves
    # only certified ends
    for steps in (1, 2):
        monkeypatch.setattr(opt, "_SECANT_STEPS", steps)
        b, a = opt._secant_band(gap, outside, inside, margin, inner)
        assert inner <= a < b <= 1.0
        assert b == 1.0 or gap(b) > margin
        assert a == inner or gap(a) < -margin


# ---------------------------------------------------------------------------
# The log-survival theta-solver against the SOP-scale solver it replaces
# ---------------------------------------------------------------------------

def _sop_scale_crossings(kind, params, p_a, r_s, minimizer):
    """The theta-solver on the SOP scale: every SOP against epsilon, each
    crossing bisected on the SOP itself down to the solver's tolerance."""
    eps = params.epsilon
    sop = cf.sop_theta_curve(kind, params, p_a, r_s)

    def bisect(lo, hi):
        lo_above = sop(lo) > eps
        while hi - lo > opt._BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if (sop(mid) > eps) == lo_above:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    if sop(minimizer) > eps:
        return opt.ThetaInterval.nothing()
    lo = 0.0 if sop(0.0) <= eps else bisect(0.0, minimizer)
    hi = 1.0 if sop(1.0) <= eps else bisect(minimizer, 1.0)
    return opt.ThetaInterval(lo=lo, hi=hi)


def test_prediction_gives_up_on_an_overflowing_scale():
    # alpha per unit threshold overflows (var_jea = 1e300) while beta stays
    # finite: the prediction gives up, and the search bisects the grid to the
    # oracle's answer within its probe bound
    params = validate(SystemParams(
        n_antennas=6, k_passive=2, var_ab=10.0, var_aea=1e-10, var_aek=2.0, var_eab=1.5,
        var_jb=1.2, var_jea=1e300, var_jek=5.0, p_max=1e4, p_ea=10.0, r_b=4.0, delta=0.1,
        epsilon=0.01))
    kinds = cf.scenario_kinds(params, "perfect")
    p_req = cf.min_pa(params, "noise_limited")
    with pytest.raises(opt._NoPrediction):
        opt._smallest_threshold(opt._Search(params, p_req, kinds))
    assert opt._predicted_bracket(opt._Search(params, p_req, kinds), 0.01, params.r_b) is None
    result = opt.maximize_for(params, algorithm="perfect", step=0.01, pa_mode="noise_limited")
    oracle = opt.grid_search_oracle(params, 1000, 1000, algorithm="perfect",
                                    pa_mode="noise_limited")
    assert 2 < result.steps <= math.ceil(math.log2(params.r_b / 0.01 + 2)) + 1
    assert result.feasible and oracle.feasible
    assert abs(result.r_s_star - oracle.r_s_star) <= 0.01 + 1e-12


def test_closed_form_boundary_gives_up_where_c_vanishes():
    # where both targets bind with perfect estimates, the closed form divides
    # by C = c_p K, the passive scale along the floor times theta. Both bind
    # only where C exceeds the reference times the passive scale at the
    # reference, and the passive gap at theta = 1 is -inf where C is inf, so
    # neither a C of 0 nor of inf arises from a scenario: a floor scale set
    # to the least float in the set-up makes C underflow to 0 here (c_p/c_a
    # = 0.4), and the prediction gives up rather than divide by it
    params = validate(SystemParams(
        n_antennas=5, k_passive=1, m_active=3, var_ab=10.0, var_aea=1.0, var_aek=1.0,
        var_eab=1.0, var_jb=1.0, var_jea=5.0, var_jek=2.0, p_max=1e4, p_ea=10.0, r_b=4.0,
        delta=0.1, epsilon=0.9))
    kinds = cf.scenario_kinds(params, "multi")
    search = opt._Search(params, cf.min_pa(params, "noise_limited"), kinds)
    assert math.isfinite(opt._smallest_threshold(search))
    search.active.floor = 5e-324
    with pytest.raises(opt._NoPrediction):
        opt._smallest_threshold(search)
    assert opt._predicted_bracket(search, 0.01, params.r_b) is None


def test_log_survival_crossings_match_sop_scale():
    rng = np.random.default_rng(607)
    seen = {"empty": 0, "interior": 0}
    for _ in range(100):
        params = _criterion_5_scenario(rng, str(rng.choice(opt.ALGORITHMS)))
        params = replace(params, m_active=max(params.m_active, 2), n_antennas=max(
            params.n_antennas, 4), rho_ea=float(rng.uniform(0.05, 0.95)))
        p_a = min(cf.min_pa(params), 0.9 * params.p_max)
        for kind in KINDS:
            for share in (0.05, 0.3, 0.6, 0.9):
                r_s = share * params.r_b
                args = (kind, params, p_a, r_s, log_sf_minimizer(kind, params, p_a, r_s))
                want = _sop_scale_crossings(*args)
                # the solver itself, and the production path (the closed-form
                # floor on the perfect-estimate active kinds)
                for got in (opt._crossings(*args), opt.theta_interval(*args[:4])):
                    assert got.empty == want.empty, args
                    if not want.empty:
                        assert abs(got.lo - want.lo) <= 2 * opt._BISECT_TOL, args
                        assert abs(got.hi - want.hi) <= 2 * opt._BISECT_TOL, args
                if want.empty:
                    seen["empty"] += 1
                    continue
                seen["interior"] += 0.0 < want.lo or want.hi < 1.0
    assert min(seen.values()) > 50, seen


def test_oracle_requires_minimum_grid():
    rng = np.random.default_rng(53)
    params = random_params(rng)
    with pytest.raises(RangeError):
        opt.grid_search_oracle(params, 50, 1000)


@pytest.mark.parametrize("points", [150.5, math.nan, 99, 0, -1, np.float64(200.0)])
def test_oracle_grids_need_integer_sizes(points):
    # a float size reached np.linspace (a bare TypeError), and an empty or
    # negative theta grid made feasible_any_theta answer False or ValueError
    params = random_params(np.random.default_rng(53))
    with pytest.raises(RangeError, match="integer count of at least 100"):
        opt.grid_search_oracle(params, points, 100)
    with pytest.raises(RangeError, match="integer count of at least 100"):
        opt.grid_search_oracle(params, 100, points)
    with pytest.raises(RangeError, match="integer count of at least 100"):
        opt.feasible_any_theta(params, params.p_max, 0.0, "perfect", points)
    # any integral type is taken as its value
    assert opt.grid_search_oracle(params, np.int64(100), 100) == opt.grid_search_oracle(
        params, 100, 100)


def test_oracle_grids_beyond_the_cap_are_rejected_before_any_allocation(monkeypatch):
    # 10**13 points reached np.linspace: numpy's untyped _ArrayMemoryError
    # ("Unable to allocate 72.8 TiB"), or an OOM kill near the machine's RAM
    params = random_params(np.random.default_rng(53))
    p_a = params.p_max
    over = opt._MAX_GRID_POINTS + 1
    # the cap itself is accepted (p_a = p_max leaves no AN margin)
    assert not opt.feasible_any_theta(params, p_a, 0.0, "perfect", opt._MAX_GRID_POINTS)

    def no_allocation(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(np, "linspace", no_allocation)
    for points in (over, 10 ** 13):
        with pytest.raises(RangeError, match=f"at most {opt._MAX_GRID_POINTS}"):
            opt.grid_search_oracle(params, points, 100)
        with pytest.raises(RangeError, match=f"at most {opt._MAX_GRID_POINTS}"):
            opt.grid_search_oracle(params, 100, points)
        with pytest.raises(RangeError, match=f"at most {opt._MAX_GRID_POINTS}"):
            opt.feasible_any_theta(params, p_a, 0.0, "perfect", points)


_PERFECT, _IMPERFECT = ("active", "passive"), ("active_imperfect", "passive")
_MULTI = ("active_multi", "passive_multi")
# (m_active, rho_ea) -> algorithm -> (the algorithm resolved, the SOP kinds it reads)
_ALGORITHM_TABLE = {
    (1, 1.0): {None: ("perfect", _PERFECT), "perfect": ("perfect", _PERFECT),
               "imperfect": ("imperfect", _PERFECT), "multi": ("multi", _MULTI),
               "alg1": ("perfect", _PERFECT), "alg2": ("imperfect", _PERFECT)},
    (1, 0.5): {None: ("imperfect", _IMPERFECT), "perfect": ("perfect", _PERFECT),
               "imperfect": ("imperfect", _IMPERFECT), "multi": ("multi", _MULTI),
               "alg1": ("perfect", _PERFECT), "alg2": ("imperfect", _IMPERFECT)},
    (2, 1.0): {None: ("multi", _MULTI), "perfect": ("perfect", _PERFECT),
               "imperfect": ("imperfect", _PERFECT), "multi": ("multi", _MULTI),
               "alg1": ("perfect", _PERFECT), "alg2": ("imperfect", _PERFECT)},
    (2, 0.5): {None: ("multi", _MULTI), "perfect": ("perfect", _PERFECT),
               "imperfect": ("imperfect", _IMPERFECT), "multi": ("multi", _MULTI),
               "alg1": ("perfect", _PERFECT), "alg2": ("imperfect", _IMPERFECT)},
}


@pytest.mark.parametrize("algorithm", [None, "perfect", "imperfect", "multi", "alg1", "alg2"])
@pytest.mark.parametrize("m_active, rho_ea", list(_ALGORITHM_TABLE))
def test_algorithm_kinds_table(baseline_params, m_active, rho_ea, algorithm):
    # 'perfect' reads rho_ea as 1, 'multi' always reads M beams, and the
    # default is the algorithm that reads the scenario's own kinds
    params = validate(replace(baseline_params, m_active=m_active, rho_ea=rho_ea))
    name, kinds = _ALGORITHM_TABLE[m_active, rho_ea][algorithm]
    resolved = None if algorithm is None else opt.resolve_algorithm(algorithm)
    assert cf.scenario_kinds(params, resolved) == kinds
    assert opt._start(params, algorithm, "auto")[0] == kinds
    assert opt.maximize_for(params, algorithm).trace["algorithm"] == name


def test_algorithm_aliases():
    assert opt.resolve_algorithm("alg1") == "perfect"
    assert opt.resolve_algorithm("alg2") == "imperfect"
    assert opt.resolve_algorithm("multi") == "multi"
    with pytest.raises(RangeError):
        opt.resolve_algorithm("nope")


def test_imperfect_search_survives_an_overflowing_alpha():
    # alpha = inf at low rates: the imperfect log-survival takes its limit
    # (-inf, no NaN, no RuntimeWarning) and the quadratic root its limit
    # 1/(N-1), so the search finds what the perfect-CSI search finds
    params = validate(SystemParams(
        n_antennas=6, k_passive=2, m_active=1,
        var_ab=1e300, var_aea=2.0, var_aek=2.0, var_eab=1.5,
        var_jb=1.2, var_jea=1e300, var_jek=3.0,
        p_max=1e4, p_ea=10.0, r_b=1000.0, delta=0.1, epsilon=0.01, rho_ea=0.5))
    p_a = cf.min_pa(params, "noise_limited")
    assert cf.alpha_ratio(params, p_a, 0.0) == math.inf
    interval = opt.theta_interval_active_imperfect(params, p_a, 0.0)
    assert (interval.lo, interval.hi) == (0.0, 1.0)
    imperfect = opt.maximize_for(params, algorithm="imperfect", pa_mode="noise_limited")
    perfect = opt.maximize_for(params, algorithm="perfect", pa_mode="noise_limited")
    assert imperfect.feasible and imperfect.infeasibility_reason == "NONE"
    assert (imperfect.r_s_star, imperfect.theta_star) == (perfect.r_s_star, perfect.theta_star)


@pytest.mark.parametrize("m_active", [1, 3])
def test_floor_stays_positive_when_alpha_overflows(m_active):
    # theta = 0 leaves the active beams unjammed (SOP 1) whatever alpha is
    params = validate(SystemParams(
        n_antennas=6, k_passive=1, m_active=m_active,
        var_ab=1.0, var_aea=1e-300, var_aek=1.0, var_eab=1.0,
        var_jb=1.0, var_jea=1e300, var_jek=1.0,
        p_max=1e4, p_ea=10.0, r_b=8.0, delta=0.1, epsilon=0.01))
    p_a = 10.0
    assert cf.alpha_ratio(params, p_a, 0.0) == math.inf
    kind = "active" if m_active == 1 else "active_multi"
    interval = opt.theta_interval(kind, params, p_a, 0.0)
    assert (interval.lo, interval.hi) == (5e-324, 1.0)
    sop = cf.sop_theta_curve(kind, params, p_a, 0.0)
    assert sop(0.0) == 1.0 and sop(interval.lo) <= params.epsilon

@pytest.mark.parametrize("algorithm", ["perfect", "imperfect", "multi"])
def test_searches_see_no_nan_when_alpha_and_beta_overflow(monkeypatch, algorithm):
    # theta = 0 or 1 at an s that overflowed: the kernel entry returns its limit
    params = validate(SystemParams(
        n_antennas=6, k_passive=2, m_active=2 if algorithm == "multi" else 1,
        var_ab=1e300, var_aea=2.0, var_aek=2.0, var_eab=1.5,
        var_jb=1.2, var_jea=1e300, var_jek=1e300,
        p_max=1e4, p_ea=10.0, r_b=1000.0, delta=0.1, epsilon=0.01,
        rho_ea=0.5 if algorithm == "imperfect" else 1.0))
    values = []
    kernel = cf.log_sf_at

    def recording(*args):
        values.append(kernel(*args))
        return values[-1]

    monkeypatch.setattr(cf, "log_sf_at", recording)
    result = opt.maximize_for(params, algorithm=algorithm, pa_mode="noise_limited")
    assert result.feasible and result.infeasibility_reason == "NONE"
    assert values and not any(np.isnan(v).any() for v in values)


# ---------------------------------------------------------------------------
# The shared entry of the rate search and the oracle, and the trace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fields, mode", MIN_PA_UNDERFLOW,
                         ids=[mode for _, mode in MIN_PA_UNDERFLOW])
def test_searches_reject_a_minimum_power_that_rounds_to_zero(fields, mode):
    params = validate(SystemParams(**fields))
    with pytest.raises(RangeError, match="minimum Alice power"):
        opt.maximize_for(params, pa_mode=mode)
    with pytest.raises(RangeError, match="minimum Alice power"):
        opt.grid_search_oracle(params, 100, 100, pa_mode=mode)


def test_unknown_algorithm_is_reported_before_a_bad_step(baseline_params):
    with pytest.raises(RangeError, match="unknown algorithm"):
        opt.maximize_for(baseline_params, algorithm="nope", step=math.nan)
    with pytest.raises(RangeError, match="unknown algorithm"):
        opt.grid_search_oracle(baseline_params, 100, 100, algorithm="nope")


def test_bad_step_is_rejected_when_the_power_exceeds_p_max(baseline_params):
    over_budget = replace(baseline_params, delta=1e-9, p_max=10.0, r_b=12.0)
    assert opt.maximize_for(over_budget).infeasibility_reason == "PA_EXCEEDS_PMAX"
    with pytest.raises(RangeError, match="step"):
        opt.maximize_for(over_budget, step=math.nan)


def test_trace_holds_what_the_search_saw(baseline_params):
    over_budget = replace(baseline_params, delta=1e-9, p_max=10.0, r_b=12.0)
    no_theta = replace(baseline_params, var_jea=1e-7, var_jek=1e-7, epsilon=1e-3)
    start = {"pa_mode": "noise_limited", "algorithm": "perfect"}
    for params, reason in ((baseline_params, "NONE"), (no_theta, "NO_THETA_AT_RS0"),
                           (over_budget, "PA_EXCEEDS_PMAX")):
        result = opt.maximize_for(params, pa_mode="noise_limited")
        oracle = opt.grid_search_oracle(params, 100, 100, pa_mode="noise_limited")
        assert result.infeasibility_reason == oracle.infeasibility_reason == reason
        if reason != "PA_EXCEEDS_PMAX":  # the scan ran: its rows, formed SOPs and open tiles
            rows, points = oracle.trace.pop("rows"), oracle.trace.pop("points")
            assert 0 < rows <= 100 and 0 <= points <= rows * 100
            assert 0 <= oracle.trace.pop("tiles") <= 2 * -(-100 // opt._ORACLE_GROUP) * -(
                -100 // cf._GRID_CELL)
        assert oracle.trace == {**start, "oracle": True}
        if reason != "NONE":
            assert result.trace == start
            continue
        assert result.trace == {**start, "theta_reference": 1 / 5}
        interval = full_intersection(params, result.p_a_star, result.r_s_star,
                                     cf.scenario_kinds(params, "perfect"))
        assert interval.lo <= result.theta_star <= interval.hi


@pytest.mark.parametrize("r_s", [math.inf, -math.inf, math.nan, -1.0])
def test_feasible_any_theta_rejects_a_negative_or_non_finite_rate(baseline_params, r_s):
    # +inf passed the r_s >= r_b shortcut and answered False
    params = baseline_params
    for algorithm in opt.ALGORITHMS:
        with pytest.raises(RangeError, match="r_s"):
            opt.feasible_any_theta(params, 0.5 * params.p_max, r_s, algorithm)
        for rate in (params.r_b, 2.0 * params.r_b):
            assert not opt.feasible_any_theta(params, 0.5 * params.p_max, rate, algorithm)


@pytest.mark.parametrize("pa_over_p_max, rs_over_r_b, algorithm, message", [
    (math.nan, 1.0, "perfect", "p_a"),
    (-1.0, 2.0, "multi", "p_a"),
    (0.0, 1.0, "imperfect", "p_a"),
    (2.0, 1.0, "perfect", "p_a"),
    (0.5, 1.0, "nope", "algorithm"),
    (0.5, 2.0, "nope", "algorithm"),
])
def test_feasible_any_theta_checks_power_and_algorithm_at_every_rate(
        pa_over_p_max, rs_over_r_b, algorithm, message):
    # a finite r_s >= r_b answered False before p_a or algorithm was looked at
    params = random_params(np.random.default_rng(1))
    for r_s in (rs_over_r_b * params.r_b, 0.5 * params.r_b):
        with pytest.raises(RangeError, match=message):
            opt.feasible_any_theta(params, pa_over_p_max * params.p_max, r_s, algorithm)


# ---------------------------------------------------------------------------
# The oracle's tile pass and group scan against the exhaustive mask
# ---------------------------------------------------------------------------

RS_POINTS, THETA_POINTS = 200, 150
GROUP = opt._ORACLE_GROUP


def _sop_grids(params, algorithm, rs_points=RS_POINTS, theta_points=THETA_POINTS):
    """(rates, thetas, the SOP grid of each of the algorithm's two kinds) on
    the oracle's grids at the minimum power."""
    p_a = cf.min_pa(params, "noise_limited")
    rates = np.linspace(0.0, params.r_b, rs_points, endpoint=False)
    thetas = np.linspace(0.0, 1.0, theta_points)
    return rates, thetas, [cf.sop_grid(params, p_a, rates, thetas, kind)
                           for kind in cf.scenario_kinds(params, algorithm)]


def _last_row_epsilon(grids, row, at="middle"):
    """An epsilon at least the least worse-of-two SOP of grid row ``row``
    and below that of the row above, so ``row`` is the last feasible one
    (-1: none is): midway between them, or ``at`` the knife edge "low" (the
    least SOP itself) or "high" (the float below the next); SOPs do not
    depend on epsilon."""
    least = np.maximum(*grids[2]).min(axis=1)
    lo = least[row] if row >= 0 else 0.0
    hi = least[row + 1] if row + 1 < least.size else 1.0
    assert lo < hi, (row, lo, hi)
    edges = {"low": lo or 5e-324, "middle": 0.5 * (lo + hi), "high": np.nextafter(hi, 0.0)}
    return float(edges[at])


def _with_last_row(params, algorithm, row):
    """``params`` with the epsilon of :func:`_last_row_epsilon`."""
    epsilon = _last_row_epsilon(_sop_grids(params, algorithm), row)
    return validate(replace(params, epsilon=epsilon))


def _feasible_scenario(rng, algorithm):
    while True:
        params = _criterion_5_scenario(rng, algorithm)
        if cf.min_pa(params, "noise_limited") <= params.p_max:
            return params


def _overflow_scenario(algorithm):
    """alpha and beta beyond the float range at all but the top rates: every
    oracle tile holds an infinite scale, so none settles."""
    return validate(SystemParams(
        n_antennas=6, k_passive=2, m_active=2 if algorithm == "multi" else 1,
        var_ab=1e300, var_aea=2.0, var_aek=2.0, var_eab=1.5,
        var_jb=1.2, var_jea=1e300, var_jek=1e300,
        p_max=1e4, p_ea=10.0, r_b=1000.0, delta=0.1, epsilon=0.01,
        rho_ea=0.5 if algorithm == "imperfect" else 1.0))


def _exhaustive_answer(params, algorithm, grids=None):
    """(last feasible rate, its theta nearest the reference with ties toward
    the smaller theta, the feasible rows), from the full mask (of ``grids``,
    the SOP grids of :func:`_sop_grids`, when given); None for the first two
    when no row is feasible."""
    rates, thetas, (first, second) = grids or _sop_grids(params, algorithm)
    mask = (first <= params.epsilon) & (second <= params.epsilon)
    rows = np.nonzero(mask.any(axis=1))[0]
    if rows.size == 0:
        return None, None, rows
    candidates = thetas[mask[rows[-1]]]
    reference = opt._theta_reference(params, cf.scenario_kinds(params, algorithm)[1])
    distance = np.abs(candidates - reference)
    return rates[rows[-1]], candidates[distance == distance.min()].min(), rows


def _group_edges(rs_points):
    """Rows at the edges of the oracle's groups, which end at the top row:
    the row below the top row, the bottom row of the top group and the rows
    either side of it, the row below the next group's top row, the bottom
    row of the next group, the top row of a short bottom group and the row
    above it, row 0, and -1 (no feasible row)."""
    edges = [rs_points - 2, rs_points - GROUP, rs_points - GROUP - 1, rs_points - GROUP + 1,
             rs_points - GROUP - 2, rs_points - 2 * GROUP]
    short = rs_points % GROUP
    if short:
        edges += [short - 1, short]
    return sorted({row for row in edges if row >= 0} | {0, -1})


@pytest.mark.parametrize("algorithm", opt.ALGORITHMS)
def test_oracle_returns_the_last_row_of_the_exhaustive_mask(algorithm):
    # rate grids that are not a multiple of the group, so the bottom group is
    # short, and a fine theta grid, whose tiles are narrow enough to settle
    # beside the last feasible row, so that a tile misplaced by a row
    # changes the answer
    theta_points = 1000
    rng = np.random.default_rng({"perfect": 701, "imperfect": 702, "multi": 703}[algorithm])
    bases = [_feasible_scenario(rng, algorithm) for _ in range(2)]
    checked = 0
    for rs_points in (100, 129, 200, 1000):
        for base in bases:
            grids = _sop_grids(base, algorithm, rs_points, theta_points)
            vacuous = validate(replace(base, delta=1.0 - 1e-9, epsilon=1.0 - 1e-9))
            cases = [(vacuous, rs_points - 1)] + [
                (validate(replace(base, epsilon=_last_row_epsilon(grids, row, at))), row)
                for row in _group_edges(rs_points) + [int(rng.integers(1, rs_points - 1))]
                for at in ("low", "middle", "high")]
            for params, row in cases:
                oracle = opt.grid_search_oracle(params, rs_points, theta_points,
                                                algorithm=algorithm, pa_mode="noise_limited")
                # the vacuous case's delta moves the minimum power, and so its SOPs
                r_s, theta, rows = _exhaustive_answer(params, algorithm, grids if (
                    params is not vacuous) else _sop_grids(params, algorithm, rs_points,
                                                           theta_points))
                assert oracle.steps == rs_points
                if row < 0:
                    assert rows.size == 0
                    assert not oracle.feasible
                    assert oracle.infeasibility_reason == "NO_THETA_AT_RS0"
                    continue
                assert rows[-1] == row and (row > 0 or rows.tolist() == [0])
                assert oracle.feasible and oracle.infeasibility_reason == "NONE"
                assert (oracle.r_s_star, oracle.theta_star) == (r_s, theta), (rs_points, row)
                checked += 1
        # no tile settles where every tile holds an overflowed scale
        for epsilon in (1e-300, 0.01):
            params = replace(_overflow_scenario(algorithm), epsilon=epsilon)
            oracle = opt.grid_search_oracle(params, rs_points, theta_points,
                                            algorithm=algorithm, pa_mode="noise_limited")
            r_s, theta, rows = _exhaustive_answer(
                params, algorithm, _sop_grids(params, algorithm, rs_points, theta_points))
            assert oracle.feasible and (oracle.r_s_star, oracle.theta_star) == (r_s, theta)
            tiles = -(-rs_points // GROUP) * -(-theta_points // cf._GRID_CELL)
            assert oracle.trace["tiles"] == 2 * tiles
    assert checked > 0


def _recorded_pass(monkeypatch):
    """The (kind, rows, above, below) of every group the oracle's pass
    judges a kind on (opt._row_tiles), and the (kind, rows, points formed)
    of every SOP block it forms (cf._sop_cells), the points counted from
    the cells formed, each up to the end of the theta grid. A block that
    forms no point fails the test: the pass skips a kind with no undecided
    cell."""
    judged, formed = [], []
    row_tiles, sop_cells = opt._row_tiles, cf._sop_cells

    def judging(kind, params, corners, s, rows, tile, shut):
        above, below = row_tiles(kind, params, corners, s, rows, tile, shut)
        judged.append((kind, rows.copy(), above.copy(), below.copy()))
        return above, below

    def forming(which, params, grid, size, s, rows, cells):
        points = sum(min(cf._GRID_CELL, size - cell * cf._GRID_CELL) for cell in cells.tolist())
        assert rows.size and points > 0, "an SOP block with no point"
        formed.append((which, rows.copy(), points))
        return sop_cells(which, params, grid, size, s, rows, cells)

    monkeypatch.setattr(opt, "_row_tiles", judging)
    monkeypatch.setattr(cf, "_sop_cells", forming)
    return judged, formed


def _tiles(params, algorithm):
    """(the group of each row, by index from the bottom group up; whether
    each group is infeasible in every theta cell for one kind or the other;
    the tiles left open by both kinds) as cf.sop_tiles decides them over
    groups of GROUP rows that end at the top row."""
    p_a = cf.min_pa(params, "noise_limited")
    rates = np.linspace(0.0, params.r_b, RS_POINTS, endpoint=False)
    thetas = np.linspace(0.0, 1.0, THETA_POINTS)
    from_top = (RS_POINTS - 1 - np.arange(RS_POINTS)) // GROUP
    group = from_top.max() - from_top
    starts = np.searchsorted(group, np.arange(group.max() + 1))
    (above, below), (above_2, below_2) = (
        cf.sop_tiles(params, p_a, rates, thetas, kind, starts)
        for kind in cf.scenario_kinds(params, algorithm))
    open_tiles = int((~(above | below)).sum() + (~(above_2 | below_2)).sum())
    return group, (above | above_2).all(axis=1), open_tiles


@pytest.mark.parametrize("algorithm", opt.ALGORITHMS)
def test_oracle_evaluates_only_the_rows_its_answer_needs(monkeypatch, algorithm):
    rng = np.random.default_rng({"perfect": 711, "imperfect": 712, "multi": 713}[algorithm])
    cases = [(_with_last_row(base, algorithm, row), row)
             for base in (_feasible_scenario(rng, algorithm) for _ in range(3))
             for row in (RS_POINTS - 1, RS_POINTS - GROUP, RS_POINTS - GROUP - 1, -1)]
    judged, _ = _recorded_pass(monkeypatch)
    ruled_out = 0
    for params, row in cases:
        group, infeasible, _ = _tiles(params, algorithm)
        judged.clear()
        opt.grid_search_oracle(params, RS_POINTS, THETA_POINTS, algorithm=algorithm,
                               pa_mode="noise_limited")
        kinds = cf.scenario_kinds(params, algorithm)
        first_rows, second_rows = (np.concatenate(
            [[]] + [rows for which, rows, *_ in judged if which == kind]).astype(int)
            for kind in kinds)
        # both kinds are judged on the same rows, each row at most once
        assert np.array_equal(first_rows, second_rows)
        assert np.unique(first_rows).size == first_rows.size
        # a group is judged whole, never where its tiles rule it out, and
        # every group that they do not is scanned from the top down, to the
        # answer's group, the lowest one scanned
        order = [group[rows[0]] for which, rows, *_ in judged if which == kinds[0]]
        masked = np.unique(group[first_rows])
        assert order == sorted(masked.tolist(), reverse=True)
        assert sorted(first_rows) == np.flatnonzero(np.isin(group, masked)).tolist()
        assert not infeasible[masked].any()
        ruled_out += infeasible.sum()
        lowest = group[row] if row >= 0 else 0
        assert masked.tolist() == [g for g in np.flatnonzero(~infeasible) if g >= lowest]
        if row < 0:  # every row once: by an infeasible tile or by the pass
            assert sorted(first_rows.tolist() + np.flatnonzero(
                infeasible[group]).tolist()) == list(range(RS_POINTS))
        else:
            assert masked.min() == group[row]
    assert ruled_out > 0


@pytest.mark.parametrize("algorithm", opt.ALGORITHMS)
def test_oracle_trace_counts_the_rows_scanned_and_the_sops_formed(monkeypatch, algorithm):
    rng = np.random.default_rng({"perfect": 721, "imperfect": 722, "multi": 723}[algorithm])
    base = _feasible_scenario(rng, algorithm)
    judged, formed = _recorded_pass(monkeypatch)
    total = 0
    for row in (-1, RS_POINTS - 1, RS_POINTS - GROUP - 1, RS_POINTS - 2 * GROUP - 1):
        params = _with_last_row(base, algorithm, row)
        _, _, open_tiles = _tiles(params, algorithm)
        judged.clear()
        formed.clear()
        oracle = opt.grid_search_oracle(params, RS_POINTS, THETA_POINTS, algorithm=algorithm,
                                        pa_mode="noise_limited")
        assert oracle.feasible == (row >= 0)
        # from the top down to the lowest row resolved: every row when
        # none is feasible, else the lowest row of the groups judged
        lowest = min(rows.min() for _, rows, *_ in judged) if row >= 0 else 0
        assert oracle.trace["rows"] == RS_POINTS - lowest
        assert row < 0 or lowest <= row
        points = sum(points for *_, points in formed)
        assert oracle.trace["points"] == points < oracle.trace["rows"] * THETA_POINTS
        assert oracle.trace["tiles"] == open_tiles
        total += points
    assert total > 0


@pytest.mark.parametrize("algorithm", opt.ALGORITHMS)
def test_oracle_forms_no_sop_below_a_row_that_a_settled_cell_proves_feasible(monkeypatch,
                                                                            algorithm):
    # a cell that both kinds settle at or below epsilon proves its row
    # feasible, so no row below it can hold the answer: the pass forms no
    # SOP there, though cells of those rows are left undecided
    rng = np.random.default_rng({"perfect": 731, "imperfect": 732, "multi": 733}[algorithm])
    judged, formed = _recorded_pass(monkeypatch)
    theta_points, skipped, kept = 1000, 0, 0
    for base in (_feasible_scenario(rng, algorithm) for _ in range(2)):
        grids = _sop_grids(base, algorithm, RS_POINTS, theta_points)
        for row in _group_edges(RS_POINTS):
            for at in ("low", "middle", "high") if row >= 0 else ("middle",):
                params = validate(replace(base, epsilon=_last_row_epsilon(grids, row, at)))
                judged.clear()
                formed.clear()
                opt.grid_search_oracle(params, RS_POINTS, theta_points, algorithm=algorithm,
                                       pa_mode="noise_limited")
                for (_, rows, above, below), (_, _, above_2, below_2) in zip(judged[::2],
                                                                            judged[1::2]):
                    ok = below & below_2
                    proven = rows[ok.any(axis=1)]
                    if not proven.size:
                        continue
                    here = np.concatenate([[]] + [r[np.isin(r, rows)] for _, r, _ in formed])
                    assert (here >= proven.max()).all(), (row, at, proven, here)
                    undecided = ~(ok | above | above_2)
                    skipped += int(undecided[rows < proven.max()].sum())
                    kept += here.size
    assert skipped > 0 and kept > 0, (skipped, kept)


