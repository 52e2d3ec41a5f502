import math
from dataclasses import replace

import numpy as np
import pytest

import secrate.closedform as cf
import secrate.optimizer as opt
from secrate.errors import AlphaZero, RangeError
from secrate.model import SystemParams, make_split, validate

from conftest import random_params, random_point


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
    lo, hi = result.trace["theta_interval"]
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
    kinds = opt._kinds(params, algorithm)
    best = None
    steps = i = 0
    while i * step < params.r_b - 1e-12:
        steps += 1
        interval = opt._feasible_interval(params, p_req, i * step, kinds)
        if interval.empty:
            break
        best = (i * step, interval)
        i += 1
    trace = {"pa_mode": mode, "algorithm": algorithm,
             "p_to": cf.transmission_outage_for_mode(params, p_req, mode)}
    if best is None:
        return opt.OptResult(feasible=False, r_s_star=0.0, theta_star=math.nan,
                             p_a_star=p_req, steps=steps,
                             infeasibility_reason="NO_THETA_AT_RS0", trace=trace)
    r_star, interval = best
    reference = opt._theta_reference(params, kinds[1])
    trace["theta_interval"] = (interval.lo, interval.hi)
    trace["theta_reference"] = reference
    active_trace = opt._SOLVERS[kinds[0]][1]
    if active_trace is not None:
        trace.update(active_trace(params, p_req, r_star))
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


def _minimizer(kind, params, p_a, r_s):
    if kind in ("passive", "passive_multi"):
        return opt._theta_reference(params, kind)
    if kind == "active_imperfect":
        return min(cf.active_sop_theta_profile(params, p_a, r_s).theta_pos, 1.0)
    return 1.0


def test_log_survival_crossings_match_sop_scale():
    rng = np.random.default_rng(607)
    kinds = ("active", "active_imperfect", "active_multi", "passive", "passive_multi")
    seen = {"empty": 0, "interior": 0}
    for _ in range(100):
        params = _criterion_5_scenario(rng, str(rng.choice(opt.ALGORITHMS)))
        params = replace(params, m_active=max(params.m_active, 2), n_antennas=max(
            params.n_antennas, 4), rho_ea=float(rng.uniform(0.05, 0.95)))
        p_a = min(cf.min_pa(params), 0.9 * params.p_max)
        for kind in kinds:
            for share in (0.05, 0.3, 0.6, 0.9):
                r_s = share * params.r_b
                args = (kind, params, p_a, r_s, _minimizer(kind, params, p_a, r_s))
                got, want = opt._crossings(*args), _sop_scale_crossings(*args)
                assert got.empty == want.empty, args
                if want.empty:
                    seen["empty"] += 1
                    continue
                assert abs(got.lo - want.lo) <= 2 * opt._BISECT_TOL, args
                assert abs(got.hi - want.hi) <= 2 * opt._BISECT_TOL, args
                seen["interior"] += 0.0 < want.lo or want.hi < 1.0
    assert min(seen.values()) > 50, seen


def test_oracle_requires_minimum_grid():
    rng = np.random.default_rng(53)
    params = random_params(rng)
    with pytest.raises(RangeError):
        opt.grid_search_oracle(params, 50, 1000)


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


@pytest.mark.parametrize("algorithm", ["perfect", "imperfect", "multi"])
def test_searches_see_no_nan_when_alpha_and_beta_overflow(monkeypatch, algorithm):
    # theta = 0 or 1 at an s that overflowed: the kernels return their limit
    params = validate(SystemParams(
        n_antennas=6, k_passive=2, m_active=2 if algorithm == "multi" else 1,
        var_ab=1e300, var_aea=2.0, var_aek=2.0, var_eab=1.5,
        var_jb=1.2, var_jea=1e300, var_jek=1e300,
        p_max=1e4, p_ea=10.0, r_b=1000.0, delta=0.1, epsilon=0.01,
        rho_ea=0.5 if algorithm == "imperfect" else 1.0))
    values = []
    for name in ("_log_sf_active", "_log_sf_passive"):
        kernel = getattr(cf, name)

        def recording(*args, kernel=kernel):
            values.append(kernel(*args))
            return values[-1]

        monkeypatch.setattr(cf, name, recording)
    result = opt.maximize_for(params, algorithm=algorithm, pa_mode="noise_limited")
    assert result.feasible and result.infeasibility_reason == "NONE"
    assert values and not any(np.isnan(v).any() for v in values)
