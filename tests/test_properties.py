"""Property tests over validated scenarios with N <= 64 and K <= 64, and
over float extremes (N <= 300, K <= 1e6) for the rate search's prediction.

The hypothesis profile in ``conftest.py`` derandomizes the examples, so every
run checks the same scenarios.
"""
import dataclasses
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

import secrate.cli as cli  # noqa: E402
import secrate.closedform as cf  # noqa: E402
import secrate.montecarlo as mc  # noqa: E402
import secrate.optimizer as opt  # noqa: E402
from secrate.errors import RangeError, SecrateError  # noqa: E402
from secrate.model import SystemParams, make_split, validate  # noqa: E402

from conftest import assert_same_interval, full_intersection, log_sf_minimizer  # noqa: E402

KINDS = ("active", "active_imperfect", "active_multi", "passive", "passive_multi")


def _log_uniform(lo: float, hi: float):
    """10**u for u uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda u: 10.0 ** u)


@st.composite
def scenarios(draw) -> SystemParams:
    """Any valid scenario in the test suite's magnitude ranges, N and K up to 64."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(3 if m == 1 else m + 2, 64))
    var = _log_uniform(-0.5, 1.0)
    rho_ea = draw(st.sampled_from([1.0, 0.0]) | st.floats(0.05, 0.95)) if m == 1 else 1.0
    return validate(SystemParams(
        n_antennas=n, k_passive=draw(st.integers(1, 64)), m_active=m,
        var_ab=draw(var), var_aea=draw(var), var_aek=draw(var), var_eab=draw(var),
        var_jb=draw(var), var_jea=draw(var), var_jek=draw(var),
        p_max=draw(_log_uniform(2.0, 4.0)), p_ea=draw(_log_uniform(0.0, 1.5)),
        r_b=draw(st.floats(2.0, 8.0)), delta=draw(st.floats(0.05, 0.3)),
        epsilon=draw(_log_uniform(-3.0, -0.7)),
        rho_b=draw(st.just(1.0) | st.floats(0.3, 0.99)), rho_ea=rho_ea,
    ))


@given(scenarios(), st.sampled_from(opt.ALGORITHMS), _log_uniform(-9.0, 1.0))
def test_maximize_ends_with_a_result(params, algorithm, step):
    result = opt.maximize_for(params, algorithm=algorithm, step=step)
    assert result.steps <= math.ceil(math.log2(params.r_b / step + 2)) + 1
    if result.feasible:
        assert result.infeasibility_reason == "NONE"
        assert 0.0 <= result.r_s_star < params.r_b
        assert 0.0 <= result.theta_star <= 1.0
    else:
        assert result.infeasibility_reason in ("PA_EXCEEDS_PMAX", "NO_THETA_AT_RS0")


@given(scenarios(), st.sampled_from(opt.ALGORITHMS))
def test_feasible_rates_form_a_prefix_of_the_grid(params, algorithm):
    # the invariant the bisection relies on, checked on a 40-point grid and
    # at the bisection's own answer and the grid point after it
    p_a = cf.min_pa(params)
    hypothesis.assume(p_a <= params.p_max)
    kinds = opt._kinds(params, algorithm)

    def feasible(r_s):
        return r_s < params.r_b and not opt._feasible_interval(params, p_a, r_s, kinds).empty

    pattern = [feasible(r_s) for r_s in np.linspace(0.0, params.r_b, 40, endpoint=False)]
    assert pattern == sorted(pattern, reverse=True)
    result = opt.maximize_for(params, algorithm=algorithm, step=0.01)
    if result.feasible:
        assert feasible(result.r_s_star)
        assert not feasible(round(result.r_s_star / 0.01 + 1) * 0.01)


@st.composite
def extreme_scenarios(draw, max_n: int = 300, max_k: int = 10 ** 6) -> SystemParams:
    """Valid scenarios at the float extremes: variances from 1e-30 to 1e30,
    delta and epsilon from 1e-300 to 1 - 1e-16, N up to ``max_n`` (300),
    K up to ``max_k`` (1e6)."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(3 if m == 1 else m + 2, max_n))
    var = _log_uniform(-30.0, 30.0)
    probability = _log_uniform(-300.0, 0.0).map(lambda p: min(p, 1.0 - 1e-16)) | st.floats(
        0.5, 1.0 - 1e-16)
    rho_ea = draw(st.sampled_from([1.0, 0.0]) | st.floats(0.0, 1.0)) if m == 1 else 1.0
    return validate(SystemParams(
        n_antennas=n, k_passive=draw(st.integers(1, max_k)), m_active=m,
        var_ab=draw(var), var_aea=draw(var), var_aek=draw(var), var_eab=draw(var),
        var_jb=draw(var), var_jea=draw(var), var_jek=draw(var),
        p_max=draw(_log_uniform(-3.0, 6.0)), p_ea=draw(_log_uniform(-3.0, 3.0)),
        r_b=draw(_log_uniform(-3.0, 3.0).map(lambda r: min(r, 1023.0))),
        delta=draw(probability), epsilon=draw(probability),
        rho_b=draw(st.just(1.0) | st.floats(0.0, 1.0)), rho_ea=rho_ea,
    ))


@given(extreme_scenarios(), st.sampled_from(opt.ALGORITHMS), _log_uniform(-6.0, 1.0))
def test_boundary_prediction_changes_no_result_at_float_extremes(params, algorithm, step):
    # the predicted bracket only orders the probes: with it and without it
    # (the predictor giving up) the search returns the same result, or the
    # same typed error; anything else raised fails the test
    def search() -> str:
        try:
            return repr(replace(opt.maximize_for(params, algorithm=algorithm, step=step),
                                steps=0))
        except SecrateError as error:
            return repr(error)

    predicted = search()
    with mock.patch.object(opt, "_predicted_bracket", lambda *args: None):
        assert search() == predicted


@given(extreme_scenarios(), st.sampled_from(opt.ALGORITHMS), st.floats(0.0, 1.0))
def test_feasible_interval_is_the_full_intersection_at_float_extremes(params, algorithm,
                                                                      rate_share):
    # at a random rate and at the rates the search's answer is decided by,
    # the probe returns the intersection of the two intervals solved in full,
    # or the same typed error
    kinds = opt._kinds(params, algorithm)
    p_a = min(cf.min_pa(params, "noise_limited"), params.p_max) or params.p_max
    rates = [rate_share * params.r_b]
    try:
        result = opt.maximize_for(params, algorithm=algorithm, step=0.01 * params.r_b,
                                  pa_mode="noise_limited")
        rates += [result.r_s_star, min(result.r_s_star + 0.01 * params.r_b, params.r_b)]
    except SecrateError:
        pass

    def solve(fn, r_s):
        try:
            return fn(params, p_a, r_s, kinds)
        except SecrateError as error:
            return repr(error)

    for r_s in rates:
        want, got = solve(full_intersection, r_s), solve(opt._feasible_interval, r_s)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
        else:
            assert_same_interval(got, want, r_s)


def _extreme_example(**fields) -> SystemParams:
    """A moderate scenario but for ``fields``: the float extremes the
    derandomized examples miss."""
    return validate(SystemParams(**{
        "n_antennas": 4, "k_passive": 1, "var_ab": 1.0, "var_aea": 1.0, "var_aek": 1.0,
        "var_eab": 1.0, "var_jb": 1.0, "var_jea": 1.0, "var_jek": 1.0, "p_max": 1.0,
        "p_ea": 1.0, "r_b": 1.0, "delta": 0.1, "epsilon": 0.1, **fields}))


# the passive outage G rounds to 1 at this tiny beta, where the derivative's
# (1 - G)**(K - 1) is 0
@example(_extreme_example(n_antennas=3, k_passive=2, var_aek=1e15, var_jek=0.01, p_max=0.1,
                          delta=1.0 - 1e-16, epsilon=1.0 - 1e-16), 0.0, 0.0)
@given(extreme_scenarios(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_eval_ends_with_a_result_or_a_typed_error_at_float_extremes(params, theta, rate_share):
    # under every pa-mode: a table or a SecrateError, and no RuntimeWarning
    # (the suite turns one into an error)
    cfg = {**dataclasses.asdict(params), "theta": theta, "r_s": rate_share * params.r_b}
    for pa_mode in ("auto", *cf.PA_MODES):
        try:
            code, text = cli.cmd_eval(cfg, pa_mode)
        except SecrateError:
            continue
        assert code == 0 and len(text.splitlines()) == 2


@pytest.mark.filterwarnings("ignore::secrate.errors.DegenerateDistributionWarning")
# p_a |h|^2 over an AN power of 0 (no passive AN at theta = 0) is beyond the float range
@example(_extreme_example(var_aek=1e8, delta=1.0 - 1e-16, epsilon=1.0 - 1e-16, m_active=2),
         1.0, 0.0, 0.0)
@given(extreme_scenarios(max_n=12, max_k=8), st.floats(1e-6, 1.0), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0))
def test_verification_rows_end_with_rows_or_a_typed_error_at_float_extremes(
        params, power_share, theta, rate_share):
    # N and K are capped: a trial draws N (K + 2M + 2) complex channel entries
    try:
        split = make_split(params, power_share * params.p_max, theta)
        rows = mc.verification_rows(params, split, rate_share * params.r_b, 2000, seed=5)
    except SecrateError:
        return
    assert rows and all(isinstance(row["passed"], bool) for row in rows)


@given(scenarios(), st.floats(1e-6, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_sops_lie_in_unit_interval(params, power_share, theta, rate_share):
    p_a = power_share * params.p_max
    split = make_split(params, p_a, theta)
    rates = np.array([0.0, rate_share * params.r_b, params.r_b])
    thetas = np.array([0.0, theta, 1.0])
    for kind in KINDS:
        curve = cf.sop_theta_curve(kind, params, p_a, rate_share * params.r_b)
        grid = cf.sop_grid(params, p_a, rates, thetas, kind)
        for sop in (curve(split.theta), grid):
            assert np.all((sop >= 0.0) & (sop <= 1.0)), (kind, sop)


@given(scenarios())
def test_sweep_matches_oracle_within_one_step(params):
    step = 0.01
    result = opt.maximize_for(params, step=step)
    oracle = opt.grid_search_oracle(params, 1000, 1000)
    assert (result.infeasibility_reason == "PA_EXCEEDS_PMAX") == (
        oracle.infeasibility_reason == "PA_EXCEEDS_PMAX")
    if result.feasible and oracle.feasible:
        assert abs(result.r_s_star - oracle.r_s_star) <= step + 1e-12


@given(scenarios(), st.floats(1e-6, 1.0), st.floats(1.0, 2.0, exclude_min=True))
def test_rate_above_r_b_is_rejected_by_every_kind(params, power_share, rate_scale):
    p_a = power_share * params.p_max
    r_s = rate_scale * params.r_b
    for fn in (cf.alpha_ratio, cf.beta_ratio, cf.derived_ratios):
        with pytest.raises(RangeError, match="r_s"):
            fn(params, p_a, r_s)
    for kind in KINDS:
        with pytest.raises(RangeError, match="r_s"):
            cf.sop_theta_curve(kind, params, p_a, r_s)
        with pytest.raises(RangeError, match="r_s"):
            cf.log_sf_theta_curve(kind, params, p_a, r_s, params.epsilon)
        with pytest.raises(RangeError, match="r_s"):
            opt.theta_interval(kind, params, p_a, r_s)


@given(scenarios(), st.floats(1e-6, 1.0), st.floats(0.0, 1.0), st.floats(0.05, 0.95))
def test_secant_band_changes_no_bit_of_the_bisection(params, power_share, rate_share, rho_ea):
    # the band only skips midpoints whose side it has certified, so the
    # crossings equal those of the plain bisection bit for bit, on every
    # kind, the imperfect-estimate one at rho_ea 0, 1 and in between
    p_a = power_share * params.p_max
    r_s = rate_share * params.r_b
    cases = [(kind, params) for kind in KINDS]
    cases += [("active_imperfect", replace(params, rho_ea=rho)) for rho in (0.0, 1.0, rho_ea)]
    for kind, scenario in cases:
        minimizer = log_sf_minimizer(kind, scenario, p_a, r_s)
        banded = opt._crossings(kind, scenario, p_a, r_s, minimizer)
        with mock.patch.object(opt, "_SECANT_STEPS", 0):
            plain = opt._crossings(kind, scenario, p_a, r_s, minimizer)
        assert repr(banded) == repr(plain), (kind, scenario.rho_ea)
