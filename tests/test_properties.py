"""Property tests over validated scenarios with N <= 64 and K <= 64, and
over float extremes (N <= 300, K <= 1e6) for the rate search's prediction.

The hypothesis profile in ``conftest.py`` derandomizes the examples, so every
run checks the same scenarios.
"""
import dataclasses
import math
import warnings
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
from secrate.errors import (  # noqa: E402
    DegenerateDistributionWarning, RangeError, SecrateError,
)
from secrate.model import SystemParams, make_split, validate  # noqa: E402

from conftest import (  # noqa: E402
    assert_same_interval, clipped_reference, full_intersection, log_sf_minimizer,
    mp_log_survival,
)

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
    kinds = cf.scenario_kinds(params, algorithm)

    def feasible(r_s):
        return r_s < params.r_b and not full_intersection(params, p_a, r_s, kinds).empty

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


@given(scenarios() | extreme_scenarios(), st.sampled_from(["perfect", "multi"]),
       st.floats(0.02, 0.98))
def test_closed_form_boundary_matches_a_bisection_along_the_floor(params, algorithm, share):
    # with perfect estimates, where both targets bind, x* = K/theta at the
    # theta where the passive gap along the active floor x_a = K/theta
    # crosses 0: the closed form agrees with a bisection of that gap, theta
    # and log x* to 1e-12, and predicts the bracket that the secant root of
    # that gap predicted. Both bind where C = c_p K lies between
    # m expm1(-L/(N-1)) (the active target fails at the reference and x_p)
    # and m expm1(-L/m) (the passive one at theta = 1 and K), so var_jek,
    # which only c_p reads, is scaled to put C at ``share`` of that span in log
    kinds = cf.scenario_kinds(params, algorithm)
    p_a = min(cf.min_pa(params, "noise_limited"), params.p_max) or params.p_max
    x = cf.rate_gap_threshold(params.r_b, max(params.r_b - 1.0, 0.0))

    def set_up(params):
        """(the search's set-up, log c_a, log c_p, log K)."""
        search = opt._Search(params, p_a, kinds)
        c_a, c_p = (c.scale(x) / x for c in (search.active, search.passive))
        hypothesis.assume(0.0 < c_a < math.inf and 0.0 < c_p < math.inf)
        return (search, math.log(c_a), math.log(c_p),
                math.log(search.active.floor) - math.log(c_a))

    search, _, log_cp, log_k = set_up(params)
    m, level, n = search.passive.beams, search.passive.level, params.n_antennas
    ends = [math.log(m * math.expm1(-level / width)) for width in (n - 1, m)]
    scale = math.exp(ends[0] + share * (ends[1] - ends[0]) - log_cp - log_k)
    hypothesis.assume(0.0 < params.var_jek * scale < math.inf)
    search, log_ca, log_cp, log_k = set_up(replace(params, var_jek=params.var_jek * scale))
    active, passive = search.active, search.passive

    def gap(constraint, log_c, theta, log_x):
        """The log-survival at theta and threshold e**log_x, less the level."""
        s = opt._exp(log_c + log_x)
        return cf.log_sf_at(constraint.kind, search.params, theta, s) - constraint.level

    log_xp = math.log(opt._level_scale(level, n - 1, n - 1)) - log_cp
    g_a = gap(passive, log_cp, 1.0, log_k)
    hypothesis.assume(gap(active, log_ca, passive.reference, log_xp)
                      > opt._ROOT_TOL * abs(active.level) and g_a > 0.0)

    def along(theta):
        """The passive gap along the floor x_a = K/theta."""
        return gap(passive, log_cp, theta, log_k - math.log(theta))

    log_x = opt._smallest_threshold(search)
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if along(mid) > 0.0 else (mid, hi)
    assert math.exp(log_k - log_x) == pytest.approx(hi, rel=1e-12)
    assert log_x == pytest.approx(log_k - math.log(hi), rel=1e-12, abs=1e-12)
    try:
        root, _ = opt._predicted_root(along, passive.reference, along(passive.reference), 1.0,
                                      g_a, passive.reference, 1.0)
    except opt._NoPrediction:  # no bracket to compare with
        return
    cap = params.r_b - 1e-12
    for step in (0.01, 0.0005, 1e-3 * params.r_b):
        got = opt._predicted_bracket(search, step, cap)
        with mock.patch.object(opt, "_smallest_threshold", lambda _: log_k - math.log(root)):
            assert got == opt._predicted_bracket(search, step, cap)


def _bisected_interval(kind: str, params: SystemParams, p_a: float,
                       r_s: float) -> opt.ThetaInterval:
    """The AN ratios where the log-survival of ``kind`` is at most its level,
    by a plain bisection: from the minimizer (conftest.log_sf_minimizer) to
    each edge whose log-survival is above the level, every midpoint
    evaluated, down to the solver's tolerance; empty where the minimum is
    above the level. It reads the log-survival scale, since at these
    magnitudes an SOP can round to 0 or 1."""
    curve, level = cf.log_sf_theta_curve(kind, params, p_a, r_s, params.epsilon)
    inner = log_sf_minimizer(kind, params, p_a, r_s)
    if curve(inner) > level:
        return opt.ThetaInterval.nothing()

    def end(edge: float) -> float:
        if curve(edge) <= level:
            return edge
        lo, hi = sorted((inner, edge))
        while hi - lo > opt._BISECT_TOL:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if (curve(mid) > level) == (edge == 0.0) else (lo, mid)
        return 0.5 * (lo + hi)

    return opt.ThetaInterval(lo=end(0.0), hi=end(1.0))


@given(extreme_scenarios(), st.sampled_from(opt.ALGORITHMS), st.floats(0.0, 1.0))
def test_theta_interval_matches_a_plain_bisection_at_float_extremes(params, algorithm,
                                                                    rate_share):
    # at a random rate and at the rates the search's answer is decided by,
    # each kind's interval, whose crossings the solver bisects only inside
    # the band its secant steps certify, has the ends of a bisection that
    # evaluates every midpoint, or the same typed error
    kinds = cf.scenario_kinds(params, algorithm)
    p_a = min(cf.min_pa(params, "noise_limited"), params.p_max) or params.p_max
    rates = [rate_share * params.r_b]
    try:
        result = opt.maximize_for(params, algorithm=algorithm, step=0.01 * params.r_b,
                                  pa_mode="noise_limited")
        rates += [result.r_s_star, min(result.r_s_star + 0.01 * params.r_b, params.r_b)]
    except SecrateError:
        pass

    def solve(fn, kind, r_s):
        try:
            return fn(kind, params, p_a, r_s)
        except SecrateError as error:
            return repr(error)

    for r_s in rates:
        for kind in kinds:
            want = solve(_bisected_interval, kind, r_s)
            got = solve(opt.theta_interval, kind, r_s)
            if isinstance(want, str) or isinstance(got, str):
                assert got == want
            else:
                assert_same_interval(got, want, (r_s, kind))


@given(scenarios() | extreme_scenarios(), st.sampled_from(opt.ALGORITHMS),
       st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
       | _log_uniform(-16.0, -2.0).map(lambda u: 1.0 - u),
       st.none() | _log_uniform(-12.0, -1.0), st.floats(0.0, 1.0))
def test_probe_is_the_reference_clipped_into_the_full_intersection(params, algorithm, rho_ea,
                                                                   epsilon, rate_share):
    # the search's probe returns the reference clipped into the intersection
    # of the two intervals solved in full, the same float, and None exactly
    # where that intersection is empty (or the same typed error): at a random
    # rate and at every rate of a bisection onto the feasibility boundary,
    # where the ends of the two intervals cross
    params = replace(params, epsilon=epsilon or params.epsilon,
                     rho_ea=rho_ea if params.m_active == 1 else 1.0)
    kinds = cf.scenario_kinds(params, algorithm)
    p_a = min(cf.min_pa(params, "noise_limited"), params.p_max) or params.p_max

    def feasible(r_s) -> bool | None:
        """Whether r_s is feasible, once the probe agrees with the intersection."""
        try:
            want = clipped_reference(params, p_a, r_s, kinds)
        except SecrateError as error:
            want = repr(error)
        try:
            got = opt._Search(params, p_a, kinds).theta(r_s)
        except SecrateError as error:
            got = repr(error)
        assert repr(got) == repr(want), (r_s, kinds, got, want)
        return None if isinstance(want, str) else want is not None

    feasible(rate_share * params.r_b)
    lo, hi = 0.0, params.r_b
    if feasible(lo) and not feasible(hi):
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if feasible(mid) else (lo, mid)


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
                          delta=1.0 - 1e-16, epsilon=1.0 - 1e-16), 0.0, 0.0, None)
# alpha ** 2 in the imperfect-estimate theta-derivative raised OverflowError
@example(_extreme_example(n_antennas=6, k_passive=2, rho_ea=0.5), 0.2, 0.5, 1e-160)
# (1 - G)**(K - 1) G times the passive slope's beta**2 = inf was 0 * inf, NaN
@example(_extreme_example(n_antennas=6, k_passive=2), 0.2, 0.5, 1e-200)
# Bob's jamming-to-signal ratio overflowed with a warning (then NaN), and
# lambda_cap = (1 - rho_ea^2) alpha was 0 * inf at alpha = inf
@example(_extreme_example(n_antennas=6, k_passive=2), 0.2, 0.5, 1e-310)
# p_max / p_a = inf times the threshold 0 at r_s = r_b made alpha and beta NaN
@example(_extreme_example(n_antennas=6, k_passive=2), 1.0, 1.0, 1e-310)
@given(extreme_scenarios(), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.none() | st.floats(1e-6, 1.0))
def test_eval_ends_with_a_result_or_a_typed_error_at_float_extremes(params, theta, rate_share,
                                                                    power_share):
    # under every pa-mode: a table or a SecrateError, and no RuntimeWarning
    # (the suite turns one into an error); p_a is the pa-mode's minimum
    # power when no power share is drawn. No outage, ratio or (where it is
    # defined, M = 1) derivative in the table is NaN.
    cfg = {**dataclasses.asdict(params), "theta": theta, "r_s": rate_share * params.r_b}
    if power_share is not None:
        cfg["p_a"] = power_share * params.p_max
    defined = ["p_to", "p_so1", "p_so2", "alpha", "beta", "lambda_cap"]
    if params.m_active == 1:
        defined += ["dsop_active_dtheta", "dsop_passive_dtheta"]
    for pa_mode in ("auto", *cf.PA_MODES):
        try:
            code, text = cli.cmd_eval(cfg, pa_mode)
        except SecrateError:
            continue
        assert code == 0 and len(text.splitlines()) == 2
        row = dict(zip(*(line.split(",") for line in text.splitlines())))
        assert [name for name in defined if row[name] == "nan"] == []


@given(extreme_scenarios(), _log_uniform(-300.0, 0.0))
def test_minimum_power_and_transmission_outages_at_float_extremes(params, power_share):
    # min_pa under every pa-mode is a positive power (inf beyond the float
    # range) or a typed error, and each transmission outage at a power in
    # (0, p_max] is a probability or a typed error: never NaN, and never a
    # RuntimeWarning (the suite turns one into an error)
    for pa_mode in ("auto", *cf.PA_MODES):
        try:
            assert cf.min_pa(params, pa_mode) > 0.0, pa_mode
        except SecrateError:
            pass
    p_a = power_share * params.p_max
    for outage in (cf.transmission_outage, cf.transmission_outage_noise_limited,
                   cf.transmission_outage_an_leakage):
        try:
            assert 0.0 <= outage(params, p_a) <= 1.0, outage.__name__
        except SecrateError:
            pass


@given(extreme_scenarios(), _log_uniform(-300.0, 0.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_sops_and_their_derivatives_at_float_extremes(params, power_share, theta, rate_share):
    # each exported SOP is a probability, and each derivative a float of the
    # sign its docstring states (+-inf where the derivative lies beyond the
    # float range: at theta = 0 the active slopes are about alpha), or a
    # typed error: never NaN, and never a RuntimeWarning (the suite turns
    # one into an error)
    split = make_split(params, power_share * params.p_max, theta)
    r_s = rate_share * params.r_b
    lead = (params.n_antennas - 1) * theta - 1.0  # formed as the derivatives form it
    for sop in (cf.sop_active, cf.sop_passive, cf.sop_active_imperfect, cf.sop_active_multi,
                cf.sop_passive_multi):
        try:
            assert 0.0 <= sop(params, split, r_s) <= 1.0, sop.__name__
        except SecrateError:
            pass
    # d/dtheta: negative with perfect estimates, else the quadratic's sign;
    # passive: the sign of (N-1) theta - 1; d/drho_ea: the opposite sign
    for derivative, sign in ((cf.sop_active_dtheta, -1.0 if params.rho_ea == 1.0 else 0.0),
                             (cf.sop_passive_dtheta, lead),
                             (cf.sop_active_imperfect_drho, -lead)):
        try:
            value = derivative(params, split, r_s)
        except SecrateError:
            continue
        assert not math.isnan(value), derivative.__name__
        assert sign == 0.0 or value * sign >= 0.0, (derivative.__name__, value)


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


# the kernels that sum log1p terms of one sign; the imperfect-estimate kernel
# adds terms of both signs and cdf_snr_bob rounds t / (1 + t), so either can
# fall by a few ulps from one float x to the next
_MONOTONE_CDFS = ("active", "passive", "active_multi", "passive_multi")


@example(validate(SystemParams(
    n_antennas=4, k_passive=2, m_active=1, var_ab=1.0, var_aea=1.0, var_aek=1.0,
    var_eab=1.0, var_jb=1.0, var_jea=10.0, var_jek=10.0, p_max=1e4, p_ea=1.0, r_b=4.0,
    delta=0.1, epsilon=0.01, rho_ea=0.6)), 1e-6, 0.5,
    [-math.inf, -5.0, -0.0, 0.0, 5e-324, 1.0, 1e303, 1e307, math.inf, math.nan])
@given(scenarios(), st.floats(1e-6, 1.0), st.floats(0.0, 1.0),
       st.lists(st.floats(), min_size=1, max_size=12))
def test_cdfs_are_distributions_on_the_whole_real_line(params, power_share, theta, xs):
    # any float x, -inf, -0.0, subnormals and NaN included: a value in [0, 1],
    # +0.0 at x <= 0, NaN only at a NaN x, never a RuntimeWarning
    p_a = power_share * params.p_max
    split = make_split(params, p_a, theta)
    x = np.sort(np.array(xs, dtype=float))  # NaNs last
    cdfs = {"bob": lambda x: cf.cdf_snr_bob(x, params, p_a)}
    cdfs.update({kind: (lambda x, cdf=getattr(cf, f"cdf_snr_{kind}"): cdf(x, params, split))
                 for kind in KINDS})
    number = ~np.isnan(x)
    for name, cdf in cdfs.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", DegenerateDistributionWarning)
            values = cdf(x)
            scalars = [cdf(float(v)) for v in x]
        assert np.array_equal(values, scalars, equal_nan=True), name
        assert np.array_equal(np.isnan(values), ~number), (name, x, values)
        assert np.all((values[number] >= 0.0) & (values[number] <= 1.0)), (name, x, values)
        assert not np.signbit(values[x <= 0.0]).any() and np.all(values[x <= 0.0] == 0.0), name
        if name in _MONOTONE_CDFS:
            assert np.all(np.diff(values[number]) >= 0.0), (name, x, values)


@given(scenarios(), st.sampled_from(KINDS), _log_uniform(-12.0, 300.0),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_log_survival_falls_in_each_an_weight(params, kind, s, other, w_a, w_b):
    # what the oracle's cell bounds rest on, for the kernels' formulas at
    # float inputs in 50-digit mpmath: more AN on the beams, or on the passive
    # subspace, never raises one eavesdropper's log-survival
    mp = pytest.importorskip("mpmath")
    w_lo, w_hi = sorted((w_a, w_b))
    with mp.workdps(50):
        def log_sf(w_beam, w_pas):
            return mp_log_survival(mp, kind, params, w_beam, w_pas, mp.mpf(s))

        assert log_sf(w_hi, other) <= log_sf(w_lo, other)
        assert log_sf(other, w_hi) <= log_sf(other, w_lo)


@given(scenarios(), st.sampled_from(KINDS), _log_uniform(-12.0, 300.0),
       _log_uniform(-12.0, 300.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_log_survival_falls_in_the_scale(params, kind, s_a, s_b, w_beam, w_pas):
    # what the oracle's tile bounds rest on besides the weights, in 50-digit
    # mpmath: a larger jamming scale never raises one eavesdropper's
    # log-survival, whatever the AN weights
    mp = pytest.importorskip("mpmath")
    s_lo, s_hi = sorted((s_a, s_b))
    with mp.workdps(50):
        assert (mp_log_survival(mp, kind, params, w_beam, w_pas, mp.mpf(s_hi))
                <= mp_log_survival(mp, kind, params, w_beam, w_pas, mp.mpf(s_lo)))


@given(scenarios(), st.sampled_from(KINDS), _log_uniform(-12.0, 300.0), _log_uniform(0.0, 12.0),
       st.integers(1, 40), st.booleans(), st.integers(100, 400))
def test_grid_values_lie_between_their_tiles_corner_bounds(params, kind, s, spread, rows,
                                                           overflow, size):
    # the float kernel at each point of a tile of ``rows`` scales spread
    # over [s, s * spread] (its largest overflowed to inf, when asked), and
    # each theta cell, against the float kernel at the tile's corners:
    # (hi, 1 - lo) at the largest scale below, (lo, 1 - hi) at the least
    # above, each within the rounding margin at the lower bound
    with np.errstate(over="ignore"):  # a product beyond the float range is inf too
        scales = s * np.geomspace(1.0, spread, rows)
    if overflow:
        scales[-1] = math.inf
    thetas = np.linspace(0.0, 1.0, size)
    values = cf.log_sf_at(kind, params, thetas[None, :], scales[:, None])
    for start in range(0, size, cf._GRID_CELL):
        cell = thetas[start:start + cf._GRID_CELL]
        lo, hi = cell.min(), cell.max()
        lower = float(cf.log_sf_at(kind, params, hi, scales.max(), 1.0 - lo))
        upper = float(cf.log_sf_at(kind, params, lo, scales.min(), 1.0 - hi))
        margin = cf.log_sf_margin(kind, params, scales.max(), lower)
        got = values[:, start:start + cf._GRID_CELL]
        assert np.all(got >= lower - margin), (start, lower, got.min())
        assert np.all(got <= upper + margin), (start, upper, got.max())


@given(scenarios(), st.sampled_from(KINDS), _log_uniform(-12.0, 300.0), st.integers(100, 400))
def test_grid_values_lie_between_their_cells_corner_bounds(params, kind, s, size):
    # the float kernel at each grid point, against the float kernel at its
    # cell's corners (lo, hi): (hi, 1 - lo) below and (lo, 1 - hi) above,
    # each within the rounding margin
    thetas = np.linspace(0.0, 1.0, size)
    values = cf.log_sf_at(kind, params, thetas, s)
    for start in range(0, size, cf._GRID_CELL):
        cell = thetas[start:start + cf._GRID_CELL]
        lo, hi = cell.min(), cell.max()
        lower = float(cf.log_sf_at(kind, params, hi, s, 1.0 - lo))
        upper = float(cf.log_sf_at(kind, params, lo, s, 1.0 - hi))
        margin = cf.log_sf_margin(kind, params, s, lower)
        got = values[start:start + cf._GRID_CELL]
        assert np.all(got >= lower - margin), (start, lower, got.min())
        assert np.all(got <= upper + margin), (start, upper, got.max())


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
