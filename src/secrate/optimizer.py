"""Feasible AN-ratio intervals and secrecy-rate maximization.

The rate sweep fixes Alice's power at the minimum meeting the outage target
(both secrecy outages only worsen with more Alice power), then finds the
largest secrecy rate on the grid ``0, step, 2*step, ...`` below r_b at which
some AN ratio satisfies both secrecy constraints. Every SOP rises with the
rate at fixed theta, so the feasible grid rates form a prefix of the grid,
and a bisection over the grid index finds its end. Before it runs, the
boundary is predicted: with x = 2**(r_b - r_s) - 1, the smallest feasible x
is x* = min over theta of max(x_a(theta), x_p(theta)), where each x_k is
quasiconvex in theta, so a few 1-D roots give it. The grid index of x* and
the one past it are probed first, and the bisection closes whatever bracket
they leave; the prediction orders the probes and never decides the result.
``OptResult.steps`` counts the interval solves: 2 when the prediction lands,
1 for NO_THETA_AT_RS0, and never more than ceil(log2(r_b/step + 2)) + 1.
Feasibility is checked on the full interval intersection, which
strengthens the one-sided endpoint comparison: the returned theta is the
feasible point closest to the passive-SOP minimizer, maximizing constraint
slack.

Each interval solve compares one eavesdropper's log-survival in theta
with a level computed once per curve: the best of K eavesdroppers meets
SOP <= epsilon exactly where that log-survival is at most
log(1 - (1-epsilon)^(1/K)). With perfect estimates the active log-survival,
-(M+N-2) log1p(theta alpha / M), meets the level at a closed-form floor.
Every other kind is bisected on each side of its minimizer, where the
log-survival is monotone; secant steps first certify a band around each
crossing, and the bisection evaluates only the midpoints inside it, with the
same result bit for bit.

``grid_search_oracle`` is the brute-force cross-check used by the tests; it
shares only the closed-form grid kernels with the sweep, not its interval
logic, and compares SOPs with epsilon, not log-survivals with the level. It
scans the rate grid in fixed blocks of rows from the top rate down and stops
at the first block holding a feasible row, so it needs no prefix property:
an infeasible scenario visits every row. Within a block the second SOP is
formed only on the rows where the first admits some theta.

Both searches start at one step: resolve the algorithm and the pa-mode, fix
Alice's power at :func:`closedform.min_pa` (a RangeError when that power
rounds to 0), and stop with PA_EXCEEDS_PMAX above p_max. ``OptResult.trace``
holds only what the search saw: ``pa_mode`` and ``algorithm``; a feasible
sweep adds ``theta_interval`` (the admissible interval at r_s_star) and
``theta_reference``, and the oracle adds ``oracle: True``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from . import closedform as cf
from .errors import AlphaZero, RangeError
from .model import SystemParams

ALGORITHMS = ("perfect", "imperfect", "multi")
_ALGORITHM_ALIASES = {"alg1": "perfect", "alg2": "imperfect", "perfect": "perfect",
                      "imperfect": "imperfect", "multi": "multi"}
# algorithm -> the scenario family it reads; 'perfect' reads rho_ea as 1
_FAMILY = {"perfect": "single", "imperfect": "single", "multi": "multi"}

_BISECT_TOL = 1e-13
# A log-survival this far (relative to 1 + |level|) from the level is on its
# side of the level whatever the rounding: an evaluation errs by a few ulps
# of its magnitude.
_MARGIN = 1e-12
# secant steps per crossing (about 10 are taken); the bisection covers the rest
_SECANT_STEPS = 16
# the relative error on the smallest feasible threshold x* that the rate
# search's predicted bracket of grid indices covers: the prediction's roots
# are solved to about _ROOT_TOL, and the interval solver's theta tolerance
# moves the boundary it sees by much less than this
_PREDICTION_ERROR = 1e-9
_ROOT_TOL = 1e-12  # on log s (and so on log x), and on theta
# function evaluations one root of the prediction may take before it gives up
_ROOT_STEPS = 64
# rate rows per block of the oracle's top-down scan: a block's SOP temporaries
# (16 rows x 1000 thetas) stay in a core's L2 cache; on a Xeon with 2 MB of L2
# per core, 64-row blocks evaluated 5% more rows but ran 1.6x slower
_ORACLE_BLOCK = 16


def resolve_algorithm(name: str) -> str:
    try:
        return _ALGORITHM_ALIASES[name]
    except KeyError:
        raise RangeError(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}") from None


def _kinds(params: SystemParams, algorithm: str) -> tuple[str, str]:
    """(active, passive) SOP kinds that ``algorithm`` reads the scenario with."""
    if algorithm == "perfect":
        params = replace(params, rho_ea=1.0)
    return cf.scenario_kinds(params, _FAMILY[algorithm])


def default_algorithm(params: SystemParams) -> str:
    """The first algorithm that reads the scenario's own SOP kinds."""
    own = cf.scenario_kinds(params)
    return next(a for a in ALGORITHMS if _kinds(params, a) == own)


@dataclass(frozen=True)
class ThetaInterval:
    """A closed subinterval of [0,1] of admissible AN ratios (or empty)."""

    lo: float = 0.0
    hi: float = 0.0
    empty: bool = False

    @staticmethod
    def nothing() -> "ThetaInterval":
        return ThetaInterval(lo=math.nan, hi=math.nan, empty=True)

    def intersect(self, other: "ThetaInterval") -> "ThetaInterval":
        if self.empty or other.empty:
            return ThetaInterval.nothing()
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            return ThetaInterval.nothing()
        return ThetaInterval(lo=lo, hi=hi)

    def clip(self, x: float) -> float:
        return min(max(x, self.lo), self.hi)


@dataclass(frozen=True)
class OptResult:
    feasible: bool
    r_s_star: float
    theta_star: float
    p_a_star: float
    # sweep: rate points whose theta-interval was solved (2 when the predicted
    # boundary holds, 1 for NO_THETA_AT_RS0, at most ceil(log2(r_b/step + 2)) + 1);
    # oracle: the rate-grid size, however many rows its scan evaluated
    steps: int
    infeasibility_reason: str = "NONE"  # PA_EXCEEDS_PMAX | NO_THETA_AT_RS0 | NONE
    trace: dict = field(default_factory=dict)


def _bisect(gap, lo: float, hi: float, lo_above: bool, band: tuple[float, float]) -> float:
    """Bisect [lo, hi] down to _BISECT_TOL for the one point where
    ``gap > 0`` changes from ``lo_above`` (its value at lo); returns the
    midpoint of the last bracket.

    ``band`` = (a, b) says that ``gap > 0`` is ``lo_above`` at every point up
    to a and the opposite from b on; only the midpoints strictly inside it
    are evaluated, so the bisection takes the same steps with fewer calls.
    """
    a, b = band
    for _ in range(200):
        if hi - lo <= _BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if mid <= a or (mid < b and (gap(mid) > 0.0) == lo_above):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _secant_band(gap, lo: float, hi: float, gap_lo: float, gap_hi: float,
                 margin: float) -> tuple[float, float]:
    """A band (a, b) for :func:`_bisect` around the one root of ``gap`` on
    [lo, hi], where ``gap`` is monotone and changes sign from positive to
    non-positive; a is lo or a point with gap > margin, b is hi or a point
    with gap < -margin.

    Safeguarded secant steps (a step leaving the band halves it instead)
    close in on the root; once a gap is within the margin, two probes a few
    margins to either side of it certify a tight band. The band is valid
    whatever the steps do: only certified points narrow it.
    """
    a, b = lo, hi
    x0, g0, x1, g1 = lo, gap_lo, hi, gap_hi
    for _ in range(_SECANT_STEPS):
        x = x1 - g1 * (x1 - x0) / (g1 - g0) if g1 != g0 else math.nan
        if not a < x < b:
            x = 0.5 * (a + b)
        g = gap(x)
        if g > margin:
            a = x
        elif g < -margin:
            b = x
        else:  # at the root to within the margin (or a NaN gap)
            slope = abs((g - g1) / (x - x1)) if x != x1 else 0.0
            if 0.0 < slope < math.inf:
                width = 4.0 * margin / slope
                for probe in (x - width, x + width):
                    if a < probe < b:
                        g_probe = gap(probe)
                        if g_probe > margin:
                            a = probe
                        elif g_probe < -margin:
                            b = probe
            break
        x0, g0, x1, g1 = x1, g1, x, g
    return a, b


def _floor_scale(params: SystemParams, beams: int) -> float:
    """M expm1(L / (2-M-N)), the floor times alpha (see :func:`_floor`)."""
    level = cf.secrecy_level(params.epsilon, beams)
    return beams * float(np.expm1(level / (2 - beams - params.n_antennas)))


def _floor(params: SystemParams, p_a: float, r_s: float, beams: int) -> float:
    """Smallest AN ratio meeting the target of the best of M = ``beams``
    active eavesdroppers (perfect estimates): their log-survival
    -(M+N-2) log1p(theta alpha / M) meets the level L at
    M expm1(L / (2-M-N)) / alpha and falls in theta, so the admissible set is
    [floor, 1] whenever floor <= 1."""
    alpha = float(cf.alpha_ratio(params, p_a, r_s))
    if alpha == 0.0:
        raise AlphaZero("no AN margin: secrecy rate equals the transmission rate "
                        "or Alice takes the whole budget")
    floor = _floor_scale(params, beams) / alpha
    # theta = 0 leaves the beams unjammed, so a floor that rounds to 0 (an
    # overflowed alpha, or one below the float range) is the least positive float
    return max(floor, 5e-324)


def theta_floor_active(params: SystemParams, p_a: float, r_s: float) -> float:
    """Smallest AN ratio meeting the single active eavesdropper's target
    (perfect estimates); AlphaZero when there is no AN margin."""
    return _floor(params, p_a, r_s, 1)


def _floor_interval(params: SystemParams, p_a: float, r_s: float, beams: int) -> ThetaInterval:
    """[floor, 1] for the perfect-estimate active SOP (empty above 1)."""
    try:
        floor = _floor(params, p_a, r_s, beams)
    except AlphaZero:
        return ThetaInterval.nothing()
    return ThetaInterval.nothing() if floor > 1.0 else ThetaInterval(lo=floor, hi=1.0)


def _crossings(kind: str, params: SystemParams, p_a: float, r_s: float,
               minimizer: float) -> ThetaInterval:
    """AN ratios where the SOP of ``kind`` is at most epsilon.

    The SOP is at most epsilon exactly where one eavesdropper's log-survival
    is at most a level computed once per curve (cf.log_sf_theta_curve), so
    the solver compares log-survivals with that level and never forms an
    SOP. The log-survival is unimodal in theta with its minimum at
    ``minimizer`` (1.0 for one that decreases throughout), so the admissible
    set is the interval between the level crossings on either side of it,
    each bisected on a theta-curve whose alpha/beta is fixed; empty when even
    the minimum exceeds the level. The log-survival is monotone on each side
    of the minimizer, so the bisection evaluates only inside the band that
    :func:`_secant_band` certifies there.
    """
    log_sf, level = cf.log_sf_theta_curve(kind, params, p_a, r_s, params.epsilon)

    def gap(theta: float) -> float:
        return float(log_sf(theta)) - level

    g_min = gap(minimizer)
    if g_min > 0.0:
        return ThetaInterval.nothing()
    margin = _MARGIN * (1.0 + abs(level))

    def crossing(lo: float, hi: float, g_lo: float, g_hi: float, sign: float) -> float:
        """The one crossing on [lo, hi]; ``sign`` orients the gap to fall."""
        band = _secant_band(lambda t: sign * gap(t), lo, hi, sign * g_lo, sign * g_hi, margin)
        return _bisect(gap, lo, hi, sign > 0.0, band)

    g_0, g_1 = gap(0.0), gap(1.0)
    lo = 0.0 if g_0 <= 0.0 else crossing(0.0, minimizer, g_0, g_min, 1.0)
    hi = 1.0 if g_1 <= 0.0 else crossing(minimizer, 1.0, g_min, g_1, -1.0)
    return ThetaInterval(lo=lo, hi=hi)


def theta_interval_passive(params: SystemParams, p_a: float, r_s: float) -> ThetaInterval:
    """AN ratios meeting the passive-eavesdropper secrecy target.

    The passive SOP is unimodal in theta (log-convex per eavesdropper) with
    its minimum at 1/(N-1); it is convex only where SOP <= 1-(1-1/K)^K.
    """
    return _crossings("passive", params, p_a, r_s, _theta_reference(params, "passive"))


def theta_interval_active_imperfect(params: SystemParams, p_a: float, r_s: float) -> ThetaInterval:
    """AN ratios meeting the active-eavesdropper target with rho_ea <= 1.

    With a perfect estimate this is [floor, 1]. Otherwise the SOP decreases
    down to the quadratic's positive root and increases beyond it, so the
    admissible set is an interval around that root (clipped to [0,1]).
    """
    if params.rho_ea == 1.0:
        return _floor_interval(params, p_a, r_s, 1)
    alpha = float(cf.alpha_ratio(params, p_a, r_s))
    if alpha == 0.0:
        return ThetaInterval.nothing()
    return _crossings("active_imperfect", params, p_a, r_s, _active_minimizer(params, alpha))


def _active_minimizer(params: SystemParams, alpha: float) -> float:
    """Where the imperfect-estimate active log-survival is smallest on [0, 1]
    at this alpha > 0: the positive root of its theta-derivative quadratic,
    clipped to 1 (exactly 1/(N-1) at rho_ea = 0, where the quadratic
    degenerates)."""
    if params.rho_ea == 0.0:
        return 1.0 / (params.n_antennas - 1)
    return min(float(cf._quadratic_roots(params.n_antennas, alpha, params.rho_ea)[1]), 1.0)


def theta_interval_active_multi(params: SystemParams, p_a: float, r_s: float) -> ThetaInterval:
    """Admissible AN ratios for the best-of-M active eavesdroppers constraint:
    [floor, 1] at the closed-form floor (their SOP decreases with theta)."""
    return _floor_interval(params, p_a, r_s, params.m_active)


def theta_interval_passive_multi(params: SystemParams, p_a: float, r_s: float) -> ThetaInterval:
    """Admissible AN ratios for the passive constraint with M active beams
    (unimodal, log-convex per eavesdropper, minimum at M/(N-1); convex where
    SOP <= 1-(1-1/K)^K)."""
    return _crossings("passive_multi", params, p_a, r_s, _theta_reference(params, "passive_multi"))


def _theta_reference(params: SystemParams, passive_kind: str) -> float:
    """The passive SOP's minimizer M/(N-1), M the beams its kernel counts."""
    beams = params.m_active if passive_kind == "passive_multi" else 1
    return beams / (params.n_antennas - 1)


# SOP kind -> its theta-interval solver, looked up when called, so a
# replaced module attribute is used
_SOLVERS = {
    "active": lambda *a: _floor_interval(*a, 1),
    "active_imperfect": lambda *a: theta_interval_active_imperfect(*a),
    "active_multi": lambda *a: theta_interval_active_multi(*a),
    "passive": lambda *a: theta_interval_passive(*a),
    "passive_multi": lambda *a: theta_interval_passive_multi(*a),
}


def theta_interval(kind: str, params: SystemParams, p_a: float, r_s: float) -> ThetaInterval:
    """AN ratios meeting the secrecy target of one SOP kind."""
    return _SOLVERS[cf.check_kind(kind)](params, p_a, r_s)


# ---------------------------------------------------------------------------
# Rate maximization
# ---------------------------------------------------------------------------

def _feasible_interval(params: SystemParams, p_a: float, r_s: float,
                       kinds: tuple[str, str]) -> ThetaInterval:
    active = theta_interval(kinds[0], params, p_a, r_s)
    if active.empty:
        return active
    return active.intersect(theta_interval(kinds[1], params, p_a, r_s))


def _infeasible(p_req: float, steps: int, reason: str, trace: dict) -> OptResult:
    return OptResult(feasible=False, r_s_star=0.0, theta_star=math.nan, p_a_star=p_req,
                     steps=steps, infeasibility_reason=reason, trace=trace)


def _start(params: SystemParams, algorithm: str | None, pa_mode: str, **trace):
    """The entry both searches share: (SOP kinds, minimum Alice power, trace,
    the PA_EXCEEDS_PMAX result or None).

    Resolves the algorithm (None: the scenario's default) and the pa-mode,
    then fixes Alice's power at :func:`closedform.min_pa`. The trace starts
    with the pa-mode and the algorithm, followed by the ``trace`` entries.
    """
    algorithm = default_algorithm(params) if algorithm is None else resolve_algorithm(algorithm)
    mode = cf.resolve_pa_mode(params, pa_mode)
    p_req = cf.min_pa(params, mode)
    trace = {"pa_mode": mode, "algorithm": algorithm, **trace}
    refused = _infeasible(p_req, 0, "PA_EXCEEDS_PMAX", trace) if p_req > params.p_max else None
    return _kinds(params, algorithm), p_req, trace, refused


class _NoPrediction(Exception):
    """The boundary prediction gave up; the rate search bisects the grid."""


def _exp(u: float) -> float:
    """e**u, inf beyond the float range (where math.exp raises)."""
    return math.exp(u) if u < 709.78 else math.inf


def _illinois(fn, a: float, fa: float, b: float, fb: float, tol: float) -> float:
    """A point within about ``tol`` of the one sign change of ``fn`` between
    a and b, where fa and fb have opposite signs.

    Regula falsi that halves the value kept at an end retained twice running
    (the Illinois method; Dowell & Jarratt, BIT 11, 1971); a step that does
    not land strictly inside the bracket halves it instead. It stops at a
    bracket within ``tol`` or a secant correction below it.
    """
    side = 0
    for _ in range(_ROOT_STEPS):
        x = b - fb * (b - a) / (fb - fa)
        if not min(a, b) < x < max(a, b):
            x = 0.5 * (a + b)
        fx = fn(x)
        if (fx > 0.0) == (fb > 0.0):
            b, fb = x, fx
            fa *= 0.5 if side < 0 else 1.0
            side = -1
        else:
            a, fa = x, fx
            fb *= 0.5 if side > 0 else 1.0
            side = 1
        slope = abs((fb - fa) / (b - a)) if b != a else math.inf
        if fx == 0.0 or abs(b - a) <= tol or (slope < math.inf and abs(fx) <= tol * slope):
            return x
    raise _NoPrediction


def _log_root(fn, level: float, u: float, slope: float) -> tuple[float, float]:
    """(u, slope): the log-scale u at which the log-survival ``fn(s)``, falling
    from 0 at s = 0 to -inf, meets ``level`` < 0, and the slope there of
    phi(u) = log(-fn(e**u)) - log(-level).

    phi rises with u, with a slope of about 1 or less (exactly 1 as s -> 0).
    Secant steps run from the guess ``u``, the first at ``slope``, until the
    correction is below _ROOT_TOL or they bracket the root, which
    :func:`_illinois` then closes.
    """
    target = math.log(-level)

    def phi(v: float) -> float:
        g = -float(fn(_exp(v)))
        return math.log(g) - target if g > 0.0 else -math.inf

    p = phi(u)
    for _ in range(_ROOT_STEPS):
        step = -p / slope if math.isfinite(p) else math.copysign(32.0, -p)
        if abs(step) <= _ROOT_TOL:
            return u + step, slope
        v = u + step
        q = phi(v)
        rise = (q - p) / step
        slope = rise if 0.0 < rise < math.inf else slope
        if (q > 0.0) != (p > 0.0) and abs(q) > _ROOT_TOL * slope:
            return _illinois(phi, u, p, v, q, _ROOT_TOL), slope
        u, p = v, q
    raise _NoPrediction


def _smallest_threshold(params: SystemParams, p_req: float, kinds: tuple[str, str]) -> float:
    """log x*, where x* = min over theta of max(x_a(theta), x_p(theta)) is the
    smallest threshold x = 2**(r_b - r_s) - 1 at which some AN ratio meets
    both targets; x_k(theta) is the x at which kind k's log-survival at theta
    meets its level (every kernel falls as x grows). inf when there is no AN
    margin, so that no rate is feasible; _NoPrediction when a root fails.

    Each x_k is quasiconvex in theta, and the passive one is smallest at the
    reference M/(N-1) whatever x is. So x* is x_p at the reference unless the
    active target fails there; then it lies where the two meet, between the
    reference and the active minimizer, unless the active target alone binds
    at its own minimizer.
    """
    # alpha and beta are c_a x and c_p x; their ratios to x at a rate whose x is at most 1
    r_s = max(params.r_b - 1.0, 0.0)
    x = cf.rate_gap_threshold(params.r_b, r_s)
    scales = [float(ratio(params, p_req, r_s)) / x for ratio in (cf.alpha_ratio, cf.beta_ratio)]
    if 0.0 in scales:  # no AN margin (or one below the float range): no rate is feasible
        return math.inf
    if math.inf in scales:
        raise _NoPrediction
    active, passive = kinds
    log_c = dict(zip(kinds, map(math.log, scales)))
    level = {kind: cf.log_sf_level(kind, params, params.epsilon) for kind in kinds}
    warm = {}  # kind -> (u, slope) of its last root, the start of its next

    def gap(kind: str, theta: float, log_x: float) -> float:
        """kind's log-survival at theta and threshold e**log_x, less its level."""
        s = _exp(log_c[kind] + log_x)
        return float(cf.log_sf_at(kind, params, theta, s)) - level[kind]

    def threshold(kind: str, curve) -> float:
        """log x at which ``curve(s)``, a log-survival of kind, meets kind's
        level, warm-started from kind's last root."""
        warm[kind] = _log_root(curve, level[kind], *warm.get(kind, (math.log(-level[kind]), 1.0)))
        return warm[kind][0] - log_c[kind]

    def at(kind: str, theta: float):
        return lambda s: cf.log_sf_at(kind, params, theta, s)

    ref = _theta_reference(params, passive)
    log_xp = threshold(passive, at(passive, ref))
    if active != "active_imperfect":
        # x_a(theta) = K / theta: the closed-form floor in x, smallest at theta = 1
        beams = params.m_active if active == "active_multi" else 1
        log_k = math.log(_floor_scale(params, beams)) - log_c[active]
        g_ref = gap(passive, ref, log_k - math.log(ref))
        if g_ref >= 0.0:  # the floor is at most the reference at x_p(reference)
            return log_xp
        # the passive target at (theta, K / theta) only worsens as theta grows
        g_1 = gap(passive, 1.0, log_k)
        if g_1 <= 0.0:
            return log_k
        theta = _illinois(lambda t: gap(passive, t, log_k - math.log(t)),
                          ref, g_ref, 1.0, g_1, _ROOT_TOL)
        return log_k - math.log(theta)
    g_ref = gap(active, ref, log_xp)
    if g_ref <= 0.0:
        return log_xp

    def lowest(s: float) -> float:
        """The active log-survival at its minimizer, which tends to 1 as alpha -> 0."""
        return cf.log_sf_at(active, params, _active_minimizer(params, s) if s > 0.0 else 1.0, s)

    warm[active] = (log_xp + log_c[active], 1.0)
    log_xa = threshold(active, lowest)
    theta_a = _active_minimizer(params, _exp(log_xa + log_c[active]))
    if gap(passive, theta_a, log_xa) <= 0.0:
        return log_xa
    # both bind where x_a and x_p meet: the active target at x_p(theta) fails
    # at the reference and holds at the active minimizer, and changes once
    # between them
    seen = [log_xp]

    def active_at_xp(theta: float) -> float:
        seen[0] = threshold(passive, at(passive, theta))
        return gap(active, theta, seen[0])

    g_a = active_at_xp(theta_a)
    if not g_a < 0.0:
        raise _NoPrediction
    _illinois(active_at_xp, ref, g_ref, theta_a, g_a, _ROOT_TOL)
    return seen[0]


def _predicted_bracket(params: SystemParams, p_req: float, kinds: tuple[str, str],
                       step: float, cap: float) -> tuple[int, int] | None:
    """(a, b): the grid index of the last feasible rate and one past it, as
    predicted from x* (:func:`_smallest_threshold`) and widened to cover a
    relative error of _PREDICTION_ERROR on x*; neither lies above the r_b cap.
    a = -1 predicts no feasible rate. None when the prediction gives up.
    """
    try:
        log_x = _smallest_threshold(params, p_req, kinds)
    except _NoPrediction:
        return None

    def index(log_x: float) -> int:
        """The last grid index at or below r_b - log2(1 + e**log_x), or -1."""
        log_1p = log_x + math.log1p(math.exp(-log_x)) if log_x > 0.0 else math.log1p(
            math.exp(log_x))
        rate = params.r_b - log_1p / math.log(2.0)
        return math.floor(rate / step) if rate >= 0.0 else -1

    last = max(math.ceil(cap / step) - 1, -1)
    return (min(index(log_x + _PREDICTION_ERROR), last),
            min(index(log_x - _PREDICTION_ERROR) + 1, last + 1))


def _maximize(params: SystemParams, step: float, pa_mode: str, algorithm: str | None) -> OptResult:
    kinds, p_req, trace, refused = _start(params, algorithm, pa_mode)
    # an unknown algorithm is reported first, and a bad step even over p_max
    if not (math.isfinite(step) and step > 0.0):
        raise RangeError(f"step must be positive and finite, got {step}")
    span = params.r_b / step
    if not math.isfinite(span):
        raise RangeError(f"step {step!r} is too small for r_b = {params.r_b!r}")
    if refused is not None:
        return refused
    cap = params.r_b - 1e-12  # grid rates at or above it are capped by r_b
    steps = 0

    def probe(i: int):
        """(r_s, interval) at grid index i, or None where the rate is capped
        by r_b or no theta meets both targets."""
        nonlocal steps
        r_s = i * step
        if not r_s < cap:
            return None
        steps += 1
        interval = _feasible_interval(params, p_req, r_s, kinds)
        return None if interval.empty else (r_s, interval)

    # the feasible indices are a prefix: lo is feasible (-1: none seen yet)
    # and hi past the prefix. The predicted indices are probed first, the one
    # nearer the middle of the bracket first; each probe is kept where the
    # probes left can still bisect what it leaves, so no search takes more than
    # one probe over a bisection of the whole grid.
    lo, hi, best = -1, math.ceil(span) + 1, None
    budget = (hi - lo - 1).bit_length() + 1
    guesses = _predicted_bracket(params, p_req, kinds, step, cap) or ()
    while hi - lo > 1:
        inside = [g for g in guesses if lo < g < hi]
        mid = min(inside, key=lambda g: abs(2 * g - lo - hi)) if inside else (lo + hi) // 2
        reach = 1 << (budget - steps - 1)
        mid = min(max(mid, hi - reach), lo + reach)
        found = probe(mid)
        if found is None:
            hi = mid
        else:
            lo, best = mid, found
    if best is None:
        return _infeasible(p_req, steps, "NO_THETA_AT_RS0", trace)
    r_star, interval = best
    reference = _theta_reference(params, kinds[1])
    trace["theta_interval"] = (interval.lo, interval.hi)
    trace["theta_reference"] = reference
    return OptResult(feasible=True, r_s_star=r_star, theta_star=interval.clip(reference),
                     p_a_star=p_req, steps=steps, infeasibility_reason="NONE", trace=trace)


def maximize_secrecy_rate(params: SystemParams, step: float = 0.01,
                          pa_mode: str = "auto") -> OptResult:
    """Rate sweep under the perfect-estimate secrecy constraints."""
    return _maximize(params, step, pa_mode, "perfect")


def maximize_secrecy_rate_imperfect(params: SystemParams, step: float = 0.01,
                                    pa_mode: str = "auto") -> OptResult:
    """Rate sweep with an imperfect jammer->active-eavesdropper estimate;
    identical to the perfect sweep at rho_ea = 1."""
    return _maximize(params, step, pa_mode, "imperfect")


def maximize_secrecy_rate_multi(params: SystemParams, step: float = 0.01,
                                pa_mode: str = "auto") -> OptResult:
    """Rate sweep with M >= 2 active eavesdroppers (perfect estimates)."""
    return _maximize(params, step, pa_mode, "multi")


def maximize_for(params: SystemParams, algorithm: str | None = None, step: float = 0.01,
                 pa_mode: str = "auto") -> OptResult:
    """Dispatch to the sweep matching ``algorithm`` (default: inferred)."""
    return _maximize(params, step, pa_mode, algorithm)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def _feasible_mask(params: SystemParams, p_a: float, rs_grid: np.ndarray,
                   theta_grid: np.ndarray, kinds: tuple[str, str]) -> np.ndarray:
    """(rate x theta) mask of the grid points meeting both secrecy targets.

    The second kind's SOP is formed only on the rows where the first kind
    admits some theta: elsewhere the row is infeasible whatever it holds.
    """
    feasible = cf.sop_grid(params, p_a, rs_grid, theta_grid, kinds[0]) <= params.epsilon
    rows = feasible.any(axis=1)
    if rows.any():
        second = cf.sop_grid(params, p_a, rs_grid[rows], theta_grid, kinds[1])
        feasible[rows] &= second <= params.epsilon
    return feasible


def _check_grid_points(*sizes) -> None:
    if not all(isinstance(size, Integral) and size >= 100 for size in sizes):
        raise RangeError(f"oracle grids need an integer count of at least 100 points "
                         f"per axis, got {', '.join(map(repr, sizes))}")


def grid_search_oracle(params: SystemParams, rs_grid_points: int = 1000,
                       theta_grid_points: int = 1000, algorithm: str | None = None,
                       pa_mode: str = "auto") -> OptResult:
    """Top-down feasibility scan over a (rate, theta) grid at the minimum power.

    Test-side cross-check for the sweeps: returns the largest feasible grid
    rate and, at that rate, the feasible theta closest to the passive-SOP
    minimizer (ties toward the smaller theta). The rate rows are evaluated
    in blocks of _ORACLE_BLOCK from the top rate down, and the scan stops at
    the first block holding a feasible row. It assumes nothing about where
    the feasible rows lie, so the answer is the full grid's and an
    infeasible scenario visits every row. ``steps`` is the rate-grid size,
    however many rows were evaluated.
    """
    _check_grid_points(rs_grid_points, theta_grid_points)
    kinds, p_req, trace, refused = _start(params, algorithm, pa_mode, oracle=True)
    if refused is not None:
        return refused
    rs_grid = np.linspace(0.0, params.r_b, rs_grid_points, endpoint=False)
    theta_grid = np.linspace(0.0, 1.0, theta_grid_points)
    for stop in range(rs_grid_points, 0, -_ORACLE_BLOCK):
        start = max(stop - _ORACLE_BLOCK, 0)
        feasible = _feasible_mask(params, p_req, rs_grid[start:stop], theta_grid, kinds)
        rows = np.nonzero(feasible.any(axis=1))[0]
        if rows.size:
            break
    else:
        return _infeasible(p_req, rs_grid_points, "NO_THETA_AT_RS0", trace)
    row = int(rows[-1])
    reference = _theta_reference(params, kinds[1])
    candidates = theta_grid[feasible[row]]
    theta_star = float(candidates[np.argmin(np.abs(candidates - reference))])
    return OptResult(feasible=True, r_s_star=float(rs_grid[start + row]), theta_star=theta_star,
                     p_a_star=p_req, steps=rs_grid_points, infeasibility_reason="NONE",
                     trace=trace)


def feasible_any_theta(params: SystemParams, p_a: float, r_s: float,
                       algorithm: str, theta_grid_points: int = 10_000) -> bool:
    """Whether any theta on a fine grid meets both secrecy targets at ``r_s``:
    False for a finite ``r_s`` at or above r_b, RangeError for a negative or
    non-finite one. The grid size, ``algorithm`` and ``p_a`` are checked
    first, at every rate."""
    _check_grid_points(theta_grid_points)
    kinds = _kinds(params, resolve_algorithm(algorithm))
    cf.check_pa(params, p_a)
    if math.isfinite(r_s) and r_s >= params.r_b:
        return False
    theta_grid = np.linspace(0.0, 1.0, theta_grid_points)
    return bool(_feasible_mask(params, p_a, np.array([r_s]), theta_grid, kinds).any())
