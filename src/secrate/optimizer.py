"""Feasible AN-ratio intervals and secrecy-rate maximization.

The rate sweep fixes Alice's power at the minimum meeting the outage target
(both secrecy outages only worsen with more Alice power), then finds the
largest secrecy rate on the grid ``0, step, 2*step, ...`` below r_b at which
some AN ratio satisfies both secrecy constraints. Every SOP rises with the
rate at fixed theta, so the feasible grid rates form a prefix of the grid
and a bisection over the grid index finds its end in about
log2(r_b/step) + 1 interval solves; ``OptResult.steps`` counts those
solves. Feasibility is checked on the full interval intersection, which
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
    # sweep: rate points whose theta-interval was solved; oracle: the rate-grid
    # size, however many rows its scan evaluated
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
    level = cf.secrecy_level(params.epsilon, beams)
    floor = beams * float(np.expm1(level / (2 - beams - params.n_antennas))) / alpha
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
    if params.rho_ea == 0.0:  # the quadratic degenerates; its root is exact here
        root = 1.0 / (params.n_antennas - 1)
    else:
        root = cf.active_sop_theta_profile(params, p_a, r_s).theta_pos
    return _crossings("active_imperfect", params, p_a, r_s, min(root, 1.0))


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
    steps = 0

    def probe(i: int):
        """(r_s, interval) at grid index i, or None where the rate is capped
        by r_b or no theta meets both targets."""
        nonlocal steps
        r_s = i * step
        if not r_s < params.r_b - 1e-12:
            return None
        steps += 1
        interval = _feasible_interval(params, p_req, r_s, kinds)
        return None if interval.empty else (r_s, interval)

    # the feasible indices are a prefix: lo stays feasible, hi past the prefix
    best = probe(0)
    lo, hi = 0, math.ceil(span) + 1
    while best is not None and hi - lo > 1:
        mid = (lo + hi) // 2
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
