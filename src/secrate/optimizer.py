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

Each interval solve bisects one eavesdropper's log-survival in theta
against a level computed once per curve: the best of K eavesdroppers meets
SOP <= epsilon exactly where that log-survival is at most
log(1 - (1-epsilon)^(1/K)). On the kinds where the log-survival is convex,
secant steps first certify a band around each crossing, and the bisection
evaluates only the midpoints inside it, with the same result bit for bit.

``grid_search_oracle`` is the brute-force cross-check used by the tests; it
shares only the closed-form grid kernels with the sweep, not its interval
logic, and compares SOPs with epsilon, not log-survivals with the level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
# Kinds whose log-survival is convex in theta (monotone on each side of its
# minimizer): the passive kernels, and the perfect-estimate active kernels,
# -(M+N-2) log1p(theta s / M). The imperfect-estimate one is not.
_CONVEX = ("active", "active_multi", "passive", "passive_multi")


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
    steps: int  # rate points whose theta-interval was solved
    infeasibility_reason: str = "NONE"  # PA_EXCEEDS_PMAX | NO_THETA_AT_RS0 | NONE
    trace: dict = field(default_factory=dict)


def _bisect(gap, lo: float, hi: float, lo_above: bool,
            band: tuple[float, float] = (-math.inf, math.inf)) -> float:
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


def theta_floor_active(params: SystemParams, p_a: float, r_s: float) -> float:
    """Smallest AN ratio meeting the active-eavesdropper secrecy target
    (perfect estimates): the SOP is strictly decreasing in theta, so the
    admissible set is [floor, 1] whenever floor <= 1."""
    alpha = float(cf.alpha_ratio(params, p_a, r_s))
    if alpha == 0.0:
        raise AlphaZero("no AN margin: secrecy rate equals the transmission rate "
                        "or Alice takes the whole budget")
    n = params.n_antennas
    return float(np.expm1(np.log(params.epsilon) / (1.0 - n)) / alpha)


def _floor_interval(params: SystemParams, p_a: float, r_s: float) -> ThetaInterval:
    """[floor, 1] for the perfect-estimate active SOP (empty above 1)."""
    try:
        floor = theta_floor_active(params, p_a, r_s)
    except AlphaZero:
        return ThetaInterval.nothing()
    return ThetaInterval.nothing() if floor > 1.0 else ThetaInterval(lo=max(0.0, floor), hi=1.0)


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
    the minimum exceeds the level. On the ``_CONVEX`` kinds the bisection
    evaluates only inside the band that :func:`_secant_band` certifies.
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
        band = (-math.inf, math.inf)
        if kind in _CONVEX:
            band = _secant_band(lambda t: sign * gap(t), lo, hi, sign * g_lo, sign * g_hi,
                                margin)
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
        return _floor_interval(params, p_a, r_s)
    alpha = float(cf.alpha_ratio(params, p_a, r_s))
    if alpha == 0.0:
        return ThetaInterval.nothing()
    if params.rho_ea == 0.0:  # the quadratic degenerates; its root is exact here
        root = 1.0 / (params.n_antennas - 1)
    else:
        root = cf.active_sop_theta_profile(params, p_a, r_s).theta_pos
    return _crossings("active_imperfect", params, p_a, r_s, min(root, 1.0))


def theta_interval_active_multi(params: SystemParams, p_a: float, r_s: float) -> ThetaInterval:
    """Admissible AN ratios for the best-of-M active eavesdroppers constraint
    (their SOP decreases with theta)."""
    return _crossings("active_multi", params, p_a, r_s, 1.0)


def theta_interval_passive_multi(params: SystemParams, p_a: float, r_s: float) -> ThetaInterval:
    """Admissible AN ratios for the passive constraint with M active beams
    (unimodal, log-convex per eavesdropper, minimum at M/(N-1); convex where
    SOP <= 1-(1-1/K)^K)."""
    return _crossings("passive_multi", params, p_a, r_s, _theta_reference(params, "passive_multi"))


def _theta_reference(params: SystemParams, passive_kind: str) -> float:
    """The passive SOP's minimizer M/(N-1), M the beams its kernel counts."""
    beams = params.m_active if passive_kind == "passive_multi" else 1
    return beams / (params.n_antennas - 1)


def _floor_trace(params: SystemParams, p_a: float, r_s: float) -> dict:
    try:
        return {"theta_floor": theta_floor_active(params, p_a, r_s)}
    except AlphaZero:
        return {}


def _profile_trace(params: SystemParams, p_a: float, r_s: float) -> dict:
    if params.rho_ea == 0.0:
        return {}
    profile = cf.active_sop_theta_profile(params, p_a, r_s)
    return {"theta_pos": profile.theta_pos, "decreasing_on_unit": profile.decreasing_on_unit}


# SOP kind -> (theta-interval solver, trace entries at the optimum). The
# solvers are looked up when called, so a replaced module attribute is used.
_SOLVERS = {
    "active": (lambda *a: _floor_interval(*a), _floor_trace),
    "active_imperfect": (lambda *a: theta_interval_active_imperfect(*a), _profile_trace),
    "active_multi": (lambda *a: theta_interval_active_multi(*a), None),
    "passive": (lambda *a: theta_interval_passive(*a), None),
    "passive_multi": (lambda *a: theta_interval_passive_multi(*a), None),
}


def theta_interval(kind: str, params: SystemParams, p_a: float, r_s: float) -> ThetaInterval:
    """AN ratios meeting the secrecy target of one SOP kind."""
    return _SOLVERS[kind][0](params, p_a, r_s)


# ---------------------------------------------------------------------------
# Rate maximization
# ---------------------------------------------------------------------------

def _feasible_interval(params: SystemParams, p_a: float, r_s: float,
                       kinds: tuple[str, str]) -> ThetaInterval:
    active = theta_interval(kinds[0], params, p_a, r_s)
    if active.empty:
        return active
    return active.intersect(theta_interval(kinds[1], params, p_a, r_s))


def _maximize(params: SystemParams, step: float, pa_mode: str, algorithm: str) -> OptResult:
    if not (math.isfinite(step) and step > 0.0):
        raise RangeError(f"step must be positive and finite, got {step}")
    span = params.r_b / step
    if not math.isfinite(span):
        raise RangeError(f"step {step!r} is too small for r_b = {params.r_b!r}")
    mode = cf.resolve_pa_mode(params, pa_mode)
    p_req = cf.min_pa(params, mode)
    if p_req > params.p_max:
        return OptResult(feasible=False, r_s_star=0.0, theta_star=math.nan,
                         p_a_star=p_req, steps=0, infeasibility_reason="PA_EXCEEDS_PMAX",
                         trace={"pa_mode": mode, "algorithm": algorithm})
    kinds = _kinds(params, algorithm)
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
    trace: dict = {"pa_mode": mode, "algorithm": algorithm,
                   "p_to": cf.transmission_outage_for_mode(params, p_req, mode)}
    if best is None:
        return OptResult(feasible=False, r_s_star=0.0, theta_star=math.nan,
                         p_a_star=p_req, steps=steps,
                         infeasibility_reason="NO_THETA_AT_RS0", trace=trace)
    r_star, interval = best
    reference = _theta_reference(params, kinds[1])
    theta_star = interval.clip(reference)
    trace["theta_interval"] = (interval.lo, interval.hi)
    trace["theta_reference"] = reference
    active_trace = _SOLVERS[kinds[0]][1]
    if active_trace is not None:
        trace.update(active_trace(params, p_req, r_star))
    return OptResult(feasible=True, r_s_star=r_star, theta_star=theta_star,
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
    algorithm = default_algorithm(params) if algorithm is None else resolve_algorithm(algorithm)
    return _maximize(params, step, pa_mode, algorithm)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def grid_search_oracle(params: SystemParams, rs_grid_points: int = 1000,
                       theta_grid_points: int = 1000, algorithm: str | None = None,
                       pa_mode: str = "auto") -> OptResult:
    """Exhaustive feasibility scan over a (rate, theta) grid at the minimum power.

    Test-side cross-check for the sweeps: returns the largest feasible grid
    rate and, at that rate, the feasible theta closest to the passive-SOP
    minimizer (ties toward the smaller theta).
    """
    if rs_grid_points < 100 or theta_grid_points < 100:
        raise RangeError("oracle grids need at least 100 points per axis")
    algorithm = default_algorithm(params) if algorithm is None else resolve_algorithm(algorithm)
    mode = cf.resolve_pa_mode(params, pa_mode)
    p_req = cf.min_pa(params, mode)
    if p_req > params.p_max:
        return OptResult(feasible=False, r_s_star=0.0, theta_star=math.nan,
                         p_a_star=p_req, steps=0, infeasibility_reason="PA_EXCEEDS_PMAX",
                         trace={"oracle": True, "pa_mode": mode})
    rs_grid = np.linspace(0.0, params.r_b, rs_grid_points, endpoint=False)
    theta_grid = np.linspace(0.0, 1.0, theta_grid_points)
    kinds = _kinds(params, algorithm)
    p1, p2 = (cf.sop_grid(params, p_req, rs_grid, theta_grid, kind) for kind in kinds)
    feasible = (p1 <= params.epsilon) & (p2 <= params.epsilon)
    any_theta = feasible.any(axis=1)
    trace = {"oracle": True, "pa_mode": mode, "algorithm": algorithm}
    if not any_theta.any():
        return OptResult(feasible=False, r_s_star=0.0, theta_star=math.nan,
                         p_a_star=p_req, steps=rs_grid_points,
                         infeasibility_reason="NO_THETA_AT_RS0", trace=trace)
    row = int(np.max(np.nonzero(any_theta)[0]))
    mask = feasible[row]
    reference = _theta_reference(params, kinds[1])
    candidates = theta_grid[mask]
    theta_star = float(candidates[np.argmin(np.abs(candidates - reference))])
    return OptResult(feasible=True, r_s_star=float(rs_grid[row]), theta_star=theta_star,
                     p_a_star=p_req, steps=rs_grid_points, infeasibility_reason="NONE",
                     trace=trace)


def feasible_any_theta(params: SystemParams, p_a: float, r_s: float,
                       algorithm: str, theta_grid_points: int = 10_000) -> bool:
    """Whether any theta on a fine grid meets both secrecy targets at ``r_s``."""
    if r_s >= params.r_b:
        return False
    theta_grid = np.linspace(0.0, 1.0, theta_grid_points)
    rs_grid = np.array([r_s])
    kinds = _kinds(params, resolve_algorithm(algorithm))
    p1, p2 = (cf.sop_grid(params, p_a, rs_grid, theta_grid, kind) for kind in kinds)
    return bool(((p1 <= params.epsilon) & (p2 <= params.epsilon)).any())
