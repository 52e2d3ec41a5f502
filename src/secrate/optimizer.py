"""Feasible AN-ratio intervals and secrecy-rate maximization.

The rate sweep fixes Alice's power at the minimum meeting the outage target
(both secrecy outages only worsen with more Alice power), then finds the
largest secrecy rate on the grid ``0, step, 2*step, ...`` below r_b at which
some AN ratio satisfies both secrecy constraints. Every SOP rises with the
rate at fixed theta, so the feasible grid rates form a prefix of the grid,
and a bisection over the grid index finds its end. Before it runs, the
boundary is predicted: with x = 2**(r_b - r_s) - 1, the smallest feasible x
is x* = min over theta of max(x_a(theta), x_p(theta)), where each x_k is
quasiconvex in theta, x_p least at the reference M/(N-1) and x_a at
theta_a. One flow serves every active kind: x* is x_p(reference) when the
active target holds there, else x_a(theta_a) when the passive target holds
there, else x_a where the passive gap along x_a crosses 0, between the
two. x_p at the reference is closed form: both passive kernel terms read
s/(N-1) there, so the kernel meets the level L at s = (N-1) expm1(L/(1-N)),
the passive twin of the active floor. With perfect estimates the rest is
closed form too: x_a is the floor K / theta, theta_a = 1, and along it the
passive scale is a constant over theta, so the crossing has a closed form
(:func:`_smallest_threshold`). With imperfect ones x_a is a root in log x,
theta_a the active minimizer, and the crossing a root in theta.
The grid index of x* and the one past it are probed first,
and the bisection closes whatever bracket they leave; the prediction orders
the probes and never decides the result. Each search forms its constants
once (:class:`_Search`): each kind's level, margin, scale terms, floor
scale or reference (:class:`_Constraint`), which the prediction and every
probe read.
``OptResult.steps`` counts the probes: 2 when the prediction lands, 1 for
NO_THETA_AT_RS0, and never more than ceil(log2(r_b/step + 2)) + 1. A probe
returns the feasible theta closest to the passive-SOP minimizer, the
reference M/(N-1), maximizing constraint slack: the reference clipped into
the intersection of the two intervals, or None where it is empty, which
strengthens the one-sided endpoint comparison.

Each interval solve compares one eavesdropper's log-survival in theta
with a level computed once per curve: the best of K eavesdroppers meets
SOP <= epsilon exactly where that log-survival is at most
log(1 - (1-epsilon)^(1/K)). With perfect estimates the active log-survival,
-(M+N-2) log1p(theta alpha / M), meets the level at a closed-form floor.
Every other kind is bisected on each side of its minimizer, where the
log-survival is monotone; secant steps first certify a band around each
crossing, and the bisection evaluates only the midpoints inside it, with the
same result bit for bit. A gap to the level is certified only beyond a
margin set by a rounding bound (cf.log_sf_margin). The search evaluates the
kernels on plain floats, where cf.log_sf_at takes math.log1p and returns a
float, with no numpy scalar.

Apart from that bisection, every root is solved by one core (:func:`_root`):
secant steps on the last two iterates, inside a bracket that a step leaving
it halves (or, while one end is infinite, leaves by 32 toward that end). It
stops on a value within a tolerance (the band, on (theta - minimizer)**2,
stops within the margin) or on a secant correction below one (the
imperfect-estimate prediction's roots in log s and in theta, to _ROOT_TOL).

A probe of one rate (:meth:`_Search.theta`) solves only the crossings
that clip reads. Both minima are checked, and None returned if either is
above its level, before any crossing is solved. The passive interval holds
the reference, so c = max(reference, lo) reads only the active lower end,
and that only where it can lie above the reference; theta = min(c, hi)
reads an upper end only where a neighbour a bisection tolerance past c
does not settle it (:func:`_meet`). With a closed-form floor at or below
the reference no crossing is solved at all. The result is the same float
as the reference clipped into the intersection of the two kinds'
:func:`theta_interval`, each solved in full, which the tests hold the
probe to.

``grid_search_oracle`` is the brute-force cross-check used by the tests; it
shares only the closed-form grid kernels with the sweep, not its interval
logic, and compares SOPs with epsilon, not log-survivals with the level. It
is one pass (:func:`_oracle_pass`). Each kind's scale is formed once for the
whole rate grid, from one threshold x, and the theta grid is cut into cells
once. The rate grid falls in groups of rows that end at the top rate, and
each group by one theta cell is a tile whose SOPs two corner bounds bracket
(cf._settle, the rule of cf.sop_tiles): one settle per kind decides the
tiles of the whole grid. Groups where each tile is infeasible for one kind
or the other are passed over. Every other group is scanned, from the top
down, until one holds a feasible row: one-row tiles are settled only in the
cells that no group tile rules out, and only for a kind that left the cell
open; both kinds are combined per (row, cell); and SOPs are formed, with
sop_grid's bits, only in the cells still undecided of the rows at or above
the highest row that a settled cell proves feasible. It needs no prefix
property: an infeasible scenario covers every row, by a tile or by the
pass.

Both searches start at one step: resolve the algorithm and the pa-mode, fix
Alice's power at :func:`closedform.min_pa` (a RangeError when that power
rounds to 0), and stop with PA_EXCEEDS_PMAX above p_max. ``OptResult.trace``
holds only what the search saw: ``pa_mode`` and ``algorithm``; a feasible
sweep adds ``theta_reference`` (it solves no more of the admissible interval
than theta* reads; :func:`theta_interval` gives each kind's), and the oracle
adds ``oracle: True`` and, once it has scanned, ``rows``, ``points`` and
``tiles`` (see :func:`grid_search_oracle`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import closedform as cf
from .errors import AlphaZero, RangeError
from .model import SystemParams

ALGORITHMS = tuple(cf.ALGORITHM_KINDS)
_ALGORITHM_ALIASES = {"alg1": "perfect", "alg2": "imperfect"}

_BISECT_TOL = 1e-13
# secant steps per crossing (about 5 are taken); the bisection covers the rest
_SECANT_STEPS = 16
# the relative error on the smallest feasible threshold x* that the rate
# search's predicted bracket of grid indices covers: the prediction's roots
# are solved to about _ROOT_TOL, and the interval solver's theta tolerance
# moves the boundary it sees by much less than this
_PREDICTION_ERROR = 1e-9
_ROOT_TOL = 1e-12  # on log s (and so on log x), and on theta
# function evaluations one root of the prediction may take before it gives up
_ROOT_STEPS = 64
# rate rows per group of the oracle's scan: a group by one theta cell is a
# tile that two corner bounds settle (cf._settle), and a group that neither
# kind rules out in every tile is scanned row by row (:func:`_oracle_pass`)
_ORACLE_GROUP = 32
# grid points per oracle axis. When no tile or cell settles (an overflowed
# alpha on the imperfect kind), the SOPs the pass forms in a group of 32 rows
# this wide peak at 53 MB (tracemalloc, about 50 bytes per point; each kind's
# are formed in turn), and the tile pass over this many rows and thetas at 68 MB
_MAX_GRID_POINTS = 2 ** 15


def resolve_algorithm(name: str) -> str:
    name = _ALGORITHM_ALIASES.get(name, name)
    if name not in ALGORITHMS:
        raise RangeError(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")
    return name


@dataclass(frozen=True)
class ThetaInterval:
    """A closed subinterval of [0,1] of admissible AN ratios (or empty)."""

    lo: float = 0.0
    hi: float = 0.0
    empty: bool = False

    @staticmethod
    def nothing() -> "ThetaInterval":
        return ThetaInterval(lo=math.nan, hi=math.nan, empty=True)

    def clip(self, x: float) -> float:
        return min(max(x, self.lo), self.hi)


@dataclass(frozen=True)
class OptResult:
    feasible: bool
    r_s_star: float
    theta_star: float
    p_a_star: float
    # sweep: rate points probed for a feasible theta (2 when the predicted
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


def _root(fn, x0: float, f0: float, x1: float, f1: float, neg: float, pos: float,
          f_tol: float, x_tol: float, steps: int):
    """(x, fn(x), slope, neg, pos): a point x where |fn(x)| <= ``f_tol`` or
    the secant correction |fn(x) / slope| is at most ``x_tol``, with the
    secant slope of its last step and the bracket; x = None once ``steps``
    evaluations are spent or no float is left inside the bracket. A NaN
    value also stops it.

    Secant steps on the last two iterates (x0, f0), (x1, f1) run inside the
    bracket: fn < 0 at ``neg`` and > 0 at ``pos``, on either side, either
    possibly infinite. A step that does not land strictly inside the bracket
    halves it instead, or, while an end is infinite, moves 32 toward that
    end. A point narrows the bracket only after the stop test, so a point
    that stopped it (within the value tolerance, say) never does.
    """
    for _ in range(steps):
        lo, hi = min(neg, pos), max(neg, pos)
        x = x1 - f1 * (x1 - x0) / (f1 - f0) if f1 != f0 else math.nan
        if not lo < x < hi:
            mid = 0.5 * (lo + hi)
            x = x1 + math.copysign(32.0, mid) if math.isinf(mid) else mid
            if not lo < x < hi:  # no float left between the ends
                break
        fx = fn(x)
        slope = (fx - f1) / (x - x1)
        if not abs(fx) > f_tol or abs(fx) <= x_tol * abs(slope) < math.inf:
            return x, fx, slope, neg, pos
        neg, pos = (x, pos) if fx < 0.0 else (neg, x)
        x0, f0, x1, f1 = x1, f1, x, fx
    return None, math.nan, math.nan, neg, pos


def _secant_band(gap, outside: tuple[float, float], inside: tuple[float, float],
                 margin: float, inner: float) -> tuple[float, float]:
    """(outside end, inside end) of a band for :func:`_bisect` around the
    one root of ``gap`` between ``outside`` and ``inside``, (theta, gap)
    pairs on one side of the gap's minimizer ``inner``, the outside one with
    a positive gap and the inside one nearer the minimizer with gap <= 0;
    each end is its pair's theta or a point whose gap is beyond the margin
    on that side.

    :func:`_root` closes in on the root on the scale u = (theta - inner)**2,
    where the gap is nearly linear and rises, since its slope vanishes at the
    minimizer. Once a gap is within the margin, two probes two margins to
    either side of the root a Newton step predicts certify a tight band.
    """
    def theta(u: float) -> float:
        return inner + math.copysign(math.sqrt(u), outside[0] - inner)

    u_out, u_in = (outside[0] - inner) ** 2, (inside[0] - inner) ** 2
    u, g, slope, neg, pos = _root(lambda v: gap(theta(v)), u_out, outside[1], u_in, inside[1],
                                  u_in, u_out, margin, 0.0, _SECANT_STEPS)
    if u is not None and 0.0 < slope < math.inf:
        root, width = u - g / slope, 2.0 * margin / slope
        for probe in (root - width, root + width):
            if neg < probe < pos:
                g_probe = gap(theta(probe))
                if g_probe > margin:
                    pos = probe
                elif g_probe < -margin:
                    neg = probe
    return outside[0] if pos == u_out else theta(pos), inside[0] if neg == u_in else theta(neg)


def _end(curve, edge: float, outside=None) -> float:
    """The end toward ``edge`` (0.0 or 1.0) of the interval where the gap of
    ``curve`` (:meth:`_Constraint.curve`) is at most 0: the edge where its
    gap is not positive, else the crossing between the minimizer and the edge.

    The gap is monotone there, so the crossing is bisected over that span,
    evaluating only inside the band :func:`_secant_band` certifies, between
    the minimizer and ``outside``: a (theta, gap) pair already evaluated on
    that span with a gap above the margin (or the edge, with a positive gap).
    """
    gap, margin, inner, g_inner = curve
    if outside is None:
        g_edge = gap(edge)
        if g_edge <= 0.0:
            return edge
        outside = (edge, g_edge)
    band = sorted(_secant_band(gap, outside, (inner, g_inner), margin, inner))
    return _bisect(gap, *sorted((edge, inner)), edge == 0.0, band)


def _level_scale(level: float, width: int, count: int) -> float:
    """width expm1(level / -count): the scale s at which -count log1p(s / width)
    meets ``level``. The active kernel with perfect estimates,
    -(M+N-2) log1p(theta s / M), takes this form in theta s, with width M
    and count M+N-2 (:func:`_floor`); the passive kernel at its reference
    M/(N-1), where both of its terms read s / (N-1), with width and count
    N-1."""
    return width * float(np.expm1(level / -count))


def _floor(scale: float, alpha: float) -> float:
    """Smallest AN ratio meeting the target of the best of M active
    eavesdroppers (perfect estimates) at this ``alpha`` > 0: their
    log-survival -(M+N-2) log1p(theta alpha / M) meets the level L at
    ``scale`` / alpha, scale = M expm1(L / (2-M-N)), and falls in theta, so
    the admissible set is [floor, 1] whenever floor <= 1."""
    # theta = 0 leaves the beams unjammed, so a floor that rounds to 0 (an
    # overflowed alpha, or one below the float range) is the least positive float
    return max(scale / alpha, 5e-324)


class _Constraint:
    """One SOP kind's constants at one Alice power, formed once per rate
    search (:class:`_Search`) or interval solve.

    They are the level (cf.log_sf_level); ``num`` and ``var_a``
    (cf._jamming_terms), so that :meth:`scale` is the float cf._jamming_ratio
    gives; the beams M the kernel counts; for a passive kind its margin
    (cf.log_sf_margin: its kernel cancels no term, so the margin reads no
    scale) and its minimizer, the reference M/(N-1); for an active kind with
    a perfect estimate the floor scale M expm1(L / (2-M-N)) (:func:`_floor`).
    The rest are None. RangeError for an unknown kind, or a ``p_a`` outside
    (0, p_max].
    """

    __slots__ = ("kind", "params", "level", "num", "var_a", "beams", "margin", "reference",
                 "floor")

    def __init__(self, kind: str, params: SystemParams, p_a: float):
        self.kind, self.params = kind, params
        self.level = level = cf.log_sf_level(kind, params, params.epsilon)
        self.num, self.var_a = cf._jamming_terms(kind, params, p_a)
        self.beams = beams = params.m_active if kind.endswith("multi") else 1
        self.margin = self.reference = self.floor = None
        if kind.startswith("passive"):
            self.margin = cf.log_sf_margin(kind, params, 0.0, level)
            self.reference = _theta_reference(params, kind)
        elif kind != "active_imperfect" or params.rho_ea == 1.0:
            self.floor = _level_scale(level, beams, beams + params.n_antennas - 2)

    def scale(self, x: float) -> float:
        """alpha (an active kind) or beta (a passive one) at the threshold x."""
        return self.num * x / self.var_a if x else 0.0

    def curve(self, s: float, minimizer: float):
        """(gap, margin, minimizer, gap there) of the log-survival at scale
        ``s``, or None when even its minimum is above the level.

        gap(theta) is one eavesdropper's log-survival less the level, so the
        SOP is at most epsilon exactly where gap <= 0; it is unimodal in theta
        with its minimum at ``minimizer`` (1.0 for one that decreases
        throughout). A gap beyond the margin is on its side of 0 whatever the
        rounding (cf.log_sf_margin at the level's magnitude).
        """
        kind, params, level = self.kind, self.params, self.level

        def gap(theta: float) -> float:
            return cf.log_sf_at(kind, params, theta, s) - level

        g_min = gap(minimizer)
        return None if g_min > 0.0 else (
            gap, self.margin or cf.log_sf_margin(kind, params, s, level), minimizer, g_min)

    def at(self, x: float):
        """The constraint at the threshold x: None where no AN ratio meets it;
        under a perfect active estimate the floor, a float, of the admissible
        [floor, 1]; else the curve (:meth:`curve`) around the reference or
        the imperfect-estimate minimizer (:func:`_active_minimizer`)."""
        s = self.scale(x)
        if not s:  # no AN margin: every log-survival is 0, above the level
            return None
        if self.floor is None:
            return self.curve(s, self.reference or _active_minimizer(self.params, s))
        floor = _floor(self.floor, s)
        return None if floor > 1.0 else floor


def theta_floor_active(params: SystemParams, p_a: float, r_s: float) -> float:
    """Smallest AN ratio meeting the single active eavesdropper's target
    (perfect estimates); AlphaZero when there is no AN margin."""
    x = cf.rate_gap_threshold(params.r_b, r_s)
    active = _Constraint("active", params, p_a)
    if not (alpha := active.scale(x)):
        raise AlphaZero("no AN margin: secrecy rate equals the transmission rate "
                        "or Alice takes the whole budget")
    return _floor(active.floor, alpha)


def _crossings(kind: str, params: SystemParams, p_a: float, r_s: float,
               minimizer: float) -> ThetaInterval:
    """AN ratios where the SOP of ``kind`` is at most epsilon, solved on its
    curve whatever the kind.

    The SOP is at most epsilon exactly where one eavesdropper's log-survival
    is at most a level computed once per kind (:meth:`_Constraint.curve`),
    so the solver compares log-survivals with that level and never forms an
    SOP. The log-survival is unimodal in theta with its minimum at
    ``minimizer``, so the admissible set is the interval between the level
    crossings on either side of it (:func:`_end`); empty when even the
    minimum exceeds the level.
    """
    s = cf.log_sf_scale(kind, params, p_a, r_s)
    return _interval(_Constraint(kind, params, p_a).curve(s, minimizer))


def _interval(constraint) -> ThetaInterval:
    """The interval of a constraint as :meth:`_Constraint.at` gives it: None
    (empty), a floor (of [floor, 1]) or a curve, whose both ends are solved."""
    if constraint is None:
        return ThetaInterval.nothing()
    if isinstance(constraint, float):
        return ThetaInterval(lo=constraint, hi=1.0)
    return ThetaInterval(lo=_end(constraint, 0.0), hi=_end(constraint, 1.0))


def theta_interval_passive(params: SystemParams, p_a: float, r_s: float) -> ThetaInterval:
    """AN ratios meeting the passive-eavesdropper secrecy target.

    The passive SOP is unimodal in theta (log-convex per eavesdropper) with
    its minimum at 1/(N-1); it is convex only where SOP <= 1-(1-1/K)^K.
    """
    return theta_interval("passive", params, p_a, r_s)


def theta_interval_active_imperfect(params: SystemParams, p_a: float, r_s: float) -> ThetaInterval:
    """AN ratios meeting the active-eavesdropper target with rho_ea <= 1.

    With a perfect estimate this is [floor, 1]. Otherwise the SOP decreases
    down to the quadratic's positive root and increases beyond it, so the
    admissible set is an interval around that root (clipped to [0,1]).
    """
    return theta_interval("active_imperfect", params, p_a, r_s)


def _active_minimizer(params: SystemParams, alpha: float) -> float:
    """Where the imperfect-estimate active log-survival is smallest on [0, 1]
    at this alpha > 0: the positive root of its theta-derivative quadratic,
    clipped to 1 (exactly 1/(N-1) at rho_ea = 0, where the quadratic
    degenerates). The root tends to +inf as alpha -> 0: at a subnormal alpha,
    where the quadratic's coefficients overflow and the root comes out as no
    positive float, the minimizer is 1."""
    if params.rho_ea == 0.0:
        return 1.0 / (params.n_antennas - 1)
    root = float(cf._quadratic_roots(params.n_antennas, alpha, params.rho_ea)[1])
    return min(root, 1.0) if root > 0.0 else 1.0


def theta_interval_active_multi(params: SystemParams, p_a: float, r_s: float) -> ThetaInterval:
    """Admissible AN ratios for the best-of-M active eavesdroppers constraint:
    [floor, 1] at the closed-form floor (their SOP decreases with theta)."""
    return theta_interval("active_multi", params, p_a, r_s)


def theta_interval_passive_multi(params: SystemParams, p_a: float, r_s: float) -> ThetaInterval:
    """Admissible AN ratios for the passive constraint with M active beams
    (unimodal, log-convex per eavesdropper, minimum at M/(N-1); convex where
    SOP <= 1-(1-1/K)^K)."""
    return theta_interval("passive_multi", params, p_a, r_s)


def _theta_reference(params: SystemParams, passive_kind: str) -> float:
    """The passive SOP's minimizer M/(N-1), M the beams its kernel counts."""
    beams = params.m_active if passive_kind == "passive_multi" else 1
    return beams / (params.n_antennas - 1)


def theta_interval(kind: str, params: SystemParams, p_a: float, r_s: float) -> ThetaInterval:
    """AN ratios meeting the secrecy target of one SOP kind: the floor's
    [floor, 1] under a perfect active estimate, else the interval around the
    curve's minimizer (:meth:`_Constraint.at`)."""
    cf.check_kind(kind)
    x = cf.rate_gap_threshold(params.r_b, r_s)
    return _interval(_Constraint(kind, params, p_a).at(x))


# ---------------------------------------------------------------------------
# Rate maximization
# ---------------------------------------------------------------------------

class _Search:
    """The set-up of one rate search, formed once per :func:`maximize_for`
    call and read by the boundary prediction (:func:`_smallest_threshold`)
    and by every probe (:meth:`theta`): the kinds, the minimum Alice power
    ``p_req`` and each kind's constraint (:class:`_Constraint`) there."""

    __slots__ = ("params", "p_req", "kinds", "active", "passive")

    def __init__(self, params: SystemParams, p_req: float, kinds: tuple[str, str]):
        self.params, self.p_req, self.kinds = params, p_req, kinds
        self.active = _Constraint(kinds[0], params, p_req)
        self.passive = _Constraint(kinds[1], params, p_req)

    def theta(self, r_s: float):
        """The probe of one rate: the reference clipped into the intersection
        of the two kinds' :func:`theta_interval`, the same float, or None
        where that intersection is empty, solving only the crossings the
        clip reads.

        Both constraints are formed from one threshold x
        (:meth:`_Constraint.at`), the active one first; None, before any
        crossing is solved, where the active minimum (the closed-form floor,
        or the imperfect-estimate gap at its minimizer) or then the passive
        gap at the reference is above its level.

        The passive interval holds its minimizer, the reference, so
        c = max(reference, lo) reads only the active lower end, solved where
        it can lie above the reference (:func:`_meet`). Where it does, the
        passive gap a tolerance short of c, above the margin, certifies an
        empty interval. Otherwise theta = min(c, hi) meets c with the passive
        upper end, then with the active one. The interval is empty exactly
        where theta falls short of c and either c is the active lower end
        or, c being the reference and theta the active upper end, the
        passive lower end lies above theta.
        """
        x = cf.rate_gap_threshold(self.params.r_b, r_s)
        active = self.active.at(x)
        passive = active and self.passive.at(x)
        if not passive:
            return None
        ref, fixed = passive[2], isinstance(active, float)
        c = max(ref, active) if fixed else _meet(active, ref, 0.0)
        if c - _BISECT_TOL > ref and passive[0](c - _BISECT_TOL) > passive[1]:
            return None
        theta = _meet(passive, c, 1.0)
        theta = theta if fixed else _meet(active, theta, 1.0)
        return None if theta < c and (c > ref or _meet(passive, theta, 0.0) > theta) else theta


def _meet(curve, end: float, edge: float) -> float:
    """The inner of ``end`` and the end toward ``edge`` of the interval of
    ``curve`` (:func:`_end`), solving that end only where ``end`` does not
    decide.

    The curve's end lies beyond its minimizer, so an ``end`` short of the
    minimizer is the answer; so is one whose neighbour a bisection
    tolerance outward has a gap below minus the margin: the crossing then
    lies beyond that neighbour, and its bisection returns a point within
    half a tolerance of it, still beyond ``end``.
    """
    gap, margin, inner, _ = curve
    out = 1.0 if edge else -1.0
    if (end - inner) * out <= 0.0:
        return end
    t = min(max(end + out * _BISECT_TOL, 0.0), 1.0)
    g_t = gap(t)
    if g_t < -margin or (t == edge and g_t <= 0.0):
        return end
    other = _end(curve, edge, (t, g_t) if t == edge or g_t > margin else None)
    return min(end, other) if out > 0.0 else max(end, other)


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
    algorithm = cf.default_algorithm(params) if algorithm is None else resolve_algorithm(algorithm)
    mode = cf.resolve_pa_mode(params, pa_mode)
    p_req = cf.min_pa(params, mode)
    trace = {"pa_mode": mode, "algorithm": algorithm, **trace}
    refused = _infeasible(p_req, 0, "PA_EXCEEDS_PMAX", trace) if p_req > params.p_max else None
    return cf.scenario_kinds(params, algorithm), p_req, trace, refused


class _NoPrediction(Exception):
    """The boundary prediction gave up; the rate search bisects the grid."""


def _exp(u: float) -> float:
    """e**u, inf beyond the float range (where math.exp raises)."""
    return math.exp(u) if u < 709.78 else math.inf


def _predicted_root(fn, *start) -> tuple[float, float]:
    """(x, slope) of :func:`_root` run from ``start`` (iterates and bracket)
    to a secant correction below _ROOT_TOL; _NoPrediction when it gives up."""
    x, _, slope, _, _ = _root(fn, *start, 0.0, _ROOT_TOL, _ROOT_STEPS)
    if x is None:
        raise _NoPrediction
    return x, slope


def _smallest_threshold(search: _Search) -> float:
    """log x*, where x* = min over theta of max(x_a(theta), x_p(theta)) is the
    smallest threshold x = 2**(r_b - r_s) - 1 at which some AN ratio meets
    both targets of the search's kinds; x_k(theta) is the x at which kind
    k's log-survival at theta meets its level (every kernel falls as x
    grows). inf when there is no AN margin, so that no rate is feasible;
    _NoPrediction when it gives up.

    Each x_k is quasiconvex in theta: x_p is least at the reference M/(N-1)
    whatever x is, and x_a at theta_a. So x* is x_p at the reference when the
    active target holds there (to a tolerance); else x_a at theta_a when the
    passive target holds there; else x_a where the two meet, in theta
    between the reference and theta_a. x_p at the reference is closed form
    (:func:`_level_scale`). With perfect estimates so are the rest: x_a is
    the floor K / theta, least at theta_a = 1, and along it the passive
    scale is C / theta, C = c_p K, so that the passive gap
    -m log1p(C/m) - w log1p(C (1-theta) / (theta w)) - L, w = N-m-1,
    rises in theta and meets 0 where 1/theta - 1 = w expm1(V) / C,
    V = (-L - m log1p(C/m)) / w, the gap at theta = 1 over w; a C of 0 or
    inf gives up. With an imperfect estimate x_a is a root in log x at each
    theta, theta_a the active minimizer at x_a's least value, and the
    meeting point the one root in theta of the passive gap along x_a.
    """
    params, active, passive = search.params, search.active, search.passive
    # alpha and beta are c_a x and c_p x; their ratios to x at a rate whose x is at most 1
    x = cf.rate_gap_threshold(params.r_b, max(params.r_b - 1.0, 0.0))
    c_a, c_p = active.scale(x) / x, passive.scale(x) / x
    if not (c_a and c_p):  # no AN margin (or one below the float range): no rate is feasible
        return math.inf
    if math.inf in (c_a, c_p):
        raise _NoPrediction
    log_ca, log_cp = math.log(c_a), math.log(c_p)

    def gap(constraint: _Constraint, log_c: float, theta: float, log_x: float) -> float:
        """The log-survival of ``constraint`` at theta and threshold e**log_x
        (its scale per unit threshold e**log_c), less its level."""
        return cf.log_sf_at(constraint.kind, params, theta, _exp(log_c + log_x)) - constraint.level

    ref = passive.reference
    width = params.n_antennas - 1  # at the reference both passive terms read s / (N-1)
    log_xp = math.log(_level_scale(passive.level, width, width)) - log_cp
    # the active target holds at (reference, x_p); near the level its gap
    # moves by at most about |level| per unit of log x
    if gap(active, log_ca, ref, log_xp) <= _ROOT_TOL * abs(active.level):
        return log_xp
    if active.kind != "active_imperfect":  # x_a(theta) = K / theta, least at theta = 1
        log_k = math.log(active.floor) - log_ca
        g_a = gap(passive, log_cp, 1.0, log_k)
        if g_a <= 0.0:  # the passive target holds at (1, K)
            return log_k
        # both bind: g_a = -m log1p(C/m) - L, the gap at theta = 1, is w V
        c, w = _exp(log_cp + log_k), params.n_antennas - passive.beams - 1
        if not 0.0 < c < math.inf:
            raise _NoPrediction
        return log_k + math.log1p(w * math.expm1(g_a / w) / c)

    warm = [log_xp + log_ca, 1.0]  # (u, slope) of the last root, the next one's start

    def threshold(theta) -> float:
        """log x at which the active log-survival at (theta(s), s), falling
        from 0 at s = 0 to -inf, meets its level: the root in u = log s
        of phi(u) = log(-log_sf(e**u)) - log(-level), which rises with a
        slope of about 1 or less (exactly 1 as s -> 0). It runs from the
        last root and its slope there, the first step at that slope."""
        target = math.log(-active.level)

        def phi(v: float) -> float:
            s = _exp(v)
            g = -cf.log_sf_at(active.kind, params, theta(s), s)
            return math.log(g) - target if g > 0.0 else -math.inf

        u, slope = warm
        p = phi(u)
        if abs(p) > _ROOT_TOL * slope:
            bracket = (u, math.inf) if p < 0.0 else (-math.inf, u)
            u, rise = _predicted_root(phi, u - 1.0, p - slope, u, p, *bracket)
            slope = rise if 0.0 < rise < math.inf else slope
        warm[:] = u, slope
        return u - log_ca

    def log_xa(theta: float) -> float:
        return threshold(lambda s: theta)

    # the least active log-survival: at its minimizer, which tends to 1 as alpha -> 0
    log_x = threshold(lambda s: _active_minimizer(params, s) if s > 0.0 else 1.0)
    theta_a = _active_minimizer(params, _exp(log_x + log_ca))
    g_a = gap(passive, log_cp, theta_a, log_x)
    if g_a <= 0.0:  # the passive target holds at (theta_a, x_a*)
        return log_x

    # both bind where x_a and x_p meet: the passive target along x_a(theta)
    # holds at the reference and fails at theta_a, and changes once between
    def passive_at_xa(theta: float) -> float:
        return gap(passive, log_cp, theta, log_xa(theta))

    theta, _ = _predicted_root(passive_at_xa, ref, passive_at_xa(ref), theta_a, g_a, ref, theta_a)
    return log_xa(theta)


def _predicted_bracket(search: _Search, step: float, cap: float) -> tuple[int, int] | None:
    """(a, b): the grid index of the last feasible rate and one past it, as
    predicted from x* (:func:`_smallest_threshold`) and widened to cover a
    relative error of _PREDICTION_ERROR on x*; neither lies above the r_b cap.
    a = -1 predicts no feasible rate. None when the prediction gives up.
    """
    try:
        log_x = _smallest_threshold(search)
    except _NoPrediction:
        return None

    def index(log_x: float) -> int:
        """The last grid index at or below r_b - log2(1 + e**log_x), or -1."""
        log_1p = log_x + math.log1p(math.exp(-log_x)) if log_x > 0.0 else math.log1p(
            math.exp(log_x))
        rate = search.params.r_b - log_1p / math.log(2.0)
        return math.floor(rate / step) if rate >= 0.0 else -1

    last = max(math.ceil(cap / step) - 1, -1)
    return (min(index(log_x + _PREDICTION_ERROR), last),
            min(index(log_x - _PREDICTION_ERROR) + 1, last + 1))


def maximize_for(params: SystemParams, algorithm: str | None = None, step: float = 0.01,
                 pa_mode: str = "auto") -> OptResult:
    """The rate sweep of ``algorithm`` (default: the scenario's own kinds):
    the largest grid rate below r_b at which some AN ratio meets both
    targets, at the minimum Alice power."""
    kinds, p_req, trace, refused = _start(params, algorithm, pa_mode)
    # an unknown algorithm is reported first, and a bad step even over p_max
    if not (math.isfinite(step) and step > 0.0):
        raise RangeError(f"step must be positive and finite, got {step}")
    span = params.r_b / step
    if not math.isfinite(span):
        raise RangeError(f"step {step!r} is too small for r_b = {params.r_b!r}")
    if refused is not None:
        return refused
    search = _Search(params, p_req, kinds)
    cap = params.r_b - 1e-12  # grid rates at or above it are capped by r_b
    # the feasible indices are a prefix: lo is feasible (-1: none seen yet),
    # best its theta*, and hi past the prefix. The predicted indices a < b
    # are probed first, the one nearer the middle of the bracket first (a on
    # a tie); each probe is kept where the probes left can still bisect what
    # it leaves, so no search takes more than one probe over a bisection of
    # the whole grid. A rate capped by r_b is infeasible, and no probe.
    lo, hi, best, steps = -1, math.ceil(span) + 1, None, 0
    budget = (hi - lo - 1).bit_length() + 1
    a, b = _predicted_bracket(search, step, cap) or (-1, -1)
    while hi - lo > 1:
        # a where it is inside, unless b is inside too and nearer the middle
        mid = (a if lo < a < hi and not (b < hi and a + b < lo + hi)
               else b if lo < b < hi else (lo + hi) // 2)
        reach = 1 << (budget - steps - 1)
        mid = min(max(mid, hi - reach), lo + reach)
        found = None
        if mid * step < cap:
            steps, found = steps + 1, search.theta(mid * step)
        if found is None:
            hi = mid
        else:
            lo, best = mid, found
    if best is None:
        return _infeasible(p_req, steps, "NO_THETA_AT_RS0", trace)
    trace["theta_reference"] = search.passive.reference
    return OptResult(feasible=True, r_s_star=lo * step, theta_star=best,
                     p_a_star=p_req, steps=steps, infeasibility_reason="NONE", trace=trace)


def maximize_secrecy_rate(params: SystemParams, step: float = 0.01,
                          pa_mode: str = "auto") -> OptResult:
    """Rate sweep under the perfect-estimate secrecy constraints."""
    return maximize_for(params, "perfect", step, pa_mode)


def maximize_secrecy_rate_imperfect(params: SystemParams, step: float = 0.01,
                                    pa_mode: str = "auto") -> OptResult:
    """Rate sweep with an imperfect jammer->active-eavesdropper estimate;
    identical to the perfect sweep at rho_ea = 1."""
    return maximize_for(params, "imperfect", step, pa_mode)


def maximize_secrecy_rate_multi(params: SystemParams, step: float = 0.01,
                                pa_mode: str = "auto") -> OptResult:
    """Rate sweep with M >= 2 active eavesdroppers (perfect estimates)."""
    return maximize_for(params, "multi", step, pa_mode)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def _row_tiles(kind: str, params: SystemParams, corners: np.ndarray, s: np.ndarray,
               rows: np.ndarray, tile: tuple[np.ndarray, np.ndarray], shut: np.ndarray):
    """(above, below) of ``kind`` at each (row, theta cell) of the group of
    rate rows ``rows`` (indices into its scales ``s``): the verdicts ``tile``
    of its group tiles, with each cell they left open that no group tile
    rules out (``shut``, for either kind) settled as one-row tiles
    (cf._settle). A one-row group's tiles already are one-row tiles."""
    above, below = (np.repeat(verdict[None], rows.size, axis=0) for verdict in tile)
    cells = np.flatnonzero(~(shut | tile[1]))
    if cells.size and rows.size > 1:
        above[:, cells], below[:, cells] = cf._settle(kind, params, corners[..., cells], s[rows],
                                                      np.arange(rows.size))
    return above, below


def _oracle_pass(params: SystemParams, p_a: float, rs_grid: np.ndarray, theta: np.ndarray,
                 kinds: tuple[str, str]):
    """(the first row of the highest group of ``rs_grid`` that holds a
    feasible row, and that group's (rate x theta) mask of the points meeting
    both targets, or None for both when no row is feasible; the grid points
    whose SOP was formed; the tiles the two kinds left open).

    The rate rows fall in groups of _ORACLE_GROUP that end at the top row,
    the bottom group short. Each kind's scale is formed once for the whole
    grid, from one threshold x, and the theta grid is cut into cells once.
    One settle per kind decides the group tiles (cf._settle). Groups where
    each tile is above epsilon for one kind or the other are passed over;
    in every other group, from the top down, each kind settles one-row
    tiles in the cells it left open that no group tile rules out
    (:func:`_row_tiles`), the two kinds are combined per (row, cell), and
    the SOP is formed (cf._sop_cells) only in the cells left undecided, of
    a kind only where it did not settle the cell at or below epsilon, and
    only in the rows at or above the highest row that a settled cell proves
    feasible, since no row below it can be the answer.
    """
    starts = np.maximum(np.arange(rs_grid.size % -_ORACLE_GROUP, rs_grid.size, _ORACLE_GROUP), 0)
    grid, corners = cf._cells(theta)
    x = cf.rate_gap_threshold(params.r_b, rs_grid)
    scales = [cf._jamming_ratio(kind, params, p_a, x) for kind in kinds]
    tiles = [cf._settle(kind, params, corners, s, starts) for kind, s in zip(kinds, scales)]
    shut = tiles[0][0] | tiles[1][0]
    open_tiles = sum(int((~(above | below)).sum()) for above, below in tiles)
    stops, points = np.append(starts[1:], rs_grid.size), 0
    for g in np.flatnonzero(~shut.all(axis=1))[::-1]:
        rows = np.arange(starts[g], stops[g])
        verdicts = [_row_tiles(kind, params, corners, s, rows, (tile[0][g], tile[1][g]), shut[g])
                    for kind, s, tile in zip(kinds, scales, tiles)]
        ok = verdicts[0][1] & verdicts[1][1]
        undecided = ~(ok | verdicts[0][0] | verdicts[1][0])
        # no row below one that a settled cell proves feasible can be the answer
        undecided[:np.flatnonzero(ok.any(axis=1)).max(initial=0)] = False
        mask = np.repeat(ok | undecided, cf._GRID_CELL, axis=1)
        for kind, s, (_, below) in zip(kinds, scales, verdicts):
            row, cell = np.nonzero(undecided & ~below)
            if row.size:  # a kind with no undecided cell forms nothing
                formed, count = cf._sop_cells(kind, params, grid, theta.size, s, rows[row], cell)
                mask.reshape(*ok.shape, cf._GRID_CELL)[row, cell] &= formed
                points += count
        if mask.any():
            return rows[0], mask[:, :theta.size], points, open_tiles
    return None, None, points, open_tiles


def _check_grid_points(*sizes) -> None:
    """RangeError unless each size is an integer in [100, _MAX_GRID_POINTS],
    before any grid is allocated."""
    if not all(isinstance(size, Integral) and 100 <= size <= _MAX_GRID_POINTS
               for size in sizes):
        raise RangeError(f"oracle grids need an integer count of at least 100 points "
                         f"per axis, and at most {_MAX_GRID_POINTS}, "
                         f"got {', '.join(map(repr, sizes))}")


def grid_search_oracle(params: SystemParams, rs_grid_points: int = 1000,
                       theta_grid_points: int = 1000, algorithm: str | None = None,
                       pa_mode: str = "auto") -> OptResult:
    """Top-down feasibility scan over a (rate, theta) grid at the minimum power.

    Test-side cross-check for the sweeps: returns the largest feasible grid
    rate and, at that rate, the feasible theta closest to the passive-SOP
    minimizer (ties toward the smaller theta).

    The rate rows fall in groups of _ORACLE_GROUP that end at the top row,
    the bottom group short. A group by one theta cell is a tile, which the
    SOP of each kind lies above epsilon throughout, lies at or below it
    throughout, or is left open (cf._settle). Groups where each tile is
    above for one kind or the other hold no feasible row and are passed
    over. Every other group is scanned from the top down, and the scan stops
    at the first that holds a feasible row (:func:`_oracle_pass`). It
    assumes nothing about where the feasible rows lie, so the answer is the
    full grid's and an infeasible scenario covers every row once, by a tile
    or by the pass.

    ``steps`` is the rate-grid size, however many rows were evaluated; the
    trace adds ``rows``, the rate rows from the top down to the lowest one
    resolved (every row when none is feasible), ``points``, the SOP points
    the pass formed one by one (each kind's in the cells it left undecided,
    only in rows at or above the highest row a settled cell proves
    feasible; the padding of a last theta cell not counted), and ``tiles``,
    the tiles the two kinds left open over the whole grid.
    """
    _check_grid_points(rs_grid_points, theta_grid_points)
    kinds, p_req, trace, refused = _start(params, algorithm, pa_mode, oracle=True)
    if refused is not None:
        return refused
    rs_grid = np.linspace(0.0, params.r_b, rs_grid_points, endpoint=False)
    theta_grid = np.linspace(0.0, 1.0, theta_grid_points)
    start, feasible, points, tiles = _oracle_pass(params, p_req, rs_grid, theta_grid, kinds)
    trace.update(rows=rs_grid_points - int(start or 0), points=points, tiles=tiles)
    if feasible is None:
        return _infeasible(p_req, rs_grid_points, "NO_THETA_AT_RS0", trace)
    row = int(np.flatnonzero(feasible.any(axis=1))[-1])
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
    kinds = cf.scenario_kinds(params, resolve_algorithm(algorithm))
    cf.check_pa(params, p_a)
    if math.isfinite(r_s) and r_s >= params.r_b:
        return False
    theta_grid = np.linspace(0.0, 1.0, theta_grid_points)
    return _oracle_pass(params, p_a, np.array([r_s]), theta_grid, kinds)[1] is not None
