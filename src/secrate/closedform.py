"""Closed-form SNR distributions, outage probabilities, and their derivatives.

Everything here is an analytic expression in the interference-limited regime
(receiver thermal noise negligible next to jamming); the Monte Carlo module
provides the matching sampling oracles. Probabilities are computed in
log-space (log1p/expm1) so that antenna and eavesdropper counts up to ~64
neither underflow nor lose the tails.

Mode names for the minimum Alice power:

- ``noise_limited``: Bob limited by unit thermal noise only (the default
  analysis flow when the jammer->Bob estimate is perfect).
- ``interference_limited``: Bob limited by the active eavesdropper's jamming;
  consistent with :func:`transmission_outage`.
- ``an_leakage``: Bob limited by AN leaking through the imperfect jammer->Bob
  estimate (requires rho_b < 1); consistent with
  :func:`transmission_outage_an_leakage`.
- ``auto``: ``an_leakage`` when rho_b < 1, else ``noise_limited``.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AlphaZero, DegenerateDistributionWarning, RangeError, Undefined
from .model import PowerSplit, SystemParams

PA_MODES = ("noise_limited", "interference_limited", "an_leakage")

_LN2 = math.log(2.0)
# The rounding bound of the log-survival kernels, relative to 1 + the value's
# magnitude plus the magnitude the kernel cancels (log_sf_margin): one
# evaluation errs by under 10 ulps (2.2e-15) of that sum, and a comparison of
# two, or of one with an exact level, is certified past twice that bound.
_MARGIN = 5e-15
# theta points per cell of :func:`_cells`, which the oracle, :func:`sop_tiles`
# and :func:`sop_grid_mask` share. A cell away from the boundary costs two
# kernel evaluations and one at it costs one per point, so cells near the
# square root of a 1000-point grid cost least.
_GRID_CELL = 32
# the smallest normal float: an SOP below it is rounded by an absolute error
# far below this, where a relative slack no longer covers it
_TINY = sys.float_info.min


def _maybe_float(x):
    arr = np.asarray(x)
    return float(arr) if arr.ndim == 0 else arr


def rate_gap_threshold(r_b: float, r_s) -> float:
    """SNR threshold 2**(r_b - r_s) - 1 for the secrecy-rate margin.

    ``r_s`` (a float or an array) must lie in [0, r_b]: RangeError otherwise,
    NaN included; at r_s = r_b the threshold is 0.
    """
    if isinstance(r_s, float):
        if not 0.0 <= r_s <= r_b:
            raise RangeError(f"r_s must lie in [0, r_b = {r_b!r}], got {r_s!r}")
        return float(np.expm1(_LN2 * (r_b - r_s)))
    rates = np.asarray(r_s, dtype=float)
    outside = ~((rates >= 0.0) & (rates <= r_b))
    if outside.any():
        raise RangeError(f"r_s must lie in [0, r_b = {r_b!r}], "
                         f"got {float(rates[outside][0])!r}")
    return _maybe_float(np.expm1(_LN2 * (r_b - rates)))


@dataclass(frozen=True)
class DerivedRatios:
    """Normalized jamming-to-signal ratios at the secrecy threshold.

    ``alpha`` (active link), ``beta`` (passive link), and ``lambda_cap`` =
    (1 - rho_ea^2) * alpha / (N - 1), the scale of the imperfect-CSI
    theta-derivative quadratic.
    """

    alpha: float
    beta: float
    lambda_cap: float


def check_pa(params: SystemParams, p_a: float) -> float:
    """``p_a`` if 0 < p_a <= p_max; RangeError naming it otherwise (NaN included)."""
    if not 0.0 < p_a <= params.p_max:
        raise RangeError(f"p_a must lie in (0, p_max = {params.p_max!r}], got {p_a!r}")
    return p_a


def _jamming_terms(kind: str, params: SystemParams, p_a: float) -> tuple[float, float]:
    """((p_max/p_a - 1) var_j, var_a) with the variances of the link of
    ``kind``: the scale at a threshold x > 0 is ``num * x / var_a``
    (:func:`_jamming_ratio`), so that a caller holding the two forms the same
    float at every x. RangeError unless 0 < p_a <= p_max (:func:`check_pa`).
    """
    active = _KINDS[kind][0]
    var_j, var_a = (params.var_jea, params.var_aea) if active else (params.var_jek, params.var_aek)
    return (params.p_max / check_pa(params, p_a) - 1.0) * var_j, var_a


def _jamming_ratio(kind: str, params: SystemParams, p_a: float, x):
    """(p_max/p_a - 1) var_j x / var_a at the threshold ``x``
    (:func:`rate_gap_threshold`, which callers that need both scales form
    once), with the variances of the link of ``kind``: alpha on the active
    link, beta on the passive one (:func:`_jamming_terms`).
    """
    num, var_a = _jamming_terms(kind, params, p_a)
    # 0 at x = 0 (r_s = r_b), also where p_max / p_a overflows and inf * 0 is
    # NaN; a scale beyond the float range is the kernels' s = inf limit
    if isinstance(x, float):
        return num * x / var_a if x else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(x == 0.0, 0.0, num * x / var_a)


def alpha_ratio(params: SystemParams, p_a: float, r_s):
    return _jamming_ratio("active", params, p_a, rate_gap_threshold(params.r_b, r_s))


def beta_ratio(params: SystemParams, p_a: float, r_s):
    return _jamming_ratio("passive", params, p_a, rate_gap_threshold(params.r_b, r_s))


def derived_ratios(params: SystemParams, p_a: float, r_s: float) -> DerivedRatios:
    a = alpha_ratio(params, p_a, r_s)
    b = beta_ratio(params, p_a, r_s)
    rho_bar = 1.0 - params.rho_ea ** 2
    lam = rho_bar and rho_bar * a / (params.n_antennas - 1)  # 0 at rho_ea = 1, alpha = inf too
    return DerivedRatios(alpha=float(a), beta=float(b), lambda_cap=float(lam))


# ---------------------------------------------------------------------------
# Log-survival kernels
# ---------------------------------------------------------------------------
# Each kernel is log P(SNR >= x) at one eavesdropper, the bare formula that
# ``tests/conftest.py::mp_log_survival`` mirrors. ``w_beam`` and ``w_pas``
# weigh the AN on the active beams and on the passive subspace, and ``s`` is
# the jamming-to-signal scale at the threshold x. The SOPs pass the AN shares
# (theta, 1 - theta) with s = alpha or beta, computed once per call; the CDFs
# pass the split's powers with s = var_j * x / (p_a * var_a). The kernels
# broadcast over arrays and take plain floats as they are.
#
# They are evaluated only through :func:`log_sf_at`, which takes the limit
# s -> inf where s overflowed (alpha, beta or x beyond the float range): -inf
# where the kind reads a positive AN weight (:func:`_an_seen`), 0 where no AN
# reaches the eavesdropper. Every CDF reads that limit: where it is 0 the CDF
# warns with DegenerateDistributionWarning and is 0, and every CDF is +0.0 at
# x <= 0. ``log1p`` is math.log1p on plain floats (the rate search's case,
# four times cheaper than a numpy call there) and np.log1p on arrays.

def _log_sf_active(w_beam, w_pas, s, n: int, m: int, rho_bar: float, log1p):
    """One active eavesdropper, its beam one of M sharing ``w_beam``. An
    imperfect estimate (rho_bar = 1 - rho_ea^2 > 0, single beam) mispoints
    the beam and lets passive AN through the estimation error; a perfect one
    (rho_bar = 0) keeps all passive AN away from it.
    """
    log_sf = (2 - m - n) * log1p(w_beam / m * s)
    if rho_bar:
        log_sf = ((n - 2) * log1p(w_beam * rho_bar * s) + log_sf
                  - (n - 2) * log1p(w_pas * rho_bar * s / (n - 2)))
    return log_sf


def _log_sf_passive(w_beam, w_pas, s, n: int, m: int, log1p):
    """One passive eavesdropper: AN from the M beams and from the N-M-1
    passive-subspace dimensions."""
    return -m * log1p(w_beam / m * s) - (n - m - 1) * log1p(w_pas * s / (n - m - 1))


def _an_seen(kind: str, params: SystemParams, w_beam, w_pas):
    """The largest AN weight that the kernel of ``kind`` reads: the beam
    weight, and the passive weight too for a passive eavesdropper or an
    imperfect estimate (1 - rho_ea^2 > 0), through which passive AN leaks."""
    active, _, imperfect, _ = _KINDS[kind]
    leaks = imperfect and 1.0 - params.rho_ea ** 2
    return w_beam if active and not leaks else np.maximum(w_beam, w_pas)


def _best_of(log_sf, count: int):
    """P(the best of ``count`` independent eavesdroppers reaches x)."""
    with np.errstate(divide="ignore"):
        return -np.expm1(count * np.log1p(-np.minimum(np.exp(log_sf), 1.0)))


# SOP kind -> (on the active link, whether its beams are the scenario's M
# (else one), whether it reads the scenario's rho_ea (else a perfect
# estimate), number of eavesdroppers the SOP takes the best of as f(params);
# None: the single active eavesdropper). The CDFs share the kind names.
_KINDS = {
    "active": (True, False, False, None),
    "active_imperfect": (True, False, True, None),
    "active_multi": (True, True, False, lambda p: p.m_active),
    "passive": (False, False, False, lambda p: p.k_passive),
    "passive_multi": (False, True, False, lambda p: p.k_passive),
}


def check_kind(kind: str) -> str:
    """``kind`` if it names an SOP kind; RangeError naming it otherwise."""
    if kind not in _KINDS:
        raise RangeError(f"unknown SOP kind {kind!r}; expected one of {tuple(_KINDS)}")
    return kind


def _sop_map(kind: str, params: SystemParams):
    """The map from one eavesdropper's log-survival to the SOP of ``kind``.
    It rises with the log-survival, and a rise of d moves the SOP by a factor
    of at most e**d."""
    best_of = _KINDS[check_kind(kind)][3]
    if best_of is None:
        return np.exp
    count = best_of(params)
    return lambda log_sf: _best_of(log_sf, count)


def sop_theta_curve(kind: str, params: SystemParams, p_a: float, r_s):
    """The SOP of ``kind`` as a function of the AN ratio alone.

    ``kind`` is one of 'active', 'active_imperfect', 'active_multi',
    'passive', 'passive_multi'. alpha (or beta) is computed once, here; the
    returned function broadcasts theta against ``r_s``, which must lie in
    [0, r_b] (RangeError from :func:`rate_gap_threshold` otherwise; at
    r_s = r_b every SOP is 1).
    """
    sop = _sop_map(kind, params)
    s = log_sf_scale(kind, params, p_a, r_s)
    return lambda theta: sop(log_sf_at(kind, params, theta, s))


def secrecy_level(epsilon: float, count: int) -> float:
    """log(1 - (1 - epsilon)**(1/count)): the best of ``count`` independent
    eavesdroppers has SOP <= epsilon exactly when one eavesdropper's
    log-survival is at most this level (log epsilon for a single one).

    Each branch takes the log of the factor that is at most 1/2, so the level
    keeps its relative accuracy as epsilon goes to 0 or to 1.
    """
    if count == 1:
        return math.log(epsilon)
    u = math.log1p(-epsilon) / count  # log of (1 - epsilon)**(1/count)
    if u > -_LN2:
        g = -math.expm1(u)
        # an epsilon so small that g underflows: the level is log(epsilon/count)
        return math.log(g) if g > 0.0 else math.log(epsilon) - math.log(count)
    return math.log1p(-math.exp(u))


def log_sf_at(kind: str, params: SystemParams, theta, s, w_pas=None):
    """Log-survival of one eavesdropper of ``kind`` at AN ratio ``theta`` and
    jamming-to-signal scale ``s`` (alpha on the active link, beta on the
    passive one): the one entry through which the rate search, its boundary
    prediction and its interval solves alike, evaluate the kernels. The
    kernel sees the AN weights (theta, ``w_pas``), ``w_pas`` = 1 - theta
    unless given (the CDFs pass the split's AN powers). Where s is inf this
    is the limit s -> inf: -inf where the kind reads a positive AN weight
    (:func:`_an_seen`), else 0. ``kind`` is not checked here.

    Every kernel is nonincreasing in each weight taken alone, since more AN
    at an eavesdropper lowers its survival; for the imperfect estimate the
    beam-weight derivative (N-2) rho_bar s / (1 + w rho_bar s)
    - (N-1) s / (1 + w s) is negative because (N-2) rho_bar < N-1. Every
    kernel is nonincreasing in s too; for the imperfect estimate the terms
    in the beam weight w give (N-2) w rho_bar / (1 + w rho_bar s)
    - (N-1) w / (1 + w s) <= 0, since w rho_bar / (1 + w rho_bar s)
    <= w / (1 + w s). So over theta in [lo, hi] and s in [s_min, s_max] the
    log-survival lies between its values at (hi, 1 - lo, s_max) and
    (lo, 1 - hi, s_min) (:func:`sop_tiles`, :func:`sop_grid_mask`).

    A float theta and s (the rate search's case) give a float."""
    active, multi, imperfect, _ = _KINDS[kind]
    m = params.m_active if multi else 1
    w_pas = 1.0 - theta if w_pas is None else w_pas
    overflow, log1p = None, math.log1p
    if not (isinstance(s, float) and isinstance(theta, float)):
        overflow, log1p = np.asarray(s) == math.inf, np.log1p
        s = np.where(overflow, 1.0, s)
    elif s == math.inf:
        return -math.inf if _an_seen(kind, params, theta, w_pas) > 0.0 else 0.0
    log_sf = (_log_sf_active(theta, w_pas, s, params.n_antennas, m,
                             1.0 - params.rho_ea ** 2 if imperfect else 0.0, log1p) if active
              else _log_sf_passive(theta, w_pas, s, params.n_antennas, m, log1p))
    if overflow is None or not overflow.any():  # no full-grid pass without one
        return log_sf
    jammed = _an_seen(kind, params, theta, w_pas) > 0.0
    return np.where(overflow, np.where(jammed, -np.inf, 0.0), log_sf)[()]


def log_sf_scale(kind: str, params: SystemParams, p_a: float, r_s):
    """The jamming-to-signal scale s that ``kind``'s log-survival reads:
    alpha on the active link, beta on the passive one."""
    return _jamming_ratio(check_kind(kind), params, p_a, rate_gap_threshold(params.r_b, r_s))


def log_sf_cancellation(kind: str, params: SystemParams, s):
    """A bound over AN weights in [0, 1] on the magnitudes of the terms that
    the kernel of ``kind`` cancels at scale ``s`` (a float or an array).

    The passive and perfect-estimate kernels sum log1p terms of one sign, so
    their rounding error is a few ulps of the result, and this is 0. The
    imperfect-estimate active kernel adds (N-2) log1p(theta rho_bar s) to two
    negative terms; its rounding error is a few ulps of the three terms'
    magnitudes, each largest at a weight of 1, and this is their sum.
    """
    rho_bar = 1.0 - params.rho_ea ** 2
    if kind != "active_imperfect" or not rho_bar:
        return 0.0
    n = params.n_antennas
    log1p = math.log1p if isinstance(s, float) else np.log1p
    return ((n - 2) * (log1p(rho_bar * s) + log1p(rho_bar * s / (n - 2)))
            + (n - 1) * log1p(s))


def log_sf_margin(kind: str, params: SystemParams, s, magnitude):
    """_MARGIN times 1 + ``magnitude`` (a log-survival or a level, taken
    absolutely) plus the magnitude the kernel of ``kind`` cancels at scale
    ``s`` (:func:`log_sf_cancellation`): two log-survivals of that magnitude
    that differ by more than this differ in that order whatever the rounding."""
    return _MARGIN * (1.0 + abs(magnitude) + log_sf_cancellation(kind, params, s))


def log_sf_level(kind: str, params: SystemParams, eps: float) -> float:
    """The level of ``kind`` (:func:`secrecy_level` over the eavesdroppers its
    SOP takes the best of): its SOP is at most ``eps`` exactly where one
    eavesdropper's log-survival is at most this level."""
    best_of = _KINDS[check_kind(kind)][3]
    return secrecy_level(eps, 1 if best_of is None else best_of(params))


def log_sf_theta_curve(kind: str, params: SystemParams, p_a: float, r_s: float, eps: float):
    """(theta -> log-survival of one eavesdropper of ``kind``, level).

    The SOP of ``kind`` (see :func:`sop_theta_curve`) is at most ``eps``
    exactly where the curve is at most the level, which is computed once here
    (:func:`log_sf_level`); the curve evaluates :func:`log_sf_at`.
    """
    s = log_sf_scale(kind, params, p_a, r_s)
    return (lambda theta: log_sf_at(kind, params, theta, s)), log_sf_level(kind, params, eps)


def _sop(kind: str, params: SystemParams, split: PowerSplit, r_s):
    return _maybe_float(sop_theta_curve(kind, params, split.p_a, r_s)(split.theta))


def _through_logs(t, x, up: tuple, down: tuple):
    """x times the factors ``up`` over the factors ``down`` (positive finite
    floats) at each x >= 0, given ``t``, that ratio formed plainly. Where t
    is 0, inf or NaN, a product may have left the float range, and the ratio
    is formed through logs instead; every positive finite t keeps its bits."""
    lost = ~((t > 0.0) & (t < math.inf))
    if not lost.any():
        return t
    log_q = sum(map(math.log, up)) - sum(map(math.log, down))
    with np.errstate(over="ignore", divide="ignore"):
        return np.where(lost, np.exp(np.log(x) + log_q), t)


def _cdf(kind: str, x, params: SystemParams, split: PowerSplit):
    """CDF of one eavesdropper's SNR: the kernel at the split's AN powers,
    +0.0 at x <= 0. Where no AN reaches the eavesdropper (the kernel's
    s -> inf limit is 0), its interference-limited SNR is unbounded and the
    formula's limit, 0 wherever x is not NaN, comes with a
    DegenerateDistributionWarning."""
    seen = _an_seen(kind, params, split.p_ja, split.p_jp)
    if not seen:
        warnings.warn(f"no AN reaches the {kind} eavesdropper: its interference-limited SNR "
                      "is unbounded", DegenerateDistributionWarning, stacklevel=3)
    var_j, var_a = ((params.var_jea, params.var_aea) if _KINDS[kind][0]
                    else (params.var_jek, params.var_aek))
    # an s lost to a product beyond the float range is taken through logs;
    # an AN power the kernel reads times s beyond it is the s = inf limit:
    # the survival is then below e**-600, and the CDF 1 to the float. With no
    # AN, 0 * inf is NaN and leaves s as it is
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = _through_logs(var_j * x / (split.p_a * var_a), x, (var_j,), (split.p_a, var_a))
        s = np.where(seen * s == math.inf, math.inf, s)
    # + 0.0 turns the -0.0 of -expm1(0) into +0.0 and keeps every other bit
    return _maybe_float(-np.expm1(log_sf_at(kind, params, split.p_ja, s, split.p_jp)) + 0.0)


# ---------------------------------------------------------------------------
# SNR CDFs
# ---------------------------------------------------------------------------
# Each is a distribution on the whole real line: +0.0 at x <= 0 (-inf
# included) and NaN only where x is NaN. The five eavesdropper CDFs are views
# of :func:`_cdf`.

def cdf_snr_bob(x, params: SystemParams, p_a: float):
    """CDF of Bob's SNR: the information link over the active jamming link."""
    # a ratio t lost to a product beyond the float range (inf/inf, 0/0, or
    # one product alone) is taken through logs; a t beyond the float range is
    # clipped to the largest float, where t / (1 + t) rounds to its limit 1
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t = _through_logs(x * params.p_ea * params.var_eab / (p_a * params.var_ab), x,
                          (params.p_ea, params.var_eab), (p_a, params.var_ab))
    t = np.minimum(t, sys.float_info.max)
    return _maybe_float(t / (1.0 + t) + 0.0)


def cdf_snr_active(x, params: SystemParams, split: PowerSplit):
    """CDF of the single active eavesdropper's SNR under perfect estimates;
    0 with a DegenerateDistributionWarning at zero active-beam AN power."""
    return _cdf("active", x, params, split)


def cdf_snr_passive(x, params: SystemParams, split: PowerSplit):
    """CDF of one passive eavesdropper's SNR under perfect estimates; 0 with
    a DegenerateDistributionWarning at zero total AN power."""
    return _cdf("passive", x, params, split)


def cdf_snr_active_imperfect(x, params: SystemParams, split: PowerSplit):
    """CDF of the active eavesdropper's SNR when its jammer-side estimate has
    correlation rho_ea: the mispointed beam plus passive-AN leakage raise the
    interference floor. Degenerate (see :func:`_cdf`) only where no AN the
    kernel reads is on: the beam's at rho_ea = 1, else the beam's and the
    passive subspace's."""
    return _cdf("active_imperfect", x, params, split)


def cdf_snr_active_multi(x, params: SystemParams, split: PowerSplit):
    """CDF of one active eavesdropper's SNR with M beams sharing the AN power;
    degenerate (see :func:`_cdf`) at zero beam AN power."""
    return _cdf("active_multi", x, params, split)


def cdf_snr_passive_multi(x, params: SystemParams, split: PowerSplit):
    """CDF of one passive eavesdropper's SNR with M active beams present;
    degenerate (see :func:`_cdf`) at zero total AN power."""
    return _cdf("passive_multi", x, params, split)


# ---------------------------------------------------------------------------
# Transmission outage and minimum Alice power
# ---------------------------------------------------------------------------

def transmission_outage(params: SystemParams, p_a: float) -> float:
    """Probability Bob's capacity falls below r_b, active jamming limited."""
    return float(cdf_snr_bob(rate_gap_threshold(params.r_b, 0.0), params, p_a))


def transmission_outage_noise_limited(params: SystemParams, p_a: float) -> float:
    """Bob outage with unit thermal noise as the only impairment."""
    x = rate_gap_threshold(params.r_b, 0.0)
    return float(-np.expm1(-_over(x, p_a, params.var_ab)))


def transmission_outage_an_leakage(params: SystemParams, p_a: float) -> float:
    """Bob outage bound when AN leaks through the imperfect jammer->Bob estimate.

    Uses the mean leaked power (p_max - p_a)(1 - rho_b^2)var_jb as the
    interference level; by Jensen this upper-bounds the true outage of the
    leakage-limited SNR. Requires rho_b < 1.
    """
    if params.rho_b >= 1.0:
        raise RangeError("an_leakage outage requires rho_b < 1; use the perfect-CSI path")
    x = rate_gap_threshold(params.r_b, 0.0)
    c = (params.p_max / p_a - 1.0) * (1.0 - params.rho_b ** 2) * params.var_jb * x / params.var_ab
    return float(-np.expm1(-c))


def resolve_pa_mode(params: SystemParams, mode: str = "auto") -> str:
    if mode == "auto":
        return "an_leakage" if params.rho_b < 1.0 else "noise_limited"
    if mode not in PA_MODES:
        raise RangeError(f"unknown pa mode {mode!r}; expected one of {PA_MODES} or 'auto'")
    return mode


def _over(num: float, *factors: float) -> float:
    """``num`` over the product of the positive ``factors``: num / product,
    unless the product underflows to 0; then num is divided by each factor in
    turn, which gives inf rather than a ZeroDivisionError when it overflows."""
    product = math.prod(factors)
    if product > 0.0:
        return num / product
    for factor in factors:
        num /= factor
    return num


def min_pa(params: SystemParams, mode: str = "auto") -> float:
    """Smallest Alice power meeting the transmission-outage target ``delta``.

    Returns the required power even when it exceeds p_max; callers decide
    feasibility (the optimizer reports PA_EXCEEDS_PMAX). The exact power is
    always positive, but at a tiny r_b (or a huge var_ab) its float can round
    to 0; RangeError then, since no later step can use a zero power.

    ``auto`` is discontinuous at rho_b = 1: ``an_leakage`` drops the
    thermal-noise floor that ``noise_limited`` keeps, so on the shipped
    ``sweep_antennas.cfg`` scenario the power is 242.03 at rho_b = 1 but
    0.0077 at rho_b = 1 - 1e-9 and 7.7e-9 at rho_b = 1 - 1e-15.
    """
    mode = resolve_pa_mode(params, mode)
    x = rate_gap_threshold(params.r_b, 0.0)
    # ln(1 - delta) < 0, a plain float: a power beyond the float range is inf,
    # never a numpy overflow warning
    log_keep = float(np.log1p(-params.delta))
    if mode == "noise_limited":
        p_a = _over(x, -log_keep, params.var_ab)
    elif mode == "interference_limited":
        p_a = _over(x * (1.0 - params.delta) * params.p_ea * params.var_eab,
                    params.delta, params.var_ab)
    elif params.rho_b >= 1.0:
        raise RangeError("an_leakage mode requires rho_b < 1")
    else:
        denom = 1.0 - _over(params.var_ab * log_keep, 1.0 - params.rho_b ** 2, params.var_jb, x)
        p_a = float(params.p_max / denom)
    if p_a == 0.0:
        raise RangeError(f"the minimum Alice power under {mode} is positive but rounds to 0 "
                         f"as a float (r_b = {params.r_b!r}, var_ab = {params.var_ab!r})")
    return p_a


def transmission_outage_for_mode(params: SystemParams, p_a: float, mode: str) -> float:
    """The outage expression whose delta-level solution ``min_pa(mode)`` is."""
    mode = resolve_pa_mode(params, mode)
    if mode == "noise_limited":
        return transmission_outage_noise_limited(params, p_a)
    if mode == "interference_limited":
        return transmission_outage(params, p_a)
    return transmission_outage_an_leakage(params, p_a)


# ---------------------------------------------------------------------------
# Secrecy outage probabilities
# ---------------------------------------------------------------------------

def sop_active(params: SystemParams, split: PowerSplit, r_s: float):
    """Secrecy outage at the single active eavesdropper, perfect estimates."""
    return _sop("active", params, split, r_s)


def sop_passive(params: SystemParams, split: PowerSplit, r_s: float):
    """Secrecy outage of the best of K passive eavesdroppers."""
    return _sop("passive", params, split, r_s)


def sop_active_imperfect(params: SystemParams, split: PowerSplit, r_s: float):
    """Secrecy outage at the active eavesdropper with estimate correlation rho_ea.

    Reduces exactly to :func:`sop_active` at rho_ea = 1.
    """
    return _sop("active_imperfect", params, split, r_s)


def sop_active_multi(params: SystemParams, split: PowerSplit, r_s: float):
    """Secrecy outage of the best of M active eavesdroppers (selection combining)."""
    return _sop("active_multi", params, split, r_s)


def sop_passive_multi(params: SystemParams, split: PowerSplit, r_s: float):
    """Secrecy outage of the best of K passive eavesdroppers with M active beams."""
    return _sop("passive_multi", params, split, r_s)


# Rate-search algorithms -> SOP kinds of their (active, passive) constraints.
# 'perfect' reads rho_ea as 1; at rho_ea = 1 the 'active_imperfect' kernel
# reduces bit for bit to 'active', whose name 'imperfect' then takes.
ALGORITHM_KINDS = {"perfect": ("active", "passive"),
                   "imperfect": ("active_imperfect", "passive"),
                   "multi": ("active_multi", "passive_multi")}


def default_algorithm(params: SystemParams) -> str:
    """The algorithm that reads the scenario's own SOP kinds: 'multi' for
    M > 1 beams, else 'perfect' at rho_ea = 1 and 'imperfect' below it."""
    return "multi" if params.m_active > 1 else "perfect" if params.rho_ea == 1.0 else "imperfect"


def scenario_kinds(params: SystemParams, algorithm: str | None = None) -> tuple[str, str]:
    """(active, passive) SOP kinds that ``algorithm`` (by default
    :func:`default_algorithm`) reads the scenario with; 'active_imperfect'
    is named 'active' at rho_ea = 1."""
    active, passive = ALGORITHM_KINDS[algorithm or default_algorithm(params)]
    if active == "active_imperfect" and params.rho_ea == 1.0:
        active = "active"
    return active, passive


@dataclass(frozen=True)
class OutageMetrics:
    p_to: float
    p_so1: float
    p_so2: float


def bob_regime(params: SystemParams) -> str:
    """What limits Bob in the outage metrics and the Monte Carlo oracle: AN
    leaking through the imperfect jammer->Bob estimate when rho_b < 1, else
    the active eavesdropper's jamming. (The ``auto`` pa-mode is another rule:
    it is noise-limited at rho_b = 1.)"""
    return "an_leakage" if params.rho_b < 1.0 else "interference_limited"


def outage_metrics(params: SystemParams, split: PowerSplit, r_s: float) -> OutageMetrics:
    """All three outage probabilities using the forms the scenario calls for."""
    p_to = transmission_outage_for_mode(params, split.p_a, bob_regime(params))
    p1, p2 = (float(_sop(kind, params, split, r_s)) for kind in scenario_kinds(params))
    return OutageMetrics(p_to=p_to, p_so1=p1, p_so2=p2)


# ---------------------------------------------------------------------------
# Derivatives in theta and rho, and the theta-derivative quadratic
# ---------------------------------------------------------------------------
# Each derivative of an SOP is a thin view of the kernels: the slope of one
# eavesdropper's log-survival (:func:`_log_sf_slope`) times the slope of the
# SOP map at the kernel's value (:func:`_sop_slope`).

def _quadratic_coeffs(n: int, alpha: float, rho: float) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the quadratic factor of d(sop_active)/d(theta).

    The derivative factors as A(theta) * (a theta^2 + b theta + c) with
    A > 0, so the quadratic's sign pattern is the derivative's. Requires
    rho < 1 and alpha > 0.
    """
    rho_bar = 1.0 - rho ** 2
    r = rho_bar * alpha
    a = (n - 1) * r / (n - 2)
    b = (n - 1 - r) / (n - 2)
    c = -(n - 1) * rho ** 2 / r - (n - 1) / (n - 2) + rho_bar
    return a, b, c


def _quadratic_roots(n: int, alpha: float, rho: float) -> tuple[float, float, float]:
    """(negative root, positive root, vertex value); roots always straddle 0.

    Beyond alpha ~ 1e154, b * b overflows; the monic quadratic (b/a, c/a) has
    the same roots, and the vertex value is then formed as c - b * (b/a / 4).
    Near the top of the float range ``a`` itself overflows, and the monic
    coefficients are formed from r = (1 - rho^2) * alpha instead: b/a =
    1/r - 1/(N-1) and c/a = c (N-2) / ((N-1) r). At alpha = inf they give the
    limits: roots -0 and 1/(N-1), vertex value -inf.
    """
    a, b, c = _quadratic_coeffs(n, alpha, rho)
    disc = b * b - 4.0 * a * c
    vertex = c - b * b / (4.0 * a)
    if disc == math.inf:
        if a == math.inf:
            r = (1.0 - rho ** 2) * alpha
            b_a, c_a = 1.0 / r - 1.0 / (n - 1), c * (n - 2) / ((n - 1) * r)
        else:
            b_a, c_a = b / a, c / a
        vertex = c - b * (b_a / 4.0)
        a, b, c = 1.0, b_a, c_a
        disc = b * b - 4.0 * c
    sq = math.sqrt(disc)
    q = -0.5 * (b + sq) if b >= 0.0 else -0.5 * (b - sq)
    r1, r2 = q / a, c / q
    return min(r1, r2), max(r1, r2), vertex


@dataclass(frozen=True)
class ThetaProfile:
    """Shape of the active-eavesdropper SOP as a function of the AN ratio.

    ``theta_pos`` is the SOP minimizer when it lies in (0,1);
    ``decreasing_on_unit`` is True when the SOP strictly decreases on all of
    [0,1] (equivalently theta_pos > 1).
    """

    theta_neg: float
    theta_pos: float
    min_value: float
    decreasing_on_unit: bool


def _quadratic_alpha(params: SystemParams, p_a: float, r_s: float) -> float:
    """alpha, for the theta-derivative quadratic: Undefined at rho_ea in
    {0, 1}, where the quadratic degenerates, and AlphaZero at alpha = 0."""
    if params.rho_ea in (0.0, 1.0):
        raise Undefined("theta profile requires 0 < rho_ea < 1 (the quadratic degenerates)")
    alpha = float(alpha_ratio(params, p_a, r_s))
    if alpha <= 0.0:
        raise AlphaZero("alpha is zero: no AN margin at this rate/power")
    return alpha


def active_sop_theta_profile(params: SystemParams, p_a: float, r_s: float) -> ThetaProfile:
    """Roots and minimum of the theta-derivative quadratic for rho_ea in (0,1).

    An alpha that overflows to inf gives the limit: theta_pos = 1/(N-1), not
    decreasing on [0,1] (see :func:`_quadratic_roots`).
    """
    alpha = _quadratic_alpha(params, p_a, r_s)
    t_neg, t_pos, vmin = _quadratic_roots(params.n_antennas, alpha, params.rho_ea)
    return ThetaProfile(theta_neg=float(t_neg), theta_pos=float(t_pos),
                        min_value=float(vmin), decreasing_on_unit=bool(t_pos > 1.0))


def active_sop_theta_quadratic(params: SystemParams, p_a: float, r_s: float, theta) -> float:
    """Value of the theta-derivative quadratic at ``theta`` (for root checks);
    the same typed errors as :func:`active_sop_theta_profile`."""
    a, b, c = _quadratic_coeffs(params.n_antennas, _quadratic_alpha(params, p_a, r_s),
                                params.rho_ea)
    th = np.asarray(theta, dtype=float)
    return _maybe_float((a * th + b) * th + c)


def monotone_condition(params: SystemParams, p_a: float, r_s: float) -> bool:
    """Closed-form test for theta_pos > 1: rho^2 (1+L) > L (1 + (N-1) L).

    Algebraically equivalent to comparing the quadratic's positive root with
    one; kept as an independent cross-check of the root computation.
    """
    n = params.n_antennas
    rho = params.rho_ea
    alpha = float(alpha_ratio(params, p_a, r_s))
    lam = (1.0 - rho ** 2) * alpha / (n - 1)
    return rho ** 2 * (1.0 + lam) > lam * (1.0 + (n - 1) * lam)


def _log_sf_slope(kind: str, params: SystemParams, theta: float, s: float,
                  rho: bool = False) -> float:
    """d/d(theta) of the log-survival of one eavesdropper of ``kind`` at AN
    ratio ``theta`` and scale 0 < s < inf; with ``rho``, d/d(rho_ea) of the
    imperfect-estimate active kernel, whose rho_bar = 1 - rho_ea^2 moves by
    -2 rho_ea.

    A kernel term c log1p(w s / d) moves by c / (d/s + w) per unit of its
    weight w, a form that neither overflows at a large s nor divides by 0 at
    w = 0; 1 - theta is one value, so that a small d/s is not lost at
    theta = 1. Terms whose sum changes sign share one denominator, so that
    the sign is read from (N-1) theta - M, formed with one rounding: the
    passive slope and the rho slope are exactly 0 where it is. The imperfect
    estimate's three theta terms, -(N-1) / (1/s + theta) + (N-2) / (1/r +
    theta) + (N-2) / ((N-2)/r + 1 - theta) with r = rho_bar s, are each
    O(N^2) near theta = 1/(N-1) but sum to O(1/s) at a large s; taken over
    the first one's denominator they leave (N-1) theta - 1 over
    ((N-2)/r + 1 - theta) less two negative terms.
    """
    active, multi, imperfect, _ = _KINDS[kind]
    n, m = params.n_antennas, params.m_active if multi else 1
    rho_ea = params.rho_ea if imperfect else 1.0
    rho_bar, w_pas = 1.0 - rho_ea ** 2, 1.0 - theta
    if not active:
        return ((n - 1) * theta - m) / ((m / s + theta) * ((n - m - 1) / s + w_pas))
    r, lead = rho_bar * s, (n - 1) * theta - 1.0
    if rho:
        return -2.0 * rho_ea * (n - 2) * lead / ((1.0 + theta * r) * ((n - 2) / s + w_pas * rho_bar))
    if not rho_bar:
        return (2 - m - n) / (m / s + theta)
    return ((lead / ((n - 2) / rho_bar / s + w_pas)
             - (n - 2) * rho_ea ** 2 * (1.0 / ((n - 2) + w_pas * r) + 1.0 / (1.0 + theta * r)))
            / (1.0 / s + theta))


def _sop_slope(kind: str, params: SystemParams, split: PowerSplit, r_s: float,
               rho: bool = False) -> float:
    """The derivative of the SOP of ``kind`` at the split, in theta (or in
    rho_ea, see :func:`_log_sf_slope`): the kernel's slope times the SOP
    map's slope at the kernel's value G, which is G for the single active
    eavesdropper and K (1 - G)^(K-1) G for the best of K. 0 where the SOP is
    flat: at s = 0 (no AN margin) and in the s = inf limit."""
    s = float(log_sf_scale(kind, params, split.p_a, r_s))
    if not 0.0 < s < math.inf:
        return 0.0
    g = math.exp(log_sf_at(kind, params, split.theta, s))
    best_of = _KINDS[kind][3]
    k = 1 if best_of is None else best_of(params)
    # (1 - G)^(K-1) is 0 where G rounds to 1 (an s below the float resolution of 1 + s)
    g *= k * math.exp((k - 1) * math.log1p(-g)) if g < 1.0 else float(k == 1)
    # a G that underflows: the SOP is 0 to the float, and so is its slope
    return float(g * _log_sf_slope(kind, params, split.theta, s, rho)) if g else 0.0


def sop_active_dtheta(params: SystemParams, split: PowerSplit, r_s: float) -> float:
    """d(sop_active_imperfect)/d(theta) at the split's theta, which is
    d(sop_active)/d(theta) at rho_ea = 1.

    Perfect estimates give a strictly negative derivative; with rho_ea < 1
    it is A(theta) times the theta-derivative quadratic
    (:func:`active_sop_theta_quadratic`), where A > 0, so its sign is the
    quadratic's.
    """
    return _sop_slope("active_imperfect", params, split, r_s)


def sop_passive_dtheta(params: SystemParams, split: PowerSplit, r_s: float) -> float:
    """d(sop_passive)/d(theta): negative below theta = 1/(N-1), zero there,
    positive above."""
    return _sop_slope("passive", params, split, r_s)


def sop_active_imperfect_drho(params: SystemParams, split: PowerSplit, r_s: float) -> float:
    """d(sop_active_imperfect)/d(rho_ea); at rho_ea = 1 the left derivative,
    -2 alpha ((N-1) theta - 1) SOP.

    Carries the sign of 1 - theta (N-1): a sharper estimate steers AN more
    precisely at the active eavesdropper (lowering its SOP) only when the
    active beam holds at least 1/(N-1) of the AN budget; below that, passive
    AN leaking through the estimation error was doing the jamming, and a
    better estimate removes it.
    """
    return _sop_slope("active_imperfect", params, split, r_s, rho=True)


# ---------------------------------------------------------------------------
# Grid evaluations (vectorized over rate and AN-ratio grids)
# ---------------------------------------------------------------------------

def sop_grid(params: SystemParams, p_a: float, rs_grid: np.ndarray,
             theta_grid: np.ndarray, which: str) -> np.ndarray:
    """Matrix of a SOP over (rate grid) x (theta grid); rows follow rs_grid.

    ``which`` is one of the SOP kinds of :func:`sop_theta_curve`.
    """
    curve = sop_theta_curve(which, params, p_a, np.asarray(rs_grid, dtype=float)[:, None])
    return curve(np.asarray(theta_grid, dtype=float)[None, :])


def _cells(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta cut into cells of _GRID_CELL consecutive points, the last one
    padded with the last point; the cells' corners (hi, lo), shaped (2, 1,
    cells) to meet a column of scales)."""
    grid = np.append(theta, np.full(-theta.size % _GRID_CELL, theta[-1])).reshape(-1, _GRID_CELL)
    return grid, np.array([grid.max(axis=1), grid.min(axis=1)])[:, None, :]


def _settle(which: str, params: SystemParams, corners: np.ndarray, s: np.ndarray,
            starts: np.ndarray):
    """(whether the SOP of ``which`` is above epsilon, and whether it is at
    most epsilon, at every point of each tile), a row per tile row: a tile
    is one cell of ``corners`` (:func:`_cells`) by the rate rows of the
    scales ``s`` from each index of the increasing ``starts`` (the first one
    0) to the next, so every scale in [s_min, s_max] of those rows.

    Over a cell whose points span [lo, hi], the log-survival lies between
    its values at (hi, 1 - lo, s_max) and (lo, 1 - hi, s_min) (see
    :func:`log_sf_at`). A tile whose lower bound's SOP is above epsilon, or
    whose upper bound's is below it, by more than a rounding slack is
    settled. The slack is twice :func:`log_sf_margin` at the lower bound, the
    largest magnitude and scale in the tile: one margin for the kernel's
    rounding at a bound and at a point, one for the SOP map's.
    """
    s_max, s_min = np.maximum.reduceat(s, starts)[:, None], np.minimum.reduceat(s, starts)[:, None]
    # the lower bounds, at (hi, 1 - lo, s_max), over the upper ones, at (lo, 1 - hi, s_min)
    bounds = log_sf_at(which, params, corners, np.array([s_max, s_min]), 1.0 - corners[::-1])
    slack = 1.0 + 2.0 * log_sf_margin(which, params, s_max, bounds[0])
    lower, upper = _sop_map(which, params)(bounds)
    eps = params.epsilon
    return lower > eps * slack + _TINY, upper < (eps - _TINY) / slack


def _sop_cells(which: str, params: SystemParams, grid: np.ndarray, size: int, s: np.ndarray,
               rows: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, int]:
    """(``sop_grid(...) <= epsilon``, bit for bit, at the points of each
    cell ``cells`` of the ``size``-point theta grid cut by :func:`_cells`, in
    rate row ``rows`` of the scales ``s``; the grid points formed, the last
    cell's padding not counted)."""
    formed = _sop_map(which, params)(log_sf_at(which, params, grid[cells], s[rows, None]))
    return formed <= params.epsilon, int(np.minimum(size - cells * _GRID_CELL, _GRID_CELL).sum())


def sop_tiles(params: SystemParams, p_a: float, rs_grid: np.ndarray, theta_grid: np.ndarray,
              which: str, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(above, below): for each tile of the (rate x theta) grid, whether the
    SOP of ``which`` is above epsilon at all its points, and whether it is
    at most epsilon at all of them, decided from two corner bounds alone.

    A tile is one group of consecutive rate rows, from each index of the
    increasing ``starts`` (the first one 0) to the next, by one theta cell of
    :func:`sop_grid_mask`. Every kernel falls as its scale s grows, and s
    falls as the rate rises; the tile's bounds take the least and the
    greatest float s of its rows (:func:`_settle`).
    """
    s = log_sf_scale(which, params, p_a, np.asarray(rs_grid, dtype=float))
    return _settle(which, params, _cells(np.asarray(theta_grid, dtype=float))[1], s, starts)


def sop_grid_mask(params: SystemParams, p_a: float, rs_grid: np.ndarray,
                  theta_grid: np.ndarray, which: str) -> tuple[np.ndarray, int]:
    """(``sop_grid(...) <= params.epsilon``, bit for bit; the number of grid
    points whose SOP was formed), for thetas in [0, 1].

    Each row's theta cells are settled as one-row tiles (:func:`_settle`);
    the SOP is formed, as sop_grid forms it, only at the points of the cells
    left (:func:`_sop_cells`).
    """
    theta = np.asarray(theta_grid, dtype=float)
    s = log_sf_scale(which, params, p_a, np.asarray(rs_grid, dtype=float))
    grid, corners = _cells(theta)
    above, below = _settle(which, params, corners, s, np.arange(s.size))
    mask = np.repeat(below, _GRID_CELL, axis=1)
    rows, cells = np.nonzero(~(above | below))
    formed, points = _sop_cells(which, params, grid, theta.size, s, rows, cells)
    mask.reshape(s.size, len(grid), _GRID_CELL)[rows, cells] = formed
    return mask[:, :theta.size], points
