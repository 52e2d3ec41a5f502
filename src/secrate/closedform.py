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
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AlphaZero, DegenerateDistributionWarning, RangeError, Undefined
from .model import PowerSplit, SystemParams

PA_MODES = ("noise_limited", "interference_limited", "an_leakage")

_LN2 = np.log(2.0)


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


def _jamming_ratio(params: SystemParams, p_a: float, r_s, var_j: float, var_a: float):
    """(p_max/p_a - 1) var_j x / var_a at the threshold x of ``r_s``.

    RangeError for an ``r_s`` outside [0, r_b] (:func:`rate_gap_threshold`),
    then unless 0 < p_a <= p_max (:func:`check_pa`).
    """
    x = rate_gap_threshold(params.r_b, r_s)
    return (params.p_max / check_pa(params, p_a) - 1.0) * var_j * x / var_a


def alpha_ratio(params: SystemParams, p_a: float, r_s):
    return _jamming_ratio(params, p_a, r_s, params.var_jea, params.var_aea)


def beta_ratio(params: SystemParams, p_a: float, r_s):
    return _jamming_ratio(params, p_a, r_s, params.var_jek, params.var_aek)


def derived_ratios(params: SystemParams, p_a: float, r_s: float) -> DerivedRatios:
    a = alpha_ratio(params, p_a, r_s)
    b = beta_ratio(params, p_a, r_s)
    lam = (1.0 - params.rho_ea ** 2) * a / (params.n_antennas - 1)
    return DerivedRatios(alpha=float(a), beta=float(b), lambda_cap=float(lam))


# ---------------------------------------------------------------------------
# Log-survival kernels
# ---------------------------------------------------------------------------
# Each kernel is log P(SNR >= x) at one eavesdropper. ``w_beam`` and ``w_pas``
# weigh the AN on the active beams and on the passive subspace, and ``s`` is
# the jamming-to-signal scale at the threshold x. The SOPs pass the AN shares
# (theta, 1 - theta) with s = alpha or beta, computed once per call; the CDFs
# pass the split's powers with s = var_j * x / (p_a * var_a). The kernels
# broadcast over arrays and take plain floats as they are.
#
# An s that overflowed to inf (alpha, beta or x beyond the float range) would
# give 0 * inf or inf - inf; the kernels take the limit s -> inf there
# instead: -inf where AN reaches the eavesdropper, 0 where every AN weight it
# sees is zero. Finite entries of s keep the plain formula's floats.

def _finite_scale(s):
    """(s with its overflowed entries set to 1, mask of those entries)."""
    overflow = np.asarray(s) == math.inf
    return np.where(overflow, 1.0, s), overflow


def _limit_at_overflow(log_sf, overflow, w_beam, w_pas):
    """``log_sf`` with the limit s -> inf where ``overflow`` is set."""
    if not overflow.any():  # no full-grid pass without one
        return log_sf
    jammed = (w_beam > 0.0) | (w_pas > 0.0)
    return np.where(overflow, np.where(jammed, -np.inf, 0.0), log_sf)[()]


def _log_sf_active(w_beam, w_pas, s, n: int, m: int, rho_ea: float):
    """One active eavesdropper, its beam one of M sharing ``w_beam``. An
    imperfect estimate (rho_ea < 1, single beam) mispoints the beam and lets
    passive AN through the estimation error; a perfect one keeps all passive
    AN away from it.
    """
    rho_bar = 1.0 - rho_ea ** 2
    overflow = None
    if not (isinstance(s, float) and s < math.inf):  # a finite float: the optimizer's case
        s, overflow = _finite_scale(s)
    log_sf = (2 - m - n) * np.log1p(w_beam / m * s)
    if rho_bar:
        log_sf = ((n - 2) * np.log1p(w_beam * rho_bar * s) + log_sf
                  - (n - 2) * np.log1p(w_pas * rho_bar * s / (n - 2)))
    if overflow is None:
        return log_sf
    return _limit_at_overflow(log_sf, overflow, w_beam, w_pas if rho_bar else 0.0)


def _log_sf_passive(w_beam, w_pas, s, n: int, m: int):
    """One passive eavesdropper: AN from the M beams and from the N-M-1
    passive-subspace dimensions."""
    overflow = None
    if not (isinstance(s, float) and s < math.inf):
        s, overflow = _finite_scale(s)
    log_sf = -m * np.log1p(w_beam / m * s) - (n - m - 1) * np.log1p(w_pas * s / (n - m - 1))
    if overflow is None:
        return log_sf
    return _limit_at_overflow(log_sf, overflow, w_beam, w_pas)


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


def sop_theta_curve(kind: str, params: SystemParams, p_a: float, r_s):
    """The SOP of ``kind`` as a function of the AN ratio alone.

    ``kind`` is one of 'active', 'active_imperfect', 'active_multi',
    'passive', 'passive_multi'. alpha (or beta) is computed once, here; the
    returned function broadcasts theta against ``r_s``, which must lie in
    [0, r_b] (RangeError from :func:`rate_gap_threshold` otherwise; at
    r_s = r_b every SOP is 1).
    """
    best_of = _KINDS[check_kind(kind)][3]
    s = log_sf_scale(kind, params, p_a, r_s)
    if best_of is None:
        return lambda theta: np.exp(log_sf_at(kind, params, theta, s))
    count = best_of(params)
    return lambda theta: _best_of(log_sf_at(kind, params, theta, s), count)


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
    unless given (the CDFs pass the split's AN powers). ``kind`` is not
    checked here."""
    active, multi, imperfect, _ = _KINDS[kind]
    m = params.m_active if multi else 1
    w_pas = 1.0 - theta if w_pas is None else w_pas
    if active:
        return _log_sf_active(theta, w_pas, s, params.n_antennas, m,
                              params.rho_ea if imperfect else 1.0)
    return _log_sf_passive(theta, w_pas, s, params.n_antennas, m)


def log_sf_scale(kind: str, params: SystemParams, p_a: float, r_s):
    """The jamming-to-signal scale s that ``kind``'s log-survival reads:
    alpha on the active link, beta on the passive one."""
    return (alpha_ratio if _KINDS[check_kind(kind)][0] else beta_ratio)(params, p_a, r_s)


def log_sf_cancellation(kind: str, params: SystemParams, s: float) -> float:
    """A bound over theta in [0, 1] on the magnitudes of the terms that the
    kernel of ``kind`` cancels at scale ``s``.

    The passive and perfect-estimate kernels sum log1p terms of one sign, so
    their rounding error is a few ulps of the result, and this is 0. The
    imperfect-estimate active kernel adds (N-2) log1p(theta rho_bar s) to two
    negative terms; its rounding error is a few ulps of the three terms'
    magnitudes, each largest at theta = 0 or 1, and this is their sum.
    """
    rho_bar = 1.0 - params.rho_ea ** 2
    if kind != "active_imperfect" or not rho_bar:
        return 0.0
    n = params.n_antennas
    return ((n - 2) * (math.log1p(rho_bar * s) + math.log1p(rho_bar * s / (n - 2)))
            + (n - 1) * math.log1p(s))


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
    level = log_sf_level(kind, params, eps)
    return (lambda theta: log_sf_at(kind, params, theta, s)), level


def _sop(kind: str, params: SystemParams, split: PowerSplit, r_s):
    return _maybe_float(sop_theta_curve(kind, params, split.p_a, r_s)(split.theta))


def _cdf(kind: str, x, params: SystemParams, split: PowerSplit):
    """CDF of one eavesdropper's SNR: the kernel at the split's AN powers."""
    active = _KINDS[kind][0]
    var_j, var_a = ((params.var_jea, params.var_aea) if active
                    else (params.var_jek, params.var_aek))
    with np.errstate(over="ignore"):  # a product beyond the float range: the s = inf limit
        s = var_j * np.asarray(x, dtype=float) / (split.p_a * var_a)
    return _maybe_float(-np.expm1(log_sf_at(kind, params, split.p_ja, s, split.p_jp)))


# ---------------------------------------------------------------------------
# SNR CDFs
# ---------------------------------------------------------------------------

def cdf_snr_bob(x, params: SystemParams, p_a: float):
    """CDF of Bob's SNR: the information link over the active jamming link."""
    t = np.asarray(x, dtype=float) * params.p_ea * params.var_eab / (p_a * params.var_ab)
    return _maybe_float(t / (1.0 + t))


def cdf_snr_active(x, params: SystemParams, split: PowerSplit):
    """CDF of the single active eavesdropper's SNR under perfect estimates.

    With zero AN power on the active beam the interference-limited SNR is
    unbounded; the formula's limit is 0 for every finite x, returned with a
    DegenerateDistributionWarning.
    """
    if split.p_ja == 0.0:
        warnings.warn("active-beam AN power is zero; SNR is unbounded in the "
                      "interference-limited model", DegenerateDistributionWarning,
                      stacklevel=2)
        return _maybe_float(np.zeros_like(np.asarray(x, dtype=float)))
    return _cdf("active", x, params, split)


def cdf_snr_passive(x, params: SystemParams, split: PowerSplit):
    """CDF of one passive eavesdropper's SNR under perfect estimates."""
    if split.p_ja == 0.0 and split.p_jp == 0.0:
        warnings.warn("total AN power is zero; SNR is unbounded in the "
                      "interference-limited model", DegenerateDistributionWarning,
                      stacklevel=2)
        return _maybe_float(np.zeros_like(np.asarray(x, dtype=float)))
    return _cdf("passive", x, params, split)


def cdf_snr_active_imperfect(x, params: SystemParams, split: PowerSplit):
    """CDF of the active eavesdropper's SNR when its jammer-side estimate has
    correlation rho_ea: the mispointed beam plus passive-AN leakage raise the
    interference floor."""
    return _cdf("active_imperfect", x, params, split)


def cdf_snr_active_multi(x, params: SystemParams, split: PowerSplit):
    """CDF of one active eavesdropper's SNR with M beams sharing the AN power."""
    return _cdf("active_multi", x, params, split)


def cdf_snr_passive_multi(x, params: SystemParams, split: PowerSplit):
    """CDF of one passive eavesdropper's SNR with M active beams present."""
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
    return float(-np.expm1(-x / (p_a * params.var_ab)))


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


# Scenario families -> SOP kinds of their (active, passive) constraints. The
# single family reads rho_ea; perfect CSI is its rho_ea = 1 case, where the
# 'active_imperfect' kernel reduces bit for bit to 'active', whose name the
# case keeps.
FAMILIES = {"single": ("active_imperfect", "passive"),
            "multi": ("active_multi", "passive_multi")}


def scenario_kinds(params: SystemParams, family: str | None = None) -> tuple[str, str]:
    """(active, passive) SOP kinds of ``family``, by default the scenario's own."""
    active, passive = FAMILIES[family or ("multi" if params.m_active > 1 else "single")]
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
    sq = float(np.sqrt(disc))
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


def active_sop_theta_profile(params: SystemParams, p_a: float, r_s: float) -> ThetaProfile:
    """Roots and minimum of the theta-derivative quadratic for rho_ea in (0,1).

    An alpha that overflows to inf gives the limit: theta_pos = 1/(N-1), not
    decreasing on [0,1] (see :func:`_quadratic_roots`).
    """
    rho = params.rho_ea
    if rho in (0.0, 1.0):
        raise Undefined("theta profile requires 0 < rho_ea < 1 (the quadratic degenerates)")
    alpha = float(alpha_ratio(params, p_a, r_s))
    if alpha <= 0.0:
        raise AlphaZero("alpha is zero: no AN margin at this rate/power")
    t_neg, t_pos, vmin = _quadratic_roots(params.n_antennas, alpha, rho)
    return ThetaProfile(theta_neg=float(t_neg), theta_pos=float(t_pos),
                        min_value=float(vmin), decreasing_on_unit=bool(t_pos > 1.0))


def active_sop_theta_quadratic(params: SystemParams, p_a: float, r_s: float, theta) -> float:
    """Value of the theta-derivative quadratic at ``theta`` (for root checks)."""
    alpha = float(alpha_ratio(params, p_a, r_s))
    a, b, c = _quadratic_coeffs(params.n_antennas, alpha, params.rho_ea)
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


def sop_active_dtheta(params: SystemParams, split: PowerSplit, r_s: float) -> float:
    """d(sop_active)/d(theta) at the split's theta.

    Perfect estimates give the strictly negative closed form; with
    rho_ea < 1 the derivative is A(theta) times the quadratic, where A > 0.
    """
    n = params.n_antennas
    alpha = float(alpha_ratio(params, split.p_a, r_s))
    if alpha == 0.0:
        return 0.0
    theta = split.theta
    if params.rho_ea == 1.0:
        return float((1.0 - n) * alpha * np.exp(-n * np.log1p(theta * alpha)))
    rho_bar = 1.0 - params.rho_ea ** 2
    log_a = ((n - 3) * np.log1p(theta * rho_bar * alpha)
             - n * np.log1p(theta * alpha)
             - (n - 1) * np.log1p((1.0 - theta) * rho_bar * alpha / (n - 2)))
    a_factor = rho_bar * alpha ** 2 * np.exp(log_a)
    a, b, c = _quadratic_coeffs(n, alpha, params.rho_ea)
    return float(a_factor * ((a * theta + b) * theta + c))


def sop_passive_dtheta(params: SystemParams, split: PowerSplit, r_s: float) -> float:
    """d(sop_passive)/d(theta): negative below theta = 1/(N-1), zero there,
    positive above."""
    n, k = params.n_antennas, params.k_passive
    b = float(beta_ratio(params, split.p_a, r_s))
    if b == 0.0:
        return 0.0
    theta = split.theta
    g = float(np.exp(_log_sf_passive(theta, 1.0 - theta, b, n, 1)))
    # SOP = 1 - (1-G)^K moves by K (1-G)^(K-1) G d(log G)/d(theta); (1-G)^(K-1)
    # is 0 where G rounds to 1 (a beta below the float resolution of 1 + beta)
    outer = 1.0 if k == 1 else k * np.exp((k - 1) * np.log1p(-g)) if g < 1.0 else 0.0
    dlog_g = (b * b * ((n - 1) * theta - 1.0)
              / ((n - 2) * (1.0 + b * theta) * (1.0 + b * (1.0 - theta) / (n - 2))))
    return float(outer * g * dlog_g)


def sop_active_imperfect_drho(params: SystemParams, split: PowerSplit, r_s: float) -> float:
    """d(sop_active_imperfect)/d(rho_ea).

    Carries the sign of 1 - theta (N-1): a sharper estimate steers AN more
    precisely at the active eavesdropper (lowering its SOP) only when the
    active beam holds at least 1/(N-1) of the AN budget; below that, passive
    AN leaking through the estimation error was doing the jamming, and a
    better estimate removes it.
    """
    n = params.n_antennas
    rho = params.rho_ea
    alpha = float(alpha_ratio(params, split.p_a, r_s))
    if alpha == 0.0 or rho in (0.0, 1.0):
        return 0.0
    rho_bar = 1.0 - rho ** 2
    theta = split.theta
    p = float(sop_active_imperfect(params, split, r_s))
    num = -2.0 * rho * alpha * (n - 2) * (theta * (n - 1) - 1.0) * p
    den = (1.0 + theta * rho_bar * alpha) * ((n - 2) + (1.0 - theta) * rho_bar * alpha)
    return float(num / den)


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
