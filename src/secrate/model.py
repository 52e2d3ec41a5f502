"""Scenario parameters, unit conversion, validation, and power splitting.

All quantities are linear-scale and noise-normalized (noise variance 1);
dB values appear only at the config boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

from .errors import AntennaCountTooSmall, NonPositive, RangeError


def db_to_linear(x_db):
    """Convert dB to linear scale, 10**(x/10). Works on scalars and numpy arrays."""
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class SystemParams:
    """Full scenario description.

    Channel variances follow the link naming: ``var_ab`` Alice->Bob,
    ``var_aea`` Alice->active eavesdropper, ``var_aek`` Alice->passive
    eavesdropper, ``var_eab`` active eavesdropper->Bob, ``var_jb`` jammer->Bob,
    ``var_jea`` jammer->active, ``var_jek`` jammer->passive. ``rho_b`` and
    ``rho_ea`` are the estimation-quality correlation coefficients for the
    jammer->Bob and jammer->active-eavesdropper links (1 = perfect CSI).
    """

    n_antennas: int
    k_passive: int
    var_ab: float
    var_aea: float
    var_aek: float
    var_eab: float
    var_jb: float
    var_jea: float
    var_jek: float
    p_max: float
    p_ea: float
    r_b: float
    delta: float
    epsilon: float
    m_active: int = 1
    rho_b: float = 1.0
    rho_ea: float = 1.0


@dataclass(frozen=True)
class PowerSplit:
    """Alice power plus the AN split: p_ja = theta*(p_max-p_a), p_jp the rest."""

    p_a: float
    theta: float
    p_ja: float
    p_jp: float


_POSITIVE_FIELDS = (
    "var_ab", "var_aea", "var_aek", "var_eab", "var_jb", "var_jea", "var_jek",
    "p_max", "p_ea", "r_b",
)


def validate(params: SystemParams) -> SystemParams:
    """Check every scenario invariant; return the params unchanged if they hold.

    Raises AntennaCountTooSmall, NonPositive, or RangeError otherwise.
    """
    for name in ("n_antennas", "k_passive", "m_active"):
        value = getattr(params, name)
        if not isinstance(value, Integral):
            raise RangeError(f"{name} must be an integer, got {value!r}")
    n, m, k = params.n_antennas, params.m_active, params.k_passive
    if m < 1:
        raise RangeError(f"m_active must be >= 1, got {m}")
    if k < 1:
        raise RangeError(f"k_passive must be >= 1, got {k}")
    # The passive-AN subspace needs at least one dimension: N-2 columns when
    # M=1, N-M-1 columns otherwise.
    min_n = 3 if m == 1 else m + 2
    if n < min_n:
        raise AntennaCountTooSmall(
            f"n_antennas={n} too small for m_active={m}; need at least {min_n}"
        )
    for name in _POSITIVE_FIELDS:
        value = getattr(params, name)
        if not value > 0.0:
            raise NonPositive(f"{name} must be strictly positive, got {value}")
        if not math.isfinite(value):
            raise RangeError(f"{name} must be finite, got {value}")
    for name in ("delta", "epsilon"):
        value = getattr(params, name)
        if not 0.0 < value < 1.0:
            raise RangeError(f"{name} must lie in the open interval (0,1), got {value}")
    for name in ("rho_b", "rho_ea"):
        value = getattr(params, name)
        if not 0.0 <= value <= 1.0:
            raise RangeError(f"{name} must lie in [0,1], got {value}")
    return params


def make_split(params: SystemParams, p_a: float, theta: float) -> PowerSplit:
    """Build the power split for Alice power ``p_a`` and AN ratio ``theta``."""
    if not p_a > 0.0:
        raise NonPositive(f"p_a must be strictly positive, got {p_a}")
    if p_a > params.p_max:
        raise RangeError(f"p_a={p_a} exceeds p_max={params.p_max}")
    if not 0.0 <= theta <= 1.0:
        raise RangeError(f"theta must lie in [0,1], got {theta}")
    residual = params.p_max - p_a
    return PowerSplit(p_a=p_a, theta=theta, p_ja=theta * residual, p_jp=(1.0 - theta) * residual)

