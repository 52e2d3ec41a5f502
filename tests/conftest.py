"""Shared scenario generators for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

import secrate.closedform as cf
import secrate.optimizer as opt
from secrate.model import SystemParams, db_to_linear, make_split, validate

try:
    from hypothesis import settings
except ImportError:  # test_properties skips itself without hypothesis
    pass
else:
    # the same examples on every run, with no example database on disk
    settings.register_profile("secrate", derandomize=True, deadline=None,
                              max_examples=100, database=None)
    settings.load_profile("secrate")


def random_params(rng: np.random.Generator, m_active: int = 1, rho_b: float = 1.0,
                  rho_ea: float = 1.0, n_lo: int = 3, n_hi: int = 8,
                  r_b_lo: float = 2.0, r_b_hi: float = 8.0) -> SystemParams:
    """A validated random scenario with moderate, well-conditioned magnitudes."""
    n_min = 3 if m_active == 1 else m_active + 2
    n = int(rng.integers(max(n_lo, n_min), n_hi + 1))
    var = lambda: float(10.0 ** rng.uniform(-0.5, 1.0))  # noqa: E731
    return validate(SystemParams(
        n_antennas=n,
        k_passive=int(rng.integers(1, 6)),
        m_active=m_active,
        var_ab=var(), var_aea=var(), var_aek=var(), var_eab=var(),
        var_jb=var(), var_jea=var(), var_jek=var(),
        p_max=float(10.0 ** rng.uniform(2.0, 4.0)),
        p_ea=float(10.0 ** rng.uniform(0.0, 1.5)),
        r_b=float(rng.uniform(r_b_lo, r_b_hi)),
        delta=float(rng.uniform(0.05, 0.3)),
        epsilon=float(10.0 ** rng.uniform(-3.0, -0.7)),
        rho_b=rho_b, rho_ea=rho_ea,
    ))


def random_point(rng: np.random.Generator, params: SystemParams):
    """(p_a, theta, r_s) strictly inside the admissible box."""
    p_a = float(rng.uniform(0.2, 0.8)) * params.p_max
    theta = float(rng.uniform(0.02, 0.98))
    r_s = float(rng.uniform(0.05, 0.9)) * params.r_b
    return p_a, theta, r_s


def passive_convex_level(k: int) -> float:
    """L_K = 1-(1-1/K)^K: the best-of-K passive SOP is convex in theta below it."""
    return 1.0 - (1.0 - 1.0 / k) ** k


def log_sf_minimizer(kind: str, params: SystemParams, p_a: float, r_s: float) -> float:
    """Where the log-survival of SOP ``kind`` is smallest on [0, 1]: the
    crossings solver's ``minimizer`` argument."""
    if kind.startswith("passive"):
        return opt._theta_reference(params, kind)
    flat = cf.alpha_ratio(params, p_a, r_s) == 0.0
    if kind != "active_imperfect" or params.rho_ea == 1.0 or flat:
        return 1.0
    if params.rho_ea == 0.0:
        return 1.0 / (params.n_antennas - 1)
    return min(cf.active_sop_theta_profile(params, p_a, r_s).theta_pos, 1.0)


def mp_log_survival(mp, kind: str, params: SystemParams, w_beam, w_pas, s):
    """log P(SNR >= x) of one eavesdropper from the closed forms, in mpmath."""
    n = params.n_antennas
    m = params.m_active if kind.endswith("multi") else 1
    w_beam, w_pas = mp.mpf(w_beam), mp.mpf(w_pas)
    if kind.startswith("passive"):
        return -m * mp.log1p(w_beam * s / m) - (n - m - 1) * mp.log1p(w_pas * s / (n - m - 1))
    log_g = (2 - m - n) * mp.log1p(w_beam * s / m)
    if kind == "active_imperfect":
        rho_bar = 1 - mp.mpf(params.rho_ea) ** 2
        log_g += (n - 2) * (mp.log1p(w_beam * rho_bar * s)
                            - mp.log1p(w_pas * rho_bar * s / (n - 2)))
    return log_g


def full_intersection(params: SystemParams, p_a: float, r_s: float,
                      kinds: tuple[str, str]) -> opt.ThetaInterval:
    """The intersection of the two theta-intervals, each solved in full: what
    ``_feasible_interval``, whose clip the rate search's probe returns, must
    return."""
    active, passive = (opt.theta_interval(kind, params, p_a, r_s) for kind in kinds)
    lo, hi = max(active.lo, passive.lo), min(active.hi, passive.hi)
    if active.empty or passive.empty or lo > hi:
        return opt.ThetaInterval.nothing()
    return opt.ThetaInterval(lo=lo, hi=hi)


def assert_same_interval(got, want, context) -> None:
    """Equal emptiness, and ends within two bisection tolerances."""
    assert got.empty == want.empty, context
    if not want.empty:
        assert abs(got.lo - want.lo) <= 2 * opt._BISECT_TOL, context
        assert abs(got.hi - want.hi) <= 2 * opt._BISECT_TOL, context


def random_split(rng: np.random.Generator, params: SystemParams):
    p_a, theta, r_s = random_point(rng, params)
    return make_split(params, p_a, theta), r_s


@pytest.fixture
def baseline_params() -> SystemParams:
    """The antenna-sweep scenario at N=6 (dB values converted)."""
    return validate(SystemParams(
        n_antennas=6, k_passive=1, m_active=1,
        var_ab=db_to_linear(10.0), var_aea=db_to_linear(3.0),
        var_aek=db_to_linear(3.0), var_eab=db_to_linear(3.0),
        var_jb=db_to_linear(2.0), var_jea=db_to_linear(7.0),
        var_jek=db_to_linear(7.0),
        p_max=db_to_linear(40.0), p_ea=db_to_linear(10.0),
        r_b=8.0, delta=0.1, epsilon=1e-2,
    ))


# Scenarios whose minimum Alice power is positive but rounds to 0.0 as a
# float, with the pa-mode that rounds it: a tiny r_b over a large var_ab, or
# (an_leakage, picked by auto at rho_b < 1) over a modest one.
_UNDERFLOW_BASE = dict(n_antennas=5, k_passive=1, m_active=1,
                       var_ab=1e10, var_aea=2.0, var_aek=2.0, var_eab=1.5,
                       var_jb=1.2, var_jea=5.0, var_jek=3.0,
                       p_max=1e4, p_ea=10.0, r_b=1e-320, delta=0.1, epsilon=0.01)
MIN_PA_UNDERFLOW = [(_UNDERFLOW_BASE, "noise_limited"),
                    (_UNDERFLOW_BASE, "interference_limited"),
                    ({**_UNDERFLOW_BASE, "var_ab": 10.0, "rho_b": 0.5}, "auto")]
