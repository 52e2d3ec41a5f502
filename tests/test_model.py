import dataclasses

import numpy as np
import pytest

from secrate.errors import AntennaCountTooSmall, NonPositive, RangeError
from secrate.model import SystemParams, db_to_linear, make_split, validate
from secrate.optimizer import maximize_for

from conftest import random_params


def test_db_to_linear_anchors():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == 10.0
    assert db_to_linear(3.0) == pytest.approx(1.9952623149688795, rel=1e-12)


def test_db_to_linear_additivity():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = rng.uniform(-40.0, 40.0, size=2)
        assert db_to_linear(a + b) == pytest.approx(
            db_to_linear(a) * db_to_linear(b), rel=1e-12)


def _params(**overrides) -> SystemParams:
    base = dict(
        n_antennas=4, k_passive=3, m_active=1,
        var_ab=1.0, var_aea=1.0, var_aek=1.0, var_eab=1.0,
        var_jb=1.0, var_jea=1.0, var_jek=1.0,
        p_max=100.0, p_ea=10.0, r_b=4.0, delta=0.1, epsilon=0.01,
    )
    base.update(overrides)
    return SystemParams(**base)


def test_validate_accepts_valid_scenario():
    params = _params()
    assert validate(params) is params


def test_validate_antenna_floor_single_active():
    with pytest.raises(AntennaCountTooSmall):
        validate(_params(n_antennas=2))


def test_validate_antenna_floor_multi_active():
    with pytest.raises(AntennaCountTooSmall):
        validate(_params(n_antennas=4, m_active=3))
    validate(_params(n_antennas=5, m_active=3))


@pytest.mark.parametrize("field", ["var_ab", "var_jek", "p_max", "p_ea", "r_b"])
def test_validate_rejects_nonpositive(field):
    with pytest.raises(NonPositive):
        validate(_params(**{field: 0.0}))
    with pytest.raises(NonPositive):
        validate(_params(**{field: -1.0}))


@pytest.mark.parametrize("field,value", [
    ("delta", 0.0), ("delta", 1.0), ("epsilon", 0.0), ("epsilon", 1.0),
    ("rho_b", -0.1), ("rho_b", 1.1), ("rho_ea", 1.0001),
    ("p_max", float("inf")), ("var_jek", float("inf")), ("r_b", float("inf")),
    ("n_antennas", 6.5), ("k_passive", 2.5), ("m_active", 1.5),
])
def test_validate_rejects_out_of_range(field, value):
    with pytest.raises(RangeError):
        validate(_params(**{field: value}))


def test_make_split_examples():
    params = _params()
    split = make_split(params, 40.0, 0.25)
    assert (split.p_ja, split.p_jp) == (15.0, 45.0)
    boundary = make_split(params, 100.0, 0.5)
    assert (boundary.p_ja, boundary.p_jp) == (0.0, 0.0)
    all_active = make_split(params, 40.0, 1.0)
    assert (all_active.p_ja, all_active.p_jp) == (60.0, 0.0)


def test_make_split_rejects_bad_inputs():
    params = _params()
    with pytest.raises(RangeError):
        make_split(params, 100.1, 0.5)
    with pytest.raises(RangeError):
        make_split(params, 40.0, -0.01)
    with pytest.raises(RangeError):
        make_split(params, 40.0, 1.01)
    with pytest.raises(NonPositive):
        make_split(params, 0.0, 0.5)


def test_split_conserves_budget():
    rng = np.random.default_rng(7)
    for _ in range(300):
        params = random_params(rng)
        p_a = float(rng.uniform(0.0, 1.0)) * params.p_max
        p_a = max(p_a, 1e-9 * params.p_max)
        theta = float(rng.uniform(0.0, 1.0))
        split = make_split(params, p_a, theta)
        total = split.p_a + split.p_ja + split.p_jp
        assert total == pytest.approx(params.p_max, rel=1e-12)
        assert split.p_ja == theta * (params.p_max - p_a)
        assert split.p_jp == (1.0 - theta) * (params.p_max - p_a)


def test_params_frozen():
    params = _params()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.n_antennas = 8


@pytest.mark.filterwarnings("error")
def test_validate_rejects_r_b_whose_threshold_overflows():
    # 2**r_b - 1 is the SNR threshold every closed form starts from
    for r_b in (1024.0, 1030.0, 1e6):
        with pytest.raises(RangeError, match="r_b"):
            validate(_params(r_b=r_b))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pa_mode", ["auto", "noise_limited", "interference_limited"])
@pytest.mark.parametrize("rho_b", [1.0, 0.9])
def test_huge_r_b_needs_infinite_power_without_warning(pa_mode, rho_b):
    params = validate(_params(r_b=np.nextafter(1024.0, 0.0), var_ab=1.0, rho_b=rho_b))
    result = maximize_for(params, pa_mode=pa_mode)
    assert not result.feasible
    assert result.infeasibility_reason in ("PA_EXCEEDS_PMAX", "NO_THETA_AT_RS0")
