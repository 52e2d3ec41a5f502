import numpy as np
import pytest

from secrate.beamform import (
    BeamformerSet, complement_projector, compose_an, make_beamformer_set, mrt_null_beam,
    multi_mrt_beams, passive_null_basis,
)
from secrate.errors import (
    DegenerateChannel, DimensionMismatch, RankDeficient, ZeroVector,
)
from secrate.model import PowerSplit

from conftest import random_params


def _cn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def test_projector_axis_aligned():
    p = complement_projector(np.array([1.0, 0.0, 0.0], dtype=complex))
    assert np.allclose(p, np.diag([0.0, 1.0, 1.0]))


def test_projector_annihilates_and_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = _cn(rng, 5)
        p = complement_projector(g)
        assert np.max(np.abs(p @ g)) <= 1e-12 * np.linalg.norm(g)
        assert np.max(np.abs(p @ p - p)) <= 1e-12
        assert np.max(np.abs(p - p.conj().T)) <= 1e-12


def test_projector_zero_vector():
    with pytest.raises(ZeroVector):
        complement_projector(np.zeros(4, dtype=complex))


def test_mrt_beam_orthogonal_inputs():
    e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    w = mrt_null_beam(e1, e2)
    assert np.allclose(w, e2)


def test_mrt_beam_parallel_raises():
    e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(DegenerateChannel):
        mrt_null_beam(e1, 2.0 * e1)


def test_zero_active_channel_raises():
    # the parallel check read 0 < 0 here and NaN beams came back with a RuntimeWarning
    e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(ZeroVector, match="active eavesdropper"):
        mrt_null_beam(e1, np.zeros(3))
    actives = np.column_stack([np.array([0.0, 1.0, 0.0]), np.zeros(3)])
    with pytest.raises(ZeroVector, match="column 1"):
        multi_mrt_beams(e1, actives)
    with pytest.raises(ZeroVector, match="column 1"):
        make_beamformer_set(e1, actives)


def test_mrt_beam_invariants_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        g_b, g_ea = _cn(rng, 4), _cn(rng, 4)
        w = mrt_null_beam(g_b, g_ea)
        assert abs(np.vdot(g_b, w)) <= 1e-10 * np.linalg.norm(g_b)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-10)
        # the beam attains the projected-channel gain
        proj = g_ea - g_b * (np.vdot(g_b, g_ea) / np.vdot(g_b, g_b))
        assert abs(np.vdot(g_ea, w)) == pytest.approx(np.linalg.norm(proj), rel=1e-10)


def test_passive_basis_standard_vectors():
    e = np.eye(3, dtype=complex)
    basis = passive_null_basis(e[:, 0], e[:, 1][:, None])
    assert basis.shape == (3, 1)
    assert abs(np.vdot(e[:, 2], basis[:, 0])) == pytest.approx(1.0, abs=1e-12)


def test_passive_basis_rank_deficient():
    e1 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(RankDeficient):
        passive_null_basis(e1, np.column_stack([e1, e1]))


def test_multi_beams_reduce_and_label_failures():
    rng = np.random.default_rng(5)
    g_b, g_ea = _cn(rng, 4), _cn(rng, 4)
    single = mrt_null_beam(g_b, g_ea)
    stacked = multi_mrt_beams(g_b, g_ea[:, None])
    assert np.allclose(stacked[:, 0], single)
    with pytest.raises(DegenerateChannel, match="column 1"):
        multi_mrt_beams(g_b, np.column_stack([g_ea, g_b]))


def test_multi_beams_standard_vectors():
    e = np.eye(4, dtype=complex)
    beams = multi_mrt_beams(e[:, 0], e[:, 1:3])
    assert np.allclose(beams, e[:, 1:3])


def _assert_set_invariants(g_b, bset):
    n, m = bset.w_active.shape
    scale = np.linalg.norm(g_b)
    assert np.max(np.abs(bset.w_active.conj().T @ g_b)) <= 1e-10 * scale
    assert np.max(np.abs(bset.w_passive.conj().T @ g_b)) <= 1e-10 * scale
    for j in range(m):
        assert np.linalg.norm(bset.w_active[:, j]) == pytest.approx(1.0, abs=1e-10)
    cross = bset.w_active.conj().T @ bset.w_passive
    assert np.max(np.abs(cross)) <= 1e-10
    gram = bset.w_passive.conj().T @ bset.w_passive
    assert np.max(np.abs(gram - np.eye(n - m - 1))) <= 1e-10


def test_beamformer_set_invariants_random():
    rng = np.random.default_rng(17)
    for _ in range(200):
        g_b = _cn(rng, 6)
        g_actives = _cn(rng, 6, 2)
        bset = make_beamformer_set(g_b, g_actives)
        assert bset.w_passive.shape == (6, 3)
        _assert_set_invariants(g_b, bset)


def test_compose_an_linearity_and_dims():
    rng = np.random.default_rng(23)
    g_b, g_ea = _cn(rng, 5), _cn(rng, 5)
    bset = make_beamformer_set(g_b, g_ea[:, None])
    split = PowerSplit(p_a=10.0, theta=0.5, p_ja=30.0, p_jp=30.0)
    zero = compose_an(bset, split, np.zeros(1, complex), np.zeros(3, complex))
    assert np.allclose(zero, 0.0)
    single = PowerSplit(p_a=10.0, theta=1.0, p_ja=60.0, p_jp=0.0)
    n_j = compose_an(bset, single, np.ones(1, complex), np.zeros(3, complex))
    assert np.allclose(n_j, np.sqrt(60.0) * bset.w_active[:, 0])
    with pytest.raises(DimensionMismatch):
        compose_an(bset, split, np.zeros(2, complex), np.zeros(3, complex))
    with pytest.raises(DimensionMismatch):
        compose_an(bset, split, np.zeros(1, complex), np.zeros(2, complex))


def test_compose_an_mean_power_and_zero_forcing():
    rng = np.random.default_rng(29)
    g_b, g_ea = _cn(rng, 5), _cn(rng, 5)
    bset = make_beamformer_set(g_b, g_ea[:, None])
    split = PowerSplit(p_a=10.0, theta=0.4, p_ja=36.0, p_jp=54.0)
    trials = 100_000
    z_a = _cn(rng, trials, 1)
    z_p = _cn(rng, trials, 3)
    # vectorized version of compose_an for the mean-power estimate
    an = (np.sqrt(split.p_ja) * z_a @ bset.w_active.T
          + np.sqrt(split.p_jp / 3.0) * z_p @ bset.w_passive.T)
    mean_power = float(np.mean(np.sum(np.abs(an) ** 2, axis=1)))
    assert mean_power == pytest.approx(split.p_ja + split.p_jp, rel=0.01)
    received = np.abs(an @ g_b.conj()) ** 2
    bound = 1e-18 * np.linalg.norm(g_b) ** 2 * (split.p_ja + split.p_jp)
    assert float(received.max()) <= bound
    # spot-check the vectorization against the reference op
    direct = compose_an(bset, split, z_a[0], z_p[0])
    assert np.allclose(direct, an[0], atol=1e-12)


def test_beamformer_set_from_scenario_shapes():
    rng = np.random.default_rng(31)
    params = random_params(rng, m_active=2, n_lo=5, n_hi=7)
    g_b = _cn(rng, params.n_antennas) * np.sqrt(params.var_jb)
    g_a = _cn(rng, params.n_antennas, params.m_active) * np.sqrt(params.var_jea)
    bset = make_beamformer_set(g_b, g_a)
    assert bset.w_active.shape == (params.n_antennas, params.m_active)
    assert bset.w_passive.shape == (params.n_antennas,
                                    params.n_antennas - params.m_active - 1)
    _assert_set_invariants(g_b, bset)


def test_mrt_beam_rejects_mismatched_shapes_and_a_zero_legitimate_channel():
    rng = np.random.default_rng(31)
    with pytest.raises(DimensionMismatch, match="shape mismatch"):
        mrt_null_beam(_cn(rng, 4), _cn(rng, 3))
    with pytest.raises(ZeroVector, match="legitimate channel"):
        mrt_null_beam(np.zeros(4, complex), _cn(rng, 4))


def test_one_dimensional_active_input_is_one_column():
    rng = np.random.default_rng(37)
    g_b, g_ea = _cn(rng, 5), _cn(rng, 5)
    beams = multi_mrt_beams(g_b, g_ea)
    assert beams.shape == (5, 1)
    assert np.array_equal(beams[:, 0], mrt_null_beam(g_b, g_ea))
    assert np.array_equal(passive_null_basis(g_b, beams[:, 0]), passive_null_basis(g_b, beams))


def test_passive_basis_rejects_beams_of_another_length():
    rng = np.random.default_rng(41)
    with pytest.raises(DimensionMismatch, match="beam rows 4 != channel length 5"):
        passive_null_basis(_cn(rng, 5), _cn(rng, 4, 1))


def test_compose_an_rejects_beamformers_of_different_lengths():
    rng = np.random.default_rng(43)
    bset = BeamformerSet(w_active=_cn(rng, 5, 1), w_passive=_cn(rng, 4, 3))
    split = PowerSplit(p_a=10.0, theta=0.5, p_ja=30.0, p_jp=30.0)
    with pytest.raises(DimensionMismatch, match="disagree on antenna count"):
        compose_an(bset, split, np.zeros(1, complex), np.zeros(3, complex))
