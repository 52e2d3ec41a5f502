import os
import threading

import numpy as np
import pytest

import secrate.closedform as cf
import secrate.montecarlo as mc
from secrate.errors import DegenerateDistributionWarning, RangeError
from secrate.model import SystemParams, make_split, validate

from conftest import random_params


def _params(**overrides):
    base = dict(
        n_antennas=5, k_passive=2, m_active=1,
        var_ab=4.0, var_aea=2.0, var_aek=2.0, var_eab=1.5,
        var_jb=1.2, var_jea=3.0, var_jek=3.0,
        p_max=500.0, p_ea=10.0, r_b=6.0, delta=0.1, epsilon=0.01,
    )
    base.update(overrides)
    return validate(SystemParams(**base))


def test_sampling_bit_identical_across_batching():
    params = _params(rho_b=0.8, rho_ea=0.7)
    one = mc.sample_channels(params, seed=99, trial_index=5)
    again = mc.sample_channels(params, seed=99, trial_index=5)
    batch = mc.draw_batch(params, seed=99, start=0, stop=10)
    mid = mc.draw_batch(params, seed=99, start=3, stop=8)
    for field in ("g_b", "g_b_est", "e_b", "g_ea", "g_ea_est", "e_ea", "g_ek",
                  "h_aea", "h_aek"):
        a = getattr(one, field)
        assert np.array_equal(a, getattr(again, field))
        assert np.array_equal(a, getattr(batch, field)[5])
        assert np.array_equal(a, getattr(mid, field)[2])
    assert one.h_ab == batch.h_ab[5] == mid.h_ab[2]
    assert one.f_eab == batch.f_eab[5]
    other = mc.sample_channels(params, seed=99, trial_index=6)
    assert not np.array_equal(one.g_b, other.g_b)
    reseeded = mc.sample_channels(params, seed=100, trial_index=5)
    assert not np.array_equal(one.g_b, reseeded.g_b)


def test_estimation_error_identity():
    params = _params(rho_b=0.6, rho_ea=0.3)
    batch = mc.draw_batch(params, seed=1, start=0, stop=200)
    assert np.allclose(batch.g_b, params.rho_b * batch.g_b_est + batch.e_b)
    assert np.allclose(batch.g_ea, params.rho_ea * batch.g_ea_est + batch.e_ea)
    perfect = _params()  # rho = 1
    clean = mc.draw_batch(perfect, seed=1, start=0, stop=50)
    assert np.all(clean.e_b == 0.0)
    assert np.array_equal(clean.g_b, clean.g_b_est)
    assert np.array_equal(clean.g_ea, clean.g_ea_est)


def test_channel_moments():
    params = _params(rho_b=0.65)
    trials = 1_000_000
    var_sum = 0.0
    corr_sum = 0.0
    count = 0
    for start in range(0, trials, 250_000):
        batch = mc.draw_batch(params, seed=5, start=start, stop=start + 250_000)
        var_sum += float(np.sum(np.abs(batch.g_b) ** 2))
        corr_sum += float(np.sum(np.real(batch.g_b * batch.g_b_est.conj())))
        count += batch.g_b.size
    assert var_sum / count == pytest.approx(params.var_jb, rel=0.01)
    rho_hat = corr_sum / count / params.var_jb
    assert rho_hat == pytest.approx(params.rho_b, abs=0.01)


def test_single_draw_agrees_with_batch():
    params = _params(rho_b=0.8, rho_ea=0.7, m_active=2, n_antennas=6)
    split = make_split(params, 120.0, 0.45)
    batch = mc.draw_batch(params, 17, 0, 4)
    bob = mc._snr_bob_batch(params, batch, split, "an_leakage", False, False)
    active = mc._snr_active_batch(params, batch, split, False)
    passive = mc._snr_passive_batch(params, batch, split, "subspace", False)
    for t in range(4):
        draw = mc.sample_channels(params, 17, t)
        assert mc.snr_bob(params, draw, split, "an_leakage") == pytest.approx(
            bob[t], rel=1e-12)
        assert np.allclose(mc.snr_active(params, draw, split), active[t], rtol=1e-12)
        assert np.allclose(mc.snr_passive(params, draw, split), passive[t], rtol=1e-12)


def test_snr_bob_limits_and_degenerate_warning():
    params = _params()
    split = make_split(params, 100.0, 0.5)
    draw = mc.sample_channels(params, 3, 0)
    strong_jammer = _params(p_ea=1e12)
    assert mc.snr_bob(strong_jammer, draw, split) < 1e-6
    with pytest.warns(DegenerateDistributionWarning):
        huge = mc.snr_bob(params, draw, split, regime="an_leakage")
    assert huge > 1e200


def test_estimate_outages_threshold_edges():
    params = _params()
    split = make_split(params, 100.0, 0.5)
    est = mc.estimate_outages(params, split, params.r_b, 20_000, seed=2)
    assert est["p_so1"].p_hat == 1.0
    assert est["p_so2"].p_hat == 1.0
    tiny_rate = _params(r_b=1e-9)
    est2 = mc.estimate_outages(tiny_rate, make_split(tiny_rate, 100.0, 0.5),
                               0.0, 20_000, seed=2)
    assert est2["p_to"].p_hat == 0.0
    assert est2["p_to"].std_err == 0.0


def test_ks_statistic_behaviour():
    rng = np.random.default_rng(8)
    n = 100_000
    uniform = rng.random(n)
    stat = mc.ks_statistic(uniform, lambda x: np.clip(x, 0.0, 1.0))
    assert stat <= 1.36 / np.sqrt(n) * 1.5
    constant = np.full(1000, 0.3)
    assert mc.ks_statistic(constant, lambda x: np.clip(x, 0.0, 1.0)) >= 0.5
    # point mass below the continuous support: distance saturates at 1
    low = np.full(1000, -5.0)
    assert mc.ks_statistic(low, lambda x: np.clip(x, 0.0, 1.0)) == pytest.approx(1.0)


def test_bob_cdf_matches_closed_form():
    params = _params()
    split = make_split(params, 100.0, 0.5)
    samples = mc.snr_samples(params, split, 100_000, seed=21)
    stat = mc.ks_statistic(samples["bob"], lambda x: cf.cdf_snr_bob(x, params, split.p_a))
    assert stat <= 0.01


def test_an_leakage_outage_bounded_by_closed_form():
    # the closed form replaces the random leakage power by its mean, which
    # can only overstate the outage
    params = _params(rho_b=0.75)
    p_a = cf.min_pa(params, "an_leakage")
    assert p_a < params.p_max
    split = make_split(params, p_a, 0.4)
    trials = 100_000
    est = mc.estimate_outages(params, split, 1.0, trials, seed=31)
    closed = cf.transmission_outage_an_leakage(params, p_a)
    se = np.sqrt(closed * (1.0 - closed) / trials)
    assert est["p_to"].p_hat <= closed + 3.0 * se


def test_independent_branches_match_product_form():
    params = _params(m_active=2, n_antennas=6, var_jea=1.0, p_max=300.0)
    split = make_split(params, 150.0, 0.5)
    r_s = 0.85 * params.r_b
    trials = 100_000
    est = mc.estimate_outages(params, split, r_s, trials, seed=37,
                              independent_actives=True)
    closed = float(cf.sop_active_multi(params, split, r_s))
    se = np.sqrt(closed * (1.0 - closed) / trials)
    assert abs(est["p_so1"].p_hat - closed) <= 3.0 * se


def test_coupled_branches_available():
    params = _params(m_active=2, n_antennas=6)
    split = make_split(params, 150.0, 0.5)
    est = mc.estimate_outages(params, split, 3.0, 20_000, seed=41,
                              independent_actives=False)
    assert 0.0 <= est["p_so1"].p_hat <= 1.0


def test_per_beam_leakage_mode_runs():
    params = _params(m_active=2, n_antennas=6)
    split = make_split(params, 150.0, 0.5)
    samples = mc.snr_samples(params, split, 5_000, seed=43,
                             beam_leakage="per_beam")
    assert samples["passive"].shape == (5_000, params.k_passive)


def test_passive_law_unchanged_by_estimate_quality():
    # the passive eavesdropper sees an isotropic channel, so beams built from
    # an imperfect active-link estimate leave its SNR law untouched
    perfect = _params()
    imperfect = _params(rho_ea=0.55)
    split = make_split(perfect, 100.0, 0.5)
    trials = 100_000
    a = np.sort(mc.snr_samples(perfect, split, trials, seed=61)["passive"][:, 0])
    b = np.sort(mc.snr_samples(imperfect, split, trials, seed=62)["passive"][:, 0])
    grid = np.quantile(a, np.linspace(0.001, 0.999, 400))
    ecdf_a = np.searchsorted(a, grid, side="right") / trials
    ecdf_b = np.searchsorted(b, grid, side="right") / trials
    assert float(np.max(np.abs(ecdf_a - ecdf_b))) <= 0.015


def test_single_draw_reconstructed_from_beamformer_ops():
    # independent reconstruction of the SNRs from the beamformer module
    from secrate.beamform import make_beamformer_set
    params = _params(rho_ea=0.6)
    split = make_split(params, 120.0, 0.45)
    n, m = params.n_antennas, params.m_active
    for t in range(3):
        draw = mc.sample_channels(params, 71, t)
        bset = make_beamformer_set(draw.g_b_est, draw.g_ea_est)
        gain = np.abs(np.vdot(draw.g_ea[:, 0], bset.w_active[:, 0])) ** 2
        leak = float(np.sum(np.abs(bset.w_passive.conj().T @ draw.g_ea[:, 0]) ** 2))
        den = split.p_ja / m * gain + split.p_jp / (n - m - 1) * leak
        expected_active = split.p_a * abs(draw.h_aea[0]) ** 2 / den
        assert mc.snr_active(params, draw, split)[0] == pytest.approx(
            expected_active, rel=1e-10)
        g_k = draw.g_ek[:, 0]
        den_k = (split.p_ja / m * np.abs(np.vdot(g_k, bset.w_active[:, 0])) ** 2
                 + split.p_jp / (n - m - 1)
                 * float(np.sum(np.abs(bset.w_passive.conj().T @ g_k) ** 2)))
        expected_passive = split.p_a * abs(draw.h_aek[0]) ** 2 / den_k
        assert mc.snr_passive(params, draw, split)[0] == pytest.approx(
            expected_passive, rel=1e-10)


def test_with_noise_mode_lowers_snr():
    params = _params()
    split = make_split(params, 100.0, 0.5)
    plain = mc.snr_samples(params, split, 2_000, seed=47)
    noisy = mc.snr_samples(params, split, 2_000, seed=47, include_noise=True)
    assert np.all(noisy["bob"] <= plain["bob"] + 1e-12)
    assert np.all(noisy["passive"] <= plain["passive"] + 1e-12)


def test_verification_rows_detect_corruption():
    params = _params()
    split = make_split(params, 100.0, 0.5)
    clean = mc.verification_rows(params, split, 4.0, 20_000, seed=51)
    assert all(row["passed"] for row in clean)
    for name in ("sop_passive", "cdf_snr_bob"):
        rows = mc.verification_rows(params, split, 4.0, 20_000, seed=51, corrupt=name)
        assert any(not row["passed"] and row["name"] == name for row in rows)


def test_verification_rows_deterministic():
    rng = np.random.default_rng(53)
    params = random_params(rng, rho_ea=0.8)
    split = make_split(params, 0.4 * params.p_max, 0.3)
    a = mc.verification_rows(params, split, 0.6 * params.r_b, 20_000, seed=7)
    b = mc.verification_rows(params, split, 0.6 * params.r_b, 20_000, seed=7)
    assert repr(a) == repr(b)


@pytest.mark.parametrize("m_active", [1, 3])
def test_verification_draws_each_trial_block_once(monkeypatch, m_active):
    # branch 0 of the independent-branch estimate is the sampled block itself;
    # branch m >= 1 draws trials [m*T, (m+1)*T) and nothing is drawn twice
    params = _params(m_active=m_active, n_antennas=8, rho_b=0.9)
    split = make_split(params, 150.0, 0.5)
    trials = 20_000
    blocks = []
    original = mc.draw_batch

    def counting(params, seed, start, stop):
        blocks.append((start, stop))
        return original(params, seed, start, stop)

    monkeypatch.setattr(mc, "draw_batch", counting)
    mc.verification_rows(params, split, 3.0, trials, seed=3)
    assert sum(stop - start for start, stop in blocks) == m_active * trials
    drawn = np.zeros(m_active * trials, dtype=int)
    for start, stop in blocks:
        drawn[start:stop] += 1
    assert np.all(drawn == 1)


@pytest.mark.parametrize("entry", [
    lambda params, split: mc.snr_samples(params, split, 0, seed=1),
    lambda params, split: mc.estimate_outages(params, split, 1.0, 0, seed=1),
    lambda params, split: mc.verification_rows(params, split, 1.0, 0, seed=1),
], ids=["snr_samples", "estimate_outages", "verification_rows"])
def test_zero_trials_raise_range_error(entry):
    params = _params()
    with pytest.raises(RangeError):
        entry(params, make_split(params, 100.0, 0.5))


def _eager_fields(params, seed, start, stop):
    """The all-at-once draw: Box-Muller over every slot of every trial, then the
    fields taken from the unit-variance entries in stream order."""
    n, m, k = params.n_antennas, params.m_active, params.k_passive
    count = stop - start
    slots = mc.slots_per_trial(params)
    u = mc._uniform_slots(seed, start * slots, count * slots).reshape(count, slots)
    z = mc._standard_normals(u)
    c = (z[:, 0::2] + 1j * z[:, 1::2]) / np.sqrt(2.0)
    pos = 0

    def take(width):
        nonlocal pos
        pos += width
        return c[:, pos - width:pos]

    rho_b, rho_ea = params.rho_b, params.rho_ea
    out = {"g_b_est": take(n) * np.sqrt(params.var_jb),
           "e_b": take(n) * np.sqrt((1.0 - rho_b ** 2) * params.var_jb)}
    out["g_ea_est"] = take(n * m).reshape(count, m, n).swapaxes(1, 2) * np.sqrt(params.var_jea)
    out["e_ea"] = take(n * m).reshape(count, m, n).swapaxes(1, 2) * np.sqrt(
        (1.0 - rho_ea ** 2) * params.var_jea)
    out["g_ek"] = take(n * k).reshape(count, k, n).swapaxes(1, 2) * np.sqrt(params.var_jek)
    out["h_ab"] = take(1)[:, 0] * np.sqrt(params.var_ab)
    out["f_eab"] = take(1)[:, 0] * np.sqrt(params.var_eab)
    out["h_aea"] = take(m) * np.sqrt(params.var_aea)
    out["h_aek"] = take(k) * np.sqrt(params.var_aek)
    assert pos == c.shape[1]
    out["g_b"] = rho_b * out["g_b_est"] + out["e_b"]
    out["g_ea"] = rho_ea * out["g_ea_est"] + out["e_ea"]
    return out


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


def test_lazy_fields_bit_identical_to_eager_draw():
    # each field is transformed from its own slot columns, in any read order;
    # a zero-variance error field is an exact (+0) zero where the eager
    # draw scaled its entries by 0.0
    rng = np.random.default_rng(211)
    for _ in range(40):
        n = int(rng.integers(3, 13))
        m = int(rng.integers(1, n - 1))
        params = _params(n_antennas=n, m_active=m, k_passive=int(rng.integers(1, 5)),
                         rho_b=float(rng.choice([1.0, rng.uniform(0.1, 0.99)])),
                         rho_ea=float(rng.choice([1.0, rng.uniform(0.1, 0.99)])))
        start = int(rng.integers(0, 10_000))
        stop = start + int(rng.integers(1, 300))
        eager = _eager_fields(params, 13, start, stop)
        batch = mc.draw_batch(params, 13, start, stop)
        for name in rng.permutation(mc.ChannelBatch.FIELDS):
            lazy, want = getattr(batch, name), eager[name]
            assert lazy.shape == want.shape, name
            rho = params.rho_b if name == "e_b" else params.rho_ea
            if name in ("e_b", "e_ea") and rho == 1.0:
                assert np.all(lazy == 0.0) and not np.any(np.signbit(lazy.real))
                assert np.array_equal(lazy, want)
            else:
                assert np.array_equal(_bits(lazy), _bits(want)), name
            assert getattr(batch, name) is lazy  # cached


def test_branch_active_column_bit_identical_to_full_kernel():
    # M >= 8 included: the channel sum then has as many terms as numpy's
    # pairwise summation unrolls, where a per-column reduction could reorder it
    rng = np.random.default_rng(223)
    for m in (1, 2, 3, 5, 8, 9, 11):
        n = m + int(rng.integers(2, 5))
        params = _params(n_antennas=n, m_active=m,
                         rho_ea=float(rng.choice([1.0, rng.uniform(0.2, 0.95)])))
        split = make_split(params, 120.0, float(rng.uniform(0.1, 0.9)))
        start = int(rng.integers(0, 5_000))
        full = mc._snr_active_batch(params, mc.draw_batch(params, 5, start, start + 400),
                                    split, False)
        for b in range(m):
            batch = mc.draw_batch(params, 5, start, start + 400)
            col = mc._snr_active_batch(params, batch, split, False, slice(b, b + 1))
            assert col.shape == (400, 1)
            assert np.array_equal(_bits(col[:, 0]), _bits(full[:, b])), (m, b)


def test_verification_transforms_each_field_once(monkeypatch):
    # M = 3, rho_ea = 1, rho_b < 1: the main block transforms, once, every
    # field but the zero e_ea and f_eab (the AN-leakage Bob SNR leaves it out);
    # branch blocks transform only what their active column reads
    params = _params(m_active=3, n_antennas=8, rho_b=0.9)
    split = make_split(params, 150.0, 0.5)
    trials = 5_000
    slots = mc.slots_per_trial(params)
    n, m, k = params.n_antennas, params.m_active, params.k_passive
    widths = {"g_b_est": n, "e_b": n, "g_ea_est": n * m, "e_ea": n * m, "g_ek": n * k,
              "h_ab": 1, "f_eab": 1, "h_aea": m, "h_aek": k}
    field_at, first = {}, 0
    for name, width in widths.items():
        field_at[first] = name
        first += 4 * width
    assert first == slots
    blocks, transformed = [], []
    uniform_slots, standard_normals = mc._uniform_slots, mc._standard_normals

    def recording_uniforms(seed, start_slot, count):
        u = uniform_slots(seed, start_slot, count)
        blocks.append((start_slot // slots, u))
        return u

    def recording_normals(u):
        address = u.__array_interface__["data"][0]
        for first_trial, block in blocks:
            offset = address - block.__array_interface__["data"][0]
            if 0 <= offset < block.nbytes:
                name = field_at[offset // block.itemsize]
                assert u.shape[1] == 4 * widths[name]
                transformed.append((first_trial, name))
                break
        else:
            raise AssertionError("normals drawn from no recorded block")
        return standard_normals(u)

    monkeypatch.setattr(mc, "_uniform_slots", recording_uniforms)
    monkeypatch.setattr(mc, "_standard_normals", recording_normals)
    mc.verification_rows(params, split, 3.0, trials, seed=3)
    assert len(transformed) == len(set(transformed))
    per_block = {}
    for first_trial, name in transformed:
        per_block.setdefault(first_trial, set()).add(name)
    assert sorted(per_block) == [0, trials, 2 * trials]
    assert per_block[0] == set(widths) - {"e_ea", "f_eab"}
    for branch in (1, 2):
        assert per_block[branch * trials] == {"g_b_est", "g_ea_est", "h_aea"}


@pytest.mark.parametrize("seed", [-1, 2 ** 128], ids=["negative", "2**128"])
def test_out_of_range_seed_is_a_range_error(seed):
    # the seed is the Philox key: numpy would raise a bare ValueError
    params = _params()
    split = make_split(params, 100.0, 0.5)
    with pytest.raises(RangeError, match="seed"):
        mc.snr_samples(params, split, 10, seed=seed)
    with pytest.raises(RangeError, match="seed"):
        mc.sample_channels(params, seed, 0)
    assert mc.snr_samples(params, split, 10, seed=2 ** 128 - 1)["bob"].shape == (10,)


# ---------------------------------------------------------------------------
# Chunks on a thread pool
# ---------------------------------------------------------------------------

_POOLED_TRIALS = 3 * mc._CHUNK_TRIALS + 1_000  # three full chunks and a partial one


def _pooled_outputs(params, split):
    samples = mc.snr_samples(params, split, _POOLED_TRIALS, seed=11)
    outages = [mc.estimate_outages(params, split, 3.0, _POOLED_TRIALS, seed=11,
                                   independent_actives=independent)
               for independent in (True, False)]
    rows = mc.verification_rows(params, split, 3.0, _POOLED_TRIALS, seed=11)
    return samples, outages, repr(rows)


@pytest.mark.parametrize("m_active", [1, 3])
def test_pooled_chunks_bit_identical_to_serial(monkeypatch, m_active):
    params = _params(m_active=m_active, n_antennas=6, rho_b=0.9,
                     rho_ea=0.7 if m_active == 1 else 1.0)
    split = make_split(params, 150.0, 0.5)
    monkeypatch.setattr(mc, "_worker_count", lambda jobs: 1)
    serial = _pooled_outputs(params, split)
    # more workers than this host may have cores, so a pool runs on any host
    monkeypatch.setattr(mc, "_worker_count", lambda jobs: min(jobs, 4))
    draw_threads = []
    original = mc.draw_batch

    def recording(params, seed, start, stop):
        draw_threads.append(threading.get_ident())
        return original(params, seed, start, stop)

    monkeypatch.setattr(mc, "draw_batch", recording)
    pooled = _pooled_outputs(params, split)
    assert threading.get_ident() not in draw_threads
    for name in ("bob", "active", "passive"):
        assert np.array_equal(_bits(serial[0][name]), _bits(pooled[0][name])), name
    assert serial[1] == pooled[1]
    assert serial[2] == pooled[2]


def test_worker_count_is_one_per_usable_cpu_and_job():
    assert mc._worker_count(1) == 1
    assert 1 <= mc._worker_count(64) <= 64
    assert mc._worker_count(64) <= (os.cpu_count() or 1)


def test_out_of_range_seed_raises_from_a_worker(monkeypatch):
    monkeypatch.setattr(mc, "_worker_count", lambda jobs: min(jobs, 4))
    params = _params(m_active=3, n_antennas=6)
    split = make_split(params, 150.0, 0.5)
    with pytest.raises(RangeError, match="seed"):
        mc.snr_samples(params, split, _POOLED_TRIALS, seed=-1)
    samples = mc.snr_samples(params, split, _POOLED_TRIALS, seed=1)
    with pytest.raises(RangeError, match="seed"):  # the independent-branch jobs
        mc._count_outages(params, split, 3.0, samples, -1, True, False)


def test_pooled_jobs_run_under_the_callers_errstate(monkeypatch):
    # numpy keeps errstate in a context variable, which a new thread does not inherit
    monkeypatch.setattr(mc, "_worker_count", lambda jobs: min(jobs, 4))

    def job(start, stop):
        return np.divide(np.ones(stop - start), 0.0)

    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        mc._map_chunks(job, [(0, 3), (3, 5), (5, 6)])
    with np.errstate(divide="ignore"):
        assert np.all(np.concatenate(mc._map_chunks(job, [(0, 3), (3, 5)])) == np.inf)


def test_pool_threads_end_with_the_call(monkeypatch):
    monkeypatch.setattr(mc, "_worker_count", lambda jobs: min(jobs, 4))
    params = _params(m_active=3, n_antennas=6)
    split = make_split(params, 150.0, 0.5)
    before = threading.active_count()
    mc.verification_rows(params, split, 3.0, _POOLED_TRIALS, seed=5)
    assert threading.active_count() == before
