"""Sampling oracle that validates every closed form in :mod:`secrate.closedform`.

Channel realizations come from a counter-based Philox stream: trial ``i``
owns the uniform slots ``[i*B, (i+1)*B)`` where ``B`` is fixed by the
scenario shape, and every Gaussian consumes its own Box-Muller pair of
slots. Identical (seed, trial_index) therefore produce bit-identical draws
no matter how trials are batched, ordered, or threaded, and whole batches
vectorize into single numpy passes.

The estimators split their trials into chunks of ``_CHUNK_TRIALS`` and run
the chunks on a thread pool, one thread per usable CPU (Philox, the
Box-Muller ufuncs and ``einsum`` release the GIL). Each chunk draws its own
trial range and the results are put together in trial order, so every
output is byte-identical to a one-thread run on any number of cores; a call
with a single chunk runs inline, without a pool. A chunk of 4096 trials
keeps each worker's uniforms at a few MB (12.6 MB at N = 8, K = 3, M = 3).

Draws are lazy per field. :func:`draw_batch` takes the Philox uniforms of
its whole trial range at once; a field table fixes each field's slot
columns in stream order, and a field is Box-Mullered and scaled on its own
columns only when an SNR kernel first reads it. The transform runs in
place on a contiguous copy of those columns, and the scaled normals are
the complex field's real and imaginary parts in turn, viewed as complex;
``np.cos`` is the floor of its cost. A field of zero variance (an exact
estimate) is an exact zero and is never transformed. A field's values do
not depend on which other fields are read, so a block that computes only
active SNRs transforms only the fields those read.

SNRs are interference-limited to match the closed forms (receiver noise is
excluded unless ``include_noise`` is set, which is a sensitivity option
only). Complex Gaussians follow the convention CN(0, s2) = independent real
and imaginary parts of variance s2/2 each.
"""
from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from numpy.random import Generator, Philox

from . import closedform as cf
from .beamform import zero_forcing_beams
from .closedform import cdf_snr_bob, outage_metrics, rate_gap_threshold
from .errors import RangeError
from .model import PowerSplit, SystemParams

_PHILOX_BLOCK = 4  # Philox advances by 128-bit blocks = 4 uint64 outputs
_DEN_FLOOR = 1e-300
_CHUNK_TRIALS = 4096
# the most uniform slots one draw may take (1 GiB of uint64): a 4096-trial
# chunk of the largest shipped verify case (M = 3) takes 1.6e6
_MAX_DRAW_SLOTS = 2 ** 27


# ---------------------------------------------------------------------------
# Counter-based channel sampling
# ---------------------------------------------------------------------------

def _field_table(params: SystemParams) -> tuple:
    """(name, trailing shape, variance) of each drawn field, in stream order.

    A field takes prod(shape) complex entries of every trial, 4 uniform
    slots each; an (N, J) field is drawn column by column.
    """
    n, m, k = params.n_antennas, params.m_active, params.k_passive
    return (("g_b_est", (n,), params.var_jb),
            ("e_b", (n,), (1.0 - params.rho_b ** 2) * params.var_jb),
            ("g_ea_est", (n, m), params.var_jea),
            ("e_ea", (n, m), (1.0 - params.rho_ea ** 2) * params.var_jea),
            ("g_ek", (n, k), params.var_jek),
            ("h_ab", (), params.var_ab),
            ("f_eab", (), params.var_eab),
            ("h_aea", (m,), params.var_aea),
            ("h_aek", (k,), params.var_aek))


def slots_per_trial(params: SystemParams) -> int:
    """Uniform slots one trial consumes (2 per Gaussian, 4 per complex entry)."""
    return 4 * sum(math.prod(shape) for _, shape, _ in _field_table(params))


def _uniform_slots(seed: int, start_slot: int, count: int) -> np.ndarray:
    if not (isinstance(seed, Integral) and 0 <= seed < 2 ** 128):
        raise RangeError(f"seed must be an integer in [0, 2**128) (the Philox key), "
                         f"got {seed!r}")
    if start_slot % _PHILOX_BLOCK:
        raise ValueError("slot ranges must start on a Philox block boundary")
    bits = Philox(key=seed)
    if start_slot:
        bits.advance(start_slot // _PHILOX_BLOCK)
    return Generator(bits).random(count)


def _standard_normals(u: np.ndarray) -> np.ndarray:
    """Box-Muller on consecutive slot pairs; returns half as many normals.

    sqrt(-2 log1p(-u1)) cos(2 pi u2), with each ufunc run in place on the u1
    and the u2 slots of one contiguous copy of ``u``, as two 1-D views: the
    same values as on ``u``'s own columns, without a temporary per step.
    """
    slots = np.array(u).reshape(-1)
    r, c = slots[0::2], slots[1::2]
    np.sqrt(np.multiply(-2.0, np.log1p(np.negative(r, out=r), out=r), out=r), out=r)
    np.cos(np.multiply(2.0 * np.pi, c, out=c), out=c)
    return np.multiply(r, c).reshape(*u.shape[:-1], u.shape[-1] // 2)


class ChannelBatch:
    """Channel realizations for a contiguous range of trials (leading axis).

    Each field is computed by ``source(batch, name)`` on first access and
    then cached (the source gets the batch as an argument, so it need hold no
    reference to it, and a dropped batch is freed at once):

    - ``g_b`` (T, N) true jammer->Bob, ``g_b_est`` (T, N) its estimate,
      ``e_b`` (T, N) the estimation error, g_b = rho_b*g_b_est + e_b;
    - ``g_ea``, ``g_ea_est``, ``e_ea`` (T, N, M): the same for jammer->active;
    - ``g_ek`` (T, N, K) jammer->passive;
    - ``h_ab`` (T,) Alice->Bob, ``f_eab`` (T,) active eavesdropper->Bob;
    - ``h_aea`` (T, M) Alice->active, ``h_aek`` (T, K) Alice->passive.

    :func:`sample_channels` returns one realization as the same fields
    without the trial axis.

    ``geometry`` is the two-fold zero-forcing beamformer of the estimated
    channels, built by :mod:`secrate.beamform` (the one construction, which
    the per-realization beamformer functions also run). It is cached the
    same way, per instance: a ``functools.cached_property`` would hold one
    lock for all instances (Python < 3.12) and serialize the batches of
    concurrent chunks.
    """

    FIELDS = ("g_b", "g_b_est", "e_b", "g_ea", "g_ea_est", "e_ea", "g_ek",
              "h_ab", "f_eab", "h_aea", "h_aek")

    def __init__(self, source):
        self._source = source

    def __getattr__(self, name: str):
        if name == "geometry":
            value = self._geometry()
        elif name in ChannelBatch.FIELDS:
            value = self._source(self, name)
        else:
            raise AttributeError(name)
        self.__dict__[name] = value
        return value

    def _geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(unit g_b_est direction, beams (T,N,M), orthonormalized beams (T,N,M))
        from :func:`secrate.beamform.zero_forcing_beams` on the estimates.
        The SNR kernels use projector identities on these, with no explicit
        null basis. Built once per batch, on first access to ``geometry``.
        """
        return zero_forcing_beams(self.g_b_est, self.g_ea_est)


def draw_batch(params: SystemParams, seed: int, start: int, stop: int) -> ChannelBatch:
    """Draw trials [start, stop); bit-identical per trial regardless of batching.

    Only the Philox uniforms are drawn here; each field is transformed from
    its own slot columns when first read. A RangeError, before anything is
    drawn, when the range takes more than _MAX_DRAW_SLOTS uniform slots
    (:func:`slots_per_trial` per trial; the passive channels alone take
    4 N K).
    """
    if not (isinstance(start, Integral) and isinstance(stop, Integral)):
        raise RangeError(f"trial bounds must be integers, got [{start!r}, {stop!r})")
    start, stop = int(start), int(stop)  # Philox.advance takes no numpy integer
    if not 0 <= start <= stop:
        raise RangeError(f"trial range [start, stop) needs 0 <= start <= stop, "
                         f"got [{start}, {stop})")
    count = stop - start
    slots = slots_per_trial(params)
    if count * slots > _MAX_DRAW_SLOTS:
        raise RangeError(f"{count} trials at N = {params.n_antennas}, K = {params.k_passive} "
                         f"need {count * slots} uniform slots in one draw, more than "
                         f"{_MAX_DRAW_SLOTS} (1 GiB)")
    u = _uniform_slots(seed, start * slots, count * slots).reshape(count, slots)
    columns, first = {}, 0
    for name, shape, var in _field_table(params):
        width = math.prod(shape)
        columns[name] = (first, width, shape, var)
        first += 4 * width

    def field(batch: ChannelBatch, name: str) -> np.ndarray:
        if name == "g_b":
            return params.rho_b * batch.g_b_est + batch.e_b
        if name == "g_ea":
            return params.rho_ea * batch.g_ea_est + batch.e_ea
        first, width, shape, var = columns[name]
        if var == 0.0:
            c = np.zeros((count, width), dtype=complex)
        else:
            # the normals alternate real and imaginary parts, so scaling them in
            # place and viewing them as complex gives (z0 + 1j z1) / sqrt(2) *
            # sqrt(var) bit for bit: that complex sum turns a -0 normal (u1 = 0)
            # into +0, as + 0.0 does, and numpy divides a complex by a real
            # through its reciprocal
            z = _standard_normals(u[:, first:first + 4 * width])
            z += 0.0
            z *= 1.0 / np.sqrt(2.0)
            z *= np.sqrt(var)
            c = z.view(complex)
        # the stream holds an (N, J) field column by column: (T, J, N) -> (T, N, J)
        return c.reshape(count, *shape[::-1]).transpose(0, *range(len(shape), 0, -1))

    return ChannelBatch(field)


def sample_channels(params: SystemParams, seed: int, trial_index: int) -> ChannelBatch:
    """One deterministic channel realization keyed by (seed, trial_index)."""
    b = draw_batch(params, seed, trial_index, trial_index + 1)
    return ChannelBatch(lambda _, name: getattr(b, name)[0])


# ---------------------------------------------------------------------------
# SNR kernels on batches
# ---------------------------------------------------------------------------

def _abs2(x: np.ndarray) -> np.ndarray:
    return np.real(x) ** 2 + np.imag(x) ** 2


def _an_snr(params: SystemParams, batch: ChannelBatch, split: PowerSplit, h: np.ndarray,
            v: np.ndarray, include_noise: bool, beam: np.ndarray | None = None) -> np.ndarray:
    """(T, J) SNRs p_a|h|^2 / AN power at receivers with channel columns v (T, N, J).

    AN arrives through the M beams (``beam``; by default the power of v in
    the beam span) and through the N-M-1 null dimensions: the complement of
    span{q_b, beams}, whose power is ||v||^2 less the q_b and beam-span parts.
    """
    n, m = params.n_antennas, params.m_active
    q_b, _, ortho = batch.geometry
    span = np.sum(_abs2(np.einsum("tnj,tnm->tjm", v.conj(), ortho)), axis=2)
    null = np.sum(_abs2(v), axis=1) - _abs2(np.einsum("tn,tnj->tj", q_b.conj(), v)) - span
    den = ((split.p_ja / m) * (span if beam is None else beam)
           + (split.p_jp / (n - m - 1)) * np.maximum(null, 0.0)
           + (1.0 if include_noise else 0.0))
    return _snr(split.p_a * _abs2(h), den)


def _snr(signal: np.ndarray, den: np.ndarray) -> np.ndarray:
    """signal / den, den floored at _DEN_FLOOR; inf where the ratio is beyond
    the float range (an AN power of 0 or a tiny one), the limit that every
    threshold comparison reads."""
    with np.errstate(over="ignore"):
        return signal / np.maximum(den, _DEN_FLOOR)


def _snr_bob_batch(params: SystemParams, batch: ChannelBatch, split: PowerSplit,
                   include_noise: bool) -> np.ndarray:
    """(T,) SNRs at Bob, limited as :func:`secrate.closedform.bob_regime` says."""
    if cf.bob_regime(params) == "interference_limited":
        den = params.p_ea * _abs2(batch.f_eab) + (1.0 if include_noise else 0.0)
        return _snr(split.p_a * _abs2(batch.h_ab), den)
    # an_leakage: AN reaches Bob only through the estimation error.
    e = batch.e_b[:, :, None]
    beam = np.sum(_abs2(np.einsum("tnj,tnm->tjm", e.conj(), batch.geometry[1])), axis=2)
    return _an_snr(params, batch, split, batch.h_ab[:, None], e, include_noise, beam)[:, 0]


def _snr_active_batch(params: SystemParams, batch: ChannelBatch, split: PowerSplit,
                      include_noise: bool, cols: slice = slice(None)) -> np.ndarray:
    """(T, M) SNRs at the active eavesdroppers; ``cols`` keeps only those columns.

    Beam m is weighed against every true active channel (its own gives the
    MRT gain; the others are the cross-eavesdropper couplings of that beam),
    plus whatever passive AN reaches the channel through estimation error.
    With perfect estimates the true channel lies in span{q_b, beams}, so the
    passive term is only a rounding residue, clipped at 0 when negative.
    """
    g = batch.g_ea
    cross = _abs2(np.einsum("tnj,tnm->tjm", g.conj(), batch.geometry[1][:, :, cols]))
    # (T, j channels, m beams), summed channel by channel, so one column adds
    # in the order all M do
    beam = sum(cross[:, j] for j in range(cross.shape[1]))
    return _an_snr(params, batch, split, batch.h_aea[:, cols], g[:, :, cols], include_noise,
                   beam)


def _snr_passive_batch(params: SystemParams, batch: ChannelBatch, split: PowerSplit,
                       include_noise: bool) -> np.ndarray:
    """(T, K) SNRs at the passive eavesdroppers.

    The active-beam AN couples in through its projection onto the beam span,
    the equal-power-per-dimension model the closed forms integrate.
    """
    return _an_snr(params, batch, split, batch.h_aek, batch.g_ek, include_noise)


# ---------------------------------------------------------------------------
# Single-draw reference operations
# ---------------------------------------------------------------------------

def _as_batch(draw: ChannelBatch) -> ChannelBatch:
    return ChannelBatch(lambda _, name: getattr(draw, name)[None])


def snr_bob(params: SystemParams, draw: ChannelBatch, split: PowerSplit, *,
            include_noise: bool = False) -> float:
    """Bob's instantaneous SNR, limited as :func:`secrate.closedform.bob_regime` says."""
    return float(_snr_bob_batch(params, _as_batch(draw), split, include_noise)[0])


def snr_active(params: SystemParams, draw: ChannelBatch, split: PowerSplit, *,
               include_noise: bool = False) -> np.ndarray:
    """Per-active-eavesdropper SNR vector (length M).

    The estimated channels steer the beams; with rho_ea = 1 they coincide
    with the true ones and the perfect-CSI expressions are recovered exactly.
    """
    return _snr_active_batch(params, _as_batch(draw), split, include_noise)[0]


def snr_passive(params: SystemParams, draw: ChannelBatch, split: PowerSplit, *,
                include_noise: bool = False) -> np.ndarray:
    """Per-passive-eavesdropper SNR vector (length K)."""
    return _snr_passive_batch(params, _as_batch(draw), split, include_noise)[0]


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McEstimate:
    """Binomial estimate with its standard error sqrt(p(1-p)/n)."""

    p_hat: float
    trials: int
    std_err: float


def _make_estimate(hits: int, trials: int) -> McEstimate:
    p = hits / trials
    return McEstimate(p_hat=p, trials=trials, std_err=float(np.sqrt(p * (1.0 - p) / trials)))


def _chunks(trials: int):
    start = 0
    while start < trials:
        stop = min(start + _CHUNK_TRIALS, trials)
        yield start, stop
        start = stop


def _worker_count(jobs: int) -> int:
    """Threads for ``jobs`` chunk jobs: one per usable CPU, at most one per job."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, jobs)


def _map_chunks(fn, jobs: list[tuple]) -> list:
    """``[fn(*job) for job in jobs]``, the jobs spread over a thread pool.

    Results come back in job order. A job's exception is raised here once
    the jobs already running have ended; jobs not yet started are dropped.
    Each job runs in a copy of the caller's context, so a caller's
    ``np.errstate`` holds in the workers as it does inline.
    """
    workers = _worker_count(len(jobs))
    if workers <= 1:
        return [fn(*job) for job in jobs]
    # imported here: the pool module costs ~15 ms at import, and the
    # single-chunk calls and the commands that never sample do not need it
    from concurrent.futures import ThreadPoolExecutor
    contexts = [contextvars.copy_context() for _ in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda context, job: context.run(fn, *job), contexts, jobs))


def snr_samples(params: SystemParams, split: PowerSplit, trials: int, seed: int, *,
                include_noise: bool = False) -> dict[str, np.ndarray]:
    """Raw SNR samples: 'bob' (T,), 'active' (T, M), 'passive' (T, K).

    This is the one pass over trials [0, T): the outage estimators count
    from these samples instead of drawing the block again. Bob's SNR is
    limited as :func:`secrate.closedform.bob_regime` says. Active and
    passive columns share each trial's channels (the physical coupling);
    independent-branch selection combining is handled by
    :func:`estimate_outages`.
    """
    if not isinstance(trials, Integral):
        raise RangeError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise RangeError("need at least one trial")

    def chunk(start, stop):
        batch = draw_batch(params, seed, start, stop)
        return (_snr_bob_batch(params, batch, split, include_noise),
                _snr_active_batch(params, batch, split, include_noise),
                _snr_passive_batch(params, batch, split, include_noise))

    bob, active, passive = zip(*_map_chunks(chunk, list(_chunks(trials))))
    return {"bob": np.concatenate(bob), "active": np.concatenate(active),
            "passive": np.concatenate(passive)}


def _count_outages(params: SystemParams, split: PowerSplit, r_s: float,
                   samples: dict[str, np.ndarray], seed: int,
                   include_noise: bool) -> dict[str, McEstimate]:
    """The three outage estimates from :func:`snr_samples` output.

    Independent branch 0 is the sampled block itself; branch b in 1..M-1
    draws its own block and computes only active SNR column b.
    """
    trials = samples["bob"].shape[0]
    threshold_so = rate_gap_threshold(params.r_b, r_s)

    def branch_chunk(branch, start, stop):
        batch = draw_batch(params, seed, branch * trials + start, branch * trials + stop)
        return _snr_active_batch(params, batch, split, include_noise,
                                 slice(branch, branch + 1))[:, 0]

    jobs = [(branch, start, stop) for branch in range(1, params.m_active)
            for start, stop in _chunks(trials)]
    max_active = samples["active"][:, 0].copy()
    for (_, start, stop), col in zip(jobs, _map_chunks(branch_chunk, jobs)):
        np.maximum(max_active[start:stop], col, out=max_active[start:stop])
    hits = {"p_to": samples["bob"] < rate_gap_threshold(params.r_b, 0.0),
            "p_so1": max_active >= threshold_so,
            "p_so2": samples["passive"].max(axis=1) >= threshold_so}
    return {name: _make_estimate(int(np.count_nonzero(h)), trials) for name, h in hits.items()}


def estimate_outages(params: SystemParams, split: PowerSplit, r_s: float, trials: int,
                     seed: int, *, include_noise: bool = False) -> dict[str, McEstimate]:
    """Monte Carlo estimates of the three outage probabilities.

    With several active eavesdroppers the selection-combining estimate draws
    each eavesdropper's SNR from its own block of trials (branch m uses
    trials [m*T, (m+1)*T)): the jointly-drawn maxima are coupled through the
    shared channel vectors, which the independence-based closed form does not
    model.
    """
    samples = snr_samples(params, split, trials, seed, include_noise=include_noise)
    return _count_outages(params, split, r_s, samples, seed, include_noise)


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Sup distance between the empirical CDF of ``samples`` and ``cdf``."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise RangeError("need samples for a KS statistic")
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(f - (i - 1) / n), np.max(i / n - f)))


# ---------------------------------------------------------------------------
# Closed-form vs Monte Carlo verification
# ---------------------------------------------------------------------------

KS_THRESHOLD = 0.01
Z_THRESHOLD = 3.0


def _corrupted(value: float, name: str, corrupt: str | None) -> float:
    if corrupt == name:
        return min(value * 1.3 + 0.05, 1.0)
    return value


def verification_rows(params: SystemParams, split: PowerSplit, r_s: float, trials: int,
                      seed: int, corrupt: str | None = None) -> list[dict]:
    """Compare every applicable closed form against its sampling estimate.

    One :func:`snr_samples` pass feeds both the CDF rows and the outage
    counts; only independent active branches 1..M-1 draw further blocks.

    Returns ordered row dicts with keys: name, kind ('cdf'|'outage'|'bound'),
    closed_form, estimate, std_err, z_score, ks_stat, threshold, passed.
    The ``corrupt`` hook perturbs one named closed form so detector failure
    paths can be exercised.
    """
    samples = snr_samples(params, split, trials, seed)
    rows: list[dict] = []

    def cdf_row(name, data, cdf):
        if corrupt == name:
            inner = cdf
            cdf = lambda x: np.clip(np.asarray(inner(x)) + 0.05, 0.0, 1.0)  # noqa: E731
        ks = ks_statistic(data, cdf)
        rows.append({"name": name, "kind": "cdf", "closed_form": float("nan"),
                     "estimate": float("nan"), "std_err": float("nan"),
                     "z_score": float("nan"), "ks_stat": ks, "threshold": KS_THRESHOLD,
                     "passed": ks <= KS_THRESHOLD})

    def point_row(name, kind, closed, est: McEstimate):
        closed = _corrupted(closed, name, corrupt)
        se = float(np.sqrt(closed * (1.0 - closed) / est.trials))
        if se == 0.0:
            z = 0.0 if est.p_hat == closed else float("inf")
        else:
            z = (est.p_hat - closed) / se
        passed = (z <= Z_THRESHOLD) if kind == "bound" else (abs(z) <= Z_THRESHOLD)
        rows.append({"name": name, "kind": kind, "closed_form": closed,
                     "estimate": est.p_hat, "std_err": se, "z_score": z,
                     "ks_stat": float("nan"), "threshold": Z_THRESHOLD, "passed": passed})

    kinds = cf.scenario_kinds(params)
    leakage = cf.bob_regime(params) == "an_leakage"
    if not leakage:
        cdf_row("cdf_snr_bob", samples["bob"], lambda x: cdf_snr_bob(x, params, split.p_a))
    for kind, data in zip(kinds, (samples["active"][:, 0], samples["passive"][:, 0])):
        cdf = getattr(cf, f"cdf_snr_{kind}")
        cdf_row(f"cdf_snr_{kind}", data, lambda x, cdf=cdf: cdf(x, params, split))

    estimates = _count_outages(params, split, r_s, samples, seed, include_noise=False)
    metrics = outage_metrics(params, split, r_s)
    # the AN-leakage form bounds the outage from above (Jensen)
    point_row("transmission_outage_an_leakage" if leakage else "transmission_outage",
              "bound" if leakage else "outage", metrics.p_to, estimates["p_to"])
    point_row(f"sop_{kinds[0]}", "outage", metrics.p_so1, estimates["p_so1"])
    point_row(f"sop_{kinds[1]}", "outage", metrics.p_so2, estimates["p_so2"])
    return rows
