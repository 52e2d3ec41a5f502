"""Two-fold zero-forcing beamformer construction.

The jammer points a maximal-ratio beam at each active eavesdropper inside the
orthogonal complement of the legitimate channel, and spreads the remaining AN
over an orthonormal basis of the joint null space of the legitimate channel
and those beams. :func:`zero_forcing_beams` builds the beams over a leading
trial axis; the per-realization functions are that construction on a trial
axis of one, with the checks that a single channel realization needs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChannel, DimensionMismatch, RankDeficient, ZeroVector
from .model import PowerSplit


@dataclass(frozen=True)
class BeamformerSet:
    """Unit beams toward the active eavesdroppers and the passive-AN basis.

    ``w_active`` is N x M (columns are unit beams orthogonal to the legitimate
    channel); ``w_passive`` is N x (N-M-1), an orthonormal basis orthogonal to
    both the legitimate channel and every active beam.
    """

    w_active: np.ndarray
    w_passive: np.ndarray


def complement_projector(g: np.ndarray) -> np.ndarray:
    """Projector onto the orthogonal complement of ``g``: I - q q^H, q the
    unit direction of g, formed as the columns of I less their q parts by
    the construction the beams take (:func:`_projections`).

    Hermitian and idempotent; annihilates ``g``. A norm below 1e-15 is a
    zero channel.
    """
    g = np.asarray(g, dtype=complex)
    if np.linalg.norm(g) < 1e-15:
        raise ZeroVector("cannot project against a zero channel vector")
    return _projections(g[None], np.eye(g.size, dtype=complex)[None])[1][0]


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _projections(g_b: np.ndarray, g_actives: np.ndarray):
    """(unit g_b directions q_b (T, N); the active channels (T, N, M) less
    their q_b parts; the norms of those (T, 1, M))."""
    q_b = _unit(g_b)
    inner = np.einsum("tn,tnm->tm", q_b.conj(), g_actives)
    projected = g_actives - q_b[:, :, None] * inner[:, None, :]
    return q_b, projected, np.linalg.norm(projected, axis=1, keepdims=True)


def _beams(q_b: np.ndarray, projected: np.ndarray, norms: np.ndarray):
    beams = projected / norms
    ortho = np.empty_like(beams)
    for j in range(beams.shape[2]):
        v = beams[:, :, j]
        for i in range(j):
            v = v - ortho[:, :, i] * np.einsum("tn,tn->t", ortho[:, :, i].conj(), v)[:, None]
        ortho[:, :, j] = _unit(v)
    return q_b, beams, ortho


def zero_forcing_beams(g_b: np.ndarray,
                       g_actives: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(unit g_b directions q_b (T, N), beams (T, N, M), orthonormalized
    beams (T, N, M)) for legitimate channels g_b (T, N) and active
    eavesdropper channels g_actives (T, N, M).

    Beam m is the unit MRT direction toward channel m inside the complement
    of g_b, P g_m / ||P g_m|| with P = I - q_b q_b^H, so g_b^H w_m = 0 and
    |g_m^H w_m| = ||P g_m||, the largest gain any unit vector orthogonal to
    g_b can deliver. The received-signal convention is y = g^H w x
    throughout, which fixes this non-conjugated form; it also places g_m
    inside span{g_b, w_m}. Gram-Schmidt in beam order gives the
    orthonormalized copy, which spans the beams' subspace. Nothing is
    checked: a zero channel, or an active channel parallel to g_b, gives
    non-finite beams, where the per-realization functions raise.
    """
    return _beams(*_projections(g_b, g_actives))


def _checked_beams(g_b, g_actives, label: str) -> np.ndarray:
    """The N x M beams of one realization (a 1-D ``g_actives`` is one
    column): :func:`zero_forcing_beams` on a trial axis of one. A channel
    norm below 1e-15 is a zero channel, and an active channel whose norm
    off g_b (the one the construction divides by) is below 1e-12 times its
    norm is parallel to g_b. A failure in column m is prefixed by
    ``label.format(m)``, and the columns are checked in order."""
    g_b, g_actives = (np.asarray(g, dtype=complex) for g in (g_b, g_actives))
    if g_actives.shape[:1] != g_b.shape or g_actives.ndim > 2:
        raise DimensionMismatch(f"shape mismatch: {g_b.shape} vs {g_actives.shape}")
    g_actives = g_actives.reshape(g_b.size, -1)
    if np.linalg.norm(g_b) < 1e-15:
        raise ZeroVector(label.format(0) + "legitimate channel has zero norm")
    q_b, projected, norms = _projections(g_b[None], g_actives[None])
    for m, (norm, off_b) in enumerate(zip(np.linalg.norm(g_actives, axis=0), norms[0, 0])):
        if norm < 1e-15:
            raise ZeroVector(label.format(m) + "active eavesdropper channel has zero norm")
        if off_b < 1e-12 * norm:
            raise DegenerateChannel(label.format(m) + "eavesdropper channel is parallel to the "
                                                      "legitimate channel")
    return _beams(q_b, projected, norms)[1][0]


def mrt_null_beam(g_b: np.ndarray, g_ea: np.ndarray) -> np.ndarray:
    """Unit maximal-ratio beam toward ``g_ea`` restricted to the complement of
    ``g_b`` (see :func:`zero_forcing_beams`); both must be length-N vectors."""
    if np.ndim(g_ea) != 1:
        raise DimensionMismatch(f"shape mismatch: {np.shape(g_b)} vs {np.shape(g_ea)}")
    return _checked_beams(g_b, g_ea, "")[:, 0]


def multi_mrt_beams(g_b: np.ndarray, g_actives: np.ndarray) -> np.ndarray:
    """Column-wise mrt_null_beam for an N x M matrix of active channels."""
    return _checked_beams(g_b, g_actives, "active eavesdropper column {}: ")


def passive_null_basis(g_b: np.ndarray, w_active: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of span{g_b, active beams}.

    One full SVD of [g_b | w_active] gives both the rank check and the
    completion: its last N-M-1 left singular vectors. Any orthonormal
    completion spans the same subspace, which is all the outage analysis
    depends on. Stacked inputs, g_b (T, N) and w_active (T, N, M), give the
    T bases (T, N, N-M-1) from one batched SVD, and the rank check covers
    each of them. A ``w_active`` with one axis fewer is one beam.
    """
    g_b = np.asarray(g_b, dtype=complex)
    w_active = np.asarray(w_active, dtype=complex)
    if w_active.ndim == g_b.ndim:
        w_active = w_active[..., None]
    if w_active.shape[:-1] != g_b.shape:
        rows, length = (" x ".join(map(str, shape)) for shape in (w_active.shape[:-1], g_b.shape))
        raise DimensionMismatch(f"beam rows {rows} != channel length {length}")
    u, singular, _ = np.linalg.svd(np.concatenate([g_b[..., None], w_active], axis=-1))
    if np.any(singular[..., -1] < 1e-10 * singular[..., 0]):
        raise RankDeficient("legitimate channel and active beams are not linearly independent")
    return u[..., w_active.shape[-1] + 1:]


def make_beamformer_set(g_b: np.ndarray, g_actives: np.ndarray) -> BeamformerSet:
    """Construct the full beamformer set for one channel realization."""
    w_active = multi_mrt_beams(g_b, g_actives)
    return BeamformerSet(w_active=w_active, w_passive=passive_null_basis(g_b, w_active))


def compose_an(bset: BeamformerSet, split: PowerSplit, z_active: np.ndarray,
               z_passive: np.ndarray) -> np.ndarray:
    """Assemble the transmitted AN vector from unit-variance symbol vectors.

    n_J = sqrt(p_ja/M) * W_active z_active + sqrt(p_jp/(N-M-1)) * W_passive z_passive.
    """
    z_active = np.asarray(z_active, dtype=complex)
    z_passive = np.asarray(z_passive, dtype=complex)
    n, m = bset.w_active.shape
    n_passive = bset.w_passive.shape[1]
    if z_active.shape != (m,):
        raise DimensionMismatch(f"z_active shape {z_active.shape}, expected ({m},)")
    if z_passive.shape != (n_passive,):
        raise DimensionMismatch(f"z_passive shape {z_passive.shape}, expected ({n_passive},)")
    if bset.w_passive.shape[0] != n:
        raise DimensionMismatch("beamformer matrices disagree on antenna count")
    out = np.sqrt(split.p_ja / m) * (bset.w_active @ z_active)
    if n_passive:
        out = out + np.sqrt(split.p_jp / n_passive) * (bset.w_passive @ z_passive)
    return out
