"""Two-fold zero-forcing beamformer construction.

The jammer points a maximal-ratio beam at each active eavesdropper inside the
orthogonal complement of the legitimate channel, and spreads the remaining AN
over an orthonormal basis of the joint null space of the legitimate channel
and those beams. Every function is a pure operation on one channel
realization; batched sampling lives in :mod:`secrate.montecarlo`.
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
    """Projector onto the orthogonal complement of ``g``: I - g g^H / ||g||^2.

    Hermitian and idempotent; annihilates ``g``.
    """
    g = np.asarray(g, dtype=complex)
    norm_sq = float(np.real(np.vdot(g, g)))
    if norm_sq < 1e-30:
        raise ZeroVector("cannot project against a zero channel vector")
    n = g.shape[0]
    return np.eye(n, dtype=complex) - np.outer(g, g.conj()) / norm_sq


def mrt_null_beam(g_b: np.ndarray, g_ea: np.ndarray) -> np.ndarray:
    """Unit maximal-ratio beam toward ``g_ea`` restricted to the complement of ``g_b``.

    Returns w = P g_ea / ||P g_ea|| with P the complement projector of g_b, so
    that g_b^H w = 0 and |g_ea^H w| = ||P g_ea|| (the largest gain any unit
    vector orthogonal to g_b can deliver). The received-signal convention is
    y = g^H w x throughout, which fixes this non-conjugated form; it also
    places g_ea inside span{g_b, w}, so the passive-AN space below is
    automatically orthogonal to the active eavesdropper.
    """
    g_b = np.asarray(g_b, dtype=complex)
    g_ea = np.asarray(g_ea, dtype=complex)
    if g_b.shape != g_ea.shape:
        raise DimensionMismatch(f"shape mismatch: {g_b.shape} vs {g_ea.shape}")
    norm_b_sq = float(np.real(np.vdot(g_b, g_b)))
    if norm_b_sq < 1e-30:
        raise ZeroVector("legitimate channel has zero norm")
    projected = g_ea - g_b * (np.vdot(g_b, g_ea) / norm_b_sq)
    norm_p = float(np.linalg.norm(projected))
    if norm_p < 1e-12 * float(np.linalg.norm(g_ea)):
        raise DegenerateChannel("eavesdropper channel is parallel to the legitimate channel")
    return projected / norm_p


def multi_mrt_beams(g_b: np.ndarray, g_actives: np.ndarray) -> np.ndarray:
    """Column-wise mrt_null_beam for an N x M matrix of active channels."""
    g_actives = np.asarray(g_actives, dtype=complex)
    if g_actives.ndim == 1:
        g_actives = g_actives[:, None]
    cols = []
    for m in range(g_actives.shape[1]):
        try:
            cols.append(mrt_null_beam(g_b, g_actives[:, m]))
        except DegenerateChannel as exc:
            raise DegenerateChannel(f"active eavesdropper column {m}: {exc}") from exc
    return np.column_stack(cols)


def passive_null_basis(g_b: np.ndarray, w_active: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of span{g_b, active beams}.

    One full SVD of [g_b | w_active] gives both the rank check and the
    completion: its last N-M-1 left singular vectors. Any orthonormal
    completion spans the same subspace, which is all the outage analysis
    depends on.
    """
    g_b = np.asarray(g_b, dtype=complex)
    w_active = np.asarray(w_active, dtype=complex)
    if w_active.ndim == 1:
        w_active = w_active[:, None]
    n = g_b.shape[0]
    m = w_active.shape[1]
    if w_active.shape[0] != n:
        raise DimensionMismatch(f"beam rows {w_active.shape[0]} != channel length {n}")
    spanned = np.column_stack([g_b, w_active])
    u, singular, _ = np.linalg.svd(spanned, full_matrices=True)
    if singular[-1] < 1e-10 * singular[0]:
        raise RankDeficient("legitimate channel and active beams are not linearly independent")
    return u[:, m + 1:]


def make_beamformer_set(g_b: np.ndarray, g_actives: np.ndarray) -> BeamformerSet:
    """Construct the full beamformer set for one channel realization."""
    w_active = multi_mrt_beams(g_b, g_actives)
    w_passive = passive_null_basis(g_b, w_active)
    return BeamformerSet(w_active=w_active, w_passive=w_passive)


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
