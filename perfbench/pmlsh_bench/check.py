"""Exact ground truth and the per-answer check, both in NumPy from the generated matrix."""
from __future__ import annotations

import numpy as np

# Extra nearest rows kept from the expanded-form distance pass, so that its
# rounding cannot push a true top-k row out before exact re-ranking.
_SLACK = 16


def true_dists(X: np.ndarray, q: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``||q - X[i]||`` for each ``i`` in ``ids``."""
    diff = X[ids] - q[None, :]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def exact_topk(X: np.ndarray, Q: np.ndarray, k: int, *, chunk: int = 256
               ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The exact ``k`` nearest rows of ``X`` for each row of ``Q``.

    Returns ``[(ids, dists), ...]`` ranked by ascending distance, ties by id.
    """
    sq = np.einsum("ij,ij->i", X, X)
    keep = min(len(X), k + _SLACK)
    out = []
    for start in range(0, len(Q), chunk):
        Qc = Q[start:start + chunk]
        d2 = sq[None, :] - 2.0 * (Qc @ X.T)  # ||q||^2 is constant per row
        near = np.argpartition(d2, keep - 1, axis=1)[:, :keep]
        for q, cand in zip(Qc, near):
            dist = true_dists(X, q, cand)
            order = np.lexsort((cand, dist))[:k]
            out.append((cand[order], dist[order]))
    return out


def answer_error(ids, dists, q: np.ndarray, X: np.ndarray, k: int) -> str | None:
    """Why one (c,k)-ANN answer is wrong, or ``None`` when it passes.

    A passing answer has exactly ``k`` results, unique integer ids in
    ``[0, n)``, ascending distances, and each distance equal to
    ``||q - X[id]||`` recomputed here.
    """
    ids = np.asarray(ids)
    dists = np.asarray(dists, dtype=np.float64)
    if ids.shape != (k,) or dists.shape != (k,):
        return f"expected {k} results, got {ids.shape[0]} ids and {dists.shape[0]} distances"
    if not np.issubdtype(ids.dtype, np.integer):
        return f"ids have dtype {ids.dtype}"
    if ids.min() < 0 or ids.max() >= len(X):
        return "id outside [0, n)"
    if len(np.unique(ids)) != k:
        return "duplicate id"
    if np.any(np.diff(dists) < 0):
        return "distances not ascending"
    if not np.allclose(dists, true_dists(X, q, ids), rtol=1e-9, atol=1e-9):
        return "distance differs from ||q - X[id]||"
    return None
