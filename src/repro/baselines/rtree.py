"""R-tree over the projected space (substrate for R-LSH / Table 2).

Bulk-loaded with Sort-Tile-Recursive (STR), fixed node capacity (16 in
the paper's cost study). It serves ``range_query(q, r)`` — ball/MBR
intersection via mindist, used by the R-LSH baseline (PM-LSH with the
PM-tree swapped out) and by the empirical side of the Table 2 cost
comparison.

Distance computations are counted in ``cc`` with the same accounting as
the PM-tree (one unit per point distance or per node mindist), so the
two trees' empirical costs are comparable.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RTree"]


@dataclass
class _RNode:
    lo: np.ndarray
    hi: np.ndarray
    children: list["_RNode"] = field(default_factory=list)
    rows: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.rows is not None

    def n_entries(self) -> int:
        return len(self.rows) if self.is_leaf else len(self.children)


def _mindist2(q: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    d = np.maximum(np.maximum(lo - q, 0.0), q - hi)
    return float(np.dot(d, d))


class RTree:
    """STR bulk-loaded R-tree over an (n, m) point matrix."""

    def __init__(self, X: np.ndarray, *, capacity: int = 16):
        X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
        if X.ndim != 2:
            raise ValueError("X must be a 2-D point matrix")
        self.X = X
        self.capacity = int(capacity)
        self.root = self._str_build(np.arange(len(X)))
        self.reset_counters()

    # ---- construction ----------------------------------------------------
    def _leaf(self, rows: np.ndarray) -> _RNode:
        pts = self.X[rows]
        return _RNode(lo=pts.min(axis=0), hi=pts.max(axis=0), rows=rows)

    def _str_build(self, rows: np.ndarray) -> _RNode:
        # Build the leaf level by STR tiling, then pack upward.
        level: list[_RNode] = [
            self._leaf(r) for r in self._str_tiles(rows, self.capacity)
        ]
        while len(level) > 1:
            centers = np.stack([(nd.lo + nd.hi) * 0.5 for nd in level])
            groups = self._str_tiles(np.arange(len(level)), self.capacity,
                                     pts=centers)
            nxt = []
            for grp in groups:
                kids = [level[i] for i in grp]
                nxt.append(
                    _RNode(
                        lo=np.min(np.stack([k.lo for k in kids]), axis=0),
                        hi=np.max(np.stack([k.hi for k in kids]), axis=0),
                        children=kids,
                    )
                )
            level = nxt
        return level[0]

    def _str_tiles(self, rows: np.ndarray, cap: int,
                   pts: np.ndarray | None = None) -> list[np.ndarray]:
        """Sort-Tile-Recursive grouping of ``rows`` into size<=cap tiles.

        Sort along dimension 0, cut into slabs, recurse on the next
        dimension inside each slab; the final dimension is chunked in
        sorted order. Positional indices into ``pts`` are used throughout.
        """
        if pts is None:
            pts = self.X[rows]
        n, m = len(rows), pts.shape[1]
        if n <= cap:
            return [rows]

        def rec(pos: np.ndarray, dim: int) -> list[np.ndarray]:
            order = pos[np.argsort(pts[pos, dim], kind="stable")]
            if len(pos) <= cap or dim >= m - 1:
                return [order[i : i + cap] for i in range(0, len(order), cap)]
            n_tiles = int(np.ceil(len(pos) / cap))
            rem = m - dim
            n_slabs = max(1, int(np.ceil(n_tiles ** (1.0 / rem))))
            slab = int(np.ceil(len(order) / n_slabs))
            if slab >= len(order):  # one slab: avoid infinite recursion
                return rec(order, dim + 1)
            out: list[np.ndarray] = []
            for i in range(0, len(order), slab):
                out.extend(rec(order[i : i + slab], dim + 1))
            return out

        return [rows[g] for g in rec(np.arange(n), 0)]

    # ---- queries ---------------------------------------------------------
    def reset_counters(self) -> None:
        self.cc = 0
        self.nodes_accessed = 0

    def range_query(self, q: np.ndarray, r) -> tuple[np.ndarray, np.ndarray]:
        """Row indices within distance ``r`` of ``q`` plus their distances.

        Takes the same calls as ``PMTree.range_query``: a 1-D ``q`` with a
        scalar ``r`` returns ``(rows, dists)``; an (nq, m) ``q`` with (nq,)
        radii returns ``(hits, dists)`` with ``hits`` an (C, 2) array of
        (query index, row), grouped by ascending query index.
        """
        if np.ndim(q) == 1:
            return self._range_one(q, r)
        found = [self._range_one(qi, ri) for qi, ri in zip(q, r)]
        qidx = np.repeat(np.arange(len(found)), [len(rows) for rows, _ in found])
        rows = np.concatenate([np.empty(0, dtype=np.int64), *(f[0] for f in found)])
        dists = np.concatenate([np.empty(0), *(f[1] for f in found)])
        return np.stack([qidx, rows], axis=1), dists

    def _range_one(self, q: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        q = np.asarray(q, dtype=np.float64)
        r2 = r * r
        out_rows: list[np.ndarray] = []
        out_dists: list[np.ndarray] = []
        stack = [self.root]
        while stack:
            nd = stack.pop()
            self.nodes_accessed += 1
            self.cc += 1  # mindist computation
            if _mindist2(q, nd.lo, nd.hi) > r2:
                continue
            if nd.is_leaf:
                diff = self.X[nd.rows] - q[None, :]
                d2 = np.einsum("ij,ij->i", diff, diff)
                self.cc += len(nd.rows)
                keep = d2 <= r2
                if np.any(keep):
                    out_rows.append(nd.rows[keep])
                    out_dists.append(np.sqrt(d2[keep]))
            else:
                stack.extend(nd.children)
        if not out_rows:
            return np.empty(0, dtype=np.int64), np.empty(0)
        return np.concatenate(out_rows), np.concatenate(out_dists)

    # ---- introspection ---------------------------------------------------
    def nodes(self) -> list[_RNode]:
        acc: list[_RNode] = []

        def rec(nd: _RNode) -> None:
            acc.append(nd)
            for ch in nd.children:
                rec(ch)

        rec(self.root)
        return acc

    def check_invariants(self) -> None:
        def rec(nd: _RNode) -> np.ndarray:
            if nd.is_leaf:
                rows = nd.rows
            else:
                rows = np.concatenate([rec(ch) for ch in nd.children])
            pts = self.X[rows]
            assert np.all(pts >= nd.lo[None, :] - 1e-12), "MBR lo violated"
            assert np.all(pts <= nd.hi[None, :] + 1e-12), "MBR hi violated"
            return rows

        rows = rec(self.root)
        assert len(np.unique(rows)) == len(self.X), "tree must cover every point once"
