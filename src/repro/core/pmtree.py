"""PM-tree (Skopal et al., DASFAA'05) over the projected space.

The PM-tree augments the M-tree's hyper-sphere node regions with *hyper
rings*: for a fixed global pivot set ``p_1..p_s``, every node keeps, per
pivot, the min/max distance of the points below it (``e.HR``). A node's
region is the intersection of its ball and its rings, which is what makes
its cost model (paper Eq. 6) beat the R-tree's.

This implementation bulk-loads by recursive ball partitioning with a
fixed node capacity (16 in the paper's cost study) and then flattens the
static tree into arrays. It serves the only query PM-LSH needs,
``range(q, r)``, for a whole batch of queries at once: one NumPy step per
tree level tests every live (query, node) pair with the pruning
conditions of paper Eq. 5 plus the classic M-tree parent-distance filter.
Distance computations are counted (``CC``) so the empirical cost can be
checked against the analytic cost model of ``repro.costmodel``.

Results are *row indices* into the point matrix the tree was built on,
so the same structure serves the driver-local path and the per-Spark-
partition path (where the tree lives inside the serialized index blob).
"""
from __future__ import annotations

import numpy as np

__all__ = ["PMTree", "select_pivots", "ring_pruned", "ro_dists", "pruning_radius"]

# Relative widening of the radius used by the ball, ring and parent-distance
# tests. Their distances are rounded, so at the boundary the triangle
# inequality can fail by a few ulps and drop a node whose point lies within
# r by the leaf scan's test (seen for a data point queried at r=0).
_SLACK = 1e-10


def _dists(X: np.ndarray, q: np.ndarray) -> np.ndarray:
    diff = X - q
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def ro_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise ``||A_i - B_i||`` for routing objects.

    Summed as ``np.linalg.norm`` sums one vector (a dot product per row),
    the formula the build uses for the parent distances ``pd``: the
    parent-distance filter compares the two, so they must agree bit for bit.
    """
    diff = A - B
    return np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])


def ring_pruned(qpiv: np.ndarray, hr: np.ndarray, r: np.ndarray) -> np.ndarray:
    """True where the ball B(q, r) misses a pivot ring (paper Eq. 5).

    ``qpiv`` holds each query's (s,) pivot distances, ``hr`` the matching
    (s, 2) [min, max] ring bounds (or one set for all), ``r`` the radii.
    """
    if hr.shape[-2] == 0:
        return np.zeros(len(r), dtype=bool)
    rr = r[:, None]
    return np.any(qpiv - rr > hr[..., 1], axis=-1) | np.any(qpiv + rr < hr[..., 0], axis=-1)


def pruning_radius(r: np.ndarray, radius: float, hr: np.ndarray) -> np.ndarray:
    """Radii ``r`` widened for the pruning tests of a region with covering
    ``radius`` and (s, 2) rings ``hr``, in proportion to the distances the
    tests compare."""
    scale = radius + (hr[:, 1].max() if len(hr) else 0.0)
    return r + _SLACK * (r + scale)


def _expand(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(j, x)`` with ``lo[j] <= x < hi[j]``, ordered by j then x."""
    cnt = hi - lo
    j = np.repeat(np.arange(len(cnt)), cnt)
    return j, lo[j] + np.arange(len(j)) - np.repeat(np.cumsum(cnt) - cnt, cnt)


def select_pivots(X: np.ndarray, s: int, *, seed: int = 0) -> np.ndarray:
    """Max-min (farthest-first) pivot selection on a sample of ``X``.

    Greedy farthest-first traversal approximates the paper's goal of
    pivots whose hyper-rings minimize the PM-tree region volume.
    """
    g = np.random.default_rng(seed)
    n = len(X)
    if n == 0 or s <= 0:
        return np.empty((0, X.shape[1] if X.ndim == 2 else 0))
    sample = X[g.choice(n, size=min(n, 2048), replace=False)]
    pivots = [sample[g.integers(len(sample))]]
    dmin = _dists(sample, pivots[0])
    for _ in range(1, min(s, len(sample))):
        far = int(np.argmax(dmin))
        pivots.append(sample[far])
        dmin = np.minimum(dmin, _dists(sample, sample[far]))
    return np.stack(pivots)


class PMTree:
    """Bulk-loaded PM-tree over an (n, m) point matrix, stored as arrays.

    Nodes are numbered breadth first, so the children of node ``i`` are
    the nodes ``child_ptr[i]:child_ptr[i + 1]`` (none for a leaf). Per
    node: ``ro`` the routing object, ``radius`` the covering radius,
    ``pd`` the distance to the parent's routing object and ``hr`` the
    (s, 2) per-pivot [min, max] ring bounds. The points are stored in
    depth-first leaf order: leaf ``i`` holds
    ``points[row_lo[i]:row_hi[i]]``, and ``rows`` maps a position in
    ``points`` back to its row of the input matrix.
    """

    def __init__(self, X: np.ndarray, *, n_pivots: int = 5, capacity: int = 16,
                 seed: int = 0, pivots: np.ndarray | None = None):
        X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
        if X.ndim != 2:
            raise ValueError("X must be a 2-D point matrix")
        self.capacity = int(capacity)
        # ``pivots`` may be supplied externally (the distributed index shares
        # one global pivot set across partitions so rings stay comparable).
        self.pivots = (
            np.asarray(pivots, dtype=np.float64)
            if pivots is not None
            else select_pivots(X, n_pivots, seed=seed)
        )
        # (n, s) point-to-pivot distances, shared by every node's rings.
        PD = (
            np.stack([_dists(X, p) for p in self.pivots], axis=1)
            if len(self.pivots)
            else np.zeros((len(X), 0))
        )
        nodes: list[tuple] = []
        self._build(X, PD, np.arange(len(X)), None, -1, 0, nodes,
                    np.random.default_rng(seed + 1))
        self._flatten(X, nodes)
        self.reset_counters()

    # ---- construction ----------------------------------------------------
    def _build(self, X: np.ndarray, PD: np.ndarray, rows: np.ndarray,
               parent_ro: np.ndarray | None, parent: int, depth: int,
               nodes: list[tuple], rng: np.random.Generator) -> None:
        """Append the subtree over ``rows`` to ``nodes`` in preorder, as
        ``(parent, depth, ro, radius, pd, hr, leaf rows or None)``."""
        # routing object: the sampled point closest to the group centroid,
        # a cheap medoid that keeps covering radii tight.
        pts = X[rows]
        centroid = pts.mean(axis=0)
        ro = pts[int(np.argmin(_dists(pts, centroid)))]
        leaf = len(rows) <= self.capacity
        me = self._add(X, PD, rows, ro, parent_ro, parent, depth, leaf, nodes)
        if leaf:
            return
        # ball partition into `capacity` groups around sampled seeds
        k = min(self.capacity, len(rows))
        seed_idx = rng.choice(len(rows), size=k, replace=False)
        seeds = pts[seed_idx]
        assign = np.argmin(
            np.linalg.norm(pts[:, None, :] - seeds[None, :, :], axis=2), axis=1
        )
        for j in range(k):
            grp = rows[assign == j]
            if len(grp) == 0:
                continue
            # a group as big as its parent cannot be split further by this
            # seeding — fall back to a leaf chain to guarantee progress
            if len(grp) == len(rows):
                self._add(X, PD, grp, ro, ro, me, depth + 1, True, nodes)
            else:
                self._build(X, PD, grp, ro, me, depth + 1, nodes, rng)

    @staticmethod
    def _add(X: np.ndarray, PD: np.ndarray, rows: np.ndarray, ro: np.ndarray,
             parent_ro: np.ndarray | None, parent: int, depth: int, leaf: bool,
             nodes: list[tuple]) -> int:
        d = _dists(X[rows], ro)
        hr = (
            np.stack([PD[rows].min(axis=0), PD[rows].max(axis=0)], axis=1)
            if PD.shape[1]
            else np.zeros((0, 2))
        )
        pd = float(np.linalg.norm(ro - parent_ro)) if parent_ro is not None else 0.0
        nodes.append((parent, depth, ro, float(d.max()) if len(d) else 0.0, pd, hr,
                      rows if leaf else None))
        return len(nodes) - 1

    def _flatten(self, X: np.ndarray, nodes: list[tuple]) -> None:
        """Renumber the preorder ``nodes`` breadth first into arrays.

        A stable sort by depth keeps siblings in order and puts each node's
        children right after those of the nodes numbered before it.
        """
        parent, depth, ro, radius, pd, hr, leaf_rows = zip(*nodes)
        order = np.argsort(np.asarray(depth), kind="stable")
        new_id = np.empty(len(nodes), dtype=np.int64)
        new_id[order] = np.arange(len(nodes))
        n_children = np.bincount(new_id[np.asarray(parent[1:], dtype=np.int64)],
                                 minlength=len(nodes))
        self.child_ptr = np.concatenate([[1], 1 + np.cumsum(n_children)])
        self.ro = np.stack(ro)[order]
        self.radius = np.asarray(radius)[order]
        self.pd = np.asarray(pd)[order]
        self.hr = np.stack(hr)[order]
        # leaves in preorder are the depth-first leaf order
        leaves = [i for i, r in enumerate(leaf_rows) if r is not None]
        sizes = np.array([len(leaf_rows[i]) for i in leaves], dtype=np.int64)
        self.row_lo = np.zeros(len(nodes), dtype=np.int64)
        self.row_hi = np.zeros(len(nodes), dtype=np.int64)
        self.row_lo[new_id[leaves]] = np.cumsum(sizes) - sizes
        self.row_hi[new_id[leaves]] = np.cumsum(sizes)
        self.rows = np.concatenate([leaf_rows[i] for i in leaves])
        self.points = X[self.rows]

    # ---- query -----------------------------------------------------------
    def reset_counters(self) -> None:
        self.cc = 0          # distance computations (paper's CC metric)
        self.nodes_accessed = 0

    def range_query(self, q: np.ndarray, r) -> tuple[np.ndarray, np.ndarray]:
        """Range queries ``range(q, r)``: the points within ``r`` of ``q``.

        A 1-D ``q`` with a scalar ``r`` returns ``(rows, dists)``. An
        (nq, m) ``q`` with (nq,) radii returns ``(hits, dists)``, where
        ``hits`` is an (C, 2) array of (query index, row). Either way the
        hits of a query come in depth-first leaf order, and the hits of
        a batch are grouped by ascending query index.

        Every query starts at the root, which it enters if its ball meets
        the root's. Level by level, each live (query, node) pair is
        counted as a node access and dropped if the query ball misses a
        pivot ring (paper Eq. 5). A leaf then has its points scanned; an
        inner node's children are dropped for free by the triangle
        inequality ``|d(q, parent) - e.pd| > r + e.radius``, and the rest
        pay a routing-object distance and go on if the balls intersect.
        """
        single = np.ndim(q) == 1
        Q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        R = np.broadcast_to(np.asarray(r, dtype=np.float64), (len(Q),))
        Rp = pruning_radius(R, self.radius[0], self.hr[0])
        nq, s = len(Q), len(self.pivots)
        qpiv = _dists(np.tile(self.pivots, (nq, 1)), np.repeat(Q, s, axis=0))
        qpiv = qpiv.reshape(nq, s)
        d = ro_dists(Q, self.ro[:1])
        self.cc += nq * (s + 1)
        qi = np.flatnonzero(d <= self.radius[0] + Rp)
        node = np.zeros(len(qi), dtype=np.int64)
        d_parent = d[qi]
        found_q, found_pos, found_d = [], [], []
        while len(qi):
            self.nodes_accessed += len(qi)
            live = ~ring_pruned(qpiv[qi], self.hr[node], Rp[qi])
            qi, node, d_parent = qi[live], node[live], d_parent[live]
            leaf = self.row_hi[node] > self.row_lo[node]
            j, pos = _expand(self.row_lo[node[leaf]], self.row_hi[node[leaf]])
            lq = qi[leaf][j]
            d = _dists(self.points[pos], Q[lq])
            self.cc += len(pos)
            keep = d <= R[lq]
            found_q.append(lq[keep])
            found_pos.append(pos[keep])
            found_d.append(d[keep])
            inner = ~leaf
            j, child = _expand(self.child_ptr[node[inner]],
                               self.child_ptr[node[inner] + 1])
            cq = qi[inner][j]
            near = np.abs(d_parent[inner][j] - self.pd[child]) <= Rp[cq] + self.radius[child]
            cq, child = cq[near], child[near]
            d = ro_dists(Q[cq], self.ro[child])
            self.cc += len(cq)
            near = d <= self.radius[child] + Rp[cq]
            qi, node, d_parent = cq[near], child[near], d[near]
        hit_q = np.concatenate([np.empty(0, dtype=np.int64), *found_q])
        hit_pos = np.concatenate([np.empty(0, dtype=np.int64), *found_pos])
        dists = np.concatenate([np.empty(0), *found_d])
        order = np.lexsort((hit_pos, hit_q))
        rows, dists = self.rows[hit_pos[order]], dists[order]
        if single:
            return rows, dists
        return np.stack([hit_q[order], rows], axis=1), dists

    # ---- introspection ---------------------------------------------------
    def node_entries(self) -> np.ndarray:
        """Entries per node: children of an inner node, points of a leaf."""
        return np.diff(self.child_ptr) + (self.row_hi - self.row_lo)

    def check_invariants(self) -> None:
        """Assert the layout and radius/ring containment (test hook)."""
        n_nodes = len(self.radius)
        assert self.child_ptr[-1] == n_nodes, "every node but the root is a child"
        leaf = self.row_hi > self.row_lo
        assert np.all(leaf == (np.diff(self.child_ptr) == 0)), "leaves have no children"
        assert np.array_equal(np.sort(self.rows), np.arange(len(self.rows))), \
            "tree must cover every point once"
        # a node's points: its own range, or the union of its children's
        lo, hi = self.row_lo.copy(), self.row_hi.copy()
        for i in range(n_nodes - 1, -1, -1):
            if not leaf[i]:
                kids = slice(self.child_ptr[i], self.child_ptr[i + 1])
                lo[i], hi[i] = lo[kids].min(), hi[kids].max()
                assert hi[i] - lo[i] == (hi[kids] - lo[kids]).sum(), "subtree rows not contiguous"
        for i in range(n_nodes):
            pts = self.points[lo[i]:hi[i]]
            assert np.all(_dists(pts, self.ro[i]) <= self.radius[i] + 1e-9), \
                "covering radius violated"
            for p, (mn, mx) in zip(self.pivots, self.hr[i]):
                pdist = _dists(pts, p)
                assert np.all(pdist >= mn - 1e-9), "ring min violated"
                assert np.all(pdist <= mx + 1e-9), "ring max violated"
