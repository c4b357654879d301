"""PM-LSH: the paper's framework, distributed over Spark partitions.

Build (Section 4.1, adapted to the distributed dataflow of this repo):

1. project the ``(id, vec)`` DataFrame with ``m`` Gaussian hash functions
   (``GaussianProjection.transform``);
2. partition the projected space with sampled k-means (one Spark
   partition per cluster) — ``repro.core.partitioner``;
3. per partition, build a PM-tree over the projected points with a
   *global* pivot set, and persist ``{tree, ids, X}`` as an index blob
   (``repro.core.partindex``). Each partition also reports a ball+ring
   summary, which the driver uses to prune whole partitions at query
   time — the same geometry as a PM-tree inner node, one level up.

Query:

- ``(r, c)-BC`` (Algorithm 1) and ``(c, k)-ANN`` (Algorithm 2) run a
  sequence of projected-space range queries ``range(q', t*r)`` with
  ``r = r_min, c*r_min, ...``; ``t`` comes from the tunable confidence
  interval (Eq. 10) and ``r_min`` from the distance distribution ``F``
  so that ``n*F(r_min) ~= beta*n + k`` (Section 4.5).
- Queries are processed in *batches*: one Spark pass per radius round
  serves every still-active query, so the driver loop runs O(1) rounds,
  not O(rounds * queries).

The build prologue (``build_prologue``), the Algorithm-2 radius loop
(``ann_search``) and the query check (``check_queries``) are shared with
the baselines, which import them from here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import (
    DoubleType,
    LongType,
    StructField,
    StructType,
)

from repro.core.confidence import ConfidenceInterval
from repro.core.partindex import IndexOwner, PartitionedIndex
from repro.core.partitioner import assign_partitions, kmeans
from repro.core.pmtree import (PMTree, pruning_radius, ring_pruned, ro_dists,
                                select_pivots)
from repro.core.projection import GaussianProjection
from repro.costmodel import DistanceDistribution

__all__ = ["PMLSH", "CAND_SCHEMA", "build_prologue", "sample_distances",
           "ann_search", "check_queries"]

CAND_SCHEMA = StructType(
    [
        StructField("qid", LongType(), False),
        StructField("id", LongType(), False),
        StructField("pdist", DoubleType(), False),
        StructField("dist", DoubleType(), False),
    ]
)


def build_prologue(vectors: DataFrame,
                   make_proj: Callable[[int, int], GaussianProjection], *,
                   n_partitions: int, seed: int, sample_size: int):
    """Build steps shared by the distributed indexes.

    ``make_proj(d, n)`` returns the caller's projection. The driver samples
    about ``sample_size`` projected rows, runs k-means on the sample and
    assigns every point to its nearest center's partition. Returns
    ``(proj, n, assigned, S_proj, S_orig)``: the sample in projected and
    original space.
    """
    first = vectors.select("vec").first()
    if first is None:
        raise ValueError("cannot build an index over an empty DataFrame")
    n = vectors.count()
    proj = make_proj(len(first["vec"]), n)
    projected = proj.transform(vectors)
    frac = min(1.0, (3.0 * sample_size) / max(n, 1))
    sample_rows = projected.sample(fraction=frac, seed=seed).limit(sample_size).collect()
    S_proj = np.stack([np.asarray(r["proj"]) for r in sample_rows])
    S_orig = np.stack([np.asarray(r["vec"]) for r in sample_rows])
    centers = kmeans(S_proj, n_partitions, seed=seed)
    return proj, n, assign_partitions(projected, centers), S_proj, S_orig


def sample_distances(S_orig: np.ndarray, seed: int) -> DistanceDistribution:
    """The distance distribution F estimated from the build sample."""
    return DistanceDistribution(S_orig, n_pairs=min(200_000, 40 * len(S_orig)),
                                seed=seed)


def check_queries(Q: np.ndarray, k: int) -> np.ndarray:
    """A query batch as an (nq, d) float array; raises ``ValueError`` on
    ``k < 1`` or a non-finite coordinate, before any Spark pass."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim == 1:
        Q = Q[None, :]
    if not np.isfinite(Q).all():
        raise ValueError("queries must not contain NaN or infinite coordinates")
    return Q


def ann_search(probe: Callable[[dict[int, float], dict[int, dict[int, float]]],
                               pd.DataFrame],
               nq: int, k: int, *, r0: float, c: float, budget: float, n: int,
               max_rounds: int) -> tuple[list[tuple[np.ndarray, np.ndarray]],
                                         dict[int, int]]:
    """(c,k)-ANN driver loop (Algorithm 2) for a batch of ``nq`` queries.

    Each round calls ``probe(radii, cand)``: ``radii`` maps every active
    query to its radius r, ``cand`` every query to its verified
    ``{id: dist}`` so far. It returns the new candidates as a DataFrame
    with ``qid``, ``id`` and ``dist``. A query stops once k candidates lie
    within c*r, ``budget`` candidates are verified, or all ``n`` points
    are; otherwise its r grows by c. Queries still active after
    ``max_rounds`` rounds keep their best candidates so far.

    Returns the top k ``(ids, dists)`` per query, ranked ascending, and the
    number of verified candidates per query.
    """
    r = {i: r0 for i in range(nq)}
    cand: dict[int, dict[int, float]] = {i: {} for i in range(nq)}
    active = set(range(nq))
    for _ in range(max_rounds):
        if not active:
            break
        got = probe({i: r[i] for i in active}, cand)
        for qid, grp in got.groupby("qid"):
            cand[int(qid)].update(
                dict(zip(grp["id"].astype(int), grp["dist"].astype(float)))
            )
        done = set()
        for i in active:
            C = cand[i]
            close = sum(1 for dd in C.values() if dd <= c * r[i])
            if close >= k or len(C) >= budget or len(C) >= n:
                done.add(i)
            else:
                r[i] *= c
        active -= done
    results = []
    for C in cand.values():
        ids = np.fromiter(C.keys(), dtype=np.int64, count=len(C))
        dists = np.fromiter(C.values(), dtype=np.float64, count=len(C))
        order = np.argsort(dists, kind="stable")[:k]
        results.append((ids[order], dists[order]))
    return results, {i: len(C) for i, C in cand.items()}


def _partition_live(summary: dict, QP: np.ndarray, qpiv: np.ndarray,
                    R: np.ndarray) -> np.ndarray:
    """Mask of the queries whose ball B(qp, r) can touch this partition:
    the PM-tree node test (ball, then rings) one level above the trees."""
    Rp = pruning_radius(R, summary["radius"], summary["hr"])
    near = ro_dists(QP, summary["ro"][None, :]) <= summary["radius"] + Rp
    return near & ~ring_pruned(qpiv, summary["hr"], Rp)


@dataclass
class PMLSH(IndexOwner):
    """A built PM-LSH index plus everything needed to answer queries."""

    spark: SparkSession
    proj: GaussianProjection
    ci: ConfidenceInterval
    pivots: np.ndarray            # global PM-tree pivots (projected space)
    index: PartitionedIndex
    F: DistanceDistribution       # original-space distance distribution
    n: int
    beta: float

    _index_name = "pmlsh"

    @staticmethod
    def _tree_factory(*, capacity: int, pivots: np.ndarray, seed: int):
        """Per-partition index constructor; R-LSH overrides with an R-tree."""
        return lambda P: PMTree(P, capacity=capacity, pivots=pivots, seed=seed)

    # ---- construction ----------------------------------------------------
    @classmethod
    def build(cls, spark: SparkSession, vectors: DataFrame, *, m: int = 15,
              c: float = 1.5, n_partitions: int = 8, s: int = 5,
              capacity: int = 16, seed: int = 0,
              alpha1: float = 1.0 / math.e, beta: float | None = None,
              sample_size: int = 4096) -> "PMLSH":
        ci = ConfidenceInterval.derive(m=m, c=c, alpha1=alpha1)
        if beta is not None:
            ci = ConfidenceInterval(m=m, c=c, alpha1=alpha1, t=ci.t,
                                    alpha2=ci.alpha2, beta=beta)
        proj, n, assigned, S_proj, S_orig = build_prologue(
            vectors, lambda d, _n: GaussianProjection(d, m, seed=seed),
            n_partitions=n_partitions, seed=seed, sample_size=sample_size)
        # global pivots and F(x) come from the same driver-side sample
        pivots = select_pivots(S_proj, s, seed=seed)
        F = sample_distances(S_orig, seed)

        make_tree = cls._tree_factory(capacity=capacity, pivots=pivots, seed=seed)

        def _build(pdf: pd.DataFrame) -> tuple[dict, dict]:
            P = np.stack(pdf["proj"].to_numpy())
            X = np.stack(pdf["vec"].to_numpy())
            ids = pdf["id"].to_numpy(dtype=np.int64)
            tree = make_tree(P)
            ro = P.mean(axis=0)
            radius = float(np.max(np.linalg.norm(P - ro[None, :], axis=1)))
            # partition-level rings use the global pivots regardless of the
            # inner tree type (PM-tree here, R-tree in the R-LSH baseline)
            pd_mat = (
                np.stack([np.linalg.norm(P - pv[None, :], axis=1) for pv in pivots],
                         axis=1)
                if len(pivots)
                else np.zeros((len(P), 0))
            )
            hr = (
                np.stack([pd_mat.min(axis=0), pd_mat.max(axis=0)], axis=1)
                if pd_mat.shape[1]
                else np.zeros((0, 2))
            )
            blob = {"tree": tree, "ids": ids, "X": X}
            summary = {"ro": ro, "radius": radius, "hr": hr, "count": len(ids)}
            return blob, summary

        index = PartitionedIndex.build(spark, assigned, _build, name=cls._index_name)
        return cls(spark=spark, proj=proj, ci=ci, pivots=pivots, index=index,
                   F=F, n=n, beta=ci.beta)

    # ---- helpers ---------------------------------------------------------
    def r_min(self, k: int) -> float:
        """Initial radius: n*F(r) ~= beta*n + k, shrunk slightly (Sec. 4.5)."""
        target = min(0.999, (self.beta * self.n + k) / max(self.n, 1))
        r = self.F.quantile(target) * 0.9
        return max(r, 1e-9)

    def _probe_round(self, QP: dict[int, np.ndarray], QV: dict[int, np.ndarray],
                     radii: dict[int, float]) -> pd.DataFrame:
        """One Spark pass: per partition, one batched range query for all
        active queries that reach it.

        ``radii`` maps qid -> *projected-space* radius (already t*r). The
        driver runs the partition-level ball+ring test for every query and
        probes only partitions that some query reaches; each probe serves
        the queries that reach its partition.
        """
        qids = np.fromiter(radii, dtype=np.int64, count=len(radii))
        R = np.fromiter(radii.values(), dtype=np.float64, count=len(radii))
        QPa = np.stack([QP[int(i)] for i in qids])
        QVa = np.stack([QV[int(i)] for i in qids])
        qpiv = (np.linalg.norm(self.pivots[None, :, :] - QPa[:, None, :], axis=2)
                if len(self.pivots) else np.zeros((len(qids), 0)))
        live = {pid: np.flatnonzero(_partition_live(summ, QPa, qpiv, R))
                for pid, summ in self.index.summaries.items()}
        pids = [pid for pid, sel in live.items() if len(sel)]
        if not pids:
            return pd.DataFrame(columns=["qid", "id", "pdist", "dist"])

        def _probe(blob: dict, summary: dict, pid: int) -> pd.DataFrame | None:
            sel = live[pid]
            hits, pdists = blob["tree"].range_query(QPa[sel], R[sel])
            if len(hits) == 0:
                return None
            rows = hits[:, 1]
            # "point probing": verify candidates with true distances, one
            # query at a time to bound the gathered block
            dist = np.empty(len(rows))
            bounds = np.searchsorted(hits[:, 0], np.arange(len(sel) + 1))
            for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
                diff = blob["X"][rows[a:b]] - QVa[sel[j]]
                dist[a:b] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            return pd.DataFrame({"qid": qids[sel[hits[:, 0]]], "id": blob["ids"][rows],
                                 "pdist": pdists, "dist": dist})

        sdf = self.index.probe(_probe, schema=CAND_SCHEMA, pids=pids)
        return sdf.toPandas()

    # ---- queries ---------------------------------------------------------
    def query_batch(self, Q: np.ndarray, k: int = 50
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """(c,k)-ANN (Algorithm 2) for every row of ``Q``; returns
        ``[(ids, dists), ...]`` ranked ascending, one per query."""
        Q = check_queries(Q, k)
        t = self.ci.t
        QP = {i: p for i, p in enumerate(self.proj.project(Q))}
        QV = {i: Q[i] for i in range(len(Q))}
        results, probed = ann_search(
            lambda radii, _cand: self._probe_round(
                QP, QV, {i: t * r for i, r in radii.items()}),
            len(Q), k, r0=self.r_min(k), c=self.ci.c,
            budget=self.beta * self.n + k, n=self.n, max_rounds=64)
        # candidates whose true distances were verified, per query — the
        # hardware-independent cost the paper's timing reflects
        self.last_probed = probed
        return results

    def query(self, q: np.ndarray, k: int = 50) -> tuple[np.ndarray, np.ndarray]:
        """Single-query convenience wrapper over ``query_batch``."""
        return self.query_batch(np.asarray(q)[None, :], k)[0]

    def ball_cover(self, q: np.ndarray, r: float) -> tuple[int, float] | None:
        """(r,c)-BC query (Algorithm 1): a point in B(q, c*r), or None."""
        q = np.asarray(q, dtype=np.float64)
        QP = {0: self.proj.project(q)[0]}
        got = self._probe_round(QP, {0: q}, {0: self.ci.t * r})
        if len(got) == 0:
            return None
        got = got.sort_values("dist", kind="stable")
        best_id, best_d = int(got.iloc[0]["id"]), float(got.iloc[0]["dist"])
        if len(got) >= self.beta * self.n + 1:
            return best_id, best_d
        if best_d <= self.ci.c * r:
            return best_id, best_d
        return None
