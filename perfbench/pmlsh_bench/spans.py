"""Layer spans for traced runs, recorded from outside the program.

Driver side, :class:`Tracer` interposes on the public functions that
``PMLSH.build`` and ``PMLSH.query_batch`` call, and records one span per
call: name, start, end, parent span, and the ``query_batch`` call it
belongs to. Spans stay in memory until the run ends.

Worker side, a driver monkeypatch does not reach the Python workers. The
traced run therefore starts Spark's Python daemon from
``pmlsh_bench.daemon``, which calls :func:`install_worker_hooks` before it
forks any worker. The hooks time ``PMTree.range_query``, ``PMTree``
construction and ``partindex.load_blob`` in each worker process. The
``build_fn``/``probe_fn`` callables that the driver hands to
``PartitionedIndex`` are wrapped in :class:`TracedBuild` and
:class:`TracedProbe`; these collect what the hooks recorded during their
call and send one record per index partition back through a Spark
accumulator, tagged with the ``query_batch`` call id and the round.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from pyspark.accumulators import AccumulatorParam

clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None          # index of the enclosing span in Tracer.spans
    call: int | None            # query_batch call id; None during the build
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class ListParam(AccumulatorParam):
    """Accumulates worker records by list concatenation."""

    def zero(self, value):
        return []

    def addInPlace(self, a, b):
        a.extend(b)
        return a


# ---- worker side --------------------------------------------------------

class WorkerRecorder:
    """What the hooks measured in one worker process since the last drain."""

    def __init__(self):
        self.active = False
        self.loads: list[tuple[int, float, bool]] = []  # (task attempt, s, miss)
        self.seen_paths: set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.rq_s = 0.0
        self.rq_calls = 0
        self.cc = 0
        self.nodes = 0
        self.cands = 0
        self.tree_s = 0.0


# One recorder per worker process, set by install_worker_hooks in the daemon
# before it forks, so every forked worker inherits the patched functions.
RECORDER: WorkerRecorder | None = None


def install_worker_hooks() -> None:
    """Patch the worker-side layer functions to record into ``RECORDER``."""
    global RECORDER
    from pyspark import TaskContext

    from repro.core import partindex
    from repro.core.pmtree import PMTree

    rec = WorkerRecorder()
    range_query, tree_init, load_blob = PMTree.range_query, PMTree.__init__, partindex.load_blob

    def traced_range_query(tree, q, r):
        if not rec.active:
            return range_query(tree, q, r)
        cc, nodes, t0 = tree.cc, tree.nodes_accessed, clock()
        rows, dists = range_query(tree, q, r)
        rec.rq_s += clock() - t0
        rec.rq_calls += 1
        rec.cc += tree.cc - cc
        rec.nodes += tree.nodes_accessed - nodes
        rec.cands += len(rows)
        return rows, dists

    def traced_init(tree, *args, **kwargs):
        t0 = clock()
        tree_init(tree, *args, **kwargs)
        if rec.active:
            rec.tree_s += clock() - t0

    def traced_load_blob(path):
        # the per-process blob cache never evicts, so a path new to this
        # process is a cache miss
        miss = path not in rec.seen_paths
        t0 = clock()
        blob = load_blob(path)
        rec.loads.append((TaskContext.get().taskAttemptId(), clock() - t0, miss))
        rec.seen_paths.add(path)
        return blob

    PMTree.range_query = traced_range_query
    PMTree.__init__ = traced_init
    # PartitionedIndex.probe's task closure refers to load_blob by module
    # attribute, so workers unpickle it to this wrapper.
    partindex.load_blob = traced_load_blob
    RECORDER = rec


def _recorder() -> WorkerRecorder:
    if RECORDER is None:
        raise RuntimeError(
            "worker hooks missing: traced runs need spark.python.daemon.module=pmlsh_bench.daemon")
    return RECORDER


class TracedProbe:
    """``probe_fn`` wrapper: one record per probed index partition."""

    def __init__(self, fn, acc, call: int | None, rnd: int):
        self.fn, self.acc, self.call, self.rnd = fn, acc, call, rnd

    def __call__(self, blob, summary, pid):
        from pyspark import TaskContext

        rec = _recorder()
        task = TaskContext.get().taskAttemptId()
        rec.reset()
        rec.active = True
        t0 = clock()
        try:
            out = self.fn(blob, summary, pid)
        finally:
            rec.active = False
        probe_s = clock() - t0
        loads = [(s, miss) for t, s, miss in rec.loads if t == task]
        rec.loads.clear()
        self.acc.add([{
            "kind": "probe", "call": self.call, "round": self.rnd,
            "task": task, "probe_s": probe_s,
            "load_s": sum(s for s, _ in loads), "misses": sum(m for _, m in loads),
            "rq_s": rec.rq_s, "rq_calls": rec.rq_calls, "cc": rec.cc,
            "nodes": rec.nodes, "cands": rec.cands,
        }])
        return out


class TracedBuild:
    """``build_fn`` wrapper: one record per built index partition."""

    def __init__(self, fn, acc):
        self.fn, self.acc = fn, acc

    def __call__(self, pdf):
        rec = _recorder()
        rec.reset()
        rec.active = True
        try:
            out = self.fn(pdf)
        finally:
            rec.active = False
        self.acc.add([{"kind": "build", "tree_s": rec.tree_s}])
        return out


# ---- driver side --------------------------------------------------------

class Tracer:
    """Driver-side spans around the layers' public functions.

    ``install`` patches; ``uninstall`` restores. Spans are recorded only
    while ``active`` is true, so traced and untraced calls can alternate.
    """

    def __init__(self, spark):
        self.acc = spark.sparkContext.accumulator([], ListParam())
        self.spans: list[Span] = []
        self.active = False
        self.call: int | None = None
        self.round = 0
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.active:
            yield None
            return
        idx = len(self.spans)
        self.spans.append(Span(name, clock(), math.nan,
                               self._open[-1] if self._open else None, self.call, attrs))
        self._open.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._open.pop()
            self.spans[idx].end = clock()

    def _patch(self, owner, attr: str, make) -> None:
        orig = owner.__dict__[attr]
        setattr(owner, attr, make(orig))
        self._undo.append((owner, attr, orig))

    def _timed(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return wrapper
        return make

    def install(self) -> None:
        from repro.core import pmlsh
        from repro.core.partindex import PartitionedIndex
        from repro.core.projection import GaussianProjection

        # names PMLSH.build looks up in its module
        for attr, name in [("kmeans", "partitioner.kmeans"),
                           ("select_pivots", "pmtree.select_pivots"),
                           ("DistanceDistribution", "costmodel.distance_distribution")]:
            self._patch(pmlsh, attr, self._timed(name))
        self._patch(GaussianProjection, "project", self._timed("projection.project"))

        def make_round(fn):
            def probe_round(index, *args, **kwargs):
                if self.active:
                    self.round += 1
                with self.span("pmlsh.probe_round", round=self.round):
                    return fn(index, *args, **kwargs)
            return probe_round
        self._patch(pmlsh.PMLSH, "_probe_round", make_round)

        def make_build(cm):
            build = cm.__func__

            def traced(cls, spark, assigned, build_fn, *, name):
                if not self.active:
                    return build(cls, spark, assigned, build_fn, name=name)
                with self.span("partindex.build"):
                    return build(cls, spark, assigned, TracedBuild(build_fn, self.acc), name=name)
            return classmethod(traced)
        self._patch(PartitionedIndex, "build", make_build)

        def make_probe(probe):
            def traced(index, probe_fn, schema, pids=None):
                if not self.active:
                    return probe(index, probe_fn, schema, pids)
                n_pids = len(index.summaries) if pids is None else len(pids)
                with self.span("partindex.probe", pids=n_pids):
                    sdf = probe(index, TracedProbe(probe_fn, self.acc, self.call, self.round),
                                schema, pids)
                collect, rnd = sdf.toPandas, self.round

                def to_pandas():
                    with self.span("spark.round", round=rnd) as sp:
                        out = collect()
                        sp.attrs["rows"] = len(out)
                        return out
                sdf.toPandas = to_pandas
                return sdf
            return traced
        self._patch(PartitionedIndex, "probe", make_probe)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


# ---- per-layer metrics ------------------------------------------------------

def layer_metrics(tracer: Tracer, calls: list[int], *, k: int, nq: int,
                  n_partitions: int) -> dict[str, float]:
    """Per-layer metrics: the median over the traced ``query_batch`` calls
    in ``calls`` for query-side metrics, and the build's own values."""
    sp = tracer.spans
    kids: dict[int, list[int]] = {}
    for i, s in enumerate(sp):
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(i)

    def self_s(i: int) -> float:
        return sp[i].dur - sum(sp[j].dur for j in kids.get(i, []))

    recs = tracer.acc.value
    probes: dict[int, list[dict]] = {}
    for r in recs:
        if r["kind"] == "probe":
            probes.setdefault(r["call"], []).append(r)

    per_call: dict[str, list[float]] = {}
    for call in calls:
        by: dict[str, list[int]] = {}
        for i, s in enumerate(sp):
            if s.call == call:
                by.setdefault(s.name, []).append(i)

        def total_self(name: str) -> float:
            return sum(self_s(i) for i in by.get(name, []))

        (qb,) = by["pmlsh.query_batch"]
        rounds = {sp[i].attrs["round"]: sp[i].dur for i in by.get("spark.round", [])}
        rr = probes.get(call, [])
        busy: dict[tuple[int, int], float] = {}   # (round, Spark task) -> busy s
        for r in rr:
            key = (r["round"], r["task"])
            busy[key] = busy.get(key, 0.0) + r["load_s"] + r["probe_s"]
        slowest: dict[int, float] = {}
        for (rnd, _), s in busy.items():
            slowest[rnd] = max(slowest.get(rnd, 0.0), s)
        cands = sum(r["cands"] for r in rr)
        n_rounds = len(by.get("pmlsh.probe_round", []))
        values = {
            "pmlsh.query_batch_s": sp[qb].dur,
            "pmlsh.query_self_s": self_s(qb),
            "projection.project_s": total_self("projection.project"),
            "pmlsh.select_self_s": total_self("pmlsh.probe_round"),
            "partindex.probe_s": total_self("partindex.probe"),
            "spark.round_s": sum(rounds.values()),
            "spark.wait_s": sum(d - slowest.get(rnd, 0.0) for rnd, d in rounds.items()),
            "pmlsh.rounds": n_rounds,
            "pmlsh.rows_shipped": sum(sp[i].attrs["rows"] for i in by.get("spark.round", [])),
            "pmlsh.partitions_probed_frac":
                sum(sp[i].attrs["pids"] for i in by.get("partindex.probe", []))
                / (n_partitions * max(n_rounds, 1)),
            "pmlsh.probe_task_s_sum": sum(busy.values()),
            "pmlsh.probe_task_s_max": sum(slowest.values()),
            "pmlsh.verify_self_s": sum(r["probe_s"] - r["rq_s"] for r in rr),
            "pmtree.range_query_s": sum(r["rq_s"] for r in rr),
            "pmtree.range_query_calls": sum(r["rq_calls"] for r in rr),
            "pmtree.nodes_accessed": sum(r["nodes"] for r in rr),
            "pmtree.cc": sum(r["cc"] for r in rr),
            "pmtree.candidates": cands,
            "pmlsh.useful_frac": k * nq / cands if cands else math.nan,
            # self times of the call's spans tile the query_batch span
            "trace.self_sum_frac": sum(self_s(i) for ids in by.values() for i in ids) / sp[qb].dur,
        }
        for name, v in values.items():
            per_call.setdefault(name, []).append(float(v))
    out = {name: float(np.median(vs)) for name, vs in per_call.items()}

    build = {s.name: i for i, s in enumerate(sp) if s.call is None}
    for span_name, metric in [("partitioner.kmeans", "partitioner.kmeans_s"),
                              ("pmtree.select_pivots", "pmtree.select_pivots_s"),
                              ("costmodel.distance_distribution", "costmodel.distance_distribution_s"),
                              ("partindex.build", "partindex.build_s")]:
        out[metric] = sp[build[span_name]].dur if span_name in build else math.nan
    out["pmlsh.build_self_s"] = self_s(build["pmlsh.build"]) if "pmlsh.build" in build else math.nan
    out["pmtree.build_s"] = sum(r["tree_s"] for r in recs if r["kind"] == "build")
    out["partindex.load_blob_s"] = sum(r["load_s"] for r in recs if r["kind"] == "probe")
    out["partindex.blob_cache_miss"] = float(sum(r["misses"] for r in recs if r["kind"] == "probe"))
    return out
