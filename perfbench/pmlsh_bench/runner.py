"""One run of the PM-LSH benchmark on one workload.

A run sets up a fresh Spark session, builds the index, warms it up, and
then sends distinct held-out queries in a closed loop for ``--seconds``:
one client in this driver process calls ``PMLSH.query_batch`` and waits
for each reply before sending the next. Every answer is checked against
NumPy afterwards. ``--trace 1`` runs the same loop with layer spans
switched on for every other call, and reports per-layer metrics plus the
tracing overhead instead of the end-to-end metrics.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from pmlsh_bench import spans
from pmlsh_bench.check import answer_error, exact_topk

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str     # repro.datasets stand-in, generated at scale factor SF
    batch: int       # queries per query_batch call
    k: int
    pool: int        # distinct held-out queries generated per run; a run
                     # ends early if it uses them all


WORKLOADS = {w.name: w for w in [
    Workload("deep-batch", "Deep", batch=20, k=50, pool=4000),
    Workload("gist-batch", "GIST", batch=20, k=50, pool=4000),
    Workload("audio-single", "Audio", batch=1, k=10, pool=2000),
]}

SF = 0.02
# Table 4 settings; build seed 0, so the index is the same in every run.
BUILD_PARAMS = dict(m=15, c=1.5, s=5, beta=0.2809, n_partitions=8, seed=0)
NPROC = len(os.sched_getaffinity(0))
CORES = min(4, NPROC)
DRIVER_MEMORY = "3g"
SETUP_REPEATS = 3
WARMUP_CALLS = 3
# The tail percentile keeps this many samples beyond it, or a quarter of
# the samples when there are too few for that.
TAIL_BEYOND = 10


# ---- Spark session and processes -----------------------------------------

def start_session(run_dir: str, trace: bool):
    from pyspark.sql import SparkSession

    b = (
        SparkSession.builder.master(f"local[{CORES}]").appName("pmlsh-bench")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={run_dir}")
        .config("spark.local.dir", os.path.join(run_dir, "spark"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
    )
    if trace:
        b = b.config("spark.python.daemon.module", "pmlsh_bench.daemon")
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stat_fields(pid: int) -> list[str]:
    """Fields of /proc/<pid>/stat after the command name: state, ppid, ..."""
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rsplit(")", 1)[1].split()


def still_running(pids: list[int]) -> list[int]:
    live = []
    for pid in pids:
        try:
            if _stat_fields(pid)[0] != "Z":
                live.append(pid)
        except OSError:
            continue
    return live


def python_descendants() -> list[int]:
    """Python processes below this one: Spark's Python daemon and workers."""
    children: dict[int, list[int]] = {}
    for pid in still_running([int(e) for e in os.listdir("/proc") if e.isdigit()]):
        try:
            children.setdefault(int(_stat_fields(pid)[1]), []).append(pid)
        except OSError:
            continue
    out, stack = [], [os.getpid()]
    while stack:
        kids = children.get(stack.pop(), [])
        stack.extend(kids)
        for pid in kids:
            try:
                if os.path.basename(os.readlink(f"/proc/{pid}/exe")).startswith("python"):
                    out.append(pid)
            except OSError:  # ended meanwhile
                continue
    return out


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def python_peak_rss_mb() -> float:
    """Summed peak RSS (VmHWM) of this driver and its Python workers; the JVM is left out."""
    kb = _vm_hwm_kb(os.getpid())
    for pid in python_descendants():
        try:
            kb += _vm_hwm_kb(pid)
        except OSError:
            continue
    return kb / 1024.0


def stop_spark(spark, *, keep_jvm: bool) -> None:
    """Stop the session (if any), and the JVM unless ``keep_jvm``; wait
    until the Python daemon and workers (and the JVM) have ended."""
    from pyspark import SparkContext

    procs = python_descendants()
    if spark is not None:
        spark.stop()
    gateway = SparkContext._gateway
    if not keep_jvm and gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            gateway.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            gateway.proc.kill()
            gateway.proc.wait()
        SparkContext._gateway = None
        SparkContext._jvm = None
    # the daemon's workers are reparented once it exits, so poll each pid
    deadline = time.monotonic() + 30
    while (alive := still_running(procs)) and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in alive:
        os.kill(pid, signal.SIGKILL)


# ---- set-up -----------------------------------------------------------------

@dataclass
class Setup:
    spark: object
    X: np.ndarray
    Q: np.ndarray
    df: object
    exact: list
    seconds: float


def set_up(w: Workload, seed: int, run_dir: str, trace: bool) -> Setup:
    """Session start, data, cached DataFrame, exact top-k, warm Python workers."""
    from repro import datasets

    t0 = clock()
    spark = start_session(run_dir, trace)
    X = datasets.generate(w.dataset, sf=SF)
    Q = datasets.generate(w.dataset, n=w.pool, sf=SF, seed_offset=1 + seed)
    df = datasets.to_spark(spark, X).cache()
    df.count()
    exact = exact_topk(X, Q, w.k)
    n = spark.sparkContext.defaultParallelism
    spark.range(n, numPartitions=n).mapInPandas(lambda batches: batches, "id long").count()
    return Setup(spark, X, Q, df, exact, clock() - t0)


# ---- metrics ----------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the tail latency."""
    xs = sorted(latencies)
    beyond = min(TAIL_BEYOND, (len(xs) - 1) // 4)
    i = len(xs) - 1 - beyond
    return xs[i], 100.0 * (i + 1) / len(xs), beyond


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


# ---- the run ------------------------------------------------------------------

@dataclass
class Call:
    """One ``query_batch`` call on queries ``Q[lo:lo + batch]``."""
    id: int
    lo: int
    traced: bool
    seconds: float
    res: list | None      # None if the call raised


class Client:
    """The closed-loop client: each call waits for the previous answer."""

    def __init__(self, w: Workload, Q: np.ndarray, tracer: spans.Tracer | None):
        self.w, self.Q, self.tracer = w, Q, tracer
        self.calls: list[Call] = []

    def has_queries(self) -> bool:
        return (len(self.calls) + 1) * self.w.batch <= len(self.Q)

    def ask(self, index, traced: bool) -> None:
        lo, tracer = len(self.calls) * self.w.batch, self.tracer
        if tracer is not None:
            tracer.active, tracer.call, tracer.round = traced, len(self.calls), 0
        res = None
        t0 = clock()
        try:
            with tracer.span("pmlsh.query_batch") if tracer else nullcontext():
                res = index.query_batch(self.Q[lo:lo + self.w.batch], self.w.k)
        except Exception:  # a raised call counts its queries as failed
            traceback.print_exc()
        self.calls.append(Call(len(self.calls), lo, traced, clock() - t0, res))


def check_calls(calls: list[Call], w: Workload, setup: Setup):
    """Checks every answer; returns (attempted, failed, results, exact) with
    the passing answers of ``calls`` and their exact top-k."""
    attempted = failed = 0
    results, exact = [], []
    for call in calls:
        attempted += w.batch
        if call.res is None or len(call.res) != w.batch:
            failed += w.batch
            continue
        for i, (ids, dists) in enumerate(call.res, start=call.lo):
            err = answer_error(ids, dists, setup.Q[i], setup.X, w.k)
            if err is None:
                results.append((ids, dists))
                exact.append(setup.exact[i])
                continue
            failed += 1
            if failed <= 5:
                print(f"query {i}: {err}", file=sys.stderr)
    return attempted, failed, results, exact


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else math.nan


def run(w: Workload, seed: int, seconds: float, trace: bool, root: str) -> tuple[dict, dict]:
    """Returns (result, config); ``result`` has the metric values by name."""
    from repro.core.pmlsh import PMLSH
    from repro.metrics import summarize

    base = os.path.join(root, ".bench_run")
    os.makedirs(base, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=base)
    os.environ["TMPDIR"] = run_dir
    os.environ["REPRO_INDEX_DIR"] = os.path.join(run_dir, "indexes")
    setup = tracer = None
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            if setup is not None:
                setup.df.unpersist()
                stop_spark(setup.spark, keep_jvm=True)
                setup = None
            setup = set_up(w, seed, run_dir, trace)
            setup_times.append(setup.seconds)
        spark = setup.spark
        if trace:
            tracer = spans.Tracer(spark)
            tracer.install()
            tracer.active = True
        client = Client(w, setup.Q, tracer)

        t0 = clock()
        with tracer.span("pmlsh.build") if tracer else nullcontext():
            index = PMLSH.build(spark, setup.df, **BUILD_PARAMS)
        client.ask(index, traced=True)
        build_s = clock() - t0
        index_bytes = dir_bytes(index.index.index_dir)
        while len(client.calls) < WARMUP_CALLS:
            client.ask(index, traced=True)

        t0 = clock()
        while clock() - t0 < seconds:
            if not client.has_queries():
                print(f"query pool of {w.pool} used up after {clock() - t0:.1f} s",
                      file=sys.stderr)
                break
            client.ask(index, traced=(len(client.calls) - WARMUP_CALLS) % 2 == 0)
        phase_s = clock() - t0
        if tracer is not None:
            tracer.active = False
        peak_rss_mb = python_peak_rss_mb()

        timed = client.calls[WARMUP_CALLS:]
        attempted, failed, _, _ = check_calls(client.calls[:WARMUP_CALLS], w, setup)
        t_attempted, t_failed, results, exact = check_calls(timed, w, setup)
        attempted, failed = attempted + t_attempted, failed + t_failed
        sc = spark.sparkContext
        config = {
            "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "spark": spark.version, "master": sc.master,
            "defaultParallelism": sc.defaultParallelism, "nproc": NPROC,
            "input_partitions": setup.df.rdd.getNumPartitions(),
            "index_partitions": len(index.index.summaries),
            "n": len(setup.X), "d": setup.X.shape[1], "batch": w.batch, "k": w.k,
            "warmup_calls": WARMUP_CALLS, "timed_calls": len(timed),
        }
        if not trace:
            lat = [c.seconds for c in timed]
            quality = summarize(results, exact) if results else {}
            tail_ms, tail_pct, beyond = tail(lat)
            config.update(tail_percentile=round(tail_pct, 1), tail_beyond=beyond)
            values = {
                "qps": w.batch * len(timed) / phase_s,
                "latency_ms_p50": 1000.0 * statistics.median(lat),
                "latency_ms_tail": 1000.0 * tail_ms,
                "build_s": build_s,
                "setup_s": statistics.median(setup_times),
                "recall": quality.get("recall", math.nan),
                "overall_ratio": quality.get("overall_ratio", math.nan),
                "ok_frac": 1.0 - failed / attempted,
                "index_mb": index_bytes / 1e6,
                "peak_rss_mb": peak_rss_mb,
            }
        else:
            traced = [c for c in timed if c.traced]
            untraced = [c.seconds for c in timed if not c.traced]
            values = spans.layer_metrics(
                tracer, [c.id for c in traced], k=w.k, nq=w.batch,
                n_partitions=len(index.index.summaries))
            values["partindex.index_bytes"] = float(index_bytes)
            values["trace.overhead_pct"] = 100.0 * (
                _median([c.seconds for c in traced]) / _median(untraced) - 1.0)
            config.update(traced_calls=len(traced), untraced_calls=len(untraced))
        return {"attempted": attempted, "failed": failed, "values": values}, config
    finally:
        if tracer is not None:
            tracer.uninstall()
        if setup is not None:
            setup.df.unpersist()
        stop_spark(setup.spark if setup else None, keep_jvm=False)
        shutil.rmtree(run_dir, ignore_errors=True)
        if not os.listdir(base):
            os.rmdir(base)


def run_all(args, bench: dict) -> int:
    """Each BENCHMARK.json workload in its own process, so each gets a fresh
    Spark session; prints their output, then one table row per workload."""
    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[kind]]
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")
    rows, status = [], 0
    for wl in bench["workloads"]:
        cmd = [sys.executable, script, "--workload", wl["name"], "--seed", str(args.seed),
               "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            rows.append([wl["name"]] + ["-"] * len(names))
            continue
        metrics = json.loads(lines[-1])["metrics"]
        rows.append([wl["name"]] + [f"{metrics[n]['value']:.6g}" for n in names])
    units = {m["name"]: m["unit"] for m in bench[kind]}
    header = ["workload"] + [f"{n} [{units[n]}]" for n in names]
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(c.ljust(wd) for c, wd in zip(r, widths)))
    return status


def main(args, *, root: str) -> int:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload == "all":
        return run_all(args, bench)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.seed < 0 or seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    result, config = run(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace), root)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    values = {name: v for name, v in result["values"].items() if math.isfinite(v)}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    correct = result["failed"] == 0 and not missing
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
    print("config " + json.dumps(config))
    for m in wanted:
        print(f"{m['name']:36s} {values.get(m['name'], math.nan):14.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1
