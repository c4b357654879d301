"""Table 4 — performance overview: query time / overall ratio / recall of
PM-LSH, SRS, QALSH, Multi-Probe, R-LSH and LScan on all seven datasets.

Paper defaults: k=50, c=1.5, m=15 hash functions (PM-LSH/SRS/R-LSH),
s=5 pivots, PM-LSH beta=0.2809 (the paper's stated constant), QALSH
beta=100/n & delta=1/e, SRS T=0.4010 & p'_tau=0.8107, LScan 70%.

Timing: average wall-clock per query over a batch of ``nq`` queries
(the batch amortizes Spark's per-pass scheduling overhead the same way
for every algorithm). Absolute times are not comparable to the paper's
C++ numbers; the target is the ordering (PM-LSH fastest & most accurate,
SRS second, LScan slowest/least accurate) and the accuracy levels.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro import datasets
from repro.baselines.exact import exact_knn_arrays
from repro.baselines.lscan import LScan
from repro.baselines.multiprobe import MultiProbe
from repro.baselines.qalsh import QALSH
from repro.baselines.rlsh import RLSH
from repro.baselines.srs import SRS
from repro.core.pmlsh import PMLSH
from repro.metrics import summarize

ALGORITHMS = ("PM-LSH", "SRS", "QALSH", "Multi-Probe", "R-LSH", "LScan")

# Paper Table 4 (query time ms / overall ratio / recall), for side-by-side
# diffing in EXPERIMENTS.md.
PAPER_TABLE4 = {
    "Audio": {"PM-LSH": (13.5, 1.0014, 0.9662), "SRS": (15.3, 1.0025, 0.9126),
              "QALSH": (22.5, 1.0043, 0.9003), "Multi-Probe": (15.3, 1.0242, 0.8669),
              "R-LSH": (14.2, 1.0019, 0.9633), "LScan": (19.6, 1.0073, 0.6839)},
    "MNIST": {"PM-LSH": (12.3, 1.0076, 0.8857), "SRS": (18.4, 1.0101, 0.8514),
              "QALSH": (24.7, 1.0085, 0.8655), "Multi-Probe": (19.1, 1.0103, 0.8502),
              "R-LSH": (16.2, 1.0095, 0.8705), "LScan": (60.3, 1.0276, 0.7073)},
    "NUS": {"PM-LSH": (125.7, 1.0009, 0.9257), "SRS": (142.1, 1.0015, 0.9247),
            "QALSH": (133.2, 1.0027, 0.8677), "Multi-Probe": (125.9, 1.0025, 0.8782),
            "R-LSH": (129.6, 1.0011, 0.9214), "LScan": (176.8, 1.0053, 0.7057)},
    "Trevi": {"PM-LSH": (37.2, 1.0004, 0.9961), "SRS": (47.9, 1.0015, 0.9342),
              "QALSH": (145.5, 1.0029, 0.8240), "Multi-Probe": (239.3, 1.0057, 0.8534),
              "R-LSH": (63.9, 1.0044, 0.9568), "LScan": (57.68, 1.0084, 0.7103)},
    "Cifar": {"PM-LSH": (11.6, 1.0009, 0.9746), "SRS": (16.1, 1.0025, 0.9624),
              "QALSH": (38.3, 1.0057, 0.7917), "Multi-Probe": (26.8, 1.0038, 0.8011),
              "R-LSH": (35.6, 1.0056, 0.9610), "LScan": (58.2, 1.0125, 0.7081)},
    "GIST": {"PM-LSH": (398.7, 1.0047, 0.8436), "SRS": (452.5, 1.0049, 0.8145),
             "QALSH": (627.7, 1.0037, 0.8534), "Multi-Probe": (782.9, 1.0053, 0.8122),
             "R-LSH": (425.3, 1.0059, 0.8098), "LScan": (1528.3, 1.0076, 0.7023)},
    "Deep": {"PM-LSH": (227.8, 1.0037, 0.8816), "SRS": (252.9, 1.0077, 0.8894),
             "QALSH": (458.2, 1.0124, 0.646), "Multi-Probe": (401.4, 1.0112, 0.8118),
             "R-LSH": (457.5, 1.0152, 0.8801), "LScan": (507.5, 1.0145, 0.6938)},
}


def build_algorithm(spark: SparkSession, name: str, df, *, c: float = 1.5,
                    n_partitions: int = 8, seed: int = 0,
                    sample_size: int = 2048):
    """Construct one competitor with the paper's default parameters."""
    if name == "PM-LSH":
        return PMLSH.build(spark, df, m=15, c=c, n_partitions=n_partitions,
                           s=5, seed=seed, beta=0.2809, sample_size=sample_size)
    if name == "R-LSH":
        return RLSH.build(spark, df, m=15, c=c, n_partitions=n_partitions,
                          s=5, seed=seed, beta=0.2809, sample_size=sample_size)
    if name == "SRS":
        # early_stop=False: the operating point the paper's SRS numbers
        # reflect (the chi-square test rarely fires on the real datasets;
        # on our synthetic stand-ins it would fire after <5% of the budget
        # and depress recall to ~0.7 — see EXPERIMENTS.md)
        return SRS.build(spark, df, m=15, c=c, T=0.4010, p_tau=0.8107,
                         n_partitions=n_partitions, seed=seed,
                         sample_size=sample_size, early_stop=False)
    if name == "QALSH":
        return QALSH.build(spark, df, c=c, n_partitions=n_partitions,
                           seed=seed, sample_size=sample_size)
    if name == "Multi-Probe":
        return MultiProbe.build(spark, df, L=4, m_mp=8, n_probe=128,
                                n_partitions=n_partitions, seed=seed,
                                sample_size=sample_size)
    if name == "LScan":
        return LScan(spark, df, fraction=0.7, seed=seed)
    raise ValueError(f"unknown algorithm {name!r}")


def run_dataset(spark: SparkSession, ds_name: str, *, sf: float = 0.02,
                n: int | None = None, nq: int = 20, k: int = 50,
                c: float = 1.5, n_partitions: int = 8, seed: int = 0,
                algorithms: tuple[str, ...] = ALGORITHMS) -> list[dict]:
    """Table 4 rows for one dataset: build each competitor, run the query
    batch (one warm-up query first), score against the exact kNN."""
    X = datasets.generate(ds_name, n=n, sf=sf)
    Q = datasets.make_queries(ds_name, nq=nq)
    df = datasets.to_spark(spark, X, partitions=n_partitions).cache()
    df.count()
    try:
        exact = exact_knn_arrays(df, Q, k)
        rows = []
        for algo in algorithms:
            t0 = time.perf_counter()
            index = build_algorithm(spark, algo, df, c=c,
                                    n_partitions=n_partitions, seed=seed)
            build_sec = time.perf_counter() - t0
            with index:
                index.query_batch(Q[:1], k)  # warm blob caches / JIT paths
                t0 = time.perf_counter()
                res = index.query_batch(Q, k)
                query_ms = (time.perf_counter() - t0) * 1000.0 / len(Q)
                probed = float(np.mean(list(index.last_probed.values())))
            s = summarize(res, exact)
            paper = PAPER_TABLE4[ds_name][algo]
            rows.append(
                {
                    "dataset": ds_name,
                    "algorithm": algo,
                    "n": len(X),
                    "query_ms": round(query_ms, 1),
                    # hardware-independent cost: true-distance verifications
                    # per query — this is what drives the paper's timing
                    # ordering, free of Spark orchestration overhead
                    "probed": round(probed, 1),
                    "overall_ratio": round(s["overall_ratio"], 4),
                    "recall": round(s["recall"], 4),
                    "build_sec": round(build_sec, 1),
                    "paper_query_ms": paper[0],
                    "paper_ratio": paper[1],
                    "paper_recall": paper[2],
                }
            )
        return rows
    finally:
        df.unpersist()


def run(spark: SparkSession, *, sf: float = 0.02, nq: int = 20, k: int = 50,
        names: list[str] | None = None,
        algorithms: tuple[str, ...] = ALGORITHMS, seed: int = 0
        ) -> pd.DataFrame:
    names = names or list(datasets.DATASETS)
    rows: list[dict] = []
    for nm in names:
        rows.extend(
            run_dataset(spark, nm, sf=sf, nq=nq, k=k, seed=seed,
                        algorithms=algorithms)
        )
    return pd.DataFrame(rows)
