"""Integration: a miniature Table 4 — all six algorithms on one stand-in
dataset, asserting the paper's qualitative orderings."""
import numpy as np
import pytest

from repro import datasets
from repro.baselines.exact import exact_knn_arrays
from repro.baselines.lscan import LScan
from repro.baselines.multiprobe import MultiProbe
from repro.baselines.qalsh import QALSH
from repro.baselines.rlsh import RLSH
from repro.baselines.srs import SRS
from repro.core.pmlsh import PMLSH
from repro.metrics import summarize


@pytest.fixture(scope="module")
def arena(spark):
    X = datasets.generate("Cifar", n=1500)
    Q = datasets.make_queries("Cifar", nq=5)
    df = datasets.to_spark(spark, X, partitions=6).cache()
    df.count()
    exact = exact_knn_arrays(df, Q, 20)
    yield spark, df, Q, exact
    df.unpersist()


@pytest.fixture(scope="module")
def table4_mini(arena):
    spark, df, Q, exact = arena
    algos = {
        "PM-LSH": PMLSH.build(spark, df, beta=0.2809, n_partitions=6, seed=0),
        "SRS": SRS.build(spark, df, n_partitions=6, seed=0),
        "QALSH": QALSH.build(spark, df, n_partitions=6, seed=0),
        "Multi-Probe": MultiProbe.build(spark, df, n_partitions=6, seed=0),
        "R-LSH": RLSH.build(spark, df, beta=0.2809, n_partitions=6, seed=0),
        "LScan": LScan(spark, df, fraction=0.7, seed=0),
    }
    out = {}
    for name, a in algos.items():
        with a:
            out[name] = summarize(a.query_batch(Q, k=20), exact)
    return out


def test_every_algorithm_beats_chance(table4_mini):
    for name, s in table4_mini.items():
        assert s["recall"] > 0.3, (name, s)
        assert s["overall_ratio"] < 1.5, (name, s)


def test_pmlsh_among_most_accurate(table4_mini):
    """Table 4: PM-LSH has the best (or tied-best) recall."""
    pm = table4_mini["PM-LSH"]["recall"]
    for name, s in table4_mini.items():
        assert pm >= s["recall"] - 0.05, (name, s)


def test_lscan_is_least_accurate(table4_mini):
    ls = table4_mini["LScan"]["recall"]
    assert ls <= table4_mini["PM-LSH"]["recall"]
    assert ls <= table4_mini["SRS"]["recall"] + 0.05


def test_pmlsh_ratio_close_to_one(table4_mini):
    assert table4_mini["PM-LSH"]["overall_ratio"] <= 1.01


def test_point_estimators_beat_bucket_estimators(table4_mini):
    """The paper's central distance-estimation claim: point-to-point
    estimation (PM-LSH, SRS, R-LSH) yields better ratios than bucket
    granularity (Multi-Probe) at comparable probe budgets."""
    assert (
        table4_mini["PM-LSH"]["overall_ratio"]
        <= table4_mini["Multi-Probe"]["overall_ratio"] + 1e-6
    )
