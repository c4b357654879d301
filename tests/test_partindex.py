"""Tests for the partitioned-index substrate (build blobs + probe)."""
import os

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F
from pyspark.sql.types import DoubleType, IntegerType, LongType, StructField, StructType

from repro import datasets
from repro.core.partindex import PartitionedIndex, load_blob
from repro.core.partitioner import assign_partitions, kmeans
from repro.core.projection import GaussianProjection

OUT_SCHEMA = StructType(
    [
        StructField("pid", IntegerType(), False),
        StructField("id", LongType(), False),
        StructField("norm", DoubleType(), False),
    ]
)


@pytest.fixture(scope="module")
def built(spark):
    g = np.random.default_rng(0)
    X = g.standard_normal((300, 12))
    proj = GaussianProjection(12, 5, seed=0)
    df = proj.transform(datasets.to_spark(spark, X))
    centers = kmeans(proj.project(X), 4, seed=0)
    assigned = assign_partitions(df, centers)

    def build_fn(pdf: pd.DataFrame):
        V = np.stack(pdf["vec"].to_numpy())
        ids = pdf["id"].to_numpy(dtype=np.int64)
        return {"V": V, "ids": ids}, {"count": len(ids), "mean_norm": float(
            np.mean(np.linalg.norm(V, axis=1)))}

    with PartitionedIndex.build(spark, assigned, build_fn, name="test") as idx:
        yield idx, X


def test_build_covers_all_points(built):
    idx, X = built
    assert idx.n == len(X)
    assert sum(s["count"] for s in idx.summaries.values()) == len(X)


def test_blob_files_exist(built):
    idx, _ = built
    for row in idx.meta.collect():
        assert os.path.exists(row["path"])


def test_summaries_are_driver_side_dicts(built):
    idx, _ = built
    for s in idx.summaries.values():
        assert "mean_norm" in s and s["mean_norm"] > 0


def test_probe_runs_on_every_partition(built):
    idx, X = built

    def probe_fn(blob, summary, pid):
        return pd.DataFrame(
            {
                "pid": np.full(len(blob["ids"]), pid, dtype=np.int32),
                "id": blob["ids"],
                "norm": np.linalg.norm(blob["V"], axis=1),
            }
        )

    out = idx.probe(probe_fn, schema=OUT_SCHEMA).toPandas()
    assert len(out) == len(X)
    got = out.sort_values("id")["norm"].to_numpy()
    np.testing.assert_allclose(got, np.linalg.norm(X, axis=1), rtol=1e-9)


def test_probe_pid_filter(built):
    idx, _ = built
    some_pid = sorted(idx.summaries)[0]

    def probe_fn(blob, summary, pid):
        return pd.DataFrame(
            {
                "pid": np.full(len(blob["ids"]), pid, dtype=np.int32),
                "id": blob["ids"],
                "norm": np.zeros(len(blob["ids"])),
            }
        )

    out = idx.probe(probe_fn, schema=OUT_SCHEMA, pids=[some_pid]).toPandas()
    assert set(out["pid"]) == {some_pid}
    assert len(out) == idx.summaries[some_pid]["count"]


def test_probe_empty_result(built):
    idx, _ = built
    out = idx.probe(lambda b, s, p: None, schema=OUT_SCHEMA).toPandas()
    assert len(out) == 0


def test_load_blob_caches(built):
    idx, _ = built
    path = idx.meta.first()["path"]
    b1 = load_blob(path)
    b2 = load_blob(path)
    assert b1 is b2  # same object: per-process memoization


def test_distinct_builds_get_distinct_dirs(spark, built):
    idx, X = built
    proj = GaussianProjection(12, 5, seed=0)
    df = proj.transform(datasets.to_spark(spark, X))
    centers = kmeans(proj.project(X), 2, seed=0)
    assigned = assign_partitions(df, centers)
    with PartitionedIndex.build(
        spark, assigned, lambda pdf: ({"n": len(pdf)}, {"count": len(pdf)}),
        name="test",
    ) as idx2:
        assert idx2.index_dir != idx.index_dir


def test_close_removes_directory_and_cached_blobs(spark):
    from repro.core import partindex

    X = np.random.default_rng(1).standard_normal((40, 4))
    assigned = datasets.to_spark(spark, X).withColumn("pid", (F.col("id") % 2).cast("int"))
    idx = PartitionedIndex.build(
        spark, assigned, lambda pdf: ({"n": len(pdf)}, {"count": len(pdf)}),
        name="test",
    )
    paths = [row["path"] for row in idx.meta.collect()]
    for path in paths:
        load_blob(path)
    assert all(path in partindex._BLOB_CACHE for path in paths)
    idx.close()
    assert not os.path.exists(idx.index_dir)
    assert not any(path in partindex._BLOB_CACHE for path in paths)
    idx.close()  # closing twice is harmless
