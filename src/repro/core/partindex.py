"""Shared substrate: per-partition index blobs on the local filesystem.

Every distributed index in this repo (PM-LSH, R-LSH, SRS, QALSH,
Multi-Probe) follows the same dataflow:

1. *build* — ``applyInPandas`` over points grouped by ``pid`` runs an
   index-specific ``build_fn`` whose output (a picklable dict, typically
   holding NumPy matrices plus a tree/hash structure) is written to
   ``<index_dir>/part-<pid>.pkl``. Only a tiny meta row (pid, path,
   count, pickled summary) flows back through Spark.
2. *probe* — ``mapInPandas`` over the cached meta DataFrame runs an
   index-specific ``probe_fn(blob, summary)`` per partition; executors
   memoize deserialized blobs per worker process, so repeated probe
   rounds (PM-LSH's radius enlarging, QALSH's virtual rehashing) pay the
   disk+pickle cost once.

Running in ``local[*]`` all executors share the driver's filesystem; on a
real cluster ``index_dir`` would simply move to shared storage — the
dataflow is unchanged, which is why this layering was chosen over
shipping multi-hundred-MB blobs through every query's task closure.
"""
from __future__ import annotations

import os
import pickle
import shutil
import uuid
from dataclasses import dataclass
from typing import Callable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import (
    BinaryType,
    IntegerType,
    LongType,
    StringType,
    StructField,
    StructType,
)

__all__ = ["PartitionedIndex", "IndexOwner", "Closeable", "load_blob",
           "default_index_root"]

META_SCHEMA = StructType(
    [
        StructField("pid", IntegerType(), False),
        StructField("path", StringType(), False),
        StructField("count", LongType(), False),
        StructField("summary", BinaryType(), False),
    ]
)

# Per-worker-process blob cache; keyed by file path (paths embed a uuid,
# so a rebuilt index never aliases a stale cache entry).
_BLOB_CACHE: dict[str, dict] = {}


def load_blob(path: str) -> dict:
    """Deserialize (and memoize) one partition's index blob."""
    blob = _BLOB_CACHE.get(path)
    if blob is None:
        with open(path, "rb") as f:
            blob = pickle.load(f)
        _BLOB_CACHE[path] = blob
    return blob


def default_index_root() -> str:
    root = os.environ.get("REPRO_INDEX_DIR", "/tmp/repro_indexes")
    os.makedirs(root, exist_ok=True)
    return root


class Closeable:
    """Context-manager protocol for an object with ``close()``."""

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class IndexOwner(Closeable):
    """An index whose blobs live in the ``PartitionedIndex`` at ``self.index``."""

    index: "PartitionedIndex"

    def close(self) -> None:
        """Delete this index's blobs; it cannot be queried afterwards."""
        self.index.close()


@dataclass
class PartitionedIndex(Closeable):
    """Meta DataFrame + driver-side summaries for one built index."""

    meta: DataFrame              # cached (pid, path, count, summary) rows
    summaries: dict[int, dict]   # pid -> summary dict (driver copy)
    n: int                       # total indexed points
    index_dir: str

    @classmethod
    def build(
        cls,
        spark: SparkSession,
        assigned: DataFrame,
        build_fn: Callable[[pd.DataFrame], tuple[dict, dict]],
        *,
        name: str,
    ) -> "PartitionedIndex":
        """Group ``assigned`` (must carry ``pid``) and build one blob per pid.

        ``build_fn(pdf) -> (blob, summary)``: blob is pickled to disk,
        summary must be a small picklable dict (it is collected to the
        driver and also handed to probe functions).
        """
        index_dir = os.path.join(default_index_root(), f"{name}-{uuid.uuid4().hex[:12]}")
        os.makedirs(index_dir, exist_ok=True)

        def _build(key, pdf):  # untyped: lets Spark infer the grouped-map eval type
            pid = int(key[0])
            blob, summary = build_fn(pdf)
            path = os.path.join(index_dir, f"part-{pid}.pkl")
            with open(path, "wb") as f:
                pickle.dump(blob, f, protocol=pickle.HIGHEST_PROTOCOL)
            return pd.DataFrame(
                {
                    "pid": [pid],
                    "path": [path],
                    "count": [len(pdf)],
                    "summary": [pickle.dumps(summary)],
                }
            )

        built = assigned.groupBy("pid").applyInPandas(_build, schema=META_SCHEMA)
        rows = built.collect()  # materializes every blob file exactly once
        # Recreate meta as a fresh local DataFrame: probing must not keep a
        # lineage to the (possibly cached-then-unpersisted) input — stale
        # cache entries trip Spark's CacheManager on later .cache() calls,
        # and a retained lineage could silently re-run the build.
        meta_pdf = pd.DataFrame(
            {
                "pid": [int(r["pid"]) for r in rows],
                "path": [r["path"] for r in rows],
                "count": [int(r["count"]) for r in rows],
                "summary": [bytes(r["summary"]) for r in rows],
            }
        )
        meta = spark.createDataFrame(meta_pdf, schema=META_SCHEMA)
        summaries = {int(r["pid"]): pickle.loads(bytes(r["summary"])) for r in rows}
        n = int(sum(r["count"] for r in rows))
        return cls(meta=meta, summaries=summaries, n=n, index_dir=index_dir)

    def probe(self, probe_fn: Callable[[dict, dict, int], pd.DataFrame],
              schema, pids: list[int] | None = None) -> DataFrame:
        """Run ``probe_fn(blob, summary, pid)`` on each (selected) partition."""
        meta = self.meta
        if pids is not None:
            wanted = set(int(p) for p in pids)
            meta = meta.where(meta.pid.isin(list(wanted)))

        def _probe(batches):
            for pdf in batches:
                for _, row in pdf.iterrows():
                    blob = load_blob(row["path"])
                    summary = pickle.loads(bytes(row["summary"]))
                    out = probe_fn(blob, summary, int(row["pid"]))
                    if out is not None and len(out):
                        yield out

        return meta.mapInPandas(_probe, schema=schema)

    def close(self) -> None:
        """Remove ``index_dir`` and this process's cached blobs from it.

        Worker processes keep their cached copies until they exit; their
        cache keys embed the directory's uuid, so no later index reads them.
        """
        prefix = os.path.join(self.index_dir, "")
        for path in [p for p in _BLOB_CACHE if p.startswith(prefix)]:
            del _BLOB_CACHE[path]
        shutil.rmtree(self.index_dir, ignore_errors=True)
