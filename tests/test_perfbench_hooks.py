"""Smoke test: the benchmark's traced run can still patch every layer.

``perfbench/pmlsh_bench/spans.py`` interposes on program functions by
module or class attribute and raises ``KeyError`` when one has moved, so
a refactor that renames or relocates them fails here rather than only in
a full ``--trace 1`` benchmark run.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))

from pmlsh_bench import spans  # noqa: E402

from repro.core import pmlsh  # noqa: E402
from repro.core.partindex import PartitionedIndex  # noqa: E402


def test_tracer_installs_and_uninstalls(spark):
    originals = (pmlsh.kmeans, vars(pmlsh.PMLSH)["_probe_round"],
                 vars(PartitionedIndex)["probe"])
    tracer = spans.Tracer(spark)
    try:
        tracer.install()
        assert pmlsh.kmeans is not originals[0]
        assert vars(pmlsh.PMLSH)["_probe_round"] is not originals[1]
    finally:
        tracer.uninstall()
    assert (pmlsh.kmeans, vars(pmlsh.PMLSH)["_probe_round"],
            vars(PartitionedIndex)["probe"]) == originals
