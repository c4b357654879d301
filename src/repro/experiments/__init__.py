"""Experiment harnesses, one per table/figure of the paper's evaluation.

Each module exposes ``run(spark, ...) -> pandas.DataFrame`` returning the
table rows, plus helpers the thin ``jobs/*.py`` spark-submit wrappers and
the ``benchmarks/`` suite share. Results are also dumped as JSON under
``results/`` so EXPERIMENTS.md can be regenerated from artifacts.
"""
import json
import os

__all__ = ["save_result"]


def save_result(name: str, payload) -> str:
    """Write a JSON result artifact under results/ and return its path."""
    out_dir = os.environ.get("REPRO_RESULTS_DIR", "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, default=float)
    return path

