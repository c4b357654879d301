"""Benchmark of PM-LSH (``repro.core.pmlsh.PMLSH``); the entry point is ``perfbench/run.py``."""
