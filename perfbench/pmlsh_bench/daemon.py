"""Spark Python daemon for traced runs.

Spark starts it as ``python -m pmlsh_bench.daemon`` when
``spark.python.daemon.module`` names it. It installs the worker-side
layer hooks, then runs Spark's own daemon, so every Python worker it
forks inherits them.
"""

if __name__ == "__main__":
    from pmlsh_bench.spans import install_worker_hooks

    install_worker_hooks()

    from pyspark import daemon

    daemon.manager()
