"""PM-LSH benchmark entry point.

    python3 perfbench/run.py --workload deep-batch --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a checkout: it imports the program from ``src/``
there and writes only under ``.bench_run/``, which it removes again. The
last line of its output is one JSON object with the run's metrics (see
``perfbench/README.md``); it exits non-zero if any answer fails the check.
"""
import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0, help="picks the held-out query stream")
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed phase (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "core", "pmlsh.py")):
        print(f"no PM-LSH sources under {src}: run from the root of a checkout", file=sys.stderr)
        return 2
    # the driver, Spark's Python workers and the traced run's daemon all
    # import the program and this benchmark from the checkout
    sys.path[:0] = [src, HERE]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)  # the benchmark pins its own master

    from pmlsh_bench import runner

    return runner.main(args, root=ROOT)


if __name__ == "__main__":
    sys.exit(main())
