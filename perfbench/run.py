"""The repo benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the root of a source checkout.

Workloads: ``serve-warm``, ``serve-cold`` (``repro-em serve`` driven over
HTTP) and ``table-row`` (one Table 3 row). ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` a separate traced run's per-layer
metrics. Progress lines (one JSON object per phase or check) go to
stdout; the last line is the result::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"p50_ms": {"value": 21.3, "unit": "ms"}, ...}}

The exit code is 0 only for a complete run whose outputs checked out.
"""

from __future__ import annotations

import os
import sys

# Before anything imports numpy: one BLAS thread in this process too.
os.environ.update({name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import signal  # noqa: E402

from harness import (  # noqa: E402
    BLAS_THREADS,
    ROOT,
    BenchError,
    require_checkout,
    use_source_tree,
)

WORKLOADS = ("serve-warm", "serve-cold", "table-row")


def _stop(signum, _frame):
    # Turn a termination request into an exception so every ``finally``
    # (daemon shutdown, work-directory removal) runs.
    raise SystemExit(128 + signum)


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for a run."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in manifest["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    signal.signal(signal.SIGTERM, _stop)
    try:
        require_checkout()
        use_source_tree()
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "seconds": args.seconds, "trace": args.trace,
                          "blas_threads": BLAS_THREADS}), flush=True)
        if args.workload == "table-row":
            from table_row import run_table_row

            result = run_table_row(args.seed, args.seconds, bool(args.trace))
        else:
            from serve_workloads import run_serving

            result = run_serving(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
        # Every workload reports every declared metric, in its unit.
        produced = {name: unit for name, (_v, unit) in result["metrics"].items()}
        if produced != declared_metrics(bool(args.trace)):
            raise BenchError(f"{args.workload} produced metrics {produced}, "
                             "not the ones BENCHMARK.json declares")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, (value, unit) in result["metrics"].items():
        if not math.isfinite(value):
            # Failed requests sort last; too many of them leave no finite
            # percentile to report.
            result["failures"].append(f"{name} is not finite")
            result["metrics"][name] = (None, unit)
    for failure in result["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    width = max(len(name) for name in result["metrics"])
    for name, (value, unit) in result["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<{width}}  {shown:>14} {unit}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }), flush=True)
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
