"""The repository benchmark: FOSS cold serving and training.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 40 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
separate traced run and prints the per-layer metrics.  The workloads, and
every metric's name and unit, are those of ``BENCHMARK.json``.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 412, "failed": 0, "metrics": {"name": {"value": 1.0, "unit": "ms"}}}

The line before it carries the run record (machine metadata, inputs,
set-up timings, end-of-run counters, check results); the same record, and
for traced runs the spans and per-layer metrics, are written under
``.perfbench-out/`` at the repository root.  See ``perfbench/README.md``
for the workloads, the metric definitions and what each layer metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_args(spec: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _terminate(signum, _frame):
    # Turn SIGTERM into SystemExit so every ``finally`` (engine subprocess
    # shutdown included) runs.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(spec, argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    signal.signal(signal.SIGTERM, _terminate)
    # One BLAS thread, in this process and the engine server it starts: the
    # model's matrices are small, and idle BLAS threads spinning on a
    # 2-vCPU machine make timings depend on the scheduler.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"

    import bench_workloads

    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    ctx = bench_workloads.RunContext(
        root=ROOT, out_dir=out_dir, seed=args.seed, seconds=args.seconds, trace=bool(args.trace)
    )
    started = time.perf_counter()
    outcome = bench_workloads.WORKLOADS[args.workload](ctx)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for suffix, recorder, origin in outcome.traces:
        recorder.write_spans(os.path.join(out_dir, f"spans-{tag}{suffix}.jsonl"), origin)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    if {metric["name"] for metric in listed} != set(outcome.metrics):
        raise RuntimeError(
            f"measured metrics {sorted(outcome.metrics)} differ from BENCHMARK.json's"
        )
    metrics = {
        metric["name"]: {"value": float(outcome.metrics[metric["name"]]), "unit": metric["unit"]}
        for metric in listed
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "settings": bench_workloads.settings_key(),
        "machine": bench_workloads.machine(),
        "run_s": time.perf_counter() - started,
        "problems": outcome.problems,
        **outcome.record,
    }
    result = {
        "correct": not outcome.problems and outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"run-{tag}.json"), "w") as handle:
        json.dump({"record": record, "result": result}, handle, indent=1, default=str)
    for problem in outcome.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
