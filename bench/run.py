"""Benchmark for beehive: end-to-end metrics per workload, per-layer metrics
from a traced run, and a correctness check on every output.

Run from the repository root:

    python3 bench/run.py --workload cheap-d30 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones, with `--trace 1` the per-layer ones (see bench/README.md).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("cheap-d30", "lj13-budget", "engineering-batch")
SETUP_PROBES = 5

# One fresh interpreter: import beehive and build the workload's problems.
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "t0 = time.perf_counter()\n"
    "import workloads\n"
    "workloads.WORKLOADS[sys.argv[3]].build()\n"
    "print(time.perf_counter() - t0)\n"
)


def setup_seconds(workload: str) -> float:
    """Seconds a fresh interpreter takes to import beehive and build the problems."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), workload],
        capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    import workloads

    spec = workloads.WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if trace:
            tracer = tracing.Tracer()
            outcome = spec.trace(seed, seconds, Path(tmp), tracer)
            path = OUT / f"trace-{workload}-seed{seed}.json"
            tracer.write(path)
            outcome.notes.append(f"spans: {len(tracer.spans)} written to {path}")
        else:
            # set-up probes between rounds sample the machine across the run
            setups = []
            outcome = spec.measure(seed, seconds, Path(tmp),
                                   between=lambda: setups.append(setup_seconds(workload)))
            while len(setups) < SETUP_PROBES:
                setups.append(setup_seconds(workload))
            outcome.metrics = {"setup_s": (statistics.median(setups), "s"), **outcome.metrics}
    for note in outcome.notes:
        print(f"{workload}: {note}")
    for message in outcome.errors:
        print(f"{workload}: CHECK FAILED: {message}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{workload}: {name:36s} {value:.6g} {unit}")
    return {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own interpreter, so each has its own peak memory."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"workload {workload} exited with {done.returncode}")
        result = json.loads(done.stdout.splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to repeat rounds; at least one round runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "beehive" / "__init__.py").is_file():
        print(f"error: no beehive sources at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
