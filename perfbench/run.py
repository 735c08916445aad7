"""The repository's benchmark: time to a validated verdict, split by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 50 --trace 0

Workloads: ``serve-warm`` and ``query-cold``, which ``BENCHMARK.json`` lists,
and ``suite-cold`` and ``bmc-deep``, which run by hand (see ``workloads.py``
and ``README.md``).  With ``--trace 0`` the run reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the per-layer
metrics.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}

Everything a run writes stays under ``perfbench/.work``; a record of each
run (environment, resolved ladder, seed, every pass) is kept under
``perfbench/.work/results``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List

import harness

#: end-to-end metrics that are printed and recorded but are not in
#: ``BENCHMARK.json``: the tail latency moves with the share of a run a
#: shared machine spends in slow spells, more than any bound allows
UNBOUNDED = {"p99_ms": "ms"}


def _compile_sources() -> None:
    """Byte-compile the program once, so no timed start-up pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", harness.SRC],
        cwd=harness.ROOT,
        stdout=subprocess.DEVNULL,
        check=True,
    )


def _at_reference_speed(
    measured: Dict[str, float], units: Dict[str, str], reference: List[float]
) -> Dict[str, float]:
    """End-to-end metrics at the reference speed of ``harness.REFERENCE_S``.

    Times are scaled by REFERENCE_S over the run's median reference time,
    rates by its inverse; other units stay as measured.  The machine's
    drift between runs moves the reference as it moves the program, so the
    scaled values keep the program's own changes and lose most of the
    machine's.
    """
    scale = harness.REFERENCE_S / harness.median(reference)
    factors = {"s": scale, "ms": scale, "1/s": 1.0 / scale}
    return {name: value * factors.get(units[name], 1.0) for name, value in measured.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("suite-cold", "serve-warm", "bmc-deep", "query-cold"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(harness.SRC, "repro")):
        print(f"error: no program to measure: {harness.SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)
    _compile_sources()

    import workloads

    # a run stopped from outside still kills and reaps what it launched:
    # every launched program has its own session, so nothing else would
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.time()
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = workloads.WORKLOADS[args.workload](run)
    finally:
        run.close()
    leaked = glob.glob(os.path.join(run.dir, "**", "BENCH_*.json"), recursive=True)
    if leaked:
        run.problems.append(f"run wrote BENCH_*.json files: {leaked}")
    correct = not run.wrong and not run.problems

    units = harness.metric_units("per_layer" if args.trace else "end_to_end")
    printed = units if args.trace else {**units, **UNBOUNDED}
    measured = {name: metrics[name] for name in printed}
    values = measured if args.trace else _at_reference_speed(measured, printed, run.reference)
    reported = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "environment": harness.environment(),
        "ladder": run.ladder(),
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "wrong": run.wrong,
        "problems": run.problems,
        "metrics": reported,
        "unbounded": {name: values[name] for name in printed if name not in units},
        "measured": measured,
        "reference_s": run.reference,
        **run.record,
    }
    results = os.path.join(harness.WORK, "results")
    os.makedirs(results, exist_ok=True)
    record_path = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    )
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    if correct:
        shutil.rmtree(run.dir, ignore_errors=True)

    for name, unit in printed.items():
        print(f"{args.workload} {name} {values[name]:.6g} {unit}"
              f" (measured {measured[name]:.6g})" + ("" if name in units else ", not bounded"))
    if run.reference:
        print(f"{args.workload} reference median {harness.median(run.reference):.6g} s"
              f" over {len(run.reference)} probes")
    fail_ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"{args.workload} fail_ratio {fail_ratio:.6g} ({run.failed}/{run.attempted})")
    for problem in run.wrong + run.problems:
        print(f"{args.workload} problem: {problem}")
    print(f"{args.workload} record {os.path.relpath(record_path, harness.ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": reported,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except harness.BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(3)
