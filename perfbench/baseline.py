"""Measure the baseline the bounds of ``BENCHMARK.json`` rest on.

Usage (from the root of a checkout)::

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Runs ``run.py`` untraced once per seed on every workload, then traced once
per workload on the first seed, and writes, per workload and end-to-end
metric, the ten values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) /
median`` next to the metric's bound, the same spread of the values as
measured (before ``run.py`` scaled them to the reference speed), plus the
traced run's per-layer metrics and the environment of the first run.  The
metrics ``run.py`` prints but does not bound (``run.UNBOUNDED``) get the
same record with no bound.
Exits 1 when a run is not correct or a spread other than ``setup_s``'s
exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import harness
import run

RUN = os.path.join(harness.HERE, "run.py")


def _seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=harness.ROOT, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise harness.BenchError(f"{workload} seed {seed}: no result: {completed.stderr[-500:]}")
    result = json.loads(lines[-1])
    record = next(line.split(" record ", 1)[1] for line in lines if " record " in line)
    with open(os.path.join(harness.ROOT, record), "r", encoding="utf-8") as handle:
        kept = json.load(handle)
    result["environment"] = kept["environment"]
    result["measured"] = kept["measured"]
    result["values"] = {
        **{name: entry["value"] for name, entry in result["metrics"].items()},
        **kept.get("unbounded", {}),
    }
    return result


def _spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/baseline.py", description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last seed, inclusive")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}
    bounds.update({name: None for name in run.UNBOUNDED})
    units = {**harness.metric_units("end_to_end"), **run.UNBOUNDED}
    seconds = bench["run_seconds"]
    seeds = _seeds(args.seeds)

    ok = True
    baseline = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (entry["name"] for entry in bench["workloads"]):
        runs = []
        for seed in seeds:
            result = _run(workload, seed, seconds, 0)
            runs.append(result)
            print(workload, seed, "correct" if result["correct"] else "NOT CORRECT",
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
        metrics = {}
        for name, bound in bounds.items():
            values = [result["values"][name] for result in runs]
            measured = [result["measured"][name] for result in runs]
            stats = _spread(values)
            metrics[name] = {
                "unit": units[name], **stats, "bound": bound,
                "values": values, "measured_spread": _spread(measured)["spread"],
                "measured": measured,
            }
            over = bound is not None and name != "setup_s" and stats["spread"] > bound
            ok = ok and not over
            print(f"  {name:12s} median {stats['median']:12.6g} spread {stats['spread']:.4f}"
                  f" (measured {metrics[name]['measured_spread']:.4f}) bound {bound}"
                  + ("  OVER BOUND" if over else ""), flush=True)
        traced = _run(workload, seeds[0], seconds, 1)
        ok = ok and traced["correct"] and all(result["correct"] for result in runs)
        baseline["workloads"][workload] = {
            "correct": all(result["correct"] for result in runs),
            "attempted": sum(result["attempted"] for result in runs),
            "failed": sum(result["failed"] for result in runs),
            "end_to_end": metrics,
            "per_layer": {
                "seed": seeds[0], "correct": traced["correct"],
                **{name: entry["value"] for name, entry in traced["metrics"].items()},
            },
        }
        baseline.setdefault("environment", runs[0]["environment"])
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1)
        handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
