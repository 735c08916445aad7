"""Per-layer metrics of a traced run, taken from the program's trace files.

Layer times and call counts come from the ``bench.*`` counters the timers of
``layers.py`` publish; SAT, cache and supervisor counts are the program's
own ``solver.*``, ``cache.*``, ``supervisor.*`` and ``encoding.*``
counters.  The scheduling metrics need timestamps and come from spans:

* ``schedule.spawn_s``: from a ``bench.schedule.spawn`` call in the parent
  to the start of the worker's root span in the child, summed over workers;
* ``schedule.queue_wait_s``: from the start of a ``run_map`` to the first
  launch of each of its units, summed over units;
* ``schedule.busy_ratio``: worker-busy seconds over workers x map wall;
* ``schedule.critical_path_s``: the longest unit of any map.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import harness

#: engines reported under their own metric (metric name -> ``Engine.name``);
#: any other engine lands in engines.other
NAMED_ENGINES = {
    "bmc": "bmc",
    "k-induction": "k-induction",
    "kiki": "kiki",
    "absint": "abstract-interpretation",
    "rsim": "rsim",
    "pdr": "pdr",
    "interpolation": "interpolation",
}

#: counter-backed metrics: metric name -> trace counter
_COUNTERS = {
    "netlist.load_s": "bench.netlist.load.s",
    "encoding.blast_s": "bench.encoding.blast.s",
    "encoding.blasts": "bench.encoding.blast.calls",
    "encoding.stamp_s": "bench.encoding.stamp.s",
    "encoding.frames_stamped": "encoding.frames_stamped",
    "encoding.clauses": "bench.encoding.clauses",
    "sat.check_s": "bench.sat.check.s",
    "sat.checks": "bench.sat.check.calls",
    "sat.conflicts": "solver.conflicts",
    "sat.decisions": "solver.decisions",
    "sat.propagations": "solver.propagations",
    "engines.attempts": "bench.engines.attempts",
    "engines.wasted_s": "bench.engines.wasted_s",
    "schedule.spawns": "supervisor.spawns",
    "schedule.retries": "supervisor.retries",
    "schedule.kills": "supervisor.kills",
    "portfolio.workers": "bench.portfolio.workers",
    "portfolio.cancelled": "bench.portfolio.cancelled",
    "portfolio.overhead_s": "bench.portfolio.overhead_s",
    "certs.validate_s": "bench.certs.validate.s",
    "certs.validations": "bench.certs.validations",
    "certs.rejected": "bench.certs.rejected",
    "cache.lookup_s": "bench.cache.lookup.s",
    "cache.store_s": "bench.cache.store.s",
    "cache.minimize_s": "bench.cache.minimize.s",
    "cache.hits": "cache.hit",
    "cache.misses": "cache.miss",
    "cache.demotions": "cache.demotion",
}

#: spans a worker process starts its subtree with
_WORKER_ROOTS = ("worker.attempt", "worker.config")


def empty() -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``, at zero."""
    return {name: 0.0 for name in harness.metric_units("per_layer")}


def _schedule(spans: List[dict]) -> Tuple[float, float, float, float, float]:
    """Spawn, queue-wait, busy and capacity seconds, and the longest unit,
    of the spans of one trace (span ids are unique within a trace only)."""
    by_id = {span["id"]: span for span in spans}
    spawn_start = {}
    for span in spans:
        if span["name"] == "bench.schedule.spawn" and "pid" in span["attrs"]:
            spawn_start[span["attrs"]["pid"]] = span["start"]

    worker_roots = []
    for span in spans:
        parent = by_id.get(span.get("parent"))
        if span["name"] in _WORKER_ROOTS and parent is not None and parent["pid"] != span["pid"]:
            worker_roots.append(span)

    def inside(span: dict, ancestor_id: int) -> bool:
        cursor = by_id.get(span.get("parent"))
        while cursor is not None:
            if cursor["id"] == ancestor_id:
                return True
            cursor = by_id.get(cursor.get("parent"))
        return False

    spawn_s = sum(
        (
            max(0.0, root["start"] - spawn_start[root["pid"]])
            for root in worker_roots
            if root["pid"] in spawn_start
        ),
        0.0,
    )
    queue_wait = busy = capacity = critical = 0.0
    for run_map in (s for s in spans if s["name"] == "bench.schedule.run_map"):
        capacity += run_map["attrs"].get("jobs", 1) * run_map["wall_s"]
        busy += sum(root["wall_s"] for root in worker_roots if inside(root, run_map["id"]))
        for unit in (s for s in spans if s["name"] == "supervisor.unit" and s["parent"] == run_map["id"]):
            critical = max(critical, unit["wall_s"])
            first = next(
                (
                    spawn_start[a["attrs"]["worker_pid"]]
                    for a in spans
                    if a["name"] == "supervisor.attempt"
                    and a["parent"] == unit["id"]
                    and a["attrs"].get("attempt") == 0
                    and a["attrs"].get("worker_pid") in spawn_start
                ),
                unit["start"],
            )
            queue_wait += max(0.0, first - run_map["start"])
    return spawn_s, queue_wait, busy, capacity, critical


def rollup(traces: Iterable) -> Dict[str, float]:
    """Per-layer metrics of the loaded traces of one traced pass."""
    counters: Dict[str, float] = {}
    schedule = []
    for trace in traces:
        for name, value in trace.counters.items():
            counters[name] = counters.get(name, 0) + value
        schedule.append(_schedule(trace.spans))
    metrics = empty()
    for metric, counter in _COUNTERS.items():
        metrics[metric] = float(counters.get(counter, 0))
    for metric, engine in NAMED_ENGINES.items():
        metrics[f"engines.{metric}.verify_s"] = float(
            counters.get(f"bench.engines.{engine}.verify_s", 0)
        )
    metrics["engines.other.verify_s"] = sum(
        (
            value
            for name, value in counters.items()
            if name.startswith("bench.engines.") and name.endswith(".verify_s")
            and name[len("bench.engines."):-len(".verify_s")] not in NAMED_ENGINES.values()
        ),
        0.0,
    )
    attempts = counters.get("bench.engines.attempts", 0)
    metrics["engines.decided_ratio"] = (
        counters.get("bench.engines.decided", 0) / attempts if attempts else 0.0
    )
    check_s = metrics["sat.check_s"]
    metrics["sat.props_per_s"] = metrics["sat.propagations"] / check_s if check_s else 0.0
    engine_s = counters.get("bench.engines.verify.s", 0)
    metrics["obs.unattributed_ratio"] = (
        counters.get("bench.engines.verify.self_s", 0) / engine_s if engine_s else 0.0
    )
    spawn_s, queue_wait, busy, capacity, _ = (sum(parts) for parts in zip(*schedule))
    metrics["schedule.spawn_s"] = spawn_s
    metrics["schedule.queue_wait_s"] = queue_wait
    metrics["schedule.busy_ratio"] = busy / capacity if capacity else 0.0
    metrics["schedule.critical_path_s"] = max(parts[4] for parts in schedule)
    return metrics


def orphans(trace) -> List[str]:
    """The orphan-span problems ``lint_trace`` finds in one trace."""
    from repro.obs.export import lint_trace

    return [problem for problem in lint_trace(trace) if problem.startswith("orphan span")]
