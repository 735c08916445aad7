"""The four workloads: set-up, timed passes, verdict gates and metrics.

Every workload runs fresh processes started through the program's public
entry points (``repro-verify``, ``repro-serve``, ``make_engine``), checks
every answer against the suite's ground truth, and reports end-to-end
metrics from untraced passes.  A traced run (``--trace 1``) makes a few
untraced reference passes and then one pass under the per-layer timers of
``layers.py``, and reports the per-layer metrics of ``rollup.py``.

Each workload has a *request*, the unit a user waits for, and a *pass*,
the fixed unit of work whose wall and CPU time are reported:

==========  ===============================  ===============================
workload    request                          pass
==========  ===============================  ===============================
suite-cold  one ``--batch`` sweep (14 items)  one sweep
serve-warm  one query to the server           the 14 suite queries
bmc-deep    one BMC check to bound 128        the 14 checks
query-cold  one ``repro-verify --certify``    the 12 designs in turn
==========  ===============================  ===============================

``BENCHMARK.json`` lists serve-warm and query-cold; suite-cold and
bmc-deep run only by hand (see ``README.md``).
"""

from __future__ import annotations

import glob
import json
import os
import random
import re
import shutil
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import harness
import rollup
from harness import BenchError, HERE, Program, median, tail

VERIFY = [sys.executable, "-m", "repro.tools.verify_cli"]
SERVE = [sys.executable, "-m", "repro.tools.serve_cli"]
LAUNCH = [sys.executable, os.path.join(HERE, "launch.py")]

#: the cold sweep the ROADMAP reports: one batch over the suite, 2 workers
BATCH_ARGS = ["--batch", "--jobs", "2", "--quiet"]
#: fresh interpreters timed ahead of every pass for a start-up metric
#: (median reported), and reference tasks timed ahead of every pass
PROBES_PER_PASS = 3
#: server lifetimes a serve-warm run splits its window over; each launch is
#: one set-up sample (median reported)
SERVER_LAUNCHES = 8
#: serve-warm permutations of the suite queries per chunk; a reference probe
#: runs ahead of every chunk
ROUNDS_PER_CHUNK = 2
BMC_BOUND = 128


@dataclass(frozen=True)
class Query:
    design: str
    prop: str
    expected: str
    bug_cycle: Optional[int]


def suite_queries() -> List[Query]:
    """The 14 (design, property) pairs of the suite with their ground truth."""
    from repro.benchmarks import BENCHMARKS, load_system

    return [
        Query(name, prop.name, bench.expected, bench.bug_cycle)
        for name, bench in BENCHMARKS.items()
        for prop in load_system(name).properties
    ]


class Run:
    """One invocation of the benchmark: its directory, seed and verdicts."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = harness.fresh_dir(
            harness.WORK, f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
        )
        self.env = harness.child_env(self.dir)
        self.rng = random.Random(seed)
        self.queries = suite_queries()
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []
        self.problems: List[str] = []
        self.record: Dict[str, object] = {}
        #: launch-to-exit walls of the reference task (``harness.REFERENCE``)
        self.reference: List[float] = []
        self._launches = 0
        self._programs: List[Program] = []
        os.makedirs(self.path("logs"))

    def path(self, *parts: str) -> str:
        return os.path.join(self.dir, *parts)

    def scratch(self, prefix: str) -> str:
        self._launches += 1
        return harness.fresh_dir(self.dir, f"{prefix}{self._launches}")

    def start(
        self,
        argv: List[str],
        kernels: Optional[str] = None,
        cwd: Optional[str] = None,
        hash_seed: int = 0,
    ) -> Program:
        """Launch a program from a fresh empty working directory.

        The hash seed never comes from the workload seed: the program
        receives only the generated requests, and the dict and set orders
        a hash seed picks move a server's speed by several percent.
        """
        cwd = cwd or self.scratch("cwd")
        env = dict(self.env)
        env["PYTHONHASHSEED"] = str(hash_seed)
        if kernels is not None:
            env["REPRO_KERNEL_CACHE"] = kernels
        log = self.path("logs", f"{self._launches}")
        program = Program(argv, cwd, env, log)
        self._programs.append(program)
        return program

    def close(self) -> None:
        """Kill and reap whatever a failed run left running, and count every
        program that exited while members of its process group still ran."""
        for program in self._programs:
            if not program.done:
                program.kill()
            if program.leaked:
                self.problems.append(
                    f"{' '.join(program.argv[1:4])} left process(es) running: {program.leaked}"
                )

    def launch(self, argv: List[str], kernels: Optional[str] = None) -> harness.Launched:
        return self.start(argv, kernels).wait()

    def judge(self, label: str, verdict: str) -> None:
        """Count one answer: ``ok``, ``miss`` or ``wrong``."""
        self.attempted += 1
        if verdict == "wrong":
            self.wrong.append(label)
        if verdict != "ok":
            self.failed += 1

    def import_probes(self, modules: str, count: int = PROBES_PER_PASS) -> List[float]:
        """Fresh interpreters importing ``modules``: launch-to-exit walls."""
        walls = []
        for _ in range(count):
            launched = self.launch([sys.executable, "-c", f"import {modules}"])
            if launched.returncode != 0:
                raise BenchError(f"import {modules} failed: {launched.stderr[-500:]}")
            walls.append(launched.wall_s)
        return walls

    def reference_probes(self, count: int) -> None:
        """Time the reference task ``count`` times."""
        for _ in range(count):
            launched = self.launch([sys.executable] + harness.REFERENCE)
            if launched.returncode != 0:
                raise BenchError(f"the reference task failed: {launched.stderr[-500:]}")
            self.reference.append(launched.wall_s)

    def ladder(self) -> List[List[str]]:
        """The ladder an empty working directory resolves to."""
        from repro.engines import default_budget_ladder, learn_priors

        cwd = self.scratch("cwd")
        priors = learn_priors(sorted(glob.glob(os.path.join(cwd, "BENCH_*.json"))))
        return [list(rung.labels) for rung in default_budget_ladder(("word",), priors=priors)]


# ---------------------------------------------------------------------------
# verdict gates
# ---------------------------------------------------------------------------

_ROW = re.compile(r"^(\S+):(\S+)\s+(\S+)\s+-?[\d.]+s\s*(.*)$")


def judge_batch(run: Run, launched: harness.Launched, prefix: str) -> None:
    """Gate a ``--batch`` sweep: definitive, expected and validated per item."""
    rows = {}
    for line in launched.stdout.splitlines():
        match = _ROW.match(line)
        if match:
            rows[(match.group(1), match.group(2))] = (match.group(3), match.group(4))
    for query in run.queries:
        status, note = rows.get((query.design, query.prop), ("missing", ""))
        label = f"{prefix}:{query.design}:{query.prop}"
        if status == "wrong" or (status in ("safe", "unsafe") and status != query.expected):
            run.judge(label, "wrong")
        elif status == query.expected and "NOT VALIDATED" not in note:
            run.judge(label, "ok")
        else:
            run.judge(label, "miss")
    if launched.returncode != 0:
        run.problems.append(f"{prefix}: repro-verify --batch exited {launched.returncode}")


def judge_reply(run: Run, query: Query, reply: dict) -> None:
    """Every serve-warm request must be a validated cache hit."""
    status = reply.get("status")
    label = f"serve:{query.design}:{query.prop}"
    if status in ("safe", "unsafe") and status != query.expected:
        run.judge(label, "wrong")
    elif (
        status == query.expected
        and reply.get("validated") is True
        and reply.get("source") == "cache"
    ):
        run.judge(label, "ok")
    else:
        run.judge(label, "miss")


def judge_bmc(run: Run, check: dict, query: Query) -> None:
    """daio and tlc fail at exactly their bug cycle; the rest hold to 128."""
    label = f"bmc:{query.design}:{query.prop}"
    status = check["status"]
    if query.bug_cycle is not None:
        if status == "unsafe" and check["bound"] == query.bug_cycle:
            run.judge(label, "ok")
        else:
            run.judge(label, "wrong" if status in ("safe", "unsafe") else "miss")
    elif status == "unknown" and check["bound_reached"] == BMC_BOUND:
        run.judge(label, "ok")
    else:
        run.judge(label, "wrong" if status in ("safe", "unsafe") else "miss")


def judge_query(run: Run, design: str, launched: harness.Launched) -> None:
    """``repro-verify --certify`` exits 0 for a validated expected verdict."""
    code = launched.returncode
    run.judge(f"query:{design}", "ok" if code == 0 else "wrong" if code == 2 else "miss")


# ---------------------------------------------------------------------------
# traced passes
# ---------------------------------------------------------------------------


def traced_layers(run: Run, trace_files: List[str]) -> Dict[str, float]:
    """Load and lint the traces of a traced pass, then roll them up."""
    from repro.obs.export import load_trace

    traces = []
    for path in trace_files:
        trace = load_trace(path)
        for problem in rollup.orphans(trace):
            run.problems.append(f"{os.path.basename(path)}: {problem}")
        dropped = int(trace.header.get("dropped_spans", 0) or 0)
        if dropped:
            run.problems.append(f"{os.path.basename(path)}: {dropped} span(s) dropped")
        traces.append(trace)
    run.record["trace_spans"] = sum(len(trace.spans) for trace in traces)
    return rollup.rollup(traces)


def _passes(run: Run, seconds: float, one_pass, before=None) -> List[dict]:
    """Run ``one_pass`` while another one still fits in ``seconds``.

    Runs at least three passes, so one slow spell of the machine cannot
    hold every repeat.  ``before()`` runs ahead of each pass.
    """
    samples = []
    started = time.perf_counter()
    while True:
        if before is not None:
            before()
        t0 = time.perf_counter()
        samples.append(one_pass())
        last = time.perf_counter() - t0
        if len(samples) >= 3 and time.perf_counter() - started + last > seconds:
            return samples


def _probed_passes(run: Run, one_pass, modules: str) -> Tuple[List[dict], List[float]]:
    """Untraced passes, with set-up and reference probes ahead of every
    pass, so the probes sample the machine over the whole run like the
    passes do."""
    setup: List[float] = []

    def before() -> None:
        setup.extend(run.import_probes(modules))
        run.reference_probes(PROBES_PER_PASS)

    return _passes(run, run.seconds, one_pass, before), setup


# The machine is shared.  A neighbour on the same core makes a CPU up to
# 1.65 times slower for spells of a tenth of a second to a few seconds, and
# the share of time in such spells drifts over minutes.  Within a run, a
# sweep or a BMC check does the same work on every repeat, so its fastest
# repeat is the one the spells disturbed least.  A query-cold query races
# five engines on two CPUs, so its time varies by itself; it reports each
# query's median.  serve-warm has thousands of requests and reports
# medians.  The drift between runs is taken out by the reference task
# (``harness.REFERENCE``), which run.py scales the time metrics by.


def _typical_ms(latencies: Dict[object, List[float]]) -> float:
    """The median request latency of a mix that sends every item equally
    often, taken as the median over the items of each item's median.

    The items' latencies are far apart, so the median over every request
    falls in the gap between two items, where a few slow requests move it
    far; each item's median holds still.
    """
    return 1000.0 * median([median(values) for values in latencies.values()])


def _item_metrics(samples: List[dict], setup: List[float], pick) -> Dict[str, float]:
    """Metrics of a pass over distinct items, each timed once per pass.

    Every item's wall and CPU time is ``pick`` of its repeats over the
    passes, and a pass is the sum of its items.  The tail latency and the
    rate are taken over every timed item.
    """
    walls: Dict[str, List[float]] = {}
    cpus: Dict[str, List[float]] = {}
    for sample in samples:
        for item, (wall, cpu) in sample["items"].items():
            walls.setdefault(item, []).append(wall)
            cpus.setdefault(item, []).append(cpu)
    every = [wall for values in walls.values() for wall in values]
    return {
        "wall_s": sum(pick(values) for values in walls.values()),
        "cpu_s": sum(pick(values) for values in cpus.values()),
        "p50_ms": _typical_ms(walls),
        "p99_ms": 1000.0 * tail(every),
        "rps": len(every) / sum(every),
        "setup_s": median(setup),
        "peak_rss_mb": median([s["maxrss_mb"] for s in samples]),
    }


def _sweep_metrics(samples: List[dict], items: int, setup: List[float]) -> Dict[str, float]:
    """Metrics of whole sweeps: the sweep is both the pass and the request.

    Wall and CPU time are the fastest sweep's; the latency percentiles are
    taken over all sweeps.
    """
    walls = [s["wall_s"] for s in samples]
    return {
        "wall_s": min(walls),
        "cpu_s": min(s["cpu_s"] for s in samples),
        "p50_ms": 1000.0 * median(walls),
        "p99_ms": 1000.0 * tail(walls),
        "rps": items / min(walls),
        "setup_s": median(setup),
        "peak_rss_mb": median([s["maxrss_mb"] for s in samples]),
    }


def _traced(run: Run, one_pass, traced_pass) -> Dict[str, float]:
    """Untraced reference passes, then one traced pass, rolled up."""
    reference = _passes(run, run.seconds / 2, one_pass)
    traced = traced_pass()
    metrics = traced["layers"]
    metrics["obs.overhead_ratio"] = traced["wall_s"] / median([s["wall_s"] for s in reference])
    metrics["tools.import_s"] = median(run.import_probes("repro.tools.verify_cli"))
    return metrics


# ---------------------------------------------------------------------------
# suite-cold
# ---------------------------------------------------------------------------


def _sweep(run: Run, trace_file: Optional[str] = None) -> dict:
    sweep_dir = run.scratch("sweep")
    cache = os.path.join(sweep_dir, "cache")
    os.makedirs(cache)
    args = BATCH_ARGS + ["--cache-dir", cache]
    argv = (
        VERIFY + args
        if trace_file is None
        else LAUNCH + ["verify", "--"] + args + ["--trace", trace_file]
    )
    launched = run.launch(argv, kernels=os.path.join(sweep_dir, "kernels"))
    judge_batch(run, launched, f"sweep{run._launches}")
    shutil.rmtree(sweep_dir, ignore_errors=True)
    return {"wall_s": launched.wall_s, "cpu_s": launched.cpu_s, "maxrss_mb": launched.maxrss_mb}


def suite_cold(run: Run) -> Dict[str, float]:
    if run.trace:
        def traced_pass():
            trace_file = run.path("suite.trace.jsonl")
            sample = _sweep(run, trace_file)
            sample["layers"] = traced_layers(run, [trace_file])
            return sample

        return _traced(run, lambda: _sweep(run), traced_pass)
    samples, setup = _probed_passes(run, lambda: _sweep(run), "repro.tools.verify_cli")
    run.record["passes"] = samples
    return _sweep_metrics(samples, len(run.queries), setup)


# ---------------------------------------------------------------------------
# query-cold
# ---------------------------------------------------------------------------


def _query_pass(run: Run, trace_dir: Optional[str] = None) -> dict:
    from repro.benchmarks import BENCHMARKS

    designs = list(BENCHMARKS)
    run.rng.shuffle(designs)
    pass_dir = run.scratch("queries")
    kernels = os.path.join(pass_dir, "kernels")
    items, rss = {}, 0.0
    started = time.perf_counter()
    for design in designs:
        if trace_dir is None:
            argv = VERIFY + [design, "--certify"]
        else:
            trace_file = os.path.join(trace_dir, f"{design}.trace.jsonl")
            argv = LAUNCH + ["verify", "--", design, "--certify", "--trace", trace_file]
        launched = run.launch(argv, kernels=kernels)
        judge_query(run, design, launched)
        items[design] = (launched.wall_s, launched.cpu_s)
        rss = max(rss, launched.maxrss_mb)
    wall = time.perf_counter() - started
    shutil.rmtree(pass_dir, ignore_errors=True)
    return {"wall_s": wall, "maxrss_mb": rss, "items": items, "order": designs}


def query_cold(run: Run) -> Dict[str, float]:
    if run.trace:
        def traced_pass():
            trace_dir = harness.fresh_dir(run.dir, "query-traces")
            sample = _query_pass(run, trace_dir)
            sample["layers"] = traced_layers(
                run, sorted(glob.glob(os.path.join(trace_dir, "*.trace.jsonl")))
            )
            return sample

        return _traced(run, lambda: _query_pass(run), traced_pass)
    samples, setup = _probed_passes(run, lambda: _query_pass(run), "repro.tools.verify_cli")
    run.record["passes"] = samples
    return _item_metrics(samples, setup, median)


# ---------------------------------------------------------------------------
# bmc-deep
# ---------------------------------------------------------------------------


def _bmc_pass(run: Run, trace_file: Optional[str] = None) -> dict:
    # launch.py runs the checks in suite order on purpose: the order of the
    # checks in one interpreter moves the pass time by up to a third, which
    # would drown any change
    order = run.queries
    out = run.path(f"bmc{run._launches}.json")
    argv = LAUNCH + ["bmc", "--out", out]
    if trace_file is not None:
        argv += ["--trace", trace_file]
    launched = run.launch(argv)
    if launched.returncode != 0:
        raise BenchError(f"bmc checks failed: {launched.stderr[-800:]}")
    with open(out, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    os.remove(out)
    if [(c["design"], c["property"]) for c in report["checks"]] != [
        (q.design, q.prop) for q in order
    ]:
        raise BenchError("bmc checks do not match the suite's properties")
    for query, check in zip(order, report["checks"]):
        judge_bmc(run, check, query)
    return {
        "wall_s": report["wall_s"],
        "maxrss_mb": launched.maxrss_mb,
        "items": {
            f"{query.design}:{query.prop}": (check["wall_s"], check["cpu_s"])
            for query, check in zip(order, report["checks"])
        },
    }


def bmc_deep(run: Run) -> Dict[str, float]:
    if run.trace:
        def traced_pass():
            trace_file = run.path("bmc.trace.jsonl")
            sample = _bmc_pass(run, trace_file)
            sample["layers"] = traced_layers(run, [trace_file])
            return sample

        return _traced(run, lambda: _bmc_pass(run), traced_pass)
    samples, setup = _probed_passes(run, lambda: _bmc_pass(run), "repro.benchmarks, repro.engines")
    run.record["passes"] = samples
    return _item_metrics(samples, setup, min)


# ---------------------------------------------------------------------------
# serve-warm
# ---------------------------------------------------------------------------


class Server:
    """One ``repro-serve`` process on a unix socket inside the run."""

    def __init__(
        self, run: Run, cache: str, trace_file: Optional[str] = None, hash_seed: int = 0
    ) -> None:
        cwd = run.scratch("cwd")
        index = run._launches
        socket_abs = run.path(f"serve{index}.sock")
        journal = run.path(f"journal{index}.jsonl")
        args = [
            "--socket", os.path.relpath(socket_abs, cwd),
            "--cache-dir", cache,
            "--journal", journal,
            "--workers", "2",
        ]
        if trace_file is None:
            argv = SERVE + args
        else:
            argv = LAUNCH + ["serve", "--"] + args + ["--trace", trace_file]
        self.program = run.start(argv, kernels=run.path("kernels"), cwd=cwd, hash_seed=hash_seed)
        self.socket = os.path.relpath(socket_abs)

    def connect(self):
        from repro.serve.client import ServeClient

        deadline = time.monotonic() + 60.0
        while True:
            try:
                return ServeClient(socket_path=self.socket, timeout=60.0, reconnect=False)
            except OSError:
                if self.program.process.poll() is not None or time.monotonic() > deadline:
                    raise BenchError("repro-serve did not come up")
                time.sleep(0.002)

    def stop(self, client) -> harness.Launched:
        client.drain()
        client.close()
        launched = self.program.wait()
        if launched.returncode != 0:
            raise BenchError(f"repro-serve exited {launched.returncode}: {launched.stderr[-500:]}")
        return launched


def _request(client, query: Query) -> Tuple[dict, float, float]:
    t0 = time.perf_counter()
    accepted = client.submit({"design": query.design, "property": query.prop})
    t1 = time.perf_counter()
    reply = client.result(accepted["id"])
    return reply, t1 - t0, time.perf_counter() - t1


def _serve_round(run: Run, client, times: Optional[dict] = None) -> float:
    """One seeded permutation of the suite queries, each sent after the
    previous reply; ``times`` collects each query's admit and answer times.
    Returns the permutation's wall time."""
    order = list(run.queries)
    run.rng.shuffle(order)
    started = time.perf_counter()
    for query in order:
        reply, admit, answer = _request(client, query)
        judge_reply(run, query, reply)
        if times is not None:
            times.setdefault(query, []).append((admit, answer))
    return time.perf_counter() - started


def _serve_window(run: Run, server: Server, client, seconds: float) -> dict:
    """A closed loop of seeded suite permutations on one connection for
    ``seconds``, after one untimed warm-up permutation.  The loop runs in
    chunks of ROUNDS_PER_CHUNK permutations with a reference probe ahead
    of each; the permutations' time and CPU leave the probes out."""
    _serve_round(run, client)
    times: Dict[Query, List[Tuple[float, float]]] = {}
    rounds: List[float] = []
    cpu = 0.0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        run.reference_probes(1)
        cpu0 = harness.group_cpu_s(server.program.pid)
        for _ in range(ROUNDS_PER_CHUNK):
            rounds.append(_serve_round(run, client, times))
        cpu += harness.group_cpu_s(server.program.pid) - cpu0
    stats = client.stats()
    cache = stats.get("cache") or {}
    if cache.get("misses", 0) or cache.get("demotions", 0):
        run.problems.append(
            f"serve: warm cache missed {cache.get('misses', 0)} and demoted "
            f"{cache.get('demotions', 0)} time(s)"
        )
    return {
        "rounds_s": rounds,
        "requests": sum(len(pairs) for pairs in times.values()),
        "cpu_s": cpu,
        "times": times,
        "stats": stats,
    }


def _serve_lifetime(
    run: Run, cache: str, seconds: float, trace_file: Optional[str] = None, hash_seed: int = 0
) -> dict:
    """One server from launch to drain: its set-up time (launch to the first
    reply), then a closed-loop window of ``seconds``, probes included."""
    server = Server(run, cache, trace_file, hash_seed)
    client = server.connect()
    first = run.queries[0]
    reply, _, _ = _request(client, first)
    setup = time.perf_counter() - server.program.started
    judge_reply(run, first, reply)
    window = _serve_window(run, server, client, seconds)
    launched = server.stop(client)
    window.update(setup_s=setup, maxrss_mb=launched.maxrss_mb)
    return window


def _serve_latencies(lives: List[dict]) -> Dict[Query, List[float]]:
    """Every latency of every query over the server lifetimes."""
    latencies: Dict[Query, List[float]] = {}
    for life in lives:
        for query, pairs in life["times"].items():
            latencies.setdefault(query, []).extend(admit + answer for admit, answer in pairs)
    return latencies


def _serve_pass_s(lives: List[dict]) -> float:
    """One pass of the suite queries: the sum of each query's median latency."""
    return sum(median(values) for values in _serve_latencies(lives).values())


def serve_warm(run: Run) -> Dict[str, float]:
    cache = run.path("cache")
    os.makedirs(cache)
    fill = run.launch(VERIFY + BATCH_ARGS + ["--cache-dir", cache], kernels=run.path("kernels"))
    if fill.returncode != 0:
        raise BenchError(f"cache pre-fill exited {fill.returncode}: {fill.stdout[-800:]}")
    run.record["prefill_s"] = fill.wall_s
    seconds = run.seconds / 2 if run.trace else run.seconds
    # the window is split over several server lifetimes, so the set-up
    # samples are spread over the run like the requests are; lifetime i
    # runs under hash seed i, so every run measures the same mix of orders
    lives = [
        _serve_lifetime(run, cache, seconds / SERVER_LAUNCHES, hash_seed=index)
        for index in range(SERVER_LAUNCHES)
    ]
    run.record["serve"] = [{k: v for k, v in life.items() if k != "times"} for life in lives]
    if not run.trace:
        per_query = _serve_latencies(lives)
        latencies = [value for values in per_query.values() for value in values]
        # the rate of a permutation is its requests over its time; the
        # median permutation is one a spell of the machine left alone
        return {
            "wall_s": _serve_pass_s(lives),
            "cpu_s": sum(life["cpu_s"] for life in lives) * len(run.queries) / len(latencies),
            "p50_ms": _typical_ms(per_query),
            "p99_ms": 1000.0 * tail(latencies),
            "rps": median([len(run.queries) / took for life in lives for took in life["rounds_s"]]),
            "setup_s": median([life["setup_s"] for life in lives]),
            "peak_rss_mb": median([life["maxrss_mb"] for life in lives]),
        }

    trace_file = run.path("serve.trace.jsonl")
    traced = _serve_lifetime(run, cache, seconds, trace_file)
    metrics = traced_layers(run, [trace_file])
    counters = traced["stats"].get("counters", {})
    pairs = [pair for values in traced["times"].values() for pair in values]
    metrics.update(
        {
            "serve.admit_ms": 1000.0 * median([admit for admit, _ in pairs]),
            "serve.answer_ms": 1000.0 * median([answer for _, answer in pairs]),
            "serve.coalesced": float(counters.get("coalesced", 0)),
            "serve.computations": float(counters.get("computations", 0)),
            "serve.rejected": float(
                sum(v for k, v in counters.items() if k.startswith("rejected_"))
            ),
            "serve.journal_appends": float(
                (traced["stats"].get("journal") or {}).get("appends", 0)
            ),
            "obs.overhead_ratio": _serve_pass_s([traced]) / _serve_pass_s(lives),
            "tools.import_s": median(run.import_probes("repro.tools.verify_cli")),
        }
    )
    return metrics


WORKLOADS = {
    "suite-cold": suite_cold,
    "serve-warm": serve_warm,
    "bmc-deep": bmc_deep,
    "query-cold": query_cold,
}
