"""Telemetry: span nesting, no-op overhead, cross-process stitching, sinks."""

import argparse
import json
import time

import pytest

from repro.benchmarks import get_benchmark
from repro.engines import make_engine, supervision
from repro.engines.batch import BatchItem, BatchRunner
from repro.engines.portfolio import PortfolioConfig, PortfolioRunner, VerificationTask
from repro.engines.supervision import WorkerSupervisor
from repro.faults import injection
from repro.obs import log as obslog
from repro.obs import telemetry
from repro.obs.export import (
    Trace,
    chrome_trace,
    lint_trace,
    load_trace,
    summarize_trace,
    write_chrome_trace,
    write_trace,
)
from repro.tools import trace_cli

# ---------------------------------------------------------------------------
# the recorder: nesting, disabled no-op, metrics
# ---------------------------------------------------------------------------

def test_spans_nest_and_record_outcomes():
    with telemetry.recording() as recorder:
        with telemetry.span("outer", k=1) as outer:
            with telemetry.span("inner") as inner:
                inner.set_outcome("safe")
            telemetry.counter("hits", 2)
            telemetry.gauge("depth", 7)
    payload = recorder.export()
    spans = {s["name"]: s for s in payload["spans"]}
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    assert spans["outer"]["parent"] is None
    assert spans["inner"]["outcome"] == "safe"
    assert spans["outer"]["attrs"] == {"k": 1}
    assert payload["counters"] == {"hits": 2}
    assert payload["gauges"] == {"depth": 7}
    assert spans["outer"]["wall_s"] >= spans["inner"]["wall_s"] >= 0

def test_disabled_mode_is_a_noop_and_cheap():
    assert telemetry.get_recorder() is None
    span = telemetry.span("anything", attr=1)
    assert span is telemetry.NOOP_SPAN
    with span as inner:
        inner.annotate(x=1).set_outcome("ok")
    telemetry.counter("nope")
    telemetry.gauge("nope", 1)
    assert telemetry.snapshot() is None
    # the disabled API must stay in no-op territory: well under a
    # microsecond per call even on a loaded CI box
    n = 50_000
    t0 = time.perf_counter()
    for _ in range(n):
        with telemetry.span("noop"):
            pass
    per_call = (time.perf_counter() - t0) / n
    assert per_call < 10e-6

def test_recording_is_scoped_and_reentrant_safe():
    assert telemetry.get_recorder() is None
    with telemetry.recording() as recorder:
        assert telemetry.get_recorder() is recorder
        with telemetry.span("x"):
            pass
    assert telemetry.get_recorder() is None
    assert len(recorder) == 1

def test_ring_buffer_drops_oldest_and_counts_drops():
    with telemetry.recording(capacity=4) as recorder:
        for i in range(10):
            with telemetry.span(f"s{i}"):
                pass
    payload = recorder.export()
    assert len(payload["spans"]) == 4
    assert payload["dropped_spans"] == 6
    assert [s["name"] for s in payload["spans"]] == ["s6", "s7", "s8", "s9"]

def test_explicit_parent_spans_for_overlapping_work():
    with telemetry.recording() as recorder:
        root = recorder.start_span("root")
        a = recorder.start_span("a", parent=root)
        b = recorder.start_span("b", parent=root)  # overlaps a
        a.finish(outcome="done")
        b.finish(outcome="done")
        root.finish()
    spans = {s["name"]: s for s in recorder.export()["spans"]}
    assert spans["a"]["parent"] == spans["root"]["id"]
    assert spans["b"]["parent"] == spans["root"]["id"]

# ---------------------------------------------------------------------------
# cross-process stitching through the supervisor
# ---------------------------------------------------------------------------

def _traced_worker(payload):
    with telemetry.span("worker.body", payload=payload):
        telemetry.counter("worker.calls")
    return payload + 1

def _hang_first_attempt(payload):
    if injection._ATTEMPT == 0:
        time.sleep(60)
    with telemetry.span("worker.body", payload=payload):
        pass
    return payload + 1

def test_worker_spans_stitch_under_the_spawning_span():
    with telemetry.recording() as recorder:
        with telemetry.span("driver"):
            outcomes = WorkerSupervisor().run_map(
                [1, 2], _traced_worker, jobs=2, timeout=30
            )
    assert [o.value for o in outcomes] == [2, 3]
    payload = recorder.export()
    spans = payload["spans"]
    by_id = {s["id"]: s for s in spans}
    bodies = [s for s in spans if s["name"] == "worker.body"]
    assert len(bodies) == 2
    for body in bodies:
        # worker.body < worker.attempt < supervisor.attempt < unit < driver
        chain = []
        cursor = body
        while cursor["parent"] is not None:
            cursor = by_id[cursor["parent"]]
            chain.append(cursor["name"])
        assert chain == [
            "worker.attempt", "supervisor.attempt", "supervisor.unit", "driver",
        ]
    # child pids differ from the parent's, and counters merged up
    parent_pid = next(s["pid"] for s in spans if s["name"] == "driver")
    assert {b["pid"] for b in bodies} != {parent_pid}
    assert payload["counters"]["worker.calls"] == 2
    assert payload["counters"]["supervisor.spawns"] == 2

def test_kill_retry_trace_has_no_orphans(tmp_path, monkeypatch):
    # a short grace before the kill at the attempt deadline and before SIGKILL
    monkeypatch.setattr(supervision, "GRACE_SECONDS", 0.1)
    with telemetry.recording() as recorder:
        with telemetry.span("driver"):
            outcomes = WorkerSupervisor().run_map(
                [5],
                _hang_first_attempt,
                jobs=1,
                timeout=30,
                attempt_timeout=0.5,
            )
    assert outcomes[0].state == "done"
    assert outcomes[0].value == 6
    assert [a["state"] for a in outcomes[0].attempts] == ["timed-out", "done"]

    path = str(tmp_path / "trace.jsonl")
    write_trace(recorder, path, meta={"tool": "test"})
    trace = load_trace(path)
    assert lint_trace(trace) == []  # killed attempt leaves zero orphans
    attempts = [s for s in trace.spans if s["name"] == "supervisor.attempt"]
    assert sorted(s["outcome"] for s in attempts) == ["done", "timed-out"]
    # the killed attempt shipped nothing; only the survivor has a subtree
    attempt_ids = {s["id"]: s["outcome"] for s in attempts}
    children = [s for s in trace.spans if s.get("parent") in attempt_ids]
    assert {attempt_ids[s["parent"]] for s in children} == {"done"}
    assert trace.counters["supervisor.attempts.timed-out"] == 1
    assert trace.counters["supervisor.attempts.done"] == 1
    assert trace.counters["supervisor.retries"] == 1

def test_batch_sweep_trace_reconstructs_the_decision_path(tmp_path):
    # k-induction decides fifo and rcu, so their decision path reaches the
    # SAT solver (random simulation answers daio and tlc without one)
    with telemetry.recording() as recorder:
        report = BatchRunner(timeout=60, bound=80, jobs=2).run(
            [BatchItem.benchmark("fifo"), BatchItem.benchmark("rcu")]
        )
    assert report.all_definitive
    path = str(tmp_path / "batch.jsonl")
    write_trace(recorder, path)
    trace = load_trace(path)
    assert lint_trace(trace) == []
    names = {s["name"] for s in trace.spans}
    # every layer of the decision path shows up in one stitched trace
    assert {"batch.run", "batch.unit", "ladder.attempt", "engine.verify",
            "solver.check", "supervisor.attempt"} <= names
    assert len({s["pid"] for s in trace.spans}) >= 2
    summary = summarize_trace(trace)
    assert summary["roots"] == 1
    assert summary["processes"] >= 2
    assert summary["phases"]["batch.unit"]["count"] == 2

def test_portfolio_race_trace_has_one_unit_per_configuration(tmp_path):
    configs = [PortfolioConfig.of("bmc", max_bound=80), PortfolioConfig.of("pdr")]
    with telemetry.recording() as recorder:
        result = PortfolioRunner(configs=configs, timeout=60).run(
            VerificationTask.benchmark("daio")
        )
    assert result.status == "unsafe" and result.winner == "bmc[word]"
    path = str(tmp_path / "race.jsonl")
    write_trace(recorder, path)
    trace = load_trace(path)
    assert lint_trace(trace) == []
    by_id = {s["id"]: s for s in trace.spans}
    run = next(s for s in trace.spans if s["name"] == "portfolio.run")
    units = {
        s["attrs"]["unit"]: s
        for s in trace.spans
        if s["name"] == "supervisor.unit" and s["parent"] == run["id"]
    }
    assert sorted(units) == [0, 1]
    # the winner's engine run is stitched under its own attempt
    cursor = next(
        s for s in trace.spans
        if s["name"] == "worker.config" and s["attrs"]["label"] == "bmc[word]"
    )
    while cursor["name"] != "supervisor.attempt":
        cursor = by_id[cursor["parent"]]
    assert cursor["parent"] == units[0]["id"]
    assert units[0]["outcome"] == "done"
    # the loser was stopped by the winner, not run to completion
    assert units[1]["outcome"] in ("cancelled", "skipped")
    assert result.worker("pdr[word]").state in ("cancelled", "skipped")

# ---------------------------------------------------------------------------
# sinks: JSONL, lint, Chrome export, CLI
# ---------------------------------------------------------------------------

def _sample_trace(tmp_path):
    with telemetry.recording() as recorder:
        with telemetry.span("root", design="daio"):
            with telemetry.span("leaf") as leaf:
                leaf.set_outcome("unsafe")
        telemetry.counter("cache.hit")
    path = str(tmp_path / "t.jsonl")
    write_trace(recorder, path, meta={"tool": "test"})
    return path

def test_jsonl_roundtrip_and_lint(tmp_path):
    path = _sample_trace(tmp_path)
    lines = [json.loads(l) for l in open(path) if l.strip()]
    assert lines[0]["type"] == "header"
    assert lines[0]["format"] == "repro-trace-v1"
    assert lines[-1]["type"] == "metrics"
    trace = load_trace(path)
    assert lint_trace(trace) == []
    assert trace.counters == {"cache.hit": 1}

def test_lint_flags_orphans_duplicates_and_bad_schema():
    trace = Trace(
        header={"format": "repro-trace-v1"},
        spans=[
            {"id": 1, "parent": None, "name": "a", "pid": 1, "start": 0.0,
             "wall_s": 1.0, "cpu_s": 0.5, "outcome": "ok", "attrs": {}},
            {"id": 1, "parent": 99, "name": "b", "pid": 1, "start": 0.0,
             "wall_s": -1.0, "cpu_s": 0.0, "outcome": "ok", "attrs": {}},
            {"id": 2, "parent": None, "name": "c", "pid": 1, "start": 0.0,
             "wall_s": 0.0, "outcome": "ok", "attrs": {}},
        ],
        counters={"bad": "NaNish"},
    )
    problems = lint_trace(trace)
    assert any("duplicate span id" in p for p in problems)
    assert any("parent 99" in p for p in problems)
    assert any("negative wall_s" in p for p in problems)
    assert any("missing field 'cpu_s'" in p for p in problems)
    assert any("non-numeric" in p for p in problems)

def test_chrome_export_is_wellformed(tmp_path):
    path = _sample_trace(tmp_path)
    trace = load_trace(path)
    events = chrome_trace(trace)
    assert len(events) == len(trace.spans)
    for event in events:
        assert event["ph"] == "X"
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert isinstance(event["pid"], int)
        assert "outcome" in event["args"]
    root = next(e for e in events if e["name"] == "root")
    leaf = next(e for e in events if e["name"] == "leaf")
    assert root["ts"] <= leaf["ts"]  # relative timestamps keep ordering
    assert root["args"]["design"] == "daio"
    out = str(tmp_path / "t.chrome.json")
    write_chrome_trace(trace, out)
    document = json.load(open(out))
    assert {e["name"] for e in document["traceEvents"]} == {"root", "leaf"}

def test_trace_cli_lint_summarize_tree(tmp_path, capsys):
    path = _sample_trace(tmp_path)
    assert trace_cli.main(["lint", path, "--expect-clean"]) == 0
    assert "clean" in capsys.readouterr().err  # progress lines live on stderr
    assert trace_cli.main(["summarize", path]) == 0
    out = capsys.readouterr().out
    assert "root" in out and "leaf" in out
    assert trace_cli.main(["tree", path]) == 0
    out = capsys.readouterr().out
    assert "  leaf" in out  # indented under root
    assert trace_cli.main(
        ["flame", path, "--out", str(tmp_path / "f.json")]
    ) == 0
    json.load(open(tmp_path / "f.json"))

def test_trace_cli_lint_gates_on_problems(tmp_path, capsys):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as handle:
        handle.write(json.dumps({"type": "header", "format": "repro-trace-v1"}) + "\n")
        handle.write(json.dumps({
            "type": "span", "id": 1, "parent": 42, "name": "x", "pid": 1,
            "start": 0.0, "wall_s": 0.0, "cpu_s": 0.0, "outcome": "ok",
            "attrs": {},
        }) + "\n")
        handle.write(json.dumps({"type": "metrics", "counters": {}, "gauges": {}}) + "\n")
    assert trace_cli.main(["lint", path, "--expect-clean"]) == 1
    assert "orphan" in capsys.readouterr().out

# ---------------------------------------------------------------------------
# satellites: verbosity layer, CPU time, engine metrics snapshot
# ---------------------------------------------------------------------------

def _parse_verbosity(argv):
    parser = argparse.ArgumentParser()
    obslog.add_verbosity_flags(parser)
    return parser.parse_args(argv)

def test_verbosity_flags_map_to_levels():
    for argv, expected in [
        ([], obslog.NORMAL),
        (["-v"], obslog.VERBOSE),
        (["-vv"], obslog.DEBUG),
        (["-q"], obslog.QUIET),
        (["-q", "-v"], obslog.NORMAL),
    ]:
        obslog.configure_from_args(_parse_verbosity(argv))
        try:
            assert obslog.get_level() == expected, argv
        finally:
            obslog.set_level(obslog.NORMAL)

def test_leveled_events_go_to_stderr_and_respect_level(capsys):
    with obslog.temporary_level(obslog.NORMAL):
        obslog.info("shown")
        obslog.verbose("hidden")
        obslog.error("always")
    captured = capsys.readouterr()
    assert captured.out == ""  # result tables own stdout; logs never do
    assert "shown" in captured.err
    assert "hidden" not in captured.err
    assert "always" in captured.err
    with obslog.temporary_level(obslog.QUIET):
        obslog.info("muted")
        obslog.error("still shown")
    captured = capsys.readouterr()
    assert "muted" not in captured.err
    assert "still shown" in captured.err

def test_verification_result_reports_cpu_time_and_telemetry():
    system = get_benchmark("daio").load()
    with telemetry.recording():
        result = make_engine("bmc", system, max_bound=80).verify()
    assert result.status == "unsafe"
    assert result.cpu_time > 0
    assert result.telemetry and "counters" in result.telemetry
    assert result.telemetry["counters"].get("solver.checks", 0) > 0
    # off the record, cpu_time still fills in but no telemetry attaches
    result = make_engine("bmc", system, max_bound=80).verify()
    assert result.cpu_time > 0
    assert result.telemetry is None


def test_cache_counters_persist_across_instances(tmp_path, capsys):
    from repro.benchmarks import load_system
    from repro.cache import ResultCache
    from repro.tools import cache_cli

    root = str(tmp_path / "cache")
    system = load_system("daio")
    prop = system.properties[0].name
    result = make_engine("bmc", system, max_bound=80).verify(timeout=60)
    assert result.status == "unsafe"

    cache = ResultCache(root)
    assert not cache.lookup(system, prop).hit
    assert cache.store(system, prop, "word", result, design="daio").stored
    assert cache.lookup(system, prop).hit

    # a fresh process-equivalent (new instance) sees the lifetime totals
    lifetime = ResultCache(root).persistent.as_dict()
    assert lifetime["hits"] == 1
    assert lifetime["misses"] == 1
    assert lifetime["stores"] == 1
    assert lifetime["revalidations_ok"] == 1
    assert lifetime["revalidations_failed"] == 0

    # and repro-cache stats reports them, in both output modes
    assert cache_cli.main(["--cache-dir", root, "stats"]) == 0
    human = capsys.readouterr().out
    assert "1 hit(s) / 1 miss(es) over 2 lookup(s)" in human
    assert cache_cli.main(["--cache-dir", root, "stats", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["lifetime"]["hits"] == 1
