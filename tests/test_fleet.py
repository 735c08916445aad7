"""Fleet-grade resilience: replication, takeover, routing, liveness.

The fleet contract under test extends the single-server "no silent loss"
guarantee across processes: a primary streams its write-ahead journal to a
hot standby, so killing the primary turns accepted-but-unanswered requests
into a takeover-requeue instead of a restart-NACK; a router health-checks
members, shards by certificate-store key prefix and fails clients over
transparently; long computations stream progress frames that double as
per-request liveness.  These tests run real servers (and the router) on
unix sockets inside the test process, with real supervised verifications
behind them.
"""

import threading
import time

import pytest
from serve_harness import RunningServer

from repro.engines import Status
from repro.engines.supervision import RetryPolicy, WorkerSupervisor
from repro.faults.injection import plan_installed
from repro.faults.plan import HANG_HARD, REPL_LINK_DROP, FaultPlan
from repro.obs.export import Trace, lint_trace, stitch_traces
from repro.serve import (
    MemberSpec,
    RequestJournal,
    RouterConfig,
    ServeClient,
    ServerConfig,
    VerifyRouter,
)
from repro.serve.protocol import format_addr, parse_addr


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _sock(tmp_path, name):
    return str(tmp_path / name)


def _wait_for(predicate, timeout_s=15.0, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"{what} not reached within {timeout_s}s")


def _primary_config(tmp_path, **overrides):
    options = dict(
        socket_path=_sock(tmp_path, "primary.sock"),
        cache_dir=str(tmp_path / "cache"),
        journal_path=str(tmp_path / "primary.journal"),
        server_id="box-a",
        default_deadline_s=120.0,
    )
    options.update(overrides)
    return ServerConfig(**options)


def _standby_config(tmp_path, primary_addr, **overrides):
    options = dict(
        socket_path=_sock(tmp_path, "standby.sock"),
        cache_dir=str(tmp_path / "cache"),
        journal_path=str(tmp_path / "standby.journal"),
        role="standby",
        primary_addr=primary_addr,
        takeover_after_s=0.4,
        recover="requeue",
        server_id="box-a2",
        default_deadline_s=120.0,
    )
    options.update(overrides)
    return ServerConfig(**options)


# ---------------------------------------------------------------------------
# address specs
# ---------------------------------------------------------------------------


def test_parse_addr_specs():
    assert parse_addr("unix:/tmp/x.sock") == ("/tmp/x.sock", None, 0)
    assert parse_addr("/tmp/plain.sock") == ("/tmp/plain.sock", None, 0)
    assert parse_addr("tcp:127.0.0.1:7411") == (None, "127.0.0.1", 7411)
    assert parse_addr("10.0.0.5:7411") == (None, "10.0.0.5", 7411)
    # a colon inside a path is not a port
    assert parse_addr("/tmp/dir:with/colon.sock") == (
        "/tmp/dir:with/colon.sock", None, 0,
    )
    assert parse_addr(format_addr(socket_path="/tmp/y.sock")) == (
        "/tmp/y.sock", None, 0,
    )
    assert parse_addr(format_addr(host="h", port=9)) == (None, "h", 9)


# ---------------------------------------------------------------------------
# journal replication: primary -> hot standby
# ---------------------------------------------------------------------------


def test_replication_streams_journal_to_standby(tmp_path):
    primary_config = _primary_config(tmp_path, sync_level="sync")
    with RunningServer(primary_config) as primary:
        standby_config = _standby_config(
            tmp_path, f"unix:{primary_config.socket_path}"
        )
        with RunningServer(standby_config) as standby:
            _wait_for(
                lambda: standby.replica.connected,
                what="standby subscription",
            )
            with ServeClient(
                socket_path=primary_config.socket_path, reconnect=False
            ) as client:
                reply = client.verify(design="daio", bound=70)
                assert reply["status"] == Status.UNSAFE
            # sync level: the accept the client saw was acked by the
            # standby before the reply went out
            repl = primary.replication.status()
            assert repl["sync_level"] == "sync"
            assert repl["seq"] >= 2  # accept + answered close
            assert repl["sync_timeouts"] == 0
            _wait_for(
                lambda: primary.replication.lag() == 0,
                what="standby fully acked",
            )
            # the standby's journal is a byte-faithful replica
            _wait_for(
                lambda: standby.journal.read_text()
                == primary.journal.read_text(),
                what="journal convergence",
            )
            assert standby.replica.records_applied >= 2
            assert not standby.replica.promoted


def test_replication_link_drop_resyncs_via_snapshot(tmp_path):
    """Severed replication links must heal by full resubscribe, losing nothing."""
    primary_config = _primary_config(tmp_path)
    plan = FaultPlan(seed=7, rates={REPL_LINK_DROP: 1.0})
    with plan_installed(plan):
        with RunningServer(primary_config) as primary:
            standby_config = _standby_config(
                tmp_path, f"unix:{primary_config.socket_path}"
            )
            with RunningServer(standby_config) as standby:
                _wait_for(
                    lambda: standby.replica.connected,
                    what="standby subscription",
                )
                with ServeClient(
                    socket_path=primary_config.socket_path, reconnect=False
                ) as client:
                    client.verify(design="daio", bound=70)
                # every live append was dropped, so convergence must have
                # come through snapshot resyncs
                _wait_for(
                    lambda: standby.journal.read_text()
                    == primary.journal.read_text(),
                    what="journal convergence through link drops",
                )
                assert primary.replication.link_drops >= 1
                assert standby.replica.reconnects >= 2


def test_standby_promotes_and_requeues_open_requests(tmp_path):
    # seed the replicated journal with an accepted-but-unanswered request,
    # exactly what a SIGKILLed primary leaves behind
    journal_path = str(tmp_path / "standby.journal")
    dead = RequestJournal(journal_path)
    dead.accept("orphan-1", {"design": "daio", "bound": 70})
    dead.close()

    standby_config = _standby_config(
        tmp_path, f"unix:{tmp_path / 'never-there.sock'}"
    )
    with RunningServer(standby_config) as standby:
        # before promotion the standby holds the fort but admits nothing
        with ServeClient(
            socket_path=standby_config.socket_path, reconnect=False
        ) as client:
            with pytest.raises(Exception) as excinfo:
                client.verify(design="daio", bound=70)
            assert "standby" in str(excinfo.value)
        _wait_for(lambda: standby.role == "primary", what="takeover")
        assert standby.counters["takeovers"] == 1
        assert standby.counters["takeover_requeued"] == 1
        # the requeued orphan computes headless into the cache; a client
        # asking the same query afterwards hits warm
        with ServeClient(
            socket_path=standby_config.socket_path, reconnect=False
        ) as client:
            _wait_for(
                lambda: standby.counters["answered"] >= 1,
                what="requeued recovery answered",
            )
            reply = client.verify(design="daio", bound=70)
            assert reply["status"] == Status.UNSAFE
        counters = standby.counters
        assert (
            counters["accepted"]
            == counters["answered"] + counters["cancelled"]
        )


# ---------------------------------------------------------------------------
# the router: sharding, coalescing, health, failover
# ---------------------------------------------------------------------------


def test_router_routes_heartbeats_and_coalesces(tmp_path):
    config_a = _primary_config(
        tmp_path, socket_path=_sock(tmp_path, "a.sock"), server_id="box-a",
        cache_dir=str(tmp_path / "cache-a"),
        journal_path=str(tmp_path / "a.journal"),
    )
    config_b = _primary_config(
        tmp_path, socket_path=_sock(tmp_path, "b.sock"), server_id="box-b",
        cache_dir=str(tmp_path / "cache-b"),
        journal_path=str(tmp_path / "b.journal"),
    )
    with RunningServer(config_a), RunningServer(config_b):
        router_config = RouterConfig(
            socket_path=_sock(tmp_path, "router.sock"),
            members=[
                MemberSpec("box-a", f"unix:{config_a.socket_path}"),
                MemberSpec("box-b", f"unix:{config_b.socket_path}"),
            ],
            heartbeat_interval_s=0.1,
        )
        with RunningServer(router_config, VerifyRouter) as router:
            _wait_for(
                lambda: all(m.healthy for m in router.members),
                what="both members healthy",
            )
            with ServeClient(
                socket_path=router_config.socket_path, reconnect=False
            ) as client:
                assert client.hello["role"] == "router"
                reply = client.verify(design="daio", bound=70)
                assert reply["status"] == Status.UNSAFE
                assert reply["member"] in ("box-a", "box-b")
                # heartbeat replies carry member gauges back to the router
                _wait_for(
                    lambda: all(
                        m.health.get("queue_depth") is not None
                        for m in router.members
                    ),
                    what="heartbeat gauges",
                )
                status = client.status()
                assert status["role"] == "router"
                assert len(status["members"]) == 2
                assert all(m["healthy"] for m in status["members"])

            # two concurrent identical queries from different client boxes
            # coalesce at the router: one forward, two replies
            barrier = threading.Barrier(2)
            replies = []
            lock = threading.Lock()

            def one_client():
                with ServeClient(
                    socket_path=router_config.socket_path, reconnect=False
                ) as c:
                    barrier.wait()
                    accepted = c.submit({"design": "rcu", "bound": 24})
                    r = c.result(accepted["id"])
                    with lock:
                        replies.append(r)

            threads = [threading.Thread(target=one_client) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert len(replies) == 2
            assert {r["status"] for r in replies} == {Status.SAFE}
            assert router.counters["coalesced"] >= 1
            assert router.counters["answered"] >= 3
            assert router.counters["duplicate_replies_suppressed"] == 0


def test_router_role_gates_member_addresses(tmp_path):
    """The router must serve via whichever member address says role=primary."""
    primary_config = _primary_config(tmp_path)
    with RunningServer(primary_config):
        standby_config = _standby_config(
            tmp_path, f"unix:{primary_config.socket_path}",
            takeover_after_s=3600.0,  # never promotes during the test
        )
        with RunningServer(standby_config):
            # the member's *first* address points at the standby: the hello
            # role gate must skip it and connect to the real primary
            router_config = RouterConfig(
                socket_path=_sock(tmp_path, "router.sock"),
                members=[
                    MemberSpec(
                        "box-a",
                        f"unix:{standby_config.socket_path}",
                        f"unix:{primary_config.socket_path}",
                    ),
                ],
                heartbeat_interval_s=0.1,
            )
            with RunningServer(router_config, VerifyRouter) as router:
                _wait_for(
                    lambda: router.members[0].healthy, what="member healthy"
                )
                assert router.members[0].connected_addr == (
                    f"unix:{primary_config.socket_path}"
                )
                with ServeClient(
                    socket_path=router_config.socket_path, reconnect=False
                ) as client:
                    reply = client.verify(design="daio", bound=70)
                    assert reply["status"] == Status.UNSAFE


# ---------------------------------------------------------------------------
# client failover: reconnect with resubmit
# ---------------------------------------------------------------------------


def test_client_reconnects_and_resubmits_across_server_restart(tmp_path):
    config = _primary_config(tmp_path)
    running = RunningServer(config)
    running.__enter__()
    second = RunningServer(_primary_config(tmp_path))
    client = ServeClient(socket_path=config.socket_path, timeout=60.0)
    try:
        assert client.verify(design="daio", bound=70)["status"] == Status.UNSAFE
        # take the server down; the journal and cache survive on disk
        running.__exit__(None, None, None)

        def restart_soon():
            time.sleep(0.3)
            second.__enter__()

        restarter = threading.Thread(target=restart_soon, daemon=True)
        restarter.start()
        # the very next call rides the backoff loop onto the new process,
        # resubmitting the pending id it could not deliver
        reply = client.verify(design="daio", bound=70)
        assert reply["status"] == Status.UNSAFE
        assert reply["source"] == "cache"
        assert client.reconnects >= 1
        assert client.resubmitted >= 1
        restarter.join()
    finally:
        client.close()
        second.__exit__(None, None, None)


# ---------------------------------------------------------------------------
# streamed liveness
# ---------------------------------------------------------------------------


def test_progress_frames_stream_to_waiting_clients(tmp_path):
    config = _primary_config(tmp_path, progress_interval_s=0.2)
    with RunningServer(config):
        frames = []
        with ServeClient(
            socket_path=config.socket_path, reconnect=False
        ) as client:
            client.on_progress = frames.append
            reply = client.verify(design="daio", bound=70)
            assert reply["status"] == Status.UNSAFE
        # every computation announces at least its attempt start
        assert frames, "no progress frames during a computation"
        kinds = {frame.get("kind") for frame in frames}
        assert "attempt" in kinds or "progress" in kinds
        assert all(frame["op"] == "progress" for frame in frames)
        assert all("elapsed_s" in frame for frame in frames)


def _sleepy_worker(payload):
    time.sleep(120.0)
    return payload


def test_run_map_stall_event_kills_and_retires_attempt():
    import multiprocessing

    supervisor = WorkerSupervisor(
        multiprocessing.get_context("fork"),
        retry=RetryPolicy(max_attempts=1, backoff_s=0.01),
    )
    stall = threading.Event()
    events = []

    def trip_stall():
        time.sleep(0.5)
        stall.set()

    threading.Thread(target=trip_stall, daemon=True).start()
    t0 = time.monotonic()
    outcomes = supervisor.run_map(
        ["unit"], _sleepy_worker, jobs=1, timeout=120.0,
        stall=stall, on_event=events.append,
    )
    wall = time.monotonic() - t0
    assert outcomes[0].state == "timed-out"
    assert "liveness" in outcomes[0].reason
    assert wall < 60.0  # the stall kill, not the budget, ended the attempt
    assert any(e["event"] == "stall-killed" for e in events)
    assert not stall.is_set()  # one kill per trip: the event was consumed


def test_wedged_request_killed_by_liveness_monitor(tmp_path):
    """No progress inside the window -> wedged -> killed -> retried clean."""
    config = _primary_config(tmp_path, progress_timeout_s=1.0)
    # hang-hard wedges the first attempt's SAT search unconditionally (on
    # buffalloc k-induction's search reaches the wedge's checkpoint; rsim
    # answers daio with no search); the only thing that can end it is the
    # server's liveness monitor noticing the silent progress stream and
    # setting the stall event
    plan = FaultPlan(seed=3, rates={HANG_HARD: 1.0})
    with plan_installed(plan):
        with RunningServer(config) as server:
            with ServeClient(
                socket_path=config.socket_path, reconnect=False, timeout=120.0
            ) as client:
                reply = client.verify(design="buffalloc", bound=70, deadline_s=90.0)
                # the retried attempt ran clean and still answered correctly
                assert reply["status"] == Status.SAFE
            assert server.counters["wedged_kills"] >= 1
            assert server.counters["accepted"] == (
                server.counters["answered"] + server.counters["cancelled"]
            )


# ---------------------------------------------------------------------------
# fleet ops: heartbeat + status
# ---------------------------------------------------------------------------


def test_heartbeat_and_status_ops(tmp_path):
    config = _primary_config(tmp_path)
    with RunningServer(config):
        with ServeClient(
            socket_path=config.socket_path, reconnect=False
        ) as client:
            client.verify(design="daio", bound=70)
            beat = client.heartbeat()
            assert beat["role"] == "primary"
            assert beat["server_id"] == "box-a"
            assert beat["accepted"] == 1
            assert beat["queue_depth"] == 0
            assert beat["uptime_s"] > 0
            status = client.status()
            assert status["role"] == "primary"
            assert status["replication"]["sync_level"] == "async"
            assert status["counters"]["answered"] == 1
            assert status["uptime_s"] > 0


# ---------------------------------------------------------------------------
# cross-box trace stitching
# ---------------------------------------------------------------------------


def _mini_trace(pid, name, request_id, extra_spans=()):
    spans = [
        {
            "id": 1, "parent": None, "name": f"{name}.root", "pid": pid,
            "start": 10.0 + pid, "wall_s": 5.0, "cpu_s": 1.0,
            "outcome": "ok", "attrs": {},
        },
        {
            "id": 2, "parent": 1, "name": f"{name}.request", "pid": pid,
            "start": 11.0 + pid, "wall_s": 2.0, "cpu_s": 0.5,
            "outcome": "ok", "attrs": {"request": request_id},
        },
        *extra_spans,
    ]
    return Trace(
        header={"type": "header", "format": "repro-trace-v1", "created": 0.0,
                "pid": pid, "dropped_spans": 0},
        spans=spans,
        counters={f"{name}.n": 1},
    )


def test_stitch_traces_builds_fleet_roots_and_lints_clean():
    router_trace = _mini_trace(100, "router", "rt-1")
    member_trace = _mini_trace(
        200, "serve", "rt-1",
        extra_spans=[{
            "id": 3, "parent": 2, "name": "engine.bmc", "pid": 200,
            "start": 211.5, "wall_s": 1.0, "cpu_s": 0.9,
            "outcome": "ok", "attrs": {},
        }],
    )
    solo_trace = _mini_trace(300, "serve", "rt-other-box-only")

    stitched = stitch_traces([router_trace, member_trace, solo_trace])
    assert lint_trace(stitched) == []
    roots = [s for s in stitched.spans if s["name"] == "fleet.request"]
    assert len(roots) == 1  # rt-1 crossed boxes; the solo request did not
    root = roots[0]
    assert root["attrs"]["request"] == "rt-1"
    assert sorted(root["attrs"]["boxes"]) == [100, 200]
    stitched_children = [
        s for s in stitched.spans if s.get("parent") == root["id"]
    ]
    assert {s["name"] for s in stitched_children} == {
        "router.request", "serve.request",
    }
    # the engine span under the member's request span kept its local parent
    engine = next(s for s in stitched.spans if s["name"] == "engine.bmc")
    serve_request = next(
        s for s in stitched.spans
        if s["name"] == "serve.request"
        and (s["attrs"] or {}).get("request") == "rt-1"
    )
    assert engine["parent"] == serve_request["id"]
    # counters merged
    assert stitched.counters["router.n"] == 1
    assert stitched.counters["serve.n"] == 2
