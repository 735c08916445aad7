"""The verify server: protocol, journal, admission, throttle, end to end.

The serving contract under test is *no silent loss*: every request the
server accepts is answered, cleanly rejected, or journaled for a restart to
NACK.  The unit tests cover each mechanism in isolation (framing, journal
replay through torn tails, bounded-queue admission, throttle feedback); the
end-to-end tests run a real :class:`VerifyServer` on a unix socket with real
supervised verifications behind it.
"""

import io
import json
import multiprocessing
import os
import threading
import time

import asyncio

import pytest
from serve_harness import RunningServer

from repro.cache import cache_key
from repro.cache.store import CacheEntry, CertificateStore, StoreLock
from repro.benchmarks import load_system
from repro.certs import KInductiveCertificate
from repro.engines import Status, make_engine
from repro.engines.supervision import RetryPolicy, WorkerSupervisor
from repro.faults.injection import plan_installed
from repro.faults.plan import HANG_HARD, FaultPlan
from repro.obs import telemetry
from repro.serve import (
    AdaptiveThrottle,
    BoundedPriorityQueue,
    PROTOCOL,
    ProtocolError,
    RequestJournal,
    ServeClient,
    ServeError,
    ServerConfig,
)
from repro.serve import journal as journal_mod
from repro.serve import server as server_mod
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    encode_frame,
    parse_addr,
    read_frame_blocking,
    write_frame_blocking,
)
from repro.serve.queues import QueueClosed, priority_value
from repro.tools import serve_cli


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def test_frame_roundtrip_and_interleaving():
    stream = io.BytesIO()
    docs = [{"op": "ping"}, {"op": "verify", "design": "daio", "bound": 64},
            {"nested": {"a": [1, 2, 3]}}]
    for doc in docs:
        write_frame_blocking(stream, doc)
    stream.seek(0)
    assert [read_frame_blocking(stream) for _ in docs] == docs
    # clean EOF reads as None, not an error
    assert read_frame_blocking(stream) is None


def test_frame_rejects_garbage_and_oversize():
    with pytest.raises(ProtocolError):
        read_frame_blocking(io.BytesIO(b"not-a-length\n{}\n"))
    with pytest.raises(ProtocolError):
        read_frame_blocking(io.BytesIO(b"%d\n" % (MAX_FRAME_BYTES + 1)))
    # a frame whose payload is truncated mid-line is a protocol error too
    frame = encode_frame({"op": "ping"})
    with pytest.raises(ProtocolError):
        read_frame_blocking(io.BytesIO(frame[:-4]))


def test_parse_addr_specs():
    assert parse_addr("unix:/tmp/x.sock") == ("/tmp/x.sock", None, 0)
    assert parse_addr("/tmp/plain.sock") == ("/tmp/plain.sock", None, 0)
    assert parse_addr("tcp:127.0.0.1:7411") == (None, "127.0.0.1", 7411)
    assert parse_addr("10.0.0.5:7411") == (None, "10.0.0.5", 7411)
    # a colon inside a path is not a port
    assert parse_addr("/tmp/dir:with/colon.sock") == (
        "/tmp/dir:with/colon.sock", None, 0,
    )


# ---------------------------------------------------------------------------
# the write-ahead journal
# ---------------------------------------------------------------------------


def test_journal_accept_close_replay_and_compaction(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = RequestJournal(path)
    journal.accept("a", {"design": "daio"})
    journal.accept("b", {"design": "rcu"})
    journal.finish("a", journal_mod.ANSWERED, status="unsafe")
    journal.close()

    report = RequestJournal(path).replay()
    assert report.closed == 1
    assert set(report.open_requests) == {"b"}
    assert report.open_requests["b"] == {"design": "rcu"}

    # compaction keeps exactly the open accepts, atomically
    RequestJournal(path).compact()
    after = RequestJournal(path).replay()
    assert set(after.open_requests) == {"b"} and after.closed == 0


def test_journal_tolerates_torn_tail_and_garbage(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = RequestJournal(path)
    journal.accept("a", {"design": "daio"})
    journal.finish("a", journal_mod.ANSWERED)
    journal.accept("b", {"design": "rcu"})
    journal.close()
    # simulate a crash mid-append: tear the final record's tail
    with open(path, "r+b") as handle:
        handle.seek(0, os.SEEK_END)
        handle.truncate(handle.tell() - 9)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n{definitely not json\n")
    report = RequestJournal(path).replay()
    # the torn accept for "b" is lost, the closed pair survives, nothing raises
    assert report.torn_lines >= 1
    assert report.closed == 1
    assert "b" not in report.open_requests


def test_journal_close_without_accept_is_legal(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = RequestJournal(path)
    journal.finish("ghost", journal_mod.CANCELLED)
    journal.close()
    report = RequestJournal(path).replay()
    assert report.open_requests == {} and report.total_records == 1


def test_journal_compaction_races_live_appends(tmp_path):
    """compact() must never drop a record landing concurrently.

    The server compacts on drain while the event loop may still be closing
    requests; the journal's lock makes an in-flight append atomic with
    respect to the replay-then-rename.  Hammer both sides from two threads
    and check the end state parses cleanly and holds every surviving id.
    """
    path = str(tmp_path / "journal.jsonl")
    journal = RequestJournal(path)
    appends = 400
    stop = threading.Event()

    def writer():
        for n in range(appends):
            journal.accept(f"req-{n}", {"design": "daio", "bound": n})
            if n % 3 == 0:
                journal.finish(f"req-{n}", journal_mod.ANSWERED)
        stop.set()

    compactions = 0
    thread = threading.Thread(target=writer)
    thread.start()
    while not stop.is_set():
        journal.compact()
        compactions += 1
    thread.join()
    journal.close()
    assert compactions >= 1

    # no torn lines, and exactly the never-closed ids are open: a lost
    # accept or a lost close would show up as a wrong open set
    report = RequestJournal(path).replay()
    assert report.torn_lines == 0
    expected_open = {f"req-{n}" for n in range(appends) if n % 3 != 0}
    assert set(report.open_requests) == expected_open


# ---------------------------------------------------------------------------
# bounded priority admission queue
# ---------------------------------------------------------------------------


def test_queue_priority_order_and_fifo_within_class():
    async def scenario():
        queue = BoundedPriorityQueue(maxsize=8)
        assert queue.try_put("bulk-1", priority_value("bulk"))
        assert queue.try_put("batch-1", priority_value("batch"))
        assert queue.try_put("interactive-1", priority_value("interactive"))
        assert queue.try_put("batch-2", priority_value(None))  # default: batch
        assert queue.try_put("weird", priority_value("no-such-class"))  # bulk
        order = [await queue.get() for _ in range(5)]
        assert order == ["interactive-1", "batch-1", "batch-2", "bulk-1", "weird"]

    asyncio.run(scenario())


def test_queue_rejects_at_capacity_never_blocks():
    async def scenario():
        queue = BoundedPriorityQueue(maxsize=2)
        assert queue.try_put("a", 1) and queue.try_put("b", 1)
        assert not queue.try_put("c", 0)  # even interactive is refused
        assert queue.rejected == 1 and queue.admitted == 2
        await queue.get()
        assert queue.try_put("c", 0)

    asyncio.run(scenario())


def test_queue_close_wakes_getters_with_queue_closed():
    async def scenario():
        queue = BoundedPriorityQueue(maxsize=2)
        getter = asyncio.ensure_future(queue.get())
        await asyncio.sleep(0)  # let the getter park
        queue.close()
        with pytest.raises(QueueClosed):
            await getter
        assert not queue.try_put("late", 1)

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# adaptive throttle
# ---------------------------------------------------------------------------


def test_throttle_shrinks_under_latency_and_recovers():
    throttle = AdaptiveThrottle(
        min_concurrency=1, max_concurrency=4, target_latency_s=1.0, window=2
    )
    assert throttle.concurrency == 4
    for _ in range(4):
        throttle.observe(10.0)  # far above target
    assert throttle.concurrency == 2
    for _ in range(20):
        throttle.observe(0.01)  # far below target/2
    assert throttle.concurrency == 4  # clamped at max, grown back
    assert throttle.adjustments >= 4


def test_throttle_never_drops_below_min():
    throttle = AdaptiveThrottle(
        min_concurrency=2, max_concurrency=3, target_latency_s=0.5, window=1
    )
    for _ in range(10):
        throttle.observe(30.0)
    assert throttle.concurrency == 2


def test_throttle_adjusts_at_most_once_per_window():
    throttle = AdaptiveThrottle(
        min_concurrency=1, max_concurrency=8, target_latency_s=10.0, window=4
    )
    throttle.observe(0.001)
    throttle.observe(0.001)
    throttle.observe(0.001)
    assert throttle.concurrency == 8 and throttle.adjustments == 0


def test_throttle_idle_windows_decay_stale_ewma_toward_target():
    """A zero-completion window must not leave the pool shrunk forever.

    A burst of slow work pins the EWMA above target and shrinks
    concurrency; if no further work completes, observe() never runs again
    and the stale sample would keep the pool small.  The monitor's tick()
    closes each idle window by decaying the EWMA toward target, growing
    the pool back without a single fresh observation.
    """
    throttle = AdaptiveThrottle(
        min_concurrency=1, max_concurrency=4, target_latency_s=1.0,
        window=1, idle_window_s=0.5,
    )
    for _ in range(6):
        throttle.observe(40.0)  # overload burst
    assert throttle.concurrency == 1
    assert throttle.ewma_latency_s > throttle.target_latency_s

    # ticks inside the idle window are no-ops (the window hasn't closed)
    assert throttle.tick(now=time.monotonic() + 0.1) == 1
    assert throttle.idle_windows == 0

    # then silence: each closed idle window decays the stale sample toward
    # target (never past it — growth still requires evidence of fast work)
    now = time.monotonic()
    for n in range(1, 40):
        throttle.tick(now=now + 0.6 * n)
    assert throttle.idle_windows >= 10
    assert 1.0 < throttle.ewma_latency_s < 1.1  # stale 40s sample released

    # two fast observations now suffice to start growing the pool back;
    # without the decay they would have been swamped by the stale sample
    throttle.observe(0.01)
    throttle.observe(0.01)
    assert throttle.ewma_latency_s < throttle.target_latency_s / 2.0
    for _ in range(6):
        throttle.observe(0.01)
    assert throttle.concurrency == 4


# ---------------------------------------------------------------------------
# the server, end to end on a unix socket
# ---------------------------------------------------------------------------


def _sock(tmp_path, name="serve.sock"):
    # AF_UNIX paths are length-limited; pytest tmp dirs stay well under it
    return str(tmp_path / name)


def test_server_cold_computed_then_warm_cache_hit(tmp_path):
    config = ServerConfig(
        socket_path=_sock(tmp_path),
        cache_dir=str(tmp_path / "cache"),
        journal_path=str(tmp_path / "journal.jsonl"),
        default_deadline_s=120.0,
    )
    with RunningServer(config) as server:
        with ServeClient(socket_path=config.socket_path) as client:
            assert client.hello["protocol"] == PROTOCOL
            cold = client.verify(design="daio", representation="word", bound=70)
            assert cold["status"] == Status.UNSAFE
            assert cold["source"] == "computed"
            assert cold["counterexample_steps"] >= 1
            warm = client.verify(design="daio", representation="word", bound=70)
            assert warm["status"] == Status.UNSAFE
            assert warm["source"] == "cache"
            assert warm["validated"] is True
            stats = client.stats()
            assert stats["counters"]["accepted"] == 2
            assert stats["counters"]["computations"] == 2  # one hit the cache
            client.drain()
    # drain compacted the journal: nothing open, nothing silently lost
    report = RequestJournal(config.journal_path).replay()
    assert report.open_requests == {}
    assert server.counters["answered"] == 2
    assert not os.path.exists(config.socket_path)


def test_server_coalesces_identical_concurrent_queries(tmp_path):
    config = ServerConfig(
        socket_path=_sock(tmp_path),
        cache_dir=str(tmp_path / "cache"),
        max_workers=2,
        default_deadline_s=120.0,
    )
    clients = 4
    barrier = threading.Barrier(clients)
    replies = [None] * clients

    def one(index):
        with ServeClient(socket_path=config.socket_path) as client:
            barrier.wait()
            replies[index] = client.verify(
                design="mac16", representation="bit", bound=96
            )

    with RunningServer(config) as server:
        threads = [threading.Thread(target=one, args=(i,)) for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert all(r is not None for r in replies)
        assert all(r["status"] == Status.SAFE for r in replies)
        server.request_shutdown()
    # identical in-flight queries shared computations: fewer runs than clients
    assert server.counters["computations"] < clients
    assert server.counters["coalesced"] >= 1
    assert (
        server.counters["computations"] + server.counters["coalesced"] == clients
    )


def test_server_disconnect_cancels_and_accounting_balances(tmp_path):
    config = ServerConfig(
        socket_path=_sock(tmp_path),
        max_workers=1,
        default_deadline_s=120.0,
    )
    with RunningServer(config) as server:
        abandoner = ServeClient(socket_path=config.socket_path)
        # bit-level daio to bound 96 needs seconds of k-induction, so the
        # query is still running when the server reads the client's EOF
        abandoner.submit(
            {"design": "daio", "representation": "bit", "bound": 96}
        )
        abandoner.close()  # walk away without reading the result
        with ServeClient(socket_path=config.socket_path) as client:
            reply = client.verify(design="proc3", representation="word")
            assert reply["status"] == Status.SAFE
            client.drain()
    counters = server.counters
    assert counters["cancelled"] == 1
    # every accept resolved: answered + cancelled covers all of them
    assert counters["accepted"] == counters["answered"] + counters["cancelled"]


def test_client_close_reaches_the_server_while_a_fork_holds_the_socket(tmp_path):
    """A process forked after connecting inherits the client's socket (as
    the server's own workers do when client and server share a process):
    closing the client must still end the connection, so its abandoned
    query is cancelled instead of computed to the end."""
    config = ServerConfig(
        socket_path=_sock(tmp_path),
        max_workers=1,
        default_deadline_s=120.0,
    )
    with RunningServer(config) as server:
        abandoner = ServeClient(socket_path=config.socket_path)
        abandoner.submit(
            {"design": "daio", "representation": "bit", "bound": 96}
        )
        child = os.fork()
        if child == 0:  # holds the inherited socket until killed
            time.sleep(60)
            os._exit(0)
        try:
            abandoner.close()
            with ServeClient(socket_path=config.socket_path) as client:
                reply = client.verify(design="proc3", representation="word")
                assert reply["status"] == Status.SAFE
                client.drain()
        finally:
            os.kill(child, 9)
            os.waitpid(child, 0)
    counters = server.counters
    assert counters["cancelled"] == 1
    assert counters["accepted"] == counters["answered"] + counters["cancelled"]


def test_server_recovery_nacks_journaled_orphans(tmp_path):
    journal_path = str(tmp_path / "journal.jsonl")
    # a previous incarnation accepted two requests and died before answering
    dead = RequestJournal(journal_path)
    dead.accept("orphan-1", {"design": "daio", "bound": 64})
    dead.accept("orphan-2", {"design": "rcu"})
    dead.finish("orphan-2", journal_mod.ANSWERED, status="safe")
    dead.close()

    config = ServerConfig(
        socket_path=_sock(tmp_path),
        journal_path=journal_path,
        recover="nack",
    )
    with RunningServer(config) as server:
        with ServeClient(socket_path=config.socket_path) as client:
            stats = client.stats()
            assert stats["counters"]["recovered_nacked"] == 1
            assert stats["recovery"]["open"] == ["orphan-1"]
            client.drain()
    report = RequestJournal(journal_path).replay()
    assert report.open_requests == {}
    assert server.counters["recovered_nacked"] == 1


def _wait_for(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _store_proc3(cache_dir, document_text):
    """Store the fixture's validated proc3 verdict under its query's key."""
    system = load_system("proc3")
    key = cache_key(system, system.properties[0].name, "word")
    return CertificateStore(cache_dir).save(_clone_entry(document_text, key))


def test_warm_hit_is_answered_under_full_load(tmp_path):
    """A hit is answered at admission: with the only computation slot and
    the whole queue held by slow cold queries it still gets a validated
    cache answer, not ``rejected: overloaded``."""
    config = ServerConfig(
        socket_path=_sock(tmp_path),
        cache_dir=str(tmp_path / "cache"),
        max_workers=1,
        max_queue=1,
        default_deadline_s=120.0,
    )
    with RunningServer(config) as server:
        with ServeClient(socket_path=config.socket_path) as client:
            cold = client.verify(design="proc3", representation="word")
            assert cold["source"] == "computed"
            slow = ServeClient(socket_path=config.socket_path)
            # bit-level daio to bound 96 needs seconds of k-induction: it
            # holds the slot, the dispatcher holds the next query while it
            # waits for the slot, and the third fills the queue
            slow.submit({"design": "daio", "representation": "bit", "bound": 96})
            _wait_for(lambda: server.active == 1)
            for design in ("tlc", "mac16"):
                slow.submit({"design": design, "representation": "bit", "bound": 96})
            _wait_for(lambda: len(server.queue) == 1)
            warm = client.verify(design="proc3", representation="word")
            assert warm["source"] == "cache"
            assert warm["validated"] is True
            assert len(server.queue) == 1 and server.active == 1
            slow.close()
            client.drain()
    counters = server.counters
    assert counters["rejected_overloaded"] == 0
    assert counters["accepted"] == counters["answered"] + counters["cancelled"]


def test_warm_hits_are_answered_on_the_loop(tmp_path, monkeypatch):
    """A hit makes no executor hop and journals its accept and its close:
    two records per hit, none left open."""
    config = _journaled_config(tmp_path)
    hops = []
    to_thread = asyncio.to_thread

    async def counting_to_thread(func, *args, **kwargs):
        hops.append(func)
        return await to_thread(func, *args, **kwargs)

    hits = 5
    with RunningServer(config) as server:
        with ServeClient(socket_path=config.socket_path, reconnect=False) as client:
            cold = client.verify(design="proc3", representation="word")
            assert cold["source"] == "computed"
            appends = server.journal.appends
            monkeypatch.setattr(server_mod.asyncio, "to_thread", counting_to_thread)
            replies = [
                client.verify(design="proc3", representation="word")
                for _ in range(hits)
            ]
            assert hops == []
            assert all(reply["source"] == "cache" for reply in replies)
            assert all(reply["validated"] is True for reply in replies)
            assert server.journal.appends == appends + 2 * hits
            report = RequestJournal(config.journal_path).replay()
            assert report.open_requests == {}
            assert report.closed == 1 + hits
            client.drain()


def test_a_slow_revalidation_does_not_stall_other_clients(tmp_path):
    """A hit is re-validated on the event loop, so admission caps its time.
    buffalloc's property is 16-inductive with no strengthening, a valid
    certificate that takes seconds to re-check cold: its look-up runs out
    of time and is a plain miss, computed off the loop while another
    client's ping is answered, and the computation's store replaces the
    slow entry, so the next request is a validated hit."""
    cache_dir = str(tmp_path / "cache")
    system = load_system("buffalloc")
    CertificateStore(cache_dir).save(
        CacheEntry(
            key=cache_key(system, "conservation", "word"),
            status=Status.SAFE,
            property_name="conservation",
            engine="k-induction",
            representation="word",
            certificate=KInductiveCertificate("conservation", "k-induction", 16),
            design="buffalloc",
        )
    )
    config = ServerConfig(socket_path=_sock(tmp_path), cache_dir=cache_dir)
    replies = []
    with RunningServer(config):
        with ServeClient(socket_path=config.socket_path, reconnect=False) as pinger, \
                ServeClient(socket_path=config.socket_path, reconnect=False) as client:
            first = threading.Thread(
                target=lambda: replies.append(client.verify(design="buffalloc"))
            )
            first.start()
            time.sleep(0.1)  # the first request is inside its look-up
            start = time.monotonic()
            assert pinger.ping()["op"] == "pong"
            assert time.monotonic() - start < 0.5
            first.join(timeout=60.0)
            assert not first.is_alive()
            assert replies[0]["status"] == Status.SAFE
            assert replies[0]["source"] == "computed"
            second = client.verify(design="buffalloc")
            assert second["source"] == "cache"
            assert second["validated"] is True
            client.drain()


def test_tampered_entry_is_demoted_at_admission_and_computed_once(
    tmp_path, proc3_entry_json
):
    cache_dir = str(tmp_path / "cache")
    path = _store_proc3(cache_dir, proc3_entry_json)
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    document["status"] = Status.UNSAFE  # an invariant cannot justify it
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)

    config = ServerConfig(socket_path=_sock(tmp_path), cache_dir=cache_dir)
    with RunningServer(config) as server:
        with ServeClient(socket_path=config.socket_path) as client:
            reply = client.verify(design="proc3", representation="word")
            assert reply["status"] == Status.SAFE
            assert reply["source"] == "computed"
            cache = client.stats()["cache"]
            client.drain()
    # one lookup per request: admission demoted the entry, the computation
    # did not look the query up a second time
    assert cache["demotions"] == 1 and cache["misses"] == 1
    assert cache["hits"] == 0 and cache["stores"] == 1
    assert server.counters["computations"] == 1


def test_requeued_recovery_consults_the_cache(tmp_path, proc3_entry_json):
    cache_dir = str(tmp_path / "cache")
    _store_proc3(cache_dir, proc3_entry_json)
    journal_path = str(tmp_path / "journal.jsonl")
    dead = RequestJournal(journal_path)
    dead.accept("orphan", {"design": "proc3"})
    dead.close()

    config = ServerConfig(
        socket_path=_sock(tmp_path),
        cache_dir=cache_dir,
        journal_path=journal_path,
        recover="requeue",
    )
    with RunningServer(config) as server:
        with ServeClient(socket_path=config.socket_path) as client:
            client.drain()  # a drain answers the requeued recovery first
    assert server.counters["recovered_requeued"] == 1
    assert server.counters["answered"] == 1
    assert server.cache.hits == 1 and server.cache.misses == 0
    assert server.cache.stores == 0


def test_server_rejects_unknown_design_without_dying(tmp_path):
    config = ServerConfig(socket_path=_sock(tmp_path))
    with RunningServer(config) as server:
        with ServeClient(socket_path=config.socket_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.verify(design="no-such-design")
            assert "bad request" in str(excinfo.value)
            # the connection (and server) survive the bad request
            assert client.ping()["op"] == "pong"
            client.drain()
    assert server.counters["bad_requests"] == 1


def _journaled_config(tmp_path, **overrides):
    options = dict(
        socket_path=_sock(tmp_path),
        cache_dir=str(tmp_path / "cache"),
        journal_path=str(tmp_path / "journal.jsonl"),
        default_deadline_s=120.0,
    )
    options.update(overrides)
    return ServerConfig(**options)


def test_status_op(tmp_path):
    config = _journaled_config(tmp_path)
    with RunningServer(config):
        with ServeClient(
            socket_path=config.socket_path, reconnect=False
        ) as client:
            client.verify(design="daio", bound=70)
            status = client.status()
            assert status["server_id"] == config.socket_path
            assert status["counters"]["answered"] == 1
            assert status["uptime_s"] > 0


def test_status_cli_counts_recorded_spans(tmp_path, capsys):
    """``repro-serve --status`` reports the span count the server recorded."""
    config = ServerConfig(socket_path=_sock(tmp_path))
    with telemetry.recording() as recorder:
        with RunningServer(config):
            with ServeClient(
                socket_path=config.socket_path, reconnect=False
            ) as client:
                client.verify(design="daio", bound=70)
            spans = recorder.snapshot()["spans"]
            assert serve_cli.main(["--status", config.socket_path]) == 0
    assert spans > 0
    line = next(
        line for line in capsys.readouterr().out.splitlines()
        if "telemetry:" in line
    )
    assert int(line.split()[1]) >= spans


# ---------------------------------------------------------------------------
# client failover: reconnect with resubmit
# ---------------------------------------------------------------------------


def test_client_reconnects_and_resubmits_across_server_restart(tmp_path):
    config = _journaled_config(tmp_path)
    running = RunningServer(config)
    running.__enter__()
    second = RunningServer(config)
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
    config = _journaled_config(tmp_path, progress_interval_s=0.2)
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
    config = _journaled_config(tmp_path, progress_timeout_s=1.0)
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
# the certificate store under concurrent multi-process mutation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def proc3_entry_json():
    """One real validated certificate, serialized, to clone under many keys."""
    system = load_system("proc3")
    result = make_engine("pdr", system).verify(timeout=90)
    assert result.status == Status.SAFE and result.certificate is not None
    entry = CacheEntry(
        key="seed",
        status=result.status,
        property_name=result.property_name,
        engine="pdr",
        representation="word",
        certificate=result.certificate,
        design="proc3",
    )
    return json.dumps(entry.to_json())


def _clone_entry(document_text, key):
    entry = CacheEntry.from_json(json.loads(document_text))
    entry.key = key
    return entry


def _hammer_store(root, document_text, prefix, rounds):
    """Child-process body: interleaved saves, loads, and quarantines."""
    store = CertificateStore(root, max_entries=16)
    for index in range(rounds):
        key = f"{prefix}{index:03d}"
        store.save(_clone_entry(document_text, key))
        store.load(key)  # touches the LRU clock; may race an eviction
        if index % 5 == 4:
            store.quarantine(f"{prefix}{index - 2:03d}", reason="hammer")
    os._exit(0)


def test_store_survives_concurrent_multiprocess_mutation(tmp_path, proc3_entry_json):
    root = str(tmp_path / "store")
    context = multiprocessing.get_context("fork")
    workers = [
        context.Process(
            target=_hammer_store, args=(root, proc3_entry_json, prefix, 24)
        )
        for prefix in ("aa", "bb")
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120.0)
        assert worker.exitcode == 0

    store = CertificateStore(root, max_entries=16)
    # the cap held under the inter-process lock: the last save enforced it
    assert len(store) <= 16
    # every surviving entry decodes and answers for its own key
    for key in store.keys():
        entry, reason = store.load_strict(key)
        assert reason == "ok" and entry.key == key
    # atomic writes leaked no temp files
    strays = [
        name
        for _dir, _subdirs, names in os.walk(root)
        for name in names
        if name.endswith(".tmp")
    ]
    assert strays == []


def test_store_lock_is_reentrant_within_a_thread(tmp_path):
    lock = StoreLock(str(tmp_path))
    with lock:
        with lock:  # save -> evict nests exactly like this
            pass
    # fully released: a fresh acquisition from another thread succeeds fast
    acquired = threading.Event()

    def other():
        with StoreLock(str(tmp_path)):
            acquired.set()

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=10.0)
    assert acquired.is_set()


def test_lru_eviction_respects_recency_under_cap(tmp_path, proc3_entry_json):
    store = CertificateStore(str(tmp_path / "store"), max_entries=3)
    for index in range(3):
        store.save(_clone_entry(proc3_entry_json, f"k{index}"))
        time.sleep(0.02)  # distinct mtimes: the LRU clock is mtime-based
    store.load("k0")  # touch the oldest — now k1 is the eviction victim
    time.sleep(0.02)
    store.save(_clone_entry(proc3_entry_json, "k3"))
    assert len(store) == 3
    assert "k0" in store and "k3" in store and "k1" not in store
