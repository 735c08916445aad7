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

from repro.cache import cache_key
from repro.cache.store import CacheEntry, CertificateStore, StoreLock
from repro.benchmarks import load_system
from repro.engines import Status, make_engine
from repro.serve import (
    AdaptiveThrottle,
    BoundedPriorityQueue,
    PROTOCOL,
    ProtocolError,
    RequestJournal,
    ServeClient,
    ServeError,
    ServerConfig,
    VerifyServer,
)
from repro.serve import journal as journal_mod
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    encode_frame,
    read_frame_blocking,
    write_frame_blocking,
)
from repro.serve.queues import QueueClosed, priority_value


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


class _RunningServer:
    """A VerifyServer running its asyncio loop in a daemon thread."""

    def __init__(self, config):
        self.server = VerifyServer(config)
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.server.serve_forever()), daemon=True
        )

    def __enter__(self):
        self.thread.start()
        deadline = time.monotonic() + 30.0
        while not os.path.exists(self.server.config.socket_path):
            if time.monotonic() > deadline:
                raise RuntimeError("server never opened its socket")
            time.sleep(0.02)
        return self.server

    def __exit__(self, *exc_info):
        self.server.request_shutdown()
        self.thread.join(timeout=60.0)
        return False

    def join(self):
        self.thread.join(timeout=60.0)
        assert not self.thread.is_alive()


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
    with _RunningServer(config) as server:
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

    with _RunningServer(config) as server:
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
    with _RunningServer(config) as server:
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
    with _RunningServer(config) as server:
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
    with _RunningServer(config) as server:
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
    with _RunningServer(config) as server:
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
    with _RunningServer(config) as server:
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
    with _RunningServer(config) as server:
        with ServeClient(socket_path=config.socket_path) as client:
            client.drain()  # a drain answers the requeued recovery first
    assert server.counters["recovered_requeued"] == 1
    assert server.counters["answered"] == 1
    assert server.cache.hits == 1 and server.cache.misses == 0
    assert server.cache.stores == 0


def test_server_rejects_unknown_design_without_dying(tmp_path):
    config = ServerConfig(socket_path=_sock(tmp_path))
    with _RunningServer(config) as server:
        with ServeClient(socket_path=config.socket_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.verify(design="no-such-design")
            assert "bad request" in str(excinfo.value)
            # the connection (and server) survive the bad request
            assert client.ping()["op"] == "pong"
            client.drain()
    assert server.counters["bad_requests"] == 1


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
