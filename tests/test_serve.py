"""The verify server: protocol, journal, admission, CLI checks, end to end.

The serving contract under test is *no silent loss*: every request the
server accepts is answered, cancelled when its client leaves, or journaled
for a restart to NACK.  The unit tests cover each mechanism in isolation
(framing, journal replay through torn tails, the ``repro-serve`` and
``repro-cache`` argument checks); the end-to-end tests run a real
:class:`VerifyServer` on a unix socket, with real supervised verifications
behind it or, for admission, a computation that waits for the test.
"""

import argparse
import io
import json
import multiprocessing
import os
import socket
import threading
import time

import asyncio

import pytest
from serve_harness import RunningServer

from repro.cache import cache_key
from repro.cache.store import CacheEntry, CertificateStore, StoreLock
from repro.benchmarks import load_system
from repro.certs import KInductiveCertificate
from repro.engines import Status, VerificationResult, make_engine
from repro.faults.injection import plan_installed
from repro.faults.plan import CERT_FORGE, HANG_HARD, FaultPlan
from repro.obs import telemetry
from repro.serve import (
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
    MAX_LENGTH_LINE,
    FrameReader,
    encode_frame,
    parse_addr,
    read_frame_blocking,
    write_frame_blocking,
)
from repro.tools import cache_cli, serve_cli
from test_serve_soak import SERVER_RATES


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


class _Chunks(io.RawIOBase):
    """A raw stream that hands out its chunks one read at a time."""

    def __init__(self, chunks):
        self._chunks = [chunk for chunk in chunks if chunk]

    def readable(self):
        return True

    def readinto(self, buffer):
        if not self._chunks:
            return 0
        chunk = self._chunks.pop(0)
        size = min(len(buffer), len(chunk))
        buffer[:size] = chunk[:size]
        if size < len(chunk):
            self._chunks.insert(0, chunk[size:])
        return size


def _read_blocking(chunks):
    """Every document of ``chunks`` through the client's blocking reader,
    which reads them as one socket file up to its clean EOF."""
    stream = io.BufferedReader(_Chunks(chunks))
    documents = []
    while (document := read_frame_blocking(stream)) is not None:
        documents.append(document)
    return documents


def _read_incremental(chunks):
    """Every document of ``chunks`` through the server's reader, fed each
    chunk as it arrives."""
    reader = FrameReader()
    documents = []
    for chunk in chunks:
        reader.feed(chunk)
        documents.extend(reader)
    return documents


#: the two readers of the wire protocol, which must agree on every input
READERS = {"blocking": _read_blocking, "incremental": _read_incremental}

#: inputs neither reader may take for frames: garbage, an out-of-range
#: length, a length line past its bound and a payload that is not JSON
GARBAGE = (
    b"not-a-length\n{}\n",
    b"%d\n" % (MAX_FRAME_BYTES + 1),
    b"1" * 100,
    b"0" * (MAX_LENGTH_LINE - 1) + b"2\n{}\n",
    b"-1\n",
    b"3\nabc\n",
    encode_frame({"op": "ping"}) + b"3\nabc\n",
)


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
    wire = stream.getvalue()
    for name, read in READERS.items():
        # the frames sent together, split at every byte offset, and one
        # byte at a time read alike
        assert read([wire]) == docs, name
        for offset in range(len(wire) + 1):
            assert read([wire[:offset], wire[offset:]]) == docs, (name, offset)
        assert read([wire[i:i + 1] for i in range(len(wire))]) == docs, name
        assert read([]) == [], name
        # a length line of exactly the bound, newline included, is a frame
        longest = b"0" * (MAX_LENGTH_LINE - 2) + b"2\n{}\n"
        assert read([longest]) == [{}], name


def test_frame_rejects_garbage_and_oversize():
    with pytest.raises(ProtocolError):
        read_frame_blocking(io.BytesIO(b"not-a-length\n{}\n"))
    with pytest.raises(ProtocolError):
        read_frame_blocking(io.BytesIO(b"%d\n" % (MAX_FRAME_BYTES + 1)))
    # a frame whose payload is truncated mid-line is a protocol error too
    frame = encode_frame({"op": "ping"})
    with pytest.raises(ProtocolError):
        read_frame_blocking(io.BytesIO(frame[:-4]))
    for name, read in READERS.items():
        for garbage in GARBAGE:
            with pytest.raises(ProtocolError):
                read([garbage])
                pytest.fail(f"{name} reader took {garbage!r}")
    # to the incremental reader a truncated frame is one still arriving:
    # no document and no error, until the rest of it comes
    reader = FrameReader()
    reader.feed(frame[:-4])
    assert list(reader) == []
    reader.feed(frame[-4:])
    assert list(reader) == [{"op": "ping"}]


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
# command-line argument checks
# ---------------------------------------------------------------------------


def test_chaos_rates_accept_only_known_kinds_and_rates_in_range():
    """A misspelled or retired kind would be installed and never fire, and
    a rate that is no number used to end in a traceback."""
    assert serve_cli._parse_rates(SERVER_RATES) == {
        "crash": 0.25, "slow-start": 0.3, "worker-kill": 0.25,
        "cert-forge": 0.25, "journal-torn": 0.2,
    }
    assert serve_cli._parse_rates("hang=0,spawn-fail=1") == {
        "hang": 0.0, "spawn-fail": 1.0,
    }
    for spec in ("crsh=0.5", "queue-flood=1", "crash=0.1,", "worker-kill=x",
                 "crash", "crash=1.5", "crash=-0.1", "crash=nan"):
        with pytest.raises(argparse.ArgumentTypeError):
            serve_cli._parse_rates(spec)


@pytest.mark.parametrize("argv", [
    ["--workers", "0"],
    ["--workers", "2:x"],
    ["--max-queue", "0"],
])
def test_serve_cli_bad_sizes_are_usage_errors_before_binding(tmp_path, capsys, argv):
    sock = _sock(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        serve_cli.main(["--socket", sock, *argv])
    assert excinfo.value.code == 2
    assert argv[-2] in capsys.readouterr().err
    assert not os.path.exists(sock)


def test_serve_cli_tcp_spec_without_host_listens_on_localhost(monkeypatch):
    """``--tcp 7411`` names no host: it means 127.0.0.1, as it does for
    clients (``parse_addr``), and no socket is bound here."""
    configs = []

    class _Server:
        def __init__(self, config):
            server_mod.VerifyServer(config)  # the real checks accept it
            configs.append(config)

        async def serve_forever(self):
            pass

    monkeypatch.setattr(serve_cli, "VerifyServer", _Server)
    assert serve_cli.main(["--tcp", "7411"]) == 0
    assert (configs[0].host, configs[0].port) == ("127.0.0.1", 7411)
    assert parse_addr(":7411")[1:] == ("127.0.0.1", 7411)


def test_cache_evict_refuses_negative_caps(tmp_path, proc3_entry_json, capsys):
    root = str(tmp_path / "cache")
    store = CertificateStore(root)
    for key in ("k0", "k1"):
        store.save(_clone_entry(proc3_entry_json, key))
    for flag in ("--max-entries", "--max-bytes"):
        assert cache_cli.main(["--cache-dir", root, "evict", flag, "-1"]) == 2
        assert "0 or more" in capsys.readouterr().out
        assert len(CertificateStore(root)) == 2
    # a cap of 0 still means "evict everything"
    assert cache_cli.main(["--cache-dir", root, "evict", "--max-entries", "0"]) == 0
    assert len(CertificateStore(root)) == 0


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
            # the cache store validated the witness (no --certify needed)
            assert cold["validated"] is True
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


def test_computed_reply_says_the_store_refused_a_forged_certificate(tmp_path):
    """Every engine's answer is forged, and with no ``--certify`` the forged
    verdict is the reply; the cache store refuses its certificate, and the
    reply says so."""
    config = ServerConfig(socket_path=_sock(tmp_path), cache_dir=str(tmp_path / "cache"))
    with plan_installed(FaultPlan(seed=0, rates={CERT_FORGE: 1.0})):
        with RunningServer(config):
            with ServeClient(socket_path=config.socket_path, reconnect=False) as client:
                reply = client.verify(design="daio", bound=70)
                assert reply["source"] == "computed"
                assert reply["validated"] is False
                assert client.stats()["cache"]["stores"] == 0
                client.drain()


def test_verify_cli_server_mode_end_to_end(tmp_path, capsys):
    """``repro-verify --server`` against a live server with a cache: two
    pipelined targets are computed and validated, a second run is answered
    from the cache, a WRONG verdict exits 2 and a rejected request exits 1."""
    from repro.tools.verify_cli import main

    config = ServerConfig(socket_path=_sock(tmp_path), cache_dir=str(tmp_path / "cache"))
    argv = ["daio", "proc3", "--server", config.socket_path, "--timeout", "60"]

    def rows():
        out = capsys.readouterr().out
        return [line for line in out.splitlines() if line.startswith(("daio ", "proc3 "))]

    with RunningServer(config):
        assert main(argv) == 0
        cold = rows()
        assert len(cold) == 2 and all(r.endswith("computed validated") for r in cold)
        assert main(argv) == 0
        warm = rows()
        assert len(warm) == 2 and all(r.endswith("cache validated") for r in warm)
        assert main(["daio", "--server", config.socket_path, "--expected", "safe"]) == 2
        assert "wrong" in rows()[0]
        assert main(["daio", "--server", config.socket_path, "--property", "nope"]) == 1
        assert "rejected" in capsys.readouterr().out


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

    config = ServerConfig(socket_path=_sock(tmp_path), journal_path=journal_path)
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


# ---------------------------------------------------------------------------
# admission: the line of misses waiting for a computation slot
# ---------------------------------------------------------------------------


def _gated_computations(monkeypatch):
    """Make every computation wait for ``release`` and answer a fixed SAFE,
    so admission is tested apart from how fast any engine is.  Returns the
    list of designs in the order their computations started, and
    ``release``."""
    started = []
    release = threading.Event()

    def compute(self, work, timeout):
        started.append(work.task.name)
        assert release.wait(timeout=60.0)
        return (
            VerificationResult(Status.SAFE, "fixed", work.property_name),
            "computed",
            None,
        )

    monkeypatch.setattr(server_mod.VerifyServer, "_compute", compute)
    return started, release


def test_max_queue_is_the_exact_number_of_waiting_misses(tmp_path, monkeypatch):
    """With the only slot busy and ``max_queue`` misses waiting, the next
    miss is ``rejected: overloaded``: nothing holds a miss outside the line."""
    started, release = _gated_computations(monkeypatch)
    config = ServerConfig(socket_path=_sock(tmp_path), max_workers=1, max_queue=1)
    with RunningServer(config) as server:
        with ServeClient(socket_path=config.socket_path, reconnect=False) as client:
            running = client.submit({"design": "daio"})["id"]
            _wait_for(lambda: started == ["daio"])
            waiting = client.submit({"design": "tlc"})["id"]
            with pytest.raises(ServeError) as excinfo:
                client.submit({"design": "mac16"})
            assert excinfo.value.reply["reason"] == "overloaded"
            stats = client.stats()
            assert stats["queue_depth"] == 1 and stats["active"] == 1
            release.set()
            for request_id in (running, waiting):
                assert client.result(request_id)["status"] == Status.SAFE
            client.drain()
    assert started == ["daio", "tlc"]
    assert server.counters["rejected_overloaded"] == 1


def test_queued_misses_start_in_arrival_order(tmp_path, monkeypatch):
    started, release = _gated_computations(monkeypatch)
    config = ServerConfig(socket_path=_sock(tmp_path), max_workers=1, max_queue=4)
    designs = ["daio", "tlc", "mac16", "rcu", "proc3"]
    with RunningServer(config):
        with ServeClient(socket_path=config.socket_path, reconnect=False) as client:
            ids = [client.submit({"design": designs[0]})["id"]]
            _wait_for(lambda: started == designs[:1])
            ids += [client.submit({"design": design})["id"] for design in designs[1:]]
            assert client.stats()["queue_depth"] == len(designs) - 1
            release.set()
            for request_id in ids:
                assert client.result(request_id)["status"] == Status.SAFE
            client.drain()
    assert started == designs


def test_a_queued_miss_leaves_the_line_with_its_last_client(tmp_path, monkeypatch):
    """A queued miss whose only client disconnects leaves the line at once
    and never computes."""
    started, release = _gated_computations(monkeypatch)
    config = ServerConfig(socket_path=_sock(tmp_path), max_workers=1, max_queue=2)
    with RunningServer(config) as server:
        with ServeClient(socket_path=config.socket_path, reconnect=False) as client:
            running = client.submit({"design": "daio"})["id"]
            _wait_for(lambda: started == ["daio"])
            leaver = ServeClient(socket_path=config.socket_path, reconnect=False)
            leaver.submit({"design": "tlc"})
            assert client.stats()["queue_depth"] == 1
            leaver.close()
            _wait_for(lambda: client.stats()["queue_depth"] == 0)
            assert client.stats()["counters"]["cancelled"] == 1
            release.set()
            assert client.result(running)["status"] == Status.SAFE
            client.drain()
    assert started == ["daio"]
    counters = server.counters
    assert counters["accepted"] == counters["answered"] + counters["cancelled"]


def test_a_new_client_does_not_inherit_an_aborted_computation(tmp_path, monkeypatch):
    """A running computation whose only client left has its abort set; a
    later client with the same query is not coalesced onto it but queued
    as a fresh computation, and gets that computation's verdict instead of
    the aborted run's ``unknown``."""
    started = []
    release = threading.Event()

    def compute(self, work, timeout):
        started.append(work.task.name)
        if len(started) == 1:
            assert work.abort.wait(timeout=60.0)
            assert release.wait(timeout=60.0)
            return (
                VerificationResult(
                    Status.UNKNOWN, "fixed", work.property_name,
                    reason="aborted by caller",
                ),
                "computed",
                None,
            )
        return (
            VerificationResult(Status.SAFE, "fixed", work.property_name),
            "computed",
            None,
        )

    monkeypatch.setattr(server_mod.VerifyServer, "_compute", compute)
    config = ServerConfig(socket_path=_sock(tmp_path), max_workers=1)
    with RunningServer(config) as server:
        leaver = ServeClient(socket_path=config.socket_path, reconnect=False)
        leaver.submit({"design": "daio"})
        _wait_for(lambda: started == ["daio"])
        leaver.close()
        with ServeClient(socket_path=config.socket_path, reconnect=False) as client:
            _wait_for(lambda: client.stats()["counters"]["cancelled"] == 1)
            accepted = client.submit({"design": "daio"})
            release.set()
            reply = client.result(accepted["id"])
            client.drain()
    assert accepted["coalesced"] is False
    assert reply["status"] == Status.SAFE and reply["engine"] == "fixed"
    assert started == ["daio", "daio"]
    counters = server.counters
    assert counters["accepted"] == counters["answered"] + counters["cancelled"]


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
            # holds the slot, and the next query fills the line
            slow.submit({"design": "daio", "representation": "bit", "bound": 96})
            _wait_for(lambda: server.active == 1)
            slow.submit({"design": "tlc", "representation": "bit", "bound": 96})
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


def _raw_connection(config):
    """A bare socket to the server and its read side, past the hello."""
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(30.0)
    raw.connect(config.socket_path)
    stream = raw.makefile("rb")
    assert read_frame_blocking(stream)["op"] == "hello"
    return raw, stream


def test_an_overlong_length_line_is_refused_at_its_bound(tmp_path, proc3_entry_json):
    """A length line longer than MAX_LENGTH_LINE gets an ``ok: false`` frame
    and its connection closed as soon as the bound is passed, while another
    client's hit is answered."""
    config = ServerConfig(socket_path=_sock(tmp_path), cache_dir=str(tmp_path / "cache"))
    _store_proc3(config.cache_dir, proc3_entry_json)
    with RunningServer(config):
        with ServeClient(socket_path=config.socket_path, reconnect=False) as client:
            raw, stream = _raw_connection(config)
            with raw, stream:
                raw.sendall(b"1" * 100)
                warm = client.verify(design="proc3", representation="word")
                assert warm["source"] == "cache" and warm["validated"] is True
                refusal = read_frame_blocking(stream)
                assert refusal["ok"] is False
                assert "length prefix" in refusal["error"]
                assert read_frame_blocking(stream) is None  # closed by the server
            client.drain()


def test_a_client_that_reads_no_replies_stops_being_read(tmp_path, monkeypatch):
    """Backpressure: a client pipelines 5,000 pings without reading.  Once
    its unread pongs pass the transport's high-water mark the server stops
    reading that connection, another client is answered meanwhile, and the
    first then reads every reply in order."""
    pauses = []
    pause_writing = server_mod._Connection.pause_writing

    def counting_pause(conn):
        pauses.append(conn)
        pause_writing(conn)

    monkeypatch.setattr(server_mod._Connection, "pause_writing", counting_pause)
    config = ServerConfig(socket_path=_sock(tmp_path))
    with RunningServer(config):
        raw, stream = _raw_connection(config)
        with raw, stream:
            requests = encode_frame({"op": "ping"}) * 5000 + encode_frame({"op": "stats"})
            # the send blocks while the server leaves the client unread
            sender = threading.Thread(target=raw.sendall, args=(requests,))
            sender.start()
            _wait_for(lambda: pauses)
            with ServeClient(socket_path=config.socket_path, reconnect=False) as other:
                assert other.ping()["op"] == "pong"
            replies = [read_frame_blocking(stream)["op"] for _ in range(5001)]
            sender.join(timeout=30.0)
            assert not sender.is_alive()
            assert replies == ["pong"] * 5000 + ["stats"]
            raw.sendall(encode_frame({"op": "drain"}))
            assert read_frame_blocking(stream)["op"] == "draining"


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
    """``stats`` carries what ``repro-serve --status`` prints; the
    ``telemetry`` block is there only while a recorder records."""
    config = _journaled_config(tmp_path)
    with RunningServer(config):
        with ServeClient(
            socket_path=config.socket_path, reconnect=False
        ) as client:
            client.verify(design="daio", bound=70)
            stats = client.stats()
            assert stats["server_id"] == config.socket_path
            assert stats["counters"]["answered"] == 1
            assert stats["uptime_s"] > 0
            assert "telemetry" not in stats


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
# streamed progress and the attempt deadline
# ---------------------------------------------------------------------------


def test_progress_frames_stream_to_waiting_clients(tmp_path):
    config = _journaled_config(tmp_path)
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


def test_wedged_request_killed_at_its_attempt_deadline(tmp_path):
    """A wedged attempt is killed at its attempt deadline and retried clean."""
    config = _journaled_config(tmp_path, attempt_timeout_s=3.0)
    # hang-hard wedges the first attempt's SAT search unconditionally (on
    # buffalloc k-induction's search reaches the wedge's checkpoint; rsim
    # answers daio with no search); the only thing that can end it is the
    # supervisor's kill at the attempt deadline, 3 s plus its grace
    plan = FaultPlan(seed=3, rates={HANG_HARD: 1.0})
    with plan_installed(plan):
        with RunningServer(config) as server:
            with ServeClient(
                socket_path=config.socket_path, reconnect=False, timeout=120.0
            ) as client:
                reply = client.verify(design="buffalloc", bound=70, deadline_s=90.0)
                # the retried attempt ran clean and still answered correctly
                assert reply["status"] == Status.SAFE
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
