"""A chaos soak of a live ``repro-serve`` process, killed and restarted.

Three server incarnations run as subprocesses, each in its own session, so
its process group is the leak oracle: after a drain or a kill, every
process the server ever forked must be gone.

* Run A installs a seeded chaos plan in the server (engine faults retried
  under supervision, plus torn journal appends) and drives it through
  coalescing, a warm-hit latency sample, an over-capacity flood, seeded
  client hang-ups and a too-tight deadline, then drains it.
* Run B accepts slow requests and is SIGKILLed mid-flight, leaving open
  journal entries.
* Run C restarts on that journal and must NACK every one of them.

No reply in any run may be WRONG against the suite's ground truth.
"""

import contextlib
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

from serve_harness import wait_until_listening

from repro.benchmarks import benchmark_names, get_benchmark
from repro.engines import Status
from repro.faults.plan import FaultPlan
from repro.obs.export import lint_trace, load_trace
from repro.serve import RequestJournal, ServeClient, ServeError

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

SEED = 7
TIMEOUT_S = 60.0
#: chaos rates installed in run A's server: engine-site faults that
#: supervision retries, plus torn journal appends
SERVER_RATES = (
    "crash=0.25,slow-start=0.3,worker-kill=0.25,cert-forge=0.25,"
    "journal-torn=0.2"
)
COALESCE_DESIGN = "mac16"
COALESCE_CLIENTS = 8
DISCONNECT_DESIGNS = ["proc3", "rcu", "fifo", "iqueue", "arbiter", "barrel16"]


@contextlib.contextmanager
def _server(*args):
    """Run ``repro-serve *args`` in a new session; kill its group on exit.

    The kill only matters when a gate failed before the server was drained
    or killed on purpose; by then the group is normally gone already.
    """
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.tools.serve_cli", *args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
        env={**os.environ, "PYTHONPATH": _SRC},
    )
    try:
        yield server
    finally:
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(server.pid, signal.SIGKILL)
        server.wait(timeout=30)


def _wait_ready(server, sock):
    """Return once the server listens; fail at once if it has exited."""

    def check_alive():
        assert server.poll() is None, (
            f"the server exited with code {server.returncode} before it listened"
        )

    wait_until_listening(sock, check_alive)


def _group_gone(pgid, grace_s=20.0):
    """True when no process of the group survives within the grace."""
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        except PermissionError:  # pragma: no cover - zombie group
            pass
        time.sleep(0.1)
    return False


def _assert_not_wrong(design, reply, phase):
    status = str(reply.get("status", Status.ERROR))
    expected = get_benchmark(design).expected
    assert status not in Status.DEFINITIVE or status == expected, (
        f"{phase}: {design} answered {status}, expected {expected}"
    )


def _lint(path):
    assert lint_trace(load_trace(path)) == [], path


def test_serve_soak(tmp_path):
    sock = str(tmp_path / "serve.sock")
    journal_a = str(tmp_path / "journal_a.jsonl")
    trace_a = str(tmp_path / "trace_a.jsonl")

    # ----- run A: chaos-seeded serving until a graceful drain ------------
    with _server(
        "--socket", sock, "--cache-dir", str(tmp_path / "cache"),
        "--journal", journal_a, "--trace", trace_a,
        "--max-queue", "4", "--workers", "1:2",
        "--target-latency", "5",
        "--default-deadline", str(TIMEOUT_S),
        "--attempt-timeout", str(TIMEOUT_S / 4.0),
        "--certify",
        "--chaos", str(SEED), "--chaos-rates", SERVER_RATES,
        "-q",
    ) as server:
        _wait_ready(server, sock)

        # coalescing: K concurrent identical cold queries, one computation
        barrier = threading.Barrier(COALESCE_CLIENTS)
        accepts, replies = [], []
        lock = threading.Lock()

        def coalesce_client():
            with ServeClient(socket_path=sock) as client:
                barrier.wait()
                accepted = client.submit(
                    {"design": COALESCE_DESIGN, "bound": 96, "deadline_s": TIMEOUT_S}
                )
                reply = client.result(accepted["id"])
                with lock:
                    accepts.append(accepted)
                    replies.append(reply)

        threads = [threading.Thread(target=coalesce_client) for _ in range(COALESCE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=3 * TIMEOUT_S)
        assert not any(thread.is_alive() for thread in threads)
        with ServeClient(socket_path=sock) as client:
            computations = client.stats()["counters"]["computations"]
        assert len(replies) == COALESCE_CLIENTS
        for reply in replies:
            _assert_not_wrong(COALESCE_DESIGN, reply, "coalesce")
        assert computations == 1
        assert sum(1 for accepted in accepts if accepted.get("coalesced")) == (
            COALESCE_CLIENTS - 1
        )

        # warm path: repeated hits served from the validated-certificate cache
        latencies, sources = [], []
        with ServeClient(socket_path=sock) as client:
            for _ in range(20):
                start = time.perf_counter()
                reply = client.verify(design=COALESCE_DESIGN, bound=96, deadline_s=TIMEOUT_S)
                latencies.append(time.perf_counter() - start)
                sources.append(reply.get("source"))
                _assert_not_wrong(COALESCE_DESIGN, reply, "warm")
        assert sources == ["cache"] * 20
        assert statistics.median(latencies) <= 2.0

        # flood: distinct keys past the queue cap draw explicit overloads
        accepted_ids, rejected = [], 0
        with ServeClient(socket_path=sock) as client:
            for representation in ("word", "bit"):
                for name in benchmark_names():
                    try:
                        accepted = client.submit(
                            {"design": name, "representation": representation,
                             "bound": 64, "deadline_s": min(20.0, TIMEOUT_S),
                             "priority": "bulk"}
                        )
                        accepted_ids.append((name, accepted["id"]))
                    except ServeError:
                        rejected += 1
            for name, request_id in accepted_ids:
                _assert_not_wrong(name, client.result(request_id), "flood")
        assert rejected >= 1
        assert len(accepted_ids) >= 1

        # seeded client hang-ups: vanish without reading the result
        hang_ups = FaultPlan(seed=SEED, rates={"client-disconnect": 0.5})
        for name in DISCONNECT_DESIGNS:
            with ServeClient(socket_path=sock) as client:
                try:
                    accepted = client.submit(
                        {"design": name, "bound": 64, "deadline_s": min(30.0, TIMEOUT_S)}
                    )
                except ServeError:
                    continue
                if not hang_ups.decide("client-disconnect", name):
                    _assert_not_wrong(name, client.result(accepted["id"]), "disconnect")

        # deadline: a too-tight budget comes back on time and not WRONG
        start = time.perf_counter()
        with ServeClient(socket_path=sock) as client:
            reply = client.verify(
                design="huffman_dec", representation="bit", bound=128, deadline_s=0.2
            )
        assert time.perf_counter() - start <= 0.2 + 15.0
        _assert_not_wrong("huffman_dec", reply, "deadline")

        # graceful drain: everything accepted was answered or cancelled
        with ServeClient(socket_path=sock) as client:
            final = client.stats()
            client.drain()
        counters = final["counters"]
        assert counters["accepted"] == counters["answered"] + counters["cancelled"]
        assert server.wait(timeout=3 * TIMEOUT_S) == 0
        assert _group_gone(server.pid)
        _lint(trace_a)
        # a tear eats the tail of the record just written and merges the
        # next append onto the same garbage line, so each tear can destroy
        # up to two records, and a destroyed close orphans its accept; a
        # restart would NACK it, which is the at-least-once contract
        tears = int(final.get("journal", {}).get("torn_injected", 0))
        assert len(RequestJournal(journal_a).replay().open_requests) <= 2 * tears

    # ----- run B: SIGKILL mid-flight leaves the journal open -------------
    journal_b = str(tmp_path / "journal_b.jsonl")
    cache_b = str(tmp_path / "cache_b")
    if os.path.exists(sock):
        os.unlink(sock)
    with _server(
        "--socket", sock, "--cache-dir", cache_b,
        "--journal", journal_b,
        "--max-queue", "8", "--workers", "1:2",
        "--default-deadline", "120", "-q",
    ) as server:
        _wait_ready(server, sock)
        with ServeClient(socket_path=sock) as client:
            # rsim is word-level only, so on the bit encoding k-induction
            # must unroll to daio's and tlc's deep bugs, which takes seconds
            client.submit({"design": "daio", "representation": "bit", "bound": 120,
                           "deadline_s": 120})
            client.submit({"design": "tlc", "representation": "bit", "bound": 120,
                           "deadline_s": 120})
            time.sleep(0.5)
            with contextlib.suppress(ProcessLookupError):
                os.killpg(server.pid, signal.SIGKILL)
        server.wait(timeout=30)
        assert _group_gone(server.pid)
    orphans = RequestJournal(journal_b).replay().open_requests
    assert len(orphans) >= 1

    # ----- run C: restart on the killed journal, NACK the orphans --------
    trace_c = str(tmp_path / "trace_c.jsonl")
    # a SIGKILLed server cannot unlink its socket
    if os.path.exists(sock):
        os.unlink(sock)
    with _server(
        "--socket", sock, "--cache-dir", cache_b,
        "--journal", journal_b, "--recover", "nack",
        "--trace", trace_c,
        "--max-queue", "8", "--workers", "1:2", "-q",
    ) as server:
        _wait_ready(server, sock)
        with ServeClient(socket_path=sock) as client:
            stats = client.stats()
            _assert_not_wrong("daio", client.verify(design="daio", deadline_s=TIMEOUT_S),
                              "after restart")
            client.drain()
        assert stats["counters"]["recovered_nacked"] == len(orphans)
        assert server.wait(timeout=3 * TIMEOUT_S) == 0
        assert _group_gone(server.pid)
    _lint(trace_c)
    assert RequestJournal(journal_b).replay().open_requests == {}
