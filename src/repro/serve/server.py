"""The long-lived verification server: warm state + admission + supervision.

One :class:`VerifyServer` process keeps everything that is expensive to
build — blasted frame-template libraries and the
validated-certificate cache — warm across requests, so the marginal cost of
a repeated query is one re-validation instead of one verification.  Around
that warm core sit the robustness mechanisms this module exists for:

* **admission control** — at most ``max_workers`` computations run at
  once, and a miss that finds every slot busy waits in one FIFO line (a
  :class:`collections.deque`) of at most ``max_queue`` misses; when the
  line is full the marginal request gets an immediate
  ``rejected: overloaded`` reply instead of unbounded queueing;
* **coalescing** — identical in-flight queries (same cache key) share one
  computation; N clients, one supervised run, one cache store;
* **deadline propagation** — a request's ``deadline_s`` becomes the
  supervised unit's wall budget, which the ladder threads into every
  engine's timeout and the SAT solver's cooperative interrupt;
* **wedge kill** — the supervisor kills an attempt at its attempt deadline
  (its allowance under ``attempt_timeout_s`` and the request's budget,
  plus a grace) and retries it once; the waiters of a running
  computation get a ``progress`` frame for each attempt, retry and
  degraded run, and a keepalive at least every
  :data:`PROGRESS_INTERVAL_S`, so a client can tell a long proof from a
  dead server;
* **cancellation** — a client disconnect removes its waiter; a queued miss
  with no waiters left leaves the line, and a running computation with
  none left has its abort event fire, so the supervisor reaps the worker;
* **crash safety** — every accepted request is journaled before the accept
  reply (:class:`repro.serve.journal.RequestJournal`); a restarted server
  replays the journal and NACKs accepted-but-unanswered requests, so an
  accept can never be silently lost;
* **graceful drain** — SIGTERM/SIGINT (or the ``drain`` op) stops
  admissions, finishes everything accepted, compacts the journal and writes
  the telemetry trace before exit.

The supervised computations run in worker *processes* (via
:func:`repro.engines.batch.run_supervised_unit`, which the first miss
imports), driven from executor threads.  Everything else runs on the
asyncio loop: protocol and bookkeeping work, and admission's look-up,
which loads the design, hashes the cache key and re-validates a hit's
certificate on the design's warm validation session.  Each connection is
an :class:`asyncio.Protocol` that handles each request in the callback
that read it, so a request costs one loop turn, and ``ping``, ``stats``,
``drain`` and a re-validated hit are answered there, a hit with one
journal append and one reply write.  A design's first look-up in a
server lifetime also builds its validation session there, holding up
other clients once (1.2–28 ms per suite design on a 2-CPU box).  A
re-validation that would hold the loop longer is cut off at
:data:`LOOKUP_TIMEOUT_S` and the query computed like a miss.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.cache import ResultCache
from repro.cache.key import cache_key
from repro.engines.ladder import (
    VerificationTask,
    default_budget_ladder,
    warm_task_templates,
)
from repro.engines.result import Status, VerificationResult
from repro.obs import log as _log
from repro.obs import telemetry as _telemetry
from repro.serve import journal as journal_mod
from repro.serve.journal import RequestJournal
from repro.serve.protocol import (
    OP_DRAIN,
    OP_PING,
    OP_PROGRESS,
    OP_STATS,
    OP_VERIFY,
    PROTOCOL,
    FrameReader,
    ProtocolError,
    encode_frame,
)

#: how long admission's look-up may spend re-validating a hit on the event
#: loop.  The suite's slowest first look-up takes 28 ms; a look-up that runs
#: out of time is a plain miss, computed in the executor like any other, and
#: the computation's store replaces the slow entry.
LOOKUP_TIMEOUT_S = 0.25

#: a running computation sends its waiters a ``progress`` frame at least
#: this often, so a client can tell a long proof from a dead server
PROGRESS_INTERVAL_S = 2.0


@dataclass
class ServerConfig:
    """Everything a :class:`VerifyServer` needs to know at construction."""

    socket_path: Optional[str] = None
    host: Optional[str] = None
    port: int = 0
    cache_dir: Optional[str] = None
    journal_path: Optional[str] = None
    max_queue: int = 16
    #: at most this many computations run at once
    max_workers: int = 2
    default_deadline_s: float = 120.0
    attempt_timeout_s: Optional[float] = None
    certify: bool = False
    trace_path: Optional[str] = None
    fsync_journal: bool = False


class _Waiter:
    """One client's stake in a (possibly shared) computation."""

    __slots__ = ("request_id", "conn", "deadline")

    def __init__(self, request_id: str, conn: "_Connection", deadline: Optional[float]):
        self.request_id = request_id
        self.conn = conn
        self.deadline = deadline  # absolute monotonic, None = unbounded

    def remaining(self) -> Optional[float]:
        return None if self.deadline is None else self.deadline - time.monotonic()


class _Work:
    """One admitted computation: a cache key plus every waiter sharing it."""

    def __init__(
        self,
        key: str,
        task: VerificationTask,
        property_name: str,
        representation: str,
        bound: Optional[int],
    ) -> None:
        self.key = key
        self.task = task
        self.property_name = property_name
        self.representation = representation
        self.bound = bound
        self.waiters: List[_Waiter] = []
        self.abort = threading.Event()
        #: set when the miss leaves the line for a computation slot
        self.running = False
        self.done = False
        self.span = None
        self.admitted_t = time.monotonic()
        self.started_t: Optional[float] = None
        #: last progress frame of any kind sent to waiters, monotonic
        self.last_progress_sent = 0.0


class _Connection(asyncio.Protocol):
    """One client: its pending requests, and its bytes cut into frames as
    they arrive, each request handled in the callback that read it."""

    def __init__(self, server: "VerifyServer") -> None:
        self.server = server
        self.transport = None
        self.frames = FrameReader()
        self.requests: Dict[str, _Work] = {}

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._connections.add(self)
        self.send({"op": "hello", "protocol": PROTOCOL, "pid": os.getpid(),
                   "server_id": self.server.server_id})

    def data_received(self, data: bytes) -> None:
        self.frames.feed(data)
        self._handle_frames()

    def _handle_frames(self) -> None:
        """Handle every whole frame received until reading pauses."""
        try:
            for request in self.frames:
                self.server._handle_request(self, request)
                if not self.transport.is_reading():
                    return  # the rest waits for resume_writing
        except ProtocolError as error:
            self.send({"ok": False, "error": str(error)})
            self.transport.close()

    # backpressure: while a client leaves its replies unread, neither its
    # socket nor the frames already buffered from it are read
    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()
        if self.transport.is_reading():
            self._handle_frames()

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.server._connections.discard(self)
        self.server._forget_connection(self)

    def send(self, *documents: dict) -> None:
        """Send ``documents`` as consecutive frames in one transport write;
        only the loop's thread may call it."""
        if not self.transport.is_closing():
            self.transport.write(b"".join(map(encode_frame, documents)))


def set_event_threadsafe(loop: Optional[asyncio.AbstractEventLoop], event: asyncio.Event) -> None:
    """Set ``event``, whose waiters run on ``loop``, from any thread.

    Setting an event wakes its waiters through their loop, which only the
    loop's own thread may touch, so a call from another thread hops through
    ``call_soon_threadsafe``.  A loop that is not running yet, or already
    closed, has no waiter to wake, and the event is set directly.
    """
    try:
        running = asyncio.get_running_loop()
    except RuntimeError:
        running = None
    if loop is not None and loop is not running:
        try:
            loop.call_soon_threadsafe(event.set)
            return
        except RuntimeError:  # the loop is closed
            pass
    event.set()


class VerifyServer:
    """See the module docstring; one instance = one serving process."""

    def __init__(self, config: ServerConfig) -> None:
        if not config.socket_path and not config.host:
            raise ValueError("server needs a unix socket path or a TCP host")
        if config.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if config.max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        self.config = config
        #: the listen address names this server in stats documents and spans
        self.server_id = config.socket_path or f"{config.host}:{config.port}"
        self.cache = (
            ResultCache(config.cache_dir) if config.cache_dir else None
        )
        self.journal = (
            RequestJournal(config.journal_path, fsync=config.fsync_journal)
            if config.journal_path
            else None
        )
        #: admitted misses waiting for a computation slot, oldest first
        self.queue: Deque[_Work] = deque()
        self.inflight: Dict[str, _Work] = {}
        self.active = 0
        #: the running computations' tasks, referenced until they end
        self._computations: set = set()
        self.draining = False
        self.recovery_report: Optional[dict] = None
        self.counters: Dict[str, int] = {
            "accepted": 0,
            "answered": 0,
            "cancelled": 0,
            "coalesced": 0,
            "computations": 0,
            "rejected_overloaded": 0,
            "rejected_draining": 0,
            "recovered_nacked": 0,
            "bad_requests": 0,
            "progress_frames": 0,
        }
        self._shutdown = asyncio.Event()
        self._work_done = asyncio.Event()
        self._connections: set = set()
        self._server_span = None
        self._listener = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def request_shutdown(self) -> None:
        """Start the drain; safe to call from any thread."""
        set_event_threadsafe(self._loop, self._shutdown)

    async def serve_forever(self) -> None:
        """Recover the journal, listen, serve until a drain, then shut down."""
        recorder = _telemetry.get_recorder()
        if recorder is not None:
            self._server_span = recorder.start_span(
                "serve.server",
                pid=os.getpid(),
                protocol=PROTOCOL,
                server_id=self.server_id,
            )
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._recover()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, self.request_shutdown)
        if self.config.socket_path:
            if os.path.exists(self.config.socket_path):
                os.unlink(self.config.socket_path)
            self._listener = await loop.create_unix_server(
                lambda: _Connection(self), path=self.config.socket_path
            )
            where = self.config.socket_path
        else:
            self._listener = await loop.create_server(
                lambda: _Connection(self), host=self.config.host, port=self.config.port
            )
            where = f"{self.config.host}:{self.config.port}"
        monitor = asyncio.create_task(self._monitor())
        _log.info(f"repro-serve listening on {where} ({PROTOCOL})")
        await self._shutdown.wait()
        _log.info("repro-serve draining: admissions closed")
        self.draining = True
        self._listener.close()
        await self._listener.wait_closed()
        await self._drained()
        monitor.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await monitor
        # close surviving client connections so each sees a clean EOF
        # before loop teardown
        for conn in list(self._connections):
            conn.transport.close()
        await asyncio.sleep(0.05)
        self._finalize()

    def _finalize(self) -> None:
        if self.journal is not None:
            self.journal.compact()
            self.journal.close()
        if self._server_span is not None:
            self._server_span.finish(outcome="drained")
        recorder = _telemetry.get_recorder()
        if recorder is not None and self.config.trace_path:
            from repro.obs.export import write_trace

            write_trace(
                recorder,
                self.config.trace_path,
                meta={"role": "server", "pid": os.getpid()},
            )
        if self.config.socket_path and os.path.exists(self.config.socket_path):
            with contextlib.suppress(OSError):
                os.unlink(self.config.socket_path)
        _log.info("repro-serve drained: " + self._counters_line())

    def _counters_line(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()) if v)

    async def _drained(self) -> None:
        """Wait until every admitted request has been answered."""
        while self.queue or self.active or self.inflight:
            self._work_done.clear()
            await self._work_done.wait()

    def _recover(self) -> None:
        """Replay the journal and NACK every accepted-but-unanswered request.

        A client that never got its ``result`` resubmits under the same id;
        the warm cache makes the retry cheap.
        """
        if self.journal is None:
            return
        report = self.journal.replay()
        self.recovery_report = report.to_json()
        for request_id in report.open_requests:
            self.counters["recovered_nacked"] += 1
            self.journal.finish(request_id, journal_mod.NACKED)
        if report.open_requests or report.torn_lines:
            _log.info(
                f"journal recovery: {len(report.open_requests)} open request(s) "
                f"NACKed, {report.torn_lines} torn line(s)"
            )
        _telemetry.counter("serve.recovered_open", len(report.open_requests))

    # ------------------------------------------------------------------
    # connections and request admission
    # ------------------------------------------------------------------
    def _forget_connection(self, conn: _Connection) -> None:
        """Client gone: cancel its stakes; abort orphaned computations."""
        for request_id, work in list(conn.requests.items()):
            work.waiters = [w for w in work.waiters if w.conn is not conn]
            self.counters["cancelled"] += 1
            _telemetry.counter("serve.cancelled")
            if self.journal is not None:
                self.journal.finish(request_id, journal_mod.CANCELLED)
            if not work.waiters:
                if work.running:
                    work.abort.set()
                else:
                    self.queue.remove(work)
                    if self.inflight.get(work.key) is work:
                        del self.inflight[work.key]
                    self._work_done.set()
        conn.requests.clear()

    def _handle_request(self, conn: _Connection, request: object) -> None:
        if not isinstance(request, dict):
            self.counters["bad_requests"] += 1
            conn.send({"ok": False, "error": "request must be an object"})
            return
        op = request.get("op")
        if op == OP_VERIFY:
            self._admit(conn, request)
        elif op == OP_PING:
            conn.send({"ok": True, "op": "pong", "draining": self.draining})
        elif op == OP_STATS:
            conn.send({"ok": True, "op": "stats", "stats": self.stats()})
        elif op == OP_DRAIN:
            conn.send({"ok": True, "op": "draining"})
            self.request_shutdown()
        else:
            self.counters["bad_requests"] += 1
            conn.send({"ok": False, "error": f"unknown op {op!r}"})

    def _admit(self, conn: _Connection, request: dict) -> None:
        request_id = str(request.get("id") or f"req-{os.urandom(6).hex()}")
        if self.draining:
            self.counters["rejected_draining"] += 1
            _telemetry.counter("serve.rejected_draining")
            conn.send(
                {"ok": False, "op": "rejected", "id": request_id,
                 "reason": "draining"}
            )
            return
        recorder = _telemetry.get_recorder()
        span = (
            recorder.start_span(
                "serve.admit", parent=self._server_span, request=request_id
            )
            if recorder is not None
            else None
        )
        try:
            task = _task_from_request(request)
            representation = str(request.get("representation", "word"))
            property_name, key, hit = self._look_up(
                span, task, request.get("property"), representation
            )
        except Exception as error:  # noqa: BLE001 - reply, don't die
            if span is not None:
                span.finish(outcome="bad-request")
            self.counters["bad_requests"] += 1
            conn.send(
                {"ok": False, "op": "rejected", "id": request_id,
                 "reason": f"bad request: {error}"}
            )
            return
        if span is not None:
            span.finish(outcome="hit" if hit is not None else "miss")
        if hit is not None:
            # a re-validated hit is answered here: it never waits in line
            self._answer_hit(conn, request_id, request, key, hit)
            return

        deadline_s = request.get("deadline_s", self.config.default_deadline_s)
        deadline = (
            time.monotonic() + float(deadline_s) if deadline_s else None
        )
        waiter = _Waiter(request_id, conn, deadline)

        bound = request.get("bound")
        work = _Work(
            key,
            task,
            property_name,
            representation,
            int(bound) if isinstance(bound, int) else None,
        )
        work.waiters.append(waiter)

        existing = self.inflight.get(key)
        if existing is not None and not existing.done and not existing.abort.is_set():
            # coalesce: share the in-flight computation, skip the line; an
            # aborted one is left to end, and this miss queues afresh
            existing.waiters.append(waiter)
            conn.requests[request_id] = existing
            self.counters["accepted"] += 1
            self.counters["coalesced"] += 1
            _telemetry.counter("serve.coalesced")
            self._accept(conn, request_id, request, key, coalesced=True)
            return

        if len(self.queue) >= self.config.max_queue:
            self.counters["rejected_overloaded"] += 1
            _telemetry.counter("serve.rejected_overloaded")
            conn.send(
                {"ok": False, "op": "rejected", "id": request_id,
                 "reason": "overloaded", "queue_depth": len(self.queue)}
            )
            return
        self.queue.append(work)
        self.inflight[key] = work
        conn.requests[request_id] = work
        self.counters["accepted"] += 1
        _telemetry.counter("serve.accepted")
        self._accept(conn, request_id, request, key, coalesced=False)
        self._start_queued()

    def _look_up(self, span, task: VerificationTask, prop, representation: str):
        """Admission's look-up, on the event loop: load the design, resolve
        the property and look the query up.  Returns ``(property, key, hit
        result or None)``; a hit has been re-validated against the loaded
        design.  It never awaits, so no other request interleaves with it."""
        with _under(span):
            system = task.load()
            prop = _resolve_property(system, prop)
            if self.cache is None:
                return prop, cache_key(system, prop, representation), None
            lookup = self.cache.lookup(
                system, prop, representation, timeout=LOOKUP_TIMEOUT_S
            )
            return prop, lookup.key, lookup.result if lookup.hit else None

    def _accept(
        self,
        conn: _Connection,
        request_id: str,
        request: dict,
        key: str,
        coalesced: bool,
    ) -> None:
        """Journal one accept, then tell the client."""
        if self.journal is not None:
            self.journal.accept(request_id, _journal_doc(request))
        conn.send(_accepted_doc(request_id, key, coalesced))

    def _answer_hit(
        self,
        conn: _Connection,
        request_id: str,
        request: dict,
        key: str,
        result: VerificationResult,
    ) -> None:
        """Answer a re-validated hit in the callback that read it: its accept
        and close go to the journal in one append before any frame, and its
        ``accepted`` and ``result`` frames go out in one write."""
        for name in ("accepted", "computations", "answered"):
            self.counters[name] += 1
            _telemetry.counter(f"serve.{name}")
        if self.journal is not None:
            self.journal.accept_and_finish(
                request_id, _journal_doc(request), journal_mod.ANSWERED,
                status=result.status,
            )
        conn.send(
            _accepted_doc(request_id, key, coalesced=False),
            dict(_result_doc(key, result, "cache", 1, True), id=request_id),
        )

    # ------------------------------------------------------------------
    # the line and computation
    # ------------------------------------------------------------------
    def _start_queued(self) -> None:
        """Start the oldest queued misses while a computation slot is free."""
        while self.queue and self.active < self.config.max_workers:
            work = self.queue.popleft()
            work.running = True
            self.active += 1
            task = asyncio.create_task(self._run_work(work))
            self._computations.add(task)
            task.add_done_callback(self._computations.discard)
        _telemetry.gauge("serve.queue_depth", len(self.queue))

    async def _run_work(self, work: _Work) -> None:
        try:
            work.started_t = time.monotonic()
            recorder = _telemetry.get_recorder()
            if recorder is not None:
                work.span = recorder.start_span(
                    "serve.request",
                    parent=self._server_span,
                    key=work.key,
                    property=work.property_name,
                    waiters=len(work.waiters),
                    server_id=self.server_id,
                    request=(work.waiters[0].request_id if work.waiters else ""),
                    requests=[w.request_id for w in work.waiters],
                )
            timeout = _pool_deadline(work)
            if timeout is not None and timeout <= 0:
                result = VerificationResult(
                    Status.TIMEOUT,
                    "serve",
                    work.property_name,
                    reason="deadline exceeded while queued",
                )
                source, validated = "deadline", None
            else:
                result, source, validated = await asyncio.to_thread(
                    self._compute, work, timeout
                )
            if work.span is not None:
                work.span.finish(outcome=f"{result.status}:{source}")
            self._answer(work, result, source, validated)
        finally:
            # a fresh computation may own the key now (see _admit)
            if self.inflight.get(work.key) is work:
                del self.inflight[work.key]
            self.active -= 1
            self._work_done.set()
            self._start_queued()

    def _compute(self, work: _Work, timeout: Optional[float]):
        """Run one computation in this executor thread (workers fork from here).

        Returns the result, its source and, with a cache attached and a
        definitive verdict, whether the cache store validated it."""
        # a server that only answers hits never loads the supervised pipeline
        from repro.engines.batch import run_supervised_unit

        with _under(work.span):
            self.counters["computations"] += 1
            _telemetry.counter("serve.computations")
            system = work.task.load()
            rungs = default_budget_ladder(
                (work.representation,),
                bound=work.bound,
                timeout=timeout,
            )
            # the worker forks from here: it inherits the ladder's engines
            # and the task's blasted templates from this process
            warm_task_templates(
                work.task, [config for rung in rungs for config in rung.configs]
            )
            result, _outcome = run_supervised_unit(
                work.task,
                work.property_name,
                rungs,
                timeout=timeout,
                attempt_timeout=self.config.attempt_timeout_s,
                certify=self.config.certify,
                abort=work.abort,
                on_event=self._supervision_observer(work),
            )
            validated = None
            if self.cache is not None and result.is_definitive:
                validated = self.cache.store(
                    system,
                    work.property_name,
                    work.representation,
                    result,
                    design=work.task.name,
                ).stored
            return result, "computed", validated

    def _answer(
        self,
        work: _Work,
        result: VerificationResult,
        source: str,
        validated: Optional[bool],
    ):
        # no coalescer may attach once the reply fan-out starts: the waiter
        # snapshot below is the complete audience for this computation
        work.done = True
        waiters = list(work.waiters)
        work.waiters.clear()
        reply_base = _result_doc(work.key, result, source, len(waiters), validated)
        for waiter in waiters:
            waiter.conn.requests.pop(waiter.request_id, None)
            self.counters["answered"] += 1
            _telemetry.counter("serve.answered")
            if self.journal is not None:
                self.journal.finish(
                    waiter.request_id, journal_mod.ANSWERED, status=result.status
                )
            waiter.conn.send(dict(reply_base, id=waiter.request_id))

    # ------------------------------------------------------------------
    # progress frames
    # ------------------------------------------------------------------
    def _supervision_observer(self, work: _Work):
        """Event callback for one computation's supervisor (executor thread).

        Attempt, retry and degraded events are forwarded to every waiter as
        ``progress`` frames; the hop onto the event loop goes through
        ``call_soon_threadsafe`` because the supervisor runs in a worker
        thread.
        """
        loop = self._loop

        def observer(event: dict) -> None:
            name = event.get("event")
            if name in ("attempt", "retry", "degraded"):
                doc = {
                    key: value
                    for key, value in event.items()
                    if key not in ("event",)
                    and isinstance(value, (int, float, str, bool))
                }
                doc["kind"] = name
                if loop is not None and not loop.is_closed():
                    loop.call_soon_threadsafe(self._fan_out_progress, work, doc)

        return observer

    def _fan_out_progress(self, work: _Work, doc: dict) -> None:
        if work.done or not work.waiters:
            return
        work.last_progress_sent = time.monotonic()
        elapsed = round(time.monotonic() - (work.started_t or work.admitted_t), 3)
        for waiter in list(work.waiters):
            frame = {
                "ok": True,
                "op": OP_PROGRESS,
                "id": waiter.request_id,
                "key": work.key,
                "elapsed_s": elapsed,
                **doc,
            }
            self.counters["progress_frames"] += 1
            waiter.conn.send(frame)

    async def _monitor(self) -> None:
        """Send a ``progress`` keepalive frame to the waiters of every
        computation that has been quiet for :data:`PROGRESS_INTERVAL_S`."""
        interval = 0.25
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for work in list(self.inflight.values()):
                if not work.running or work.done:
                    continue
                if (
                    work.waiters
                    and now - max(work.last_progress_sent, work.started_t or 0.0)
                    >= PROGRESS_INTERVAL_S
                ):
                    self._fan_out_progress(work, {"kind": "alive"})

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The ``stats`` op's document, which ``repro-serve --status`` prints.

        Lifetime accept/answer/cancel counters come straight from
        ``counters``; while a recorder records, the ``telemetry`` block adds
        the span count and the cross-subsystem counters and gauges.
        """
        document = {
            "protocol": PROTOCOL,
            "pid": os.getpid(),
            "server_id": self.server_id,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "draining": self.draining,
            "counters": dict(self.counters),
            "queue_depth": len(self.queue),
            "active": self.active,
            "recovery": self.recovery_report,
        }
        if self.cache is not None:
            document["cache"] = {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "demotions": self.cache.demotions,
                "stores": self.cache.stores,
                "entries": len(self.cache.store_backend),
            }
        if self.journal is not None:
            document["journal"] = {
                "path": self.journal.path,
                "appends": self.journal.appends,
                "torn_injected": self.journal.torn_injected,
            }
        recorder = _telemetry.get_recorder()
        if recorder is not None:
            snapshot = recorder.snapshot()
            document["telemetry"] = {
                "spans": snapshot.get("spans", 0),
                "dropped_spans": snapshot.get("dropped_spans", 0),
                "counters": snapshot.get("counters", {}),
                "gauges": snapshot.get("gauges", {}),
            }
        return document


# ---------------------------------------------------------------------------
# request helpers
# ---------------------------------------------------------------------------


def _under(span):
    """Make ``span`` the current parent in this thread while recording."""
    recorder = _telemetry.get_recorder()
    if recorder is None or span is None:
        return contextlib.nullcontext()
    return recorder.under(span)


def _task_from_request(request: dict) -> VerificationTask:
    design = request.get("design")
    if isinstance(design, str) and design:
        return VerificationTask.benchmark(design)
    verilog = request.get("verilog")
    if isinstance(verilog, str) and verilog:
        return VerificationTask.verilog(verilog, request.get("top"))
    aiger = request.get("aiger")
    if isinstance(aiger, str) and aiger:
        return VerificationTask.aiger(aiger)
    raise ValueError("request names no design/verilog/aiger")


def _resolve_property(system, property_name) -> str:
    if isinstance(property_name, str) and property_name:
        system.property_by_name(property_name)  # raises on unknown
        return property_name
    properties = list(system.properties)
    if not properties:
        raise ValueError(f"design {system.name!r} declares no properties")
    return properties[0].name


def _accepted_doc(request_id: str, key: str, coalesced: bool) -> dict:
    return {"ok": True, "op": "accepted", "id": request_id,
            "key": key, "coalesced": coalesced}


def _result_doc(
    key: str,
    result: VerificationResult,
    source: str,
    audience: int,
    validated: Optional[bool],
) -> dict:
    """The ``result`` frame for one answered query, without its ``id``.

    ``validated`` is ``True`` for a re-validated hit and, for a computed
    definitive verdict with a cache attached, whether the cache store
    validated its certificate; ``None`` leaves the field out."""
    document = {
        "ok": True,
        "op": "result",
        "key": key,
        "status": result.status,
        "engine": result.engine,
        "property": result.property_name,
        "runtime_s": round(result.runtime or 0.0, 6),
        "source": source,
        "reason": result.reason or "",
        "coalesced_with": audience,
    }
    if validated is not None:
        document["validated"] = validated
    if result.counterexample is not None:
        document["counterexample_steps"] = len(result.counterexample.steps)
    return document


def _journal_doc(request: dict) -> dict:
    """The replayable subset of a request (drop op/id, keep query fields)."""
    return {
        name: request[name]
        for name in (
            "design", "verilog", "aiger", "top", "property",
            "representation", "bound", "deadline_s",
        )
        if name in request
    }


def _pool_deadline(work: _Work) -> Optional[float]:
    """The computation's wall budget: the furthest live waiter's remaining time."""
    remainings = [w.remaining() for w in work.waiters]
    if not remainings or any(r is None for r in remainings):
        return None
    return max(remainings)
