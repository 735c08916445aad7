"""The long-lived verification server: warm state + admission + supervision.

One :class:`VerifyServer` process keeps everything that is expensive to
build — blasted frame-template libraries and the
validated-certificate cache — warm across requests, so the marginal cost of
a repeated query is one re-validation instead of one verification.  Around
that warm core sit the robustness mechanisms this module exists for:

* **admission control** — a bounded priority queue
  (:class:`repro.serve.queues.BoundedPriorityQueue`); when it is full the
  marginal request gets an immediate ``rejected: overloaded`` reply instead
  of unbounded queueing;
* **coalescing** — identical in-flight queries (same cache key) share one
  computation; N clients, one supervised run, one cache store;
* **deadline propagation** — a request's ``deadline_s`` becomes the
  supervised unit's wall budget, which the ladder threads into every
  engine's timeout and the SAT solver's cooperative interrupt;
* **adaptive throttling** — observed computation latency steers the number
  of concurrently supervised units
  (:class:`repro.serve.throttle.AdaptiveThrottle`);
* **cancellation** — a client disconnect removes its waiter; when a
  computation has no waiters left its abort event fires and the supervisor
  reaps the worker;
* **crash safety** — every accepted request is journaled before the accept
  reply (:class:`repro.serve.journal.RequestJournal`); a restarted server
  replays the journal and NACKs (or requeues) accepted-but-unanswered
  requests, so an accept can never be silently lost;
* **graceful drain** — SIGTERM/SIGINT (or the ``drain`` op) stops
  admissions, finishes everything accepted, compacts the journal and writes
  the telemetry trace before exit.

The supervised computations run in worker *processes* (via
:func:`repro.engines.batch.run_supervised_unit`), driven from executor
threads.  Everything else runs on the asyncio loop: protocol and
bookkeeping work, and admission's look-up, which loads the design, hashes
the cache key and re-validates a hit's certificate on the design's warm
validation session.  A hit is therefore answered in the loop turn that
read its request, with one journal append and one reply write.  A design's
first look-up in a server lifetime also builds its validation session
there, holding up other clients once (1.2–28 ms per suite design on a
2-CPU box).  A re-validation that would hold the loop longer is cut off
at :data:`LOOKUP_TIMEOUT_S` and the query computed like a miss.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache import ResultCache
from repro.cache.key import cache_key
from repro.engines.batch import run_supervised_unit
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
    OP_STATUS,
    OP_VERIFY,
    PROTOCOL,
    ProtocolError,
    read_frame,
    write_frame,
)
from repro.serve.queues import BoundedPriorityQueue, QueueClosed, priority_value
from repro.serve.throttle import AdaptiveThrottle

#: how long admission's look-up may spend re-validating a hit on the event
#: loop.  The suite's slowest first look-up takes 28 ms; a look-up that runs
#: out of time is a plain miss, computed in the executor like any other, and
#: the computation's store replaces the slow entry.
LOOKUP_TIMEOUT_S = 0.25


@dataclass
class ServerConfig:
    """Everything a :class:`VerifyServer` needs to know at construction."""

    socket_path: Optional[str] = None
    host: Optional[str] = None
    port: int = 0
    cache_dir: Optional[str] = None
    journal_path: Optional[str] = None
    max_queue: int = 16
    min_workers: int = 1
    max_workers: int = 2
    target_latency_s: float = 10.0
    default_deadline_s: float = 120.0
    attempt_timeout_s: Optional[float] = None
    representation: str = "word"
    certify: bool = False
    #: what to do with journaled accepted-but-unanswered requests on start:
    #: ``"nack"`` closes them as nacked (clients resubmit), ``"requeue"``
    #: recomputes them waiterless so the verdict lands in the cache
    recover: str = "nack"
    trace_path: Optional[str] = None
    fsync_journal: bool = False
    #: cadence of ``progress`` liveness frames to waiting clients (0 = off)
    progress_interval_s: float = 2.0
    #: a running request with no computation progress for this long is
    #: declared wedged: its workers are killed and retried (None = off)
    progress_timeout_s: Optional[float] = None


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
        priority: int,
    ) -> None:
        self.key = key
        self.task = task
        self.property_name = property_name
        self.representation = representation
        self.bound = bound
        self.priority = priority
        self.waiters: List[_Waiter] = []
        #: admission already looked this query up; journal-recovered work
        #: is looked up when it runs
        self.looked_up = False
        self.abort = threading.Event()
        #: liveness kill switch: set by the monitor when streamed progress
        #: goes silent past the window; the supervisor kills and retries
        self.stall = threading.Event()
        self.running = False
        self.cancelled = False
        self.done = False
        self.recovered = False
        self.span = None
        self.admitted_t = time.monotonic()
        self.started_t: Optional[float] = None
        #: last *computation* progress (rung/bound), monotonic
        self.last_progress = time.monotonic()
        #: last progress frame of any kind sent to waiters, monotonic
        self.last_progress_sent = 0.0
        self.progress_events = 0
        self.stall_kills = 0


class _Connection:
    """Per-client connection state: serialized writes + pending requests."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.send_lock = asyncio.Lock()
        self.requests: Dict[str, _Work] = {}
        self.alive = True

    async def send(self, *documents: dict) -> bool:
        """Send ``documents`` as consecutive frames in one transport write."""
        if not self.alive:
            return False
        try:
            async with self.send_lock:
                await write_frame(self.writer, *documents)
            return True
        except (ConnectionError, OSError):
            self.alive = False
            return False


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
        self.config = config
        #: the listen address names this server in status documents and spans
        self.server_id = config.socket_path or f"{config.host}:{config.port}"
        self.cache = (
            ResultCache(config.cache_dir) if config.cache_dir else None
        )
        self.journal = (
            RequestJournal(config.journal_path, fsync=config.fsync_journal)
            if config.journal_path
            else None
        )
        self.queue = BoundedPriorityQueue(config.max_queue)
        self.throttle = AdaptiveThrottle(
            min_concurrency=config.min_workers,
            max_concurrency=config.max_workers,
            target_latency_s=config.target_latency_s,
        )
        self.inflight: Dict[str, _Work] = {}
        self.active = 0
        #: requests inside :meth:`_admit`; a drain waits for them too
        self.admitting = 0
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
            "recovered_requeued": 0,
            "bad_requests": 0,
            "progress_frames": 0,
            "wedged_kills": 0,
        }
        self._shutdown = asyncio.Event()
        self._slot_free = asyncio.Event()
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
            self._listener = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.socket_path
            )
            where = self.config.socket_path
        else:
            self._listener = await asyncio.start_server(
                self._handle_connection, host=self.config.host, port=self.config.port
            )
            where = f"{self.config.host}:{self.config.port}"
        dispatcher = asyncio.create_task(self._dispatch())
        monitor = asyncio.create_task(self._monitor())
        _log.info(f"repro-serve listening on {where} ({PROTOCOL})")
        await self._shutdown.wait()
        _log.info("repro-serve draining: admissions closed")
        self.draining = True
        self._listener.close()
        await self._listener.wait_closed()
        await self._drained()
        self.queue.close()
        await dispatcher
        monitor.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await monitor
        # close surviving client connections so their handler tasks end on a
        # clean EOF instead of being cancelled by loop teardown
        for conn in list(self._connections):
            conn.alive = False
            with contextlib.suppress(ConnectionError, OSError):
                conn.writer.close()
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
        while self.queue or self.active or self.inflight or self.admitting:
            self._work_done.clear()
            await self._work_done.wait()

    def _recover(self) -> None:
        """Replay the journal; NACK or requeue accepted-but-unanswered requests."""
        if self.journal is None:
            return
        report = self.journal.replay()
        self.recovery_report = report.to_json()
        for request_id, request in report.open_requests.items():
            if self.config.recover == "requeue" and request.get("design"):
                work = self._work_from_request(request)
                if work is not None:
                    work.recovered = True
                    if self.queue.try_put(work, work.priority):
                        self.inflight[work.key] = work
                        # the requeued recovery is a synthetic waiterless
                        # request: counting its accept here keeps the
                        # lifetime invariant accepted == answered + cancelled
                        self.counters["accepted"] += 1
                        self.counters["recovered_requeued"] += 1
                        self.journal.finish(request_id, journal_mod.REQUEUED)
                        continue
            self.counters["recovered_nacked"] += 1
            self.journal.finish(request_id, journal_mod.NACKED)
        if report.open_requests or report.torn_lines:
            _log.info(
                f"journal recovery: {len(report.open_requests)} open request(s) "
                f"({self.config.recover}), {report.torn_lines} torn line(s)"
            )
        _telemetry.counter("serve.recovered_open", len(report.open_requests))

    def _work_from_request(self, request: dict) -> Optional[_Work]:
        """Rebuild a :class:`_Work` from a journaled request document."""
        try:
            task = _task_from_request(request)
            system = task.load()
            property_name = _resolve_property(system, request.get("property"))
            representation = str(
                request.get("representation", self.config.representation)
            )
            key = cache_key(system, property_name, representation)
        except Exception:  # noqa: BLE001 - a stale journal must not wedge startup
            return None
        bound = request.get("bound")
        return _Work(
            key,
            task,
            property_name,
            representation,
            int(bound) if isinstance(bound, int) else None,
            priority_value(request.get("priority")),
        )

    # ------------------------------------------------------------------
    # connections and request admission
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        await conn.send(
            {
                "op": "hello",
                "protocol": PROTOCOL,
                "pid": os.getpid(),
                "server_id": self.server_id,
            }
        )
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as error:
                    await conn.send({"ok": False, "error": str(error)})
                    break
                if request is None:
                    break
                if not isinstance(request, dict):
                    self.counters["bad_requests"] += 1
                    await conn.send({"ok": False, "error": "request must be an object"})
                    continue
                await self._handle_request(conn, request)
        except (ConnectionError, OSError):
            pass
        finally:
            conn.alive = False
            self._connections.discard(conn)
            self._forget_connection(conn)
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()

    def _forget_connection(self, conn: _Connection) -> None:
        """Client gone: cancel its stakes; abort orphaned computations."""
        for request_id, work in list(conn.requests.items()):
            work.waiters = [w for w in work.waiters if w.conn is not conn]
            self.counters["cancelled"] += 1
            _telemetry.counter("serve.cancelled")
            if self.journal is not None:
                self.journal.finish(request_id, journal_mod.CANCELLED)
            if not work.waiters and not work.recovered:
                if work.running:
                    work.abort.set()
                else:
                    work.cancelled = True
                    self.inflight.pop(work.key, None)
                    self._work_done.set()
        conn.requests.clear()

    async def _handle_request(self, conn: _Connection, request: dict) -> None:
        op = request.get("op")
        if op == OP_PING:
            await conn.send({"ok": True, "op": "pong", "draining": self.draining})
        elif op == OP_STATS:
            await conn.send({"ok": True, "op": "stats", "stats": self.stats()})
        elif op == OP_STATUS:
            await conn.send({"ok": True, "op": "status", "status": self.status_doc()})
        elif op == OP_DRAIN:
            await conn.send({"ok": True, "op": "draining"})
            self.request_shutdown()
        elif op == OP_VERIFY:
            self.admitting += 1
            try:
                await self._admit(conn, request)
            finally:
                self.admitting -= 1
                self._work_done.set()
        else:
            self.counters["bad_requests"] += 1
            await conn.send({"ok": False, "error": f"unknown op {op!r}"})

    async def _admit(self, conn: _Connection, request: dict) -> None:
        request_id = str(request.get("id") or f"req-{uuid.uuid4().hex[:12]}")
        if self.draining:
            self.counters["rejected_draining"] += 1
            _telemetry.counter("serve.rejected_draining")
            await conn.send(
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
            representation = str(
                request.get("representation", self.config.representation)
            )
            property_name, key, hit = self._look_up(
                span, task, request.get("property"), representation
            )
        except Exception as error:  # noqa: BLE001 - reply, don't die
            if span is not None:
                span.finish(outcome="bad-request")
            self.counters["bad_requests"] += 1
            await conn.send(
                {"ok": False, "op": "rejected", "id": request_id,
                 "reason": f"bad request: {error}"}
            )
            return
        if span is not None:
            span.finish(outcome="hit" if hit is not None else "miss")
        if hit is not None:
            # a re-validated hit is answered here: no queue, no dispatcher
            await self._answer_hit(conn, request_id, request, key, hit)
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
            priority_value(request.get("priority")),
        )
        work.looked_up = True
        work.waiters.append(waiter)

        existing = self.inflight.get(key)
        if existing is not None and not existing.cancelled and not existing.done:
            # coalesce: share the in-flight computation, skip the queue
            existing.waiters.append(waiter)
            if existing.recovered:
                # a real client adopts the waiterless recovery: close the
                # synthetic stake so accepted == answered + cancelled holds
                existing.recovered = False
                self.counters["cancelled"] += 1
            conn.requests[request_id] = existing
            self.counters["accepted"] += 1
            self.counters["coalesced"] += 1
            _telemetry.counter("serve.coalesced")
            await self._accept(conn, request_id, request, key, coalesced=True)
            return

        if not self.queue.try_put(work, work.priority):
            self.counters["rejected_overloaded"] += 1
            _telemetry.counter("serve.rejected_overloaded")
            await conn.send(
                {"ok": False, "op": "rejected", "id": request_id,
                 "reason": "overloaded", "queue_depth": len(self.queue)}
            )
            return
        self.inflight[key] = work
        conn.requests[request_id] = work
        self.counters["accepted"] += 1
        _telemetry.counter("serve.accepted")
        _telemetry.gauge("serve.queue_depth", len(self.queue))
        await self._accept(conn, request_id, request, key, coalesced=False)

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

    async def _accept(
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
        await conn.send(_accepted_doc(request_id, key, coalesced))

    async def _answer_hit(
        self,
        conn: _Connection,
        request_id: str,
        request: dict,
        key: str,
        result: VerificationResult,
    ) -> None:
        """Answer a re-validated hit in the turn that admitted it: its accept
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
        await conn.send(
            _accepted_doc(request_id, key, coalesced=False),
            dict(self._result_doc(key, result, "cache", 1), id=request_id),
        )

    # ------------------------------------------------------------------
    # dispatch and computation
    # ------------------------------------------------------------------
    async def _dispatch(self) -> None:
        while True:
            try:
                work = await self.queue.get()
            except QueueClosed:
                return
            _telemetry.gauge("serve.queue_depth", len(self.queue))
            while self.active >= self.throttle.concurrency:
                self._slot_free.clear()
                await self._slot_free.wait()
            if work.cancelled:  # its waiters may leave while it waits
                continue
            self.active += 1
            asyncio.create_task(self._run_work(work))

    async def _run_work(self, work: _Work) -> None:
        try:
            work.running = True
            work.started_t = time.monotonic()
            work.last_progress = work.started_t
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
            started = time.monotonic()
            if timeout is not None and timeout <= 0:
                result = VerificationResult(
                    Status.TIMEOUT,
                    "serve",
                    work.property_name,
                    reason="deadline exceeded while queued",
                )
                source = "deadline"
            else:
                result, source = await asyncio.to_thread(
                    self._compute, work, timeout
                )
                self.throttle.observe(time.monotonic() - started)
                _telemetry.gauge(
                    "serve.concurrency", self.throttle.concurrency
                )
            if work.span is not None:
                work.span.finish(outcome=f"{result.status}:{source}")
            await self._answer(work, result, source)
        finally:
            self.inflight.pop(work.key, None)
            self.active -= 1
            self._slot_free.set()
            self._work_done.set()

    def _compute(self, work: _Work, timeout: Optional[float]):
        """Run one computation in this executor thread (workers fork from here)."""
        with _under(work.span):
            self.counters["computations"] += 1
            _telemetry.counter("serve.computations")
            system = work.task.load()
            if self.cache is not None and not work.looked_up:
                lookup = self.cache.lookup(
                    system, work.property_name, work.representation
                )
                if lookup.hit:
                    return lookup.result, "cache"
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
                stall=work.stall,
                on_event=self._supervision_observer(work),
            )
            if self.cache is not None and result.is_definitive:
                self.cache.store(
                    system,
                    work.property_name,
                    work.representation,
                    result,
                    design=work.task.name,
                )
            return result, "computed"

    async def _answer(self, work: _Work, result: VerificationResult, source: str):
        # no coalescer may attach once the reply fan-out starts: the waiter
        # snapshot below is the complete audience for this computation
        work.done = True
        waiters = list(work.waiters)
        work.waiters.clear()
        reply_base = self._result_doc(work.key, result, source, len(waiters))
        for waiter in waiters:
            waiter.conn.requests.pop(waiter.request_id, None)
            self.counters["answered"] += 1
            _telemetry.counter("serve.answered")
            if self.journal is not None:
                self.journal.finish(
                    waiter.request_id, journal_mod.ANSWERED, status=result.status
                )
            await waiter.conn.send(dict(reply_base, id=waiter.request_id))
        if work.recovered and not waiters:
            # a requeued recovery has no client; the verdict went to the cache
            self.counters["answered"] += 1

    def _result_doc(
        self, key: str, result: VerificationResult, source: str, audience: int
    ) -> dict:
        """The ``result`` frame for one answered query, without its ``id``."""
        validated = None
        if source == "cache":
            validated = True
        elif self.cache is not None and result.is_definitive:
            # either the in-ladder --certify gate (detail["certified"]) or an
            # explicit validation record marks the verdict as validated
            validated = bool(
                isinstance(result.detail, dict)
                and (
                    result.detail.get("certified") is True
                    or result.detail.get("validation", {}).get("ok")
                )
            ) or None
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

    # ------------------------------------------------------------------
    # streamed progress and liveness
    # ------------------------------------------------------------------
    def _supervision_observer(self, work: _Work):
        """Event callback for one computation's supervisor (executor thread).

        Progress-bearing events reset the work's liveness clock and are
        forwarded to every waiter as ``progress`` frames; the hop onto the
        event loop goes through ``call_soon_threadsafe`` because the
        supervisor runs in a worker thread.
        """
        loop = self._loop

        def observer(event: dict) -> None:
            name = event.get("event")
            if name in ("progress", "attempt", "retry", "stall-killed", "degraded"):
                work.last_progress = time.monotonic()
                work.progress_events += 1
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
            asyncio.ensure_future(waiter.conn.send(frame))

    async def _monitor(self) -> None:
        """Periodic liveness duty: idle-window throttle ticks, ``progress``
        keepalive frames for quiet computations, and the wedged-request
        kill — no computation progress inside ``progress_timeout_s`` sets
        the work's stall event, which the supervisor turns into a
        kill-and-retry (``timed-out`` attempt, normal retry budget)."""
        interval = 0.25
        while True:
            await asyncio.sleep(interval)
            self.throttle.tick()
            now = time.monotonic()
            for work in list(self.inflight.values()):
                if not work.running or work.done:
                    continue
                keepalive = self.config.progress_interval_s
                if (
                    keepalive
                    and work.waiters
                    and now - max(work.last_progress_sent, work.started_t or 0.0)
                    >= keepalive
                ):
                    self._fan_out_progress(work, {"kind": "alive"})
                window = self.config.progress_timeout_s
                if window and now - work.last_progress > window:
                    work.last_progress = now  # one kill per silent window
                    work.stall_kills += 1
                    self.counters["wedged_kills"] += 1
                    _telemetry.counter("serve.wedged_kills")
                    _log.info(
                        f"liveness: no progress on {work.key[:16]} for "
                        f"{window:.1f}s — killing the attempt for retry"
                    )
                    work.stall.set()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        document = {
            "protocol": PROTOCOL,
            "pid": os.getpid(),
            "server_id": self.server_id,
            "draining": self.draining,
            "counters": dict(self.counters),
            "queue_depth": len(self.queue),
            "active": self.active,
            "throttle": self.throttle.snapshot(),
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
        return document

    def status_doc(self) -> dict:
        """The ``status`` op's richer document: stats + uptime + telemetry.

        Lifetime accept/answer/cancel counters come straight from
        ``counters``; the telemetry snapshot (when a recorder is recording)
        adds the span count and the cross-subsystem counters and gauges.
        """
        document = self.stats()
        document["uptime_s"] = round(time.monotonic() - self._started_at, 3)
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


def _journal_doc(request: dict) -> dict:
    """The replayable subset of a request (drop op/id, keep query fields)."""
    return {
        name: request[name]
        for name in (
            "design", "verilog", "aiger", "top", "property",
            "representation", "bound", "deadline_s", "priority",
        )
        if name in request
    }


def _pool_deadline(work: _Work) -> Optional[float]:
    """The computation's wall budget: the furthest live waiter's remaining time."""
    remainings = [w.remaining() for w in work.waiters]
    if not remainings or any(r is None for r in remainings):
        return None
    return max(remainings)
