"""Supervised worker execution: deadlines, kill escalation, retries, fallback.

:meth:`WorkerSupervisor.run_map` is the one process primitive of the
package: the portfolio race, the batch pool and every ``repro-serve``
computation run their workers through it, and so share its process
hygiene.  Each supervision decision has one policy, fixed by the module
constants below:

* **what ends a stuck attempt** — its attempt deadline: the attempt's
  allowance (the smaller of the unit's remaining budget and
  ``attempt_timeout``) plus :data:`GRACE_SECONDS`.  Engines arm their
  cooperative deadlines from the allowance; the kill at the deadline is
  the backstop for a wedged worker;
* **whether a failed attempt is retried** — a ``crashed`` or
  ``timed-out`` attempt is retried once, :data:`RETRY_DELAY_S` later,
  while more than that much of the unit's budget is left;
* **how a worker is stopped** — :meth:`WorkerSupervisor.stop` sends
  SIGTERM, waits :data:`GRACE_SECONDS`, then SIGKILLs and reaps, so a
  SIGTERM-ignoring worker can never leak as a zombie past the driver;
* **how workers start** — :data:`START_METHOD`: ``fork`` where the
  platform has it, so workers inherit the parent's warm templates, and
  ``spawn`` otherwise;
* **spawn health** — process launches go through
  :meth:`WorkerSupervisor.spawn`, which counts consecutive failures; after
  :data:`~WorkerSupervisor.UNHEALTHY_AFTER` of them the pool is declared
  unhealthy and the map degrades to in-process sequential execution, so a
  query always gets an answer;
* **cancellation** — an ``abort`` event ends the whole map; the portfolio
  sets it when its first definitive answer arrives, the serve layer when
  the last client of a computation disconnects.

Attempt states are part of the public outcome taxonomy: ``done``,
``crashed`` (process died without reporting), ``timed-out`` (killed at the
attempt deadline), ``cancelled`` (stopped by ``abort``), ``degraded`` (ran
in-process after the pool went unhealthy) — a fault is never a silent skip.

A worker reports once: each attempt's pipe carries one message,
``(status, value, trace)``, when the attempt ends.  What a waiting caller
learns in between comes from the parent side, through ``run_map``'s
``on_event``.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as _mp_connection
from typing import Callable, Dict, List, Optional, Sequence

from repro.faults import injection as _fault_injection
from repro.obs import telemetry as _telemetry

#: attempt/unit states of the supervision taxonomy
DONE = "done"
CRASHED = "crashed"
TIMED_OUT = "timed-out"
DEGRADED = "degraded"
CANCELLED = "cancelled"

#: attempts a unit may use: a crashed or timed-out first attempt is retried
#: once.  A unit whose first attempt burned its whole budget timing out is
#: not retried; one whose worker was killed early is.
MAX_ATTEMPTS = 2
#: a retry launches this long after the failed attempt ended, and only while
#: the unit has more than this much of its budget left
RETRY_DELAY_S = 0.05
#: how long a worker gets before escalation: the backstop past its attempt
#: deadline, and the wait between SIGTERM and SIGKILL
GRACE_SECONDS = 2.0
#: how long the map waits on the result pipes before reaping and deadlines
POLL_INTERVAL_S = 0.05
#: ``fork`` lets workers inherit the parent's warm templates; ``spawn`` is
#: the fallback on platforms without it
START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)
_CONTEXT = multiprocessing.get_context(START_METHOD)


@dataclass
class SupervisedOutcome:
    """Final state of one supervised unit plus its full attempt log."""

    state: str = CRASHED
    value: object = None
    attempts: List[Dict[str, object]] = field(default_factory=list)
    degraded: bool = False
    reason: str = ""

    @property
    def retried(self) -> bool:
        return len(self.attempts) > 1

    def to_json(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "attempts": self.attempts,
            "retried": self.retried,
            "degraded": self.degraded,
            "reason": self.reason,
        }


def _run_attempt(worker, payload, attempt, conn) -> None:
    """Child-process entry: run one attempt, send the outcome back.

    Each attempt reports over its *own* pipe — a shared queue's write lock
    dies with whichever worker the supervisor happens to kill mid-send,
    wedging every other worker; per-attempt pipes make kills free of
    cross-worker collateral.

    When the parent was recording telemetry, the forked child swaps in a
    fresh recorder (:func:`repro.obs.telemetry.child_begin`) and ships its
    exported span subtree as the third tuple element; the parent stitches
    it under the attempt's span.  A killed worker ships nothing — the
    parent-side attempt span still records the kill, so the assembled
    trace stays coherent.
    """
    # a fork child inherits the parent's Python signal handlers *and* its
    # asyncio wakeup fd; without a reset, the SIGTERM this supervisor sends
    # to stop the child would be written into the parent's shared wakeup
    # pipe and fire the parent's own SIGTERM callback (observed as a serve
    # driver draining itself every time it stopped a worker)
    signal.set_wakeup_fd(-1)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_DFL)
    _fault_injection.set_attempt(attempt)
    _telemetry.child_begin()
    try:
        with _telemetry.span("worker.attempt", attempt=attempt):
            value = worker(payload)
        status = "ok"
    except BaseException as error:  # noqa: BLE001 - reported, never silent
        value = f"{type(error).__name__}: {error}"
        status = "error"
    trace = _telemetry.child_export()
    try:
        conn.send((status, value, trace))
    except Exception:  # pragma: no cover - unpicklable worker result
        try:
            conn.send(("error", "worker result not picklable", trace))
        except Exception:
            pass
    finally:
        conn.close()


@dataclass
class _Slot:
    payload: object
    budget: Optional[float]  # wall budget across all attempts of the unit
    attempt: int = 0
    started: Optional[float] = None  # first launch (budget anchor)
    launched: Optional[float] = None  # current attempt launch
    deadline: Optional[float] = None  # current attempt kill deadline
    not_before: float = 0.0  # a retry waits for this moment
    dead_since: Optional[float] = None  # process found dead, result may race
    conn: Optional[object] = None  # parent end of the attempt's result pipe

    def close_conn(self) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self.conn = None

    def remaining(self, now: float) -> Optional[float]:
        if self.budget is None:
            return None
        anchor = self.started if self.started is not None else now
        return self.budget - (now - anchor)


class WorkerSupervisor:
    """Process supervision shared by the portfolio, batch and serve drivers."""

    #: serializes process launches across threads — the serve layer runs one
    #: supervisor per request thread, and concurrent forks from a threaded
    #: parent are where fork-time lock snapshots bite
    _SPAWN_LOCK = threading.Lock()

    #: consecutive spawn failures after which the pool is unhealthy
    UNHEALTHY_AFTER = 3
    #: how long a dead worker's in-flight result may still arrive
    REAP_GRACE_SECONDS = 0.25

    def __init__(self) -> None:
        #: consecutive spawn failures (reset by any success)
        self.spawn_failures = 0
        self.spawned = 0
        self.kills = 0
        self.retries_launched = 0
        self.last_spawn_error = ""

    # ------------------------------------------------------------------
    @property
    def pool_healthy(self) -> bool:
        return self.spawn_failures < self.UNHEALTHY_AFTER

    def spawn(self, target, args=()):
        """Start one daemon worker process; ``None`` on failure (health-counted)."""
        try:
            if _fault_injection.fail_spawn(f"spawn:{self.spawned}:{self.spawn_failures}"):
                raise OSError("injected spawn failure")
            process = _CONTEXT.Process(target=target, args=args, daemon=True)
            with self._SPAWN_LOCK:
                process.start()
        except OSError as error:
            self.spawn_failures += 1
            self.last_spawn_error = f"{type(error).__name__}: {error}"
            _telemetry.counter("supervisor.spawn_failures")
            return None
        self.spawn_failures = 0
        self.spawned += 1
        _telemetry.counter("supervisor.spawns")
        return process

    def stop(self, process) -> None:
        """Terminate → grace → SIGKILL → join: no zombie survives the driver."""
        if process is None:
            return
        if process.is_alive():
            process.terminate()
            process.join(GRACE_SECONDS)
            if process.is_alive():
                self.kills += 1
                _telemetry.counter("supervisor.kills")
                kill = getattr(process, "kill", process.terminate)
                try:
                    kill()
                except Exception:  # pragma: no cover - already exiting
                    pass
        process.join()

    # ------------------------------------------------------------------
    def run_map(
        self,
        payloads: Sequence[object],
        worker: Callable[[object], object],
        jobs: int = 1,
        timeout: Optional[float] = None,
        attempt_timeout: Optional[float] = None,
        rebudget: Optional[Callable[[object, Optional[float]], object]] = None,
        accept: Optional[Callable[[object, object], Optional[str]]] = None,
        on_event: Optional[Callable[[Dict[str, object]], None]] = None,
        abort: Optional[threading.Event] = None,
    ) -> List[SupervisedOutcome]:
        """Run every payload through ``worker`` under supervision.

        Each unit gets a wall budget of ``timeout`` seconds across all its
        attempts; each attempt additionally runs at most ``attempt_timeout``
        seconds.  ``rebudget(payload, allowance)`` lets the caller thread
        the attempt's allowance into the payload (so the worker's engines
        arm their cooperative deadlines); the external kill at
        ``allowance + GRACE_SECONDS`` is only the backstop for wedged
        workers.
        ``accept(payload, value)`` vets a worker's answer semantically:
        ``None`` accepts it, a reason string treats the attempt as
        ``timed-out`` (retried under the remaining budget; the rejected
        value is kept as the unit's fallback answer if every retry fails).
        If spawning goes unhealthy, the remaining units run in-process
        (``degraded`` state) so the map always completes; ``accept`` sees
        those answers too, but they are final — a rejection is recorded on
        the attempt, not retried.

        ``abort`` (a :class:`threading.Event`, settable from another thread
        or from ``accept``) cancels the whole map cooperatively: at the next
        poll tick every active worker is kill-escalated and every unfinished
        unit is finalized in the ``cancelled`` state (a unit that never
        launched has no attempt).  The portfolio sets it on its first
        definitive answer; the serve layer sets it to tear a computation
        down when its last waiting client disconnects — the cancellation is
        an explicit outcome, never a leaked process.

        ``on_event`` hears each attempt launch (``attempt``), ``retry``,
        ``gave-up``, ``done`` and ``degraded`` unit, ``pool-unhealthy`` and
        ``aborted``.
        """

        def emit(event: str, **fields) -> None:
            if on_event is not None:
                on_event({"event": event, **fields})

        slots = [_Slot(payload, timeout) for payload in payloads]
        outcomes = [SupervisedOutcome() for _ in slots]
        finished = [False] * len(slots)
        pending = deque(range(len(slots)))
        active: Dict[int, object] = {}
        degraded = False

        # parent-side trace assembly: one explicit-parent span per unit, one
        # per attempt (attempts of different units overlap, so the thread
        # stack cannot hold them); a worker's exported subtree is stitched
        # under its attempt span, and kills/timeouts — where the child ships
        # nothing — are recorded by the parent-side span alone
        recorder = _telemetry.get_recorder()
        map_parent = recorder.current_span() if recorder is not None else None
        unit_spans: Dict[int, object] = {}
        attempt_spans: Dict[int, object] = {}

        def unit_span(index: int):
            if recorder is None:
                return None
            span = unit_spans.get(index)
            if span is None:
                span = recorder.start_span(
                    "supervisor.unit", parent=map_parent, unit=index
                )
                unit_spans[index] = span
            return span

        def begin_attempt_span(index: int, attempt: int, pid=None) -> None:
            if recorder is None:
                return
            attempt_spans[index] = recorder.start_span(
                "supervisor.attempt",
                parent=unit_span(index),
                unit=index,
                attempt=attempt,
                **({"worker_pid": pid} if pid is not None else {}),
            )

        def end_attempt_span(index: int, state: str, trace=None) -> None:
            _telemetry.counter(f"supervisor.attempts.{state}")
            if recorder is None:
                return
            span = attempt_spans.pop(index, None)
            if span is None:
                return
            if trace:
                recorder.attach(trace, span)
            span.finish(outcome=state)

        def finalize(index: int, state: str, value=None, reason: str = "") -> None:
            outcomes[index].state = state
            outcomes[index].value = value
            outcomes[index].reason = reason
            finished[index] = True
            span = unit_spans.pop(index, None)
            if span is not None:
                span.finish(outcome=state)

        def record_attempt(index: int, state: str, reason: str = "") -> None:
            slot = slots[index]
            now = time.monotonic()
            runtime = now - (slot.launched if slot.launched is not None else now)
            outcomes[index].attempts.append(
                {
                    "attempt": slot.attempt,
                    "state": state,
                    "runtime_s": round(runtime, 6),
                    **({"reason": reason} if reason else {}),
                }
            )

        def retire_or_retry(index: int, state: str, reason: str = "") -> None:
            """One attempt crashed or timed out: retry it or retire the unit."""
            slot = slots[index]
            record_attempt(index, state, reason)
            remaining = slot.remaining(time.monotonic())
            if slot.attempt + 1 < MAX_ATTEMPTS and (
                remaining is None or remaining > RETRY_DELAY_S
            ):
                slot.attempt += 1
                slot.not_before = time.monotonic() + RETRY_DELAY_S
                slot.dead_since = None
                self.retries_launched += 1
                _telemetry.counter("supervisor.retries")
                pending.append(index)
                emit("retry", unit=index, attempt=slot.attempt, state=state)
            else:
                # a semantically rejected answer stashed on the outcome
                # survives as the unit's fallback value
                finalize(index, state, value=outcomes[index].value, reason=reason)
                emit("gave-up", unit=index, state=state, attempts=slot.attempt + 1)

        def run_degraded(index: int) -> None:
            """In-process fallback: the unit still gets an answer."""
            slot = slots[index]
            slot.launched = time.monotonic()
            if slot.started is None:
                slot.started = slot.launched
            allowance = slot.remaining(slot.launched)
            if attempt_timeout is not None:
                allowance = (
                    attempt_timeout
                    if allowance is None
                    else min(allowance, attempt_timeout)
                )
            payload = slot.payload if rebudget is None else rebudget(slot.payload, allowance)
            _fault_injection.set_attempt(slot.attempt)
            begin_attempt_span(index, slot.attempt)
            degraded_span = attempt_spans.get(index)
            try:
                if recorder is not None and degraded_span is not None:
                    with recorder.under(degraded_span):
                        value = worker(payload)
                else:
                    value = worker(payload)
            except Exception as error:  # noqa: BLE001 - reported, never silent
                reason = f"{type(error).__name__}: {error}"
                record_attempt(index, CRASHED, reason)
                end_attempt_span(index, CRASHED)
                finalize(index, CRASHED, reason=reason)
            else:
                rejection = accept(slot.payload, value) if accept is not None else None
                record_attempt(index, DEGRADED, rejection or "")
                end_attempt_span(index, DEGRADED)
                finalize(index, DONE, value=value)
            finally:
                _fault_injection.set_attempt(0)
            outcomes[index].degraded = True
            emit("degraded", unit=index, state=outcomes[index].state)

        while pending or active:
            if abort is not None and abort.is_set():
                # cooperative cancellation: kill the active attempts, close
                # every unfinished unit as ``cancelled``, and stop launching
                for index, process in list(active.items()):
                    active.pop(index)
                    slots[index].close_conn()
                    self.stop(process)
                    end_attempt_span(index, CANCELLED)
                    record_attempt(index, CANCELLED, "aborted by caller")
                for index in range(len(slots)):
                    if not finished[index]:
                        finalize(
                            index,
                            CANCELLED,
                            value=outcomes[index].value,
                            reason="aborted by caller",
                        )
                pending.clear()
                emit("aborted", units=len(slots))
                break
            now = time.monotonic()

            # launch what fits; degrade when the pool is unhealthy
            launched_any = False
            rotations = 0
            while pending and len(active) < jobs and not degraded:
                index = pending[0]
                slot = slots[index]
                if slot.not_before > now:
                    # retry delay not elapsed: rotate so others can launch
                    pending.rotate(-1)
                    rotations += 1
                    if rotations >= len(pending):
                        break
                    continue
                pending.popleft()
                if slot.started is None:
                    slot.started = now
                remaining = slot.remaining(now)
                if (
                    slot.attempt > 0
                    and remaining is not None
                    and remaining <= RETRY_DELAY_S
                ):
                    # budget exhausted during the retry delay
                    finalize(index, outcomes[index].attempts[-1]["state"])
                    continue
                allowance = remaining
                if attempt_timeout is not None:
                    allowance = (
                        attempt_timeout
                        if allowance is None
                        else min(allowance, attempt_timeout)
                    )
                payload = (
                    slot.payload if rebudget is None else rebudget(slot.payload, allowance)
                )
                recv_conn, send_conn = _CONTEXT.Pipe(duplex=False)
                process = self.spawn(
                    _run_attempt, (worker, payload, slot.attempt, send_conn)
                )
                send_conn.close()
                if process is None:
                    recv_conn.close()
                    pending.appendleft(index)
                    if not self.pool_healthy:
                        degraded = True
                        emit("pool-unhealthy", error=self.last_spawn_error)
                    break
                slot.conn = recv_conn
                slot.launched = time.monotonic()
                slot.deadline = (
                    None if allowance is None else slot.launched + allowance + GRACE_SECONDS
                )
                slot.dead_since = None
                active[index] = process
                launched_any = True
                begin_attempt_span(index, slot.attempt, pid=process.pid)
                emit(
                    "attempt",
                    unit=index,
                    attempt=slot.attempt,
                    pid=process.pid,
                )

            if degraded and pending and len(active) == 0:
                # pool is gone: drain the queue in-process, sequentially,
                # until the caller aborts the map
                while pending and not (abort is not None and abort.is_set()):
                    run_degraded(pending.popleft())
                continue

            if not active:
                if not pending:
                    break
                if not launched_any and not degraded:
                    time.sleep(0.02)  # every pending retry is still in its delay
                continue

            # drain results from the per-attempt pipes
            by_conn = {
                slots[index].conn: index
                for index in active
                if slots[index].conn is not None
            }
            ready = (
                _mp_connection.wait(list(by_conn), timeout=POLL_INTERVAL_S)
                if by_conn
                else time.sleep(POLL_INTERVAL_S)
            )
            for conn in ready or ():
                index = by_conn[conn]
                slot = slots[index]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # the worker died mid-send; the reaper below classifies it
                    slot.close_conn()
                    continue
                slot.close_conn()
                status, value, trace = message
                process = active.pop(index, None)
                if process is not None:
                    self.stop(process)
                if status == "ok":
                    rejection = (
                        accept(slot.payload, value) if accept is not None else None
                    )
                    if rejection is None:
                        record_attempt(index, DONE)
                        end_attempt_span(index, DONE, trace=trace)
                        finalize(index, DONE, value=value)
                        emit("done", unit=index, attempt=slot.attempt)
                    else:
                        outcomes[index].value = value
                        end_attempt_span(index, TIMED_OUT, trace=trace)
                        retire_or_retry(index, TIMED_OUT, reason=rejection)
                else:
                    end_attempt_span(index, CRASHED, trace=trace)
                    retire_or_retry(index, CRASHED, reason=str(value))

            # reap deaths and enforce attempt deadlines
            now = time.monotonic()
            for index, process in list(active.items()):
                slot = slots[index]
                if slot.deadline is not None and now > slot.deadline:
                    active.pop(index)
                    slot.close_conn()
                    self.stop(process)
                    end_attempt_span(index, TIMED_OUT)
                    retire_or_retry(
                        index, TIMED_OUT, reason="attempt deadline exceeded"
                    )
                    continue
                if not process.is_alive():
                    if slot.dead_since is None:
                        slot.dead_since = now
                        continue
                    if now - slot.dead_since < self.REAP_GRACE_SECONDS:
                        continue  # an in-flight result may still arrive
                    active.pop(index)
                    slot.close_conn()
                    process.join()
                    end_attempt_span(index, CRASHED)
                    retire_or_retry(
                        index, CRASHED, reason="worker died without reporting"
                    )

        # defense in depth: nothing this map started may outlive it
        for index, process in active.items():  # pragma: no cover - loop drains
            slots[index].close_conn()
            self.stop(process)
            end_attempt_span(index, CRASHED)
        for index in list(unit_spans):  # pragma: no cover - finalize closes these
            finalize(
                index,
                outcomes[index].state,
                value=outcomes[index].value,
                reason=outcomes[index].reason,
            )
        return outcomes
