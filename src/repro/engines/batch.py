"""Batched suite sweeps over one warm process pool.

The serving workload of the ROADMAP is not "one design, one query" but a
*sweep*: many designs × properties verified together, repeatedly.  The
:class:`BatchRunner` turns such a sweep into one warm pipeline:

* items are expanded to one unit of work per ``(design, property)`` — a
  multi-property design is sharded one worker per *property*, so its
  properties verify concurrently while sharing the design's blast;
* the parent imports the ladder's engines and pre-blasts every task's
  frame-template library once and then forks the pool, so all workers
  inherit both via copy-on-write (same mechanism as the portfolio pre-warm,
  amortized over the whole batch instead of one query);
* each item is first looked up in the certificate-keyed
  :class:`repro.cache.ResultCache` (when one is attached): hits are served
  from the parent after independent re-validation, only misses reach the
  pool, which is one :meth:`WorkerSupervisor.run_map`: a unit that crashed,
  timed out or came back without a verdict is retried once, but a ladder on
  which every engine ran cleanly to ``unknown`` is final;
* pool workers run the budget ladder
  (:func:`repro.engines.ladder.run_sequential_ladder`, the package's one
  ladder loop, which bare ``repro-verify`` queries also run in-process):
  with the pool already saturating the cores on batch parallelism, racing
  engines per item would oversubscribe — instead each worker escalates
  cheap → medium → heavy one engine at a time and stops at the first
  definitive answer;
* definitive results flow back to the parent, are validated, minimized and
  stored into the cache, so the *next* sweep over the same designs is all
  hits.

The module holds only the pool; the ladder it runs lives in
:mod:`repro.engines.ladder`.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engines.ladder import (
    LadderRung,
    VerificationTask,
    default_budget_ladder,
    run_sequential_ladder,
    warm_task_templates,
)
from repro.engines.result import Status, VerificationResult
from repro.engines.supervision import (
    CANCELLED as _UNIT_CANCELLED,
    START_METHOD,
    TIMED_OUT as _UNIT_TIMED_OUT,
    SupervisedOutcome,
    WorkerSupervisor,
)
from repro.obs import telemetry as _telemetry


# ---------------------------------------------------------------------------
# batch items and per-item results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchItem:
    """One batch request: a task and (optionally) one of its properties.

    ``property_name=None`` expands to one unit of work per declared
    property of the design.  ``expected`` is the known ground truth used for
    the WRONG classification; for suite benchmarks it defaults to the
    suite's recorded verdict.
    """

    task: VerificationTask
    property_name: Optional[str] = None
    expected: Optional[str] = None

    @staticmethod
    def benchmark(name: str, property_name: Optional[str] = None) -> "BatchItem":
        return BatchItem(VerificationTask.benchmark(name), property_name)


@dataclass
class BatchItemResult:
    """The outcome of one ``(design, property)`` unit of work."""

    design: str
    property_name: str
    status: str
    #: "cache" for hits, the deciding engine name for pool runs
    source: str
    runtime_s: float
    #: True iff the verdict is backed by an independently validated
    #: certificate (always true for cache hits; true for stored results)
    validated: bool = False
    stored: bool = False
    rung: Optional[int] = None
    expected: Optional[str] = None
    reason: str = ""
    minimization: Optional[Dict[str, object]] = None
    #: supervision record of the unit (attempt log, retries, degradation)
    supervision: Optional[Dict[str, object]] = None

    @property
    def correct(self) -> Optional[bool]:
        if self.expected is None or self.status not in Status.DEFINITIVE:
            return None
        return self.status == self.expected


@dataclass
class BatchReport:
    """Aggregated outcome of one batch sweep."""

    items: List[BatchItemResult] = field(default_factory=list)
    wall_s: float = 0.0
    workers: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    demotions: int = 0
    #: supervised retries launched across all units
    retries: int = 0
    #: units that ran in-process after the pool went unhealthy
    degraded: int = 0

    @property
    def all_definitive(self) -> bool:
        return all(item.status in Status.DEFINITIVE for item in self.items)

    @property
    def all_correct(self) -> bool:
        return all(item.correct is not False for item in self.items)

    def verdicts(self) -> Dict[Tuple[str, str], str]:
        return {
            (item.design, item.property_name): item.status for item in self.items
        }


# ---------------------------------------------------------------------------
# the pool worker
# ---------------------------------------------------------------------------


def _batch_worker(
    payload: Tuple[
        int, VerificationTask, Optional[str], Tuple[LadderRung, ...], Optional[float], bool
    ],
) -> Tuple[int, VerificationResult]:
    """Run one unit of work (sequential ladder) in a pool process."""
    index, task, property_name, rungs, timeout, certify = payload
    start = time.monotonic()
    try:
        with _telemetry.span(
            "batch.unit", design=task.name, property=property_name or ""
        ) as unit_span:
            system = task.load()
            result = run_sequential_ladder(
                system, property_name, rungs, timeout, certify=certify
            )
            unit_span.set_outcome(result.status)
    except Exception as error:  # noqa: BLE001 - loader/ladder crash
        result = VerificationResult(
            Status.ERROR,
            "batch",
            property_name or "",
            runtime=time.monotonic() - start,
            reason=f"{type(error).__name__}: {error}",
        )
    try:
        pickle.dumps(result)
    except Exception:  # pragma: no cover - unpicklable engine detail
        result = VerificationResult(
            result.status,
            result.engine,
            result.property_name,
            runtime=result.runtime,
            reason=result.reason or "detail dropped (not picklable)",
        )
    return index, result


def _result_from_outcome(
    outcome: SupervisedOutcome, property_name: Optional[str]
) -> VerificationResult:
    """Map a supervised unit that never reported into the result taxonomy.

    Used when ``outcome.value`` is ``None`` — the worker crashed, timed out,
    or the unit was cancelled before any attempt answered.  The supervision
    state surfaces through an ordinary :class:`VerificationResult`, never a
    silent skip.
    """
    if outcome.state == _UNIT_TIMED_OUT:
        status = Status.TIMEOUT
    elif outcome.state == _UNIT_CANCELLED:
        status = Status.UNKNOWN
    else:
        status = Status.ERROR
    runtime = sum(a.get("runtime_s", 0.0) for a in outcome.attempts)
    return VerificationResult(
        status,
        "batch",
        property_name or "",
        runtime=runtime,
        reason=(
            f"worker {outcome.state} after {len(outcome.attempts)} attempt(s)"
            + (f": {outcome.reason}" if outcome.reason else "")
        ),
    )


def run_supervised_unit(
    task: VerificationTask,
    property_name: Optional[str],
    rungs: Sequence[LadderRung],
    timeout: Optional[float] = None,
    attempt_timeout: Optional[float] = None,
    certify: bool = False,
    abort=None,
    on_event=None,
) -> Tuple[VerificationResult, SupervisedOutcome]:
    """Run one ``(task, property)`` unit in a supervised worker process.

    This is the single-unit form of the batch pool: one payload through
    :meth:`WorkerSupervisor.run_map` with the same rebudgeting (the attempt
    allowance is threaded into the ladder so engines and solvers arm their
    cooperative deadlines) and the same semantic acceptance test
    (:func:`_accept_definitive`).  The serve layer runs every admitted
    request through here, so a server request gets exactly the
    deadline/kill/retry hygiene of a batch unit — plus ``abort``, a
    settable event, for client-disconnect cancellation (see
    :meth:`WorkerSupervisor.run_map`).
    """
    payload = (0, task, property_name, tuple(rungs), timeout, certify)
    outcomes = WorkerSupervisor().run_map(
        [payload],
        _batch_worker,
        jobs=1,
        timeout=timeout,
        attempt_timeout=attempt_timeout,
        rebudget=lambda p, allowance: p[:4] + (allowance,) + p[5:],
        accept=_accept_definitive,
        abort=abort,
        on_event=on_event,
    )
    outcome = outcomes[0]
    if outcome.value is not None:
        _, result = outcome.value
    else:
        result = _result_from_outcome(outcome, property_name)
    return result, outcome


def _accept_definitive(payload, value) -> Optional[str]:
    """Supervision acceptance test for a batch worker's answer.

    A definitive verdict is final, and so is a ladder on which every engine
    ran cleanly to ``unknown``: a retry would repeat the same deterministic
    work.  Any other inconclusive ladder (an engine crashed, ran out of
    budget or had its certificate rejected, which is what faults leave
    behind) is worth retrying while the unit still has wall budget — the
    supervisor keeps the rejected answer as the fallback if the retry fares
    no better.
    """
    try:
        _, result = value
    except (TypeError, ValueError):
        return "malformed worker answer"
    if result.status in Status.DEFINITIVE:
        return None
    attempts = result.detail.get("ladder_attempts")
    if attempts and all(attempt["status"] == Status.UNKNOWN for attempt in attempts):
        return None
    return f"no definitive verdict ({result.status}: {result.reason or 'inconclusive'})"


# ---------------------------------------------------------------------------
# the batch runner
# ---------------------------------------------------------------------------


class BatchRunner:
    """Verify many designs × properties through one warm process pool.

    Parameters
    ----------
    cache:
        Optional :class:`repro.cache.ResultCache`.  Hits are served from
        the parent after re-validation; definitive pool results are
        validated, minimized and stored back, so the cache warms up over
        the batch and across batches.
    jobs:
        Pool size (default: CPU count, capped by the number of misses).
    timeout:
        Per-item wall-clock budget in seconds.
    bound:
        Search-depth cap routed to every engine of the ladder.  Each worker
        escalates through the cost-tier ladder of
        :func:`repro.engines.ladder.default_budget_ladder`.
    on_event:
        Optional callback receiving progress dicts (``hit``/``scheduled``/
        ``result``/``stored``/``supervision`` events).
    attempt_timeout:
        Per-attempt wall cap in seconds (on top of the per-item ``timeout``
        budget); a wedged worker is killed at this cap plus the
        supervisor's grace, then retried once under the remaining budget.
    certify:
        Accept a definitive ladder answer only when its certificate passes
        independent validation (see
        :func:`repro.engines.ladder.run_sequential_ladder`).
    """

    def __init__(
        self,
        cache=None,
        jobs: Optional[int] = None,
        timeout: Optional[float] = None,
        bound: Optional[int] = None,
        representation: str = "word",
        on_event: Optional[Callable[[Dict[str, object]], None]] = None,
        attempt_timeout: Optional[float] = None,
        certify: bool = False,
    ) -> None:
        self.cache = cache
        self.jobs = jobs
        self.timeout = timeout
        self.bound = bound
        self.representation = representation
        self.ladder = tuple(
            default_budget_ladder((representation,), bound=bound, timeout=timeout)
        )
        self.on_event = on_event
        self.attempt_timeout = attempt_timeout
        self.certify = certify

    # ------------------------------------------------------------------
    def _emit(self, event: str, **payload) -> None:
        if self.on_event is not None:
            self.on_event({"event": event, **payload})

    def _expand(
        self, items: Sequence[BatchItem]
    ) -> List[Tuple[VerificationTask, str, Optional[str]]]:
        """One unit of work per (task, property): the per-property sharding."""
        units: List[Tuple[VerificationTask, str, Optional[str]]] = []
        for item in items:
            expected = item.expected
            if expected is None and item.task.kind == "benchmark":
                from repro.benchmarks import get_benchmark

                expected = get_benchmark(item.task.spec).expected
            if item.property_name is not None:
                units.append((item.task, item.property_name, expected))
                continue
            try:
                system = item.task.load()
            except Exception:  # noqa: BLE001 - loader/parse failures
                # keep the unit: the pool worker re-attempts the load and
                # reports the failure as this item's ERROR result, so one
                # bad target cannot abort the rest of the sweep
                units.append((item.task, "", expected))
                continue
            for prop in system.properties:
                units.append((item.task, prop.name, expected))
        return units

    def _prewarm(self, units: Sequence[Tuple[VerificationTask, str, Optional[str]]]) -> None:
        """Warm the parent once before forking the pool: engines and templates."""
        if START_METHOD != "fork":
            return
        configs = [config for rung in self.ladder for config in rung.configs]
        seen = set()
        for task, _, _ in units:
            key = (task.kind, id(task.spec) if task.kind == "system" else task.spec)
            if key in seen:
                continue
            seen.add(key)
            warm_task_templates(task, configs)

    # ------------------------------------------------------------------
    def run(self, items: Sequence[BatchItem]) -> BatchReport:
        """Sweep the batch; returns the per-item report."""
        with _telemetry.span("batch.run", items=len(items)) as batch_span:
            report = self._run(items)
            batch_span.annotate(
                units=len(report.items),
                cache_hits=report.cache_hits,
                cache_misses=report.cache_misses,
            )
            return report

    def _run(self, items: Sequence[BatchItem]) -> BatchReport:
        start = time.monotonic()
        units = self._expand(items)
        report = BatchReport(items=[None] * len(units))  # type: ignore[list-item]

        # serve cache hits from the parent (re-validated), queue the misses
        pending: List[int] = []
        for index, (task, property_name, expected) in enumerate(units):
            if self.cache is None:
                pending.append(index)
                continue
            try:
                system = task.load()
            except Exception:  # noqa: BLE001 - loader/parse failures
                pending.append(index)  # the worker reports the load error
                continue
            lookup = self.cache.lookup(system, property_name, self.representation)
            if lookup.hit:
                assert lookup.result is not None
                report.cache_hits += 1
                entry = lookup.entry
                report.items[index] = BatchItemResult(
                    design=task.name,
                    property_name=property_name,
                    status=lookup.result.status,
                    source="cache",
                    runtime_s=lookup.runtime_s,
                    validated=True,
                    expected=expected,
                    reason=lookup.result.reason,
                    minimization=(
                        {
                            "minimized": entry.minimized,
                            "original_size": entry.original_size,
                            "size": entry.size,
                        }
                        if entry is not None and entry.size is not None
                        else None
                    ),
                )
                self._emit(
                    "hit",
                    design=task.name,
                    property=property_name,
                    status=lookup.result.status,
                )
            else:
                report.cache_misses += 1
                if lookup.demoted:
                    report.demotions += 1
                    self._emit(
                        "demoted",
                        design=task.name,
                        property=property_name,
                        reason=lookup.reason,
                    )
                pending.append(index)

        if pending:
            self._prewarm([units[index] for index in pending])
            jobs = self.jobs or os.cpu_count() or 1
            jobs = max(1, min(jobs, len(pending)))
            report.workers = jobs
            payloads = [
                (
                    index,
                    units[index][0],
                    units[index][1],
                    self.ladder,
                    self.timeout,
                    self.certify,
                )
                for index in pending
            ]
            for index in pending:
                task, property_name, _ = units[index]
                self._emit("scheduled", design=task.name, property=property_name)

            def on_supervision(event: Dict[str, object]) -> None:
                fields = {"kind" if k == "event" else k: v for k, v in event.items()}
                if "unit" in event:
                    task, property_name, _ = units[pending[event["unit"]]]
                    fields.update(design=task.name, property=property_name)
                self._emit("supervision", **fields)

            outcomes = WorkerSupervisor().run_map(
                payloads,
                _batch_worker,
                jobs=jobs,
                timeout=self.timeout,
                attempt_timeout=self.attempt_timeout,
                # thread the attempt's allowance into the payload so the
                # ladder (and its solvers) arm cooperative deadlines; the
                # external kill is only the backstop for wedged workers
                rebudget=lambda payload, allowance: (
                    payload[:4] + (allowance,) + payload[5:]
                ),
                accept=_accept_definitive,
                on_event=on_supervision,
            )
            for payload, outcome in zip(payloads, outcomes):
                index = payload[0]
                task, property_name, expected = units[index]
                if outcome.value is not None:
                    _, result = outcome.value
                else:
                    # the unit never reported: surface the supervision state
                    # through the ordinary result taxonomy, never skip it
                    result = _result_from_outcome(outcome, property_name)
                row = self._finish(task, property_name, expected, result)
                row.supervision = outcome.to_json()
                report.items[index] = row
                report.retries += max(0, len(outcome.attempts) - 1)
                if outcome.degraded:
                    report.degraded += 1

        report.wall_s = time.monotonic() - start
        return report

    # ------------------------------------------------------------------
    def _finish(
        self,
        task: VerificationTask,
        property_name: str,
        expected: Optional[str],
        result: VerificationResult,
    ) -> BatchItemResult:
        """Record one pool result, storing it into the cache when possible."""
        row = BatchItemResult(
            design=task.name,
            property_name=property_name,
            status=result.status,
            source=result.engine,
            runtime_s=result.runtime,
            rung=result.detail.get("ladder_rung"),
            expected=expected,
            reason=result.reason,
        )
        self._emit(
            "result",
            design=task.name,
            property=property_name,
            status=result.status,
            source=result.engine,
            runtime=result.runtime,
        )
        if self.cache is not None and result.is_definitive:
            system = task.load()
            outcome = self.cache.store(
                system, property_name, self.representation, result, design=task.name
            )
            row.stored = outcome.stored
            row.validated = outcome.stored
            if outcome.minimization is not None:
                row.minimization = {
                    "minimized": bool(outcome.minimization.dropped),
                    "original_size": outcome.minimization.original_size,
                    "size": outcome.minimization.size,
                    "checks": outcome.minimization.checks,
                    "validate_original_s": round(outcome.validate_original_s or 0.0, 6),
                    "validate_minimized_s": round(outcome.validate_minimized_s or 0.0, 6),
                }
            if outcome.stored:
                self._emit(
                    "stored", design=task.name, property=property_name, key=outcome.key
                )
            else:
                row.reason = (row.reason + "; " if row.reason else "") + (
                    f"not cached: {outcome.reason}"
                )
        return row
