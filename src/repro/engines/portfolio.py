"""Process-based parallel portfolio over engine×representation configurations.

The paper's headline observation is that no single technique wins everywhere:
BMC refutes quickly, k-induction/interpolation/kIkI/PDR prove, and which
prover is fastest varies per design (Figures 3–5).  A *portfolio* exploits
exactly that: run several engine configurations concurrently on the same
verification task and take the first definitive answer.

:class:`PortfolioRunner` races the configurations as worker *processes*
(the engines are CPU-bound pure Python, so threads would serialize on the
GIL), one unit each of :meth:`repro.engines.supervision.WorkerSupervisor.run_map`
— the process primitive the batch pool and ``repro-serve`` use too, with
the same deadline, kill, retry and start-method policy.  The
first definitive answer aborts the map, which cancels the losers, and
everything is aggregated into a :class:`PortfolioResult`.  A *cross-check*
mode instead lets every worker finish and reports
:data:`repro.engines.result.Status.WRONG` when two definitive answers
disagree and certificate validation cannot settle it — the "wrong result"
category of the paper's figures, applied to our own engines.

The module holds only the race.  The configurations it races, the
picklable :class:`~repro.engines.ladder.VerificationTask` each worker
rebuilds its design from, and the cheap-first ladder that decides a query
one engine at a time all live in :mod:`repro.engines.ladder`, so a bare
query never imports this module, the supervisor or :mod:`multiprocessing`.
Before forking, the parent imports every configuration's engine and blasts
the task's templates (:func:`~repro.engines.ladder.warm_task_templates`),
so the workers inherit both by copy-on-write.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engines.encoding import cone_of_influence, widen_witness
from repro.engines.ladder import (
    PortfolioConfig,
    VerificationTask,
    default_portfolio_configs,
    warm_task_templates,
)
from repro.engines.registry import make_engine
from repro.engines.result import Counterexample, Status, VerificationResult
from repro.engines.supervision import (
    CRASHED,
    DONE,
    SupervisedOutcome,
    WorkerSupervisor,
)
from repro.obs import telemetry as _telemetry


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


#: worker states in a finished portfolio: the supervision states ``done``
#: (posted a result), ``cancelled`` (stopped after another worker won),
#: ``timed-out`` (killed past its deadline) and ``crashed`` (died without
#: posting a result), plus ``skipped`` (never started: a winner came first)
SKIPPED = "skipped"


@dataclass
class WorkerOutcome:
    """What happened to one portfolio worker."""

    label: str
    engine: str
    options: Dict[str, object]
    state: str
    result: Optional[VerificationResult] = None
    runtime: float = 0.0
    #: process attempts this configuration consumed (0 when skipped; retries
    #: increment it)
    attempts: int = 1
    #: True when the outcome was produced in-process after pool degradation
    degraded: bool = False

    @property
    def status(self) -> str:
        if self.result is not None:
            return self.result.status
        return self.state


def _worker_cpu(outcome: WorkerOutcome) -> float:
    """CPU seconds one worker consumed.

    Engines measure their own ``process_time`` (see
    :class:`repro.engines.base.Engine`), which survives the trip back from
    the worker process on ``result.cpu_time``; workers that never reported
    (killed, crashed) fall back to their wall time — an over-estimate, but
    the honest bound for a CPU-bound child the parent cannot observe.
    """
    if outcome.result is not None and outcome.result.cpu_time:
        return outcome.result.cpu_time
    return outcome.runtime


@dataclass
class PortfolioResult:
    """Aggregated outcome of one portfolio run."""

    status: str
    property_name: str
    runtime: float
    winner: Optional[str] = None  # label of the deciding configuration
    winner_engine: Optional[str] = None
    counterexample: Optional[Counterexample] = None
    workers: List[WorkerOutcome] = field(default_factory=list)
    detail: Dict[str, object] = field(default_factory=dict)
    reason: str = ""
    #: the winning configuration's checkable certificate (see :mod:`repro.certs`)
    certificate: Optional[object] = None

    @property
    def is_definitive(self) -> bool:
        return self.status in Status.DEFINITIVE

    def worker(self, label: str) -> WorkerOutcome:
        for outcome in self.workers:
            if outcome.label == label:
                return outcome
        raise KeyError(f"no portfolio worker labelled {label!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PortfolioResult({self.status}, winner={self.winner!r}, "
            f"{self.runtime:.3f}s, {len(self.workers)} workers)"
        )


# ---------------------------------------------------------------------------
# the race unit
# ---------------------------------------------------------------------------


def _run_config(
    payload: Tuple[int, PortfolioConfig, VerificationTask, Optional[str], Optional[float]],
) -> VerificationResult:
    """Run one engine configuration: the work of one supervised race unit.

    The engine runs on the property's cone of influence (``None`` means
    the first property), and a witness valuates every input of the design.
    A loader or engine failure comes back as an ``ERROR`` result (the crash
    category of the paper), so a configuration that cannot run still
    reports instead of being retried as a dead worker.
    """
    _, config, task, property_name, timeout = payload
    start = time.monotonic()
    try:
        with _telemetry.span("worker.config", label=config.label) as config_span:
            system = task.load()
            engine = make_engine(
                config.engine,
                cone_of_influence(system, property_name),
                ignore_unknown_options=True,
                **config.options_dict,
            )
            result = widen_witness(
                engine.verify(property_name, timeout=timeout), system
            )
            config_span.set_outcome(result.status)
    except Exception as error:  # noqa: BLE001 - crash category of the paper
        result = VerificationResult(
            Status.ERROR,
            config.engine,
            property_name or "",
            runtime=time.monotonic() - start,
            reason=f"{type(error).__name__}: {error}",
        )
    return result


def _worker_outcome(
    config: PortfolioConfig, outcome: SupervisedOutcome
) -> WorkerOutcome:
    """Map one supervised unit onto the portfolio's worker taxonomy.

    A unit that never launched an attempt was ``skipped``; any other keeps
    its supervision state (``done``, ``cancelled``, ``timed-out`` or
    ``crashed``).  Attempts, wall time and degradation come from the
    attempt log.
    """
    state = outcome.state if outcome.attempts else SKIPPED
    return WorkerOutcome(
        config.label,
        config.engine,
        config.options_dict,
        state,
        result=outcome.value if state == DONE else None,
        runtime=sum(attempt["runtime_s"] for attempt in outcome.attempts),
        attempts=len(outcome.attempts),
        degraded=outcome.degraded,
    )


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


class PortfolioRunner:
    """Race engine configurations in supervised worker processes.

    Each configuration is one unit of :meth:`WorkerSupervisor.run_map`,
    which owns every process concern with one policy each: deadlines,
    terminate-then-SIGKILL escalation, one retry of a worker that dies
    without reporting, the in-process fallback once spawning fails, and the
    per-attempt trace spans.  The runner sees each answer through
    run_map's ``accept`` hook; the first definitive one sets the map's
    ``abort`` event, so the losers end ``cancelled`` (running) or
    ``skipped`` (never started).

    Parameters
    ----------
    configs:
        The configurations to race (default:
        :func:`default_portfolio_configs`).
    timeout:
        Overall wall-clock budget in seconds for the whole portfolio; each
        worker's engine receives what is left of it.
    max_workers:
        Concurrent process cap (default: one process per configuration, so
        the race is decided by the OS scheduler even when configurations
        outnumber cores).  With a smaller cap the remaining configurations
        are queued and launched as slots free up.
    cross_check:
        When True the runner does *not* cancel on the first definitive
        answer; every worker runs to completion and disagreeing definitive
        answers yield an overall ``Status.WRONG``.
    expected:
        Optional ground-truth verdict (``"safe"``/``"unsafe"``).  A
        definitive portfolio answer contradicting it is reported as
        ``Status.WRONG`` — the harness-side classification of the paper.
    on_event:
        Optional callback receiving progress dicts: one ``result`` event
        per reporting worker (``{"event": "result", "label": ...,
        "status": ..., ...}``) plus the supervisor's own events
        (``attempt``, ``retry``, ``aborted``, ...) tagged with the
        configuration's label.
    certify:
        Accept a definitive worker answer only when its certificate passes
        independent validation (:func:`repro.certs.validate_result`).  Each
        claim is validated once, in the parent, as it arrives; an
        uncertified claim cannot end the race, is excluded from winning and
        is recorded under ``detail["certification"]``.
    """

    def __init__(
        self,
        configs: Optional[Sequence[PortfolioConfig]] = None,
        timeout: Optional[float] = None,
        max_workers: Optional[int] = None,
        cross_check: bool = False,
        expected: Optional[str] = None,
        on_event: Optional[Callable[[Dict[str, object]], None]] = None,
        certify: bool = False,
    ) -> None:
        self.configs = (
            list(configs) if configs is not None else default_portfolio_configs()
        )
        if not self.configs:
            raise ValueError("portfolio needs at least one configuration")
        self.timeout = timeout
        self.max_workers = max(1, max_workers or len(self.configs))
        self.cross_check = cross_check
        self.expected = expected
        self.on_event = on_event
        self.certify = certify

    # ------------------------------------------------------------------
    def run(
        self,
        task: VerificationTask,
        property_name: Optional[str] = None,
    ) -> PortfolioResult:
        """Race the configurations on ``task``; first definitive answer wins."""
        with _telemetry.span(
            "portfolio.run", task=task.name, configs=len(self.configs)
        ) as run_span:
            result = self._race(task, property_name)
            run_span.set_outcome(result.status)
            return result

    def _race(
        self,
        task: VerificationTask,
        property_name: Optional[str],
    ) -> PortfolioResult:
        start = time.monotonic()
        warm_task_templates(task, self.configs)
        deadline = start + self.timeout if self.timeout is not None else None
        supervisor = WorkerSupervisor()
        abort = threading.Event()
        winner_index: Optional[int] = None
        verdicts: Dict[int, Dict[str, object]] = {}

        def emit(event: str, **payload) -> None:
            if self.on_event is not None:
                self.on_event({"event": event, **payload})

        def verdict(index: int, result: VerificationResult) -> Dict[str, object]:
            """Independent validation of one definitive claim, run once."""
            if index not in verdicts:
                from repro.certs import validate_result

                try:
                    validation = validate_result(
                        task.load(), result, timeout=self.timeout
                    )
                    certified, reason = validation.ok, validation.reason
                except Exception as error:  # noqa: BLE001 - unchecked = uncertified
                    certified, reason = False, f"{type(error).__name__}: {error}"
                verdicts[index] = {
                    "claimed": result.status,
                    "certified": certified,
                    "reason": reason,
                }
            return verdicts[index]

        def accept(payload, result: VerificationResult) -> None:
            # every answer is accepted as the unit's own; only a definitive
            # one (certified, under certify) ends the race
            nonlocal winner_index
            index = payload[0]
            emit(
                "result",
                label=self.configs[index].label,
                status=result.status,
                runtime=result.runtime,
                detail=dict(result.detail),
            )
            if (
                result.is_definitive
                and not self.cross_check
                and winner_index is None
                and (not self.certify or verdict(index, result)["certified"])
            ):
                winner_index = index
                abort.set()

        def rebudget(payload, allowance: Optional[float]):
            # the budget covers the whole race: a configuration queued
            # behind max_workers gets what is left, not a fresh allowance
            if deadline is not None:
                left = max(0.0, deadline - time.monotonic())
                allowance = left if allowance is None else min(allowance, left)
            return payload[:4] + (allowance,)

        def forward(event: Dict[str, object]) -> None:
            if "unit" in event:
                event["label"] = self.configs[event.pop("unit")].label
            emit(event.pop("event"), **event)

        outcomes = supervisor.run_map(
            [
                (index, config, task, property_name, self.timeout)
                for index, config in enumerate(self.configs)
            ],
            _run_config,
            jobs=self.max_workers,
            timeout=self.timeout,
            rebudget=rebudget,
            accept=accept,
            on_event=forward,
            abort=abort,
        )
        workers = [
            _worker_outcome(config, outcome)
            for config, outcome in zip(self.configs, outcomes)
        ]
        supervision = {
            "spawned": supervisor.spawned,
            "spawn_failures": supervisor.spawn_failures,
            "retries": supervisor.retries_launched,
            "kills": supervisor.kills,
            "degraded": not supervisor.pool_healthy,
        }
        return self._aggregate(
            task,
            property_name,
            workers,
            winner_index,
            start,
            supervision,
            verdict,
        )

    # ------------------------------------------------------------------
    def _aggregate(
        self,
        task: VerificationTask,
        property_name: Optional[str],
        outcomes: List[WorkerOutcome],
        winner_index: Optional[int],
        start: float,
        supervision: Dict[str, object],
        verdict: Callable[[int, VerificationResult], Dict[str, object]],
    ) -> PortfolioResult:
        runtime = time.monotonic() - start
        detail: Dict[str, object] = {
            "task": task.name,
            "configs": [outcome.label for outcome in outcomes],
            "worker_statuses": {outcome.label: outcome.status for outcome in outcomes},
            "cross_check": self.cross_check,
            # CPU the race spent: each worker's measured process time (wall
            # for workers that never reported), compared against the
            # in-process ladder's CPU by the serve bench
            "cpu_s": round(sum(_worker_cpu(outcome) for outcome in outcomes), 6),
            "supervision": supervision,
        }

        definitive = [
            index
            for index, outcome in enumerate(outcomes)
            if outcome.result is not None and outcome.result.is_definitive
        ]

        # certify mode: a definitive claim counts only with a certificate the
        # independent validator accepts — a liar is excluded from winning and
        # its rejection recorded, never silently dropped
        if self.certify and definitive:
            detail["certification"] = {
                outcomes[index].label: verdict(index, outcomes[index].result)
                for index in definitive
            }
            definitive = [
                index
                for index in definitive
                if verdict(index, outcomes[index].result)["certified"]
            ]

        # cross-check: disagreeing definitive answers are adjudicated by
        # validating the workers' certificates with the independent checker;
        # only an undecidable disagreement remains a wrong result
        statuses = {outcomes[index].result.status for index in definitive}
        if len(statuses) > 1:
            detail["disagreement"] = {
                outcomes[index].label: outcomes[index].result.status
                for index in definitive
            }
            adjudicated = self._adjudicate(outcomes, definitive, detail, verdict)
            if adjudicated is None:
                return PortfolioResult(
                    Status.WRONG,
                    self._property_name(
                        property_name, [outcomes[index] for index in definitive]
                    ),
                    runtime,
                    workers=outcomes,
                    detail=detail,
                    reason=(
                        "portfolio workers returned contradictory definitive "
                        "answers and certificate validation could not adjudicate"
                    ),
                )
            winner_index = adjudicated
            definitive = [adjudicated]

        if winner_index is None and definitive:
            # cross-check mode: the earliest definitive finisher is the winner
            winner_index = min(definitive, key=lambda index: outcomes[index].runtime)

        if winner_index is not None:
            winning = outcomes[winner_index]
            result = winning.result
            assert result is not None
            status = result.status
            reason = result.reason
            if "adjudication" in detail:
                reason = (
                    f"cross-check disagreement adjudicated by certificate "
                    f"validation in favour of {winning.label}"
                )
            if self.expected is not None and status != self.expected:
                detail["expected"] = self.expected
                detail["claimed"] = status
                status = Status.WRONG
                reason = (
                    f"{winning.label} claimed {result.status!r} but the benchmark "
                    f"is known {self.expected!r}"
                )
            return PortfolioResult(
                status,
                result.property_name,
                runtime,
                winner=winning.label,
                winner_engine=winning.engine,
                counterexample=result.counterexample,
                workers=outcomes,
                detail={**detail, **{f"winner_{k}": v for k, v in result.detail.items()}},
                reason=reason,
                certificate=result.certificate,
            )

        # no definitive answer: summarize the failure categories
        finished = [outcome for outcome in outcomes if outcome.result is not None]
        statuses = [outcome.result.status for outcome in finished]
        if any(status == Status.UNKNOWN for status in statuses):
            status = Status.UNKNOWN
        elif statuses and all(status == Status.ERROR for status in statuses):
            status = Status.ERROR
        elif not statuses and any(outcome.state == CRASHED for outcome in outcomes):
            # every worker died without reporting: a crash, not a timeout
            status = Status.ERROR
        else:
            status = Status.TIMEOUT
        return PortfolioResult(
            status,
            self._property_name(property_name, finished),
            runtime,
            workers=outcomes,
            detail=detail,
            reason="no portfolio configuration reached a definitive answer",
        )

    @staticmethod
    def _adjudicate(
        outcomes: List[WorkerOutcome],
        definitive: List[int],
        detail: Dict[str, object],
        verdict: Callable[[int, VerificationResult], Dict[str, object]],
    ) -> Optional[int]:
        """Decide a definitive-answer disagreement by validating certificates.

        Every disagreeing worker's certificate is checked by the independent
        validator (through ``verdict``, which validates each claim once).
        If exactly one claimed status survives validation, the fastest
        worker holding a validated certificate of that status wins;
        otherwise (no certificate validates, or — which would indicate a
        validator bug — both sides validate) adjudication abstains and the
        caller reports WRONG.  The per-worker verdicts are recorded under
        ``detail["adjudication"]``.
        """
        detail["adjudication"] = {
            outcomes[index].label: verdict(index, outcomes[index].result)
            for index in definitive
        }
        validated = [
            index
            for index in definitive
            if verdict(index, outcomes[index].result)["certified"]
        ]
        if len({outcomes[index].result.status for index in validated}) != 1:
            return None
        return min(validated, key=lambda index: outcomes[index].runtime)

    @staticmethod
    def _property_name(
        property_name: Optional[str], outcomes: Sequence[WorkerOutcome]
    ) -> str:
        if property_name:
            return property_name
        for outcome in outcomes:
            if outcome.result is not None and outcome.result.property_name:
                return outcome.result.property_name
        return ""

