"""Process-based parallel portfolio over engine×representation configurations.

The paper's headline observation is that no single technique wins everywhere:
BMC refutes quickly, k-induction/interpolation/kIkI/PDR prove, and which
prover is fastest varies per design (Figures 3–5).  A *portfolio* exploits
exactly that: run several engine configurations concurrently on the same
verification task and take the first definitive answer.

:class:`PortfolioRunner` races the configurations as worker *processes*
(the engines are CPU-bound pure Python, so threads would serialize on the
GIL), one unit each of :meth:`repro.engines.supervision.WorkerSupervisor.run_map`
— the process primitive the batch pool and ``repro-serve`` use too.  The
first definitive answer aborts the map, which cancels the losers, and
everything is aggregated into a :class:`PortfolioResult`.  A *cross-check*
mode instead lets every worker finish and reports
:data:`repro.engines.result.Status.WRONG` when two definitive answers
disagree and certificate validation cannot settle it — the "wrong result"
category of the paper's figures, applied to our own engines.

The module also builds the cheap-first budget ladder
(:func:`default_budget_ladder`), which one function walks:
:func:`repro.engines.batch.run_sequential_ladder`.

Workers receive a picklable :class:`VerificationTask` (a suite benchmark
name, a Verilog/AIGER file path, or a transition system) and rebuild the
design in the child process, so nothing non-picklable ever crosses the
process boundary under any start method.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engines.registry import list_engines, make_engine
from repro.engines.result import Counterexample, Status, VerificationResult
from repro.engines.supervision import (
    CRASHED,
    DONE,
    RetryPolicy,
    SupervisedOutcome,
    WorkerSupervisor,
)
from repro.netlist import TransitionSystem
from repro.obs import telemetry as _telemetry


# ---------------------------------------------------------------------------
# task and configuration descriptions (picklable)
# ---------------------------------------------------------------------------


#: (kind, spec) -> (file stamp, built transition system) for the file-based
#: task kinds; suite benchmarks have their own memo (``load_system_cached``).
#: Sharing one instance per task means every load within a process — the
#: CLI's verify / certify / save-certificate steps, the portfolio parent's
#: pre-warm and adjudication, every batch item on the same file — resolves
#: to the same object, so the template library (keyed by instance) is
#: blasted once instead of once per load.  The (mtime, size) stamp
#: invalidates the entry when the file changes on disk: a long-lived serving
#: process must never answer for stale file contents (the result cache keys
#: off whatever system this loader returns).
_TASK_SYSTEMS: Dict[Tuple[str, object], Tuple[object, TransitionSystem]] = {}

#: memo cap: a pinned TransitionSystem also pins its blasted template
#: libraries, so a long-lived serving process sweeping many distinct files
#: must not grow without bound; eviction is oldest-first (dict order)
_TASK_SYSTEMS_MAX = 64


def _file_stamp(path: str) -> Optional[Tuple[int, int]]:
    try:
        stat = os.stat(path)
        return (stat.st_mtime_ns, stat.st_size)
    except OSError:
        return None


@dataclass(frozen=True)
class VerificationTask:
    """A picklable description of *what* to verify.

    ``kind`` selects the loader: a suite ``"benchmark"`` by name, a
    ``"verilog"`` or ``"aiger"`` file by path, or a ``"system"`` carried
    directly (requires the transition system itself to pickle, which holds
    under the default ``fork`` start method on POSIX).
    """

    kind: str
    spec: object
    name: str = ""

    @staticmethod
    def benchmark(name: str) -> "VerificationTask":
        return VerificationTask("benchmark", name, name)

    @staticmethod
    def verilog(path: str, top: Optional[str] = None) -> "VerificationTask":
        return VerificationTask("verilog", (path, top), os.path.basename(path))

    @staticmethod
    def aiger(path: str) -> "VerificationTask":
        return VerificationTask("aiger", path, os.path.basename(path))

    @staticmethod
    def system(system: TransitionSystem) -> "VerificationTask":
        return VerificationTask("system", system, system.name)

    def load(self, fresh: bool = False) -> TransitionSystem:
        """Build (or fetch the memoized) transition system of this task.

        Every kind resolves through a per-process memo: suite benchmarks via
        :func:`repro.benchmarks.load_system_cached`, Verilog/AIGER files via
        a ``(kind, spec)`` table here.  Repeated loads therefore return the
        *same instance*, so the blasted frame templates (cached per system
        object) are built once per process — and under the ``fork`` start
        method a worker's load returns the very object the parent
        pre-warmed, so the templates arrive via copy-on-write memory
        instead of being rebuilt per worker.  Pass ``fresh=True`` to force
        a cold rebuild (timing harnesses).
        """
        if self.kind == "system":
            return self.spec
        if self.kind == "benchmark":
            from repro.benchmarks import load_system, load_system_cached

            return load_system(self.spec) if fresh else load_system_cached(self.spec)
        key = (self.kind, self.spec)
        path = self.spec[0] if self.kind == "verilog" else self.spec
        stamp = _file_stamp(path)
        if not fresh:
            cached = _TASK_SYSTEMS.get(key)
            if cached is not None and cached[0] == stamp:
                return cached[1]
        if self.kind == "verilog":
            from repro.synth import synthesize_file

            path, top = self.spec
            system = synthesize_file(path, top=top)
        elif self.kind == "aiger":
            from repro.aig.bitblast import transition_system_from_aig
            from repro.aig.formats import read_aiger

            with open(self.spec, "r", encoding="utf-8") as handle:
                system = transition_system_from_aig(read_aiger(handle.read()))
        else:
            raise ValueError(f"unknown task kind {self.kind!r}")
        if not fresh:
            while len(_TASK_SYSTEMS) >= _TASK_SYSTEMS_MAX:
                _TASK_SYSTEMS.pop(next(iter(_TASK_SYSTEMS)))
            _TASK_SYSTEMS[key] = (stamp, system)
        return system


def warm_task_templates(
    task: "VerificationTask", representations: Sequence[str]
) -> None:
    """Blast a task's frame-template libraries in the calling process.

    The template cache is keyed by system instance, and every task kind
    resolves repeated loads to the same instance (benchmarks via the
    memoized suite loader, files via the stamped per-task memo, systems by
    identity) — so workers forked after this call find the parent's warm
    blast in copy-on-write memory.  Shared by the portfolio race, the batch
    pool and the serve layer.  Best-effort: failures are ignored, a worker
    that cannot build templates reports its own error through the normal
    result channel.
    """
    try:
        from repro.engines.encoding import template_library

        system = task.load()
        for representation in sorted(set(map(str, representations))):
            library = template_library(system, representation)
            for prop in library.flat.properties:
                library.property_template(prop.name)
    except Exception:  # noqa: BLE001 - warm-up is best effort
        pass


@dataclass(frozen=True)
class PortfolioConfig:
    """One engine configuration raced by the portfolio."""

    engine: str
    options: Tuple[Tuple[str, object], ...] = ()

    @staticmethod
    def of(engine: str, **options) -> "PortfolioConfig":
        return PortfolioConfig(engine, tuple(sorted(options.items())))

    @property
    def options_dict(self) -> Dict[str, object]:
        return dict(self.options)

    @property
    def label(self) -> str:
        representation = self.options_dict.get("representation", "word")
        return f"{self.engine}[{representation}]"


def bound_options(bound: int) -> Dict[str, object]:
    """The shared depth-cap option bag, routed per engine by the drivers.

    Each engine keeps only the key it understands (``max_bound`` for BMC,
    ``max_k`` for k-induction/kIkI, ``max_depth`` for interpolation/IMPACT,
    ``max_frames`` for PDR).
    """
    return {
        "max_bound": bound,
        "max_k": bound,
        "max_depth": bound,
        "max_frames": max(bound, 2),
    }


def default_portfolio_configs(
    representations: Sequence[str] = ("word",),
    bound: Optional[int] = None,
) -> List[PortfolioConfig]:
    """The default engine×representation fan-out.

    Takes every portfolio-flagged engine of the registry crossed with the
    requested representations (filtered by each engine's declared
    capabilities).  ``bound`` caps the search depth of the bounded/iterative
    engines through the shared option bag (routed per engine, see
    :func:`repro.engines.registry.make_engine`).
    """
    configs: List[PortfolioConfig] = []
    for representation in representations:
        for registration in list_engines(portfolio_only=True):
            if representation not in registration.capabilities.representations:
                continue
            options: Dict[str, object] = {"representation": representation}
            if bound is not None:
                options.update(bound_options(bound))
            configs.append(PortfolioConfig.of(registration.name, **options))
    return configs


# ---------------------------------------------------------------------------
# budget-ladder scheduling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LadderRung:
    """One rung of a budget ladder: a config group and its wall-clock budget.

    ``budget`` is the rung's wall-clock allowance in seconds (``None``:
    whatever remains of the overall budget — the usual choice for the final
    rung).  :func:`repro.engines.batch.run_sequential_ladder` runs the rungs
    in order, one configuration at a time, and escalates only when a rung
    ends without a definitive answer.
    """

    configs: Tuple[PortfolioConfig, ...]
    budget: Optional[float] = None
    tier: str = ""

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(config.label for config in self.configs)


#: fraction of the overall budget granted to the non-final tiers; the final
#: tier always receives whatever remains
DEFAULT_RUNG_FRACTIONS = {"cheap": 0.10, "medium": 0.30}

#: floor (seconds) of a non-final rung's budget: a short overall timeout
#: still leaves the cheap engines time to answer
MIN_RUNG_BUDGET = 0.5


def learn_priors(paths: Sequence[str]) -> Dict[str, Dict[str, float]]:
    """Learn engine priors from the benchmark reports at ``paths``.

    Scans benchmark reports (portfolio singles, certification sweeps,
    incremental verdict sweeps, serve sweeps) for per-engine run outcomes
    and aggregates them into ``{engine: {runs, definitive_rate,
    mean_runtime_s, score}}``.  ``score`` orders engines within a ladder
    rung — lower is better: historically fast engines that actually reach
    verdicts launch first.  Missing or unreadable reports contribute
    nothing; with no data the returned dict is empty and the ladder keeps
    its default order.  The caller names the reports: nothing in the
    package reads whatever happens to lie in the working directory.
    """
    import json

    samples: Dict[str, List[Tuple[float, bool]]] = {}

    from repro.engines.registry import ENGINE_REGISTRY

    def record(engine: str, runtime: object, status: object) -> None:
        if not isinstance(runtime, (int, float)):
            return
        engine = str(engine).split("[", 1)[0]
        # canonicalize through the registry: batch sweeps record the engine
        # *class* name ("abstract-interpretation"), ladder configs look
        # priors up by registry name ("absint") — both must hit one bucket
        registration = ENGINE_REGISTRY.get(engine)
        if registration is not None:
            engine = registration.name
        samples.setdefault(engine, []).append(
            (float(runtime), status in Status.DEFINITIVE)
        )

    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                report = json.load(handle)
        except (OSError, ValueError) as error:
            warnings.warn(
                f"learn_priors: skipping unreadable benchmark report "
                f"{path}: {error}",
                stacklevel=2,
            )
            continue
        if not isinstance(report, dict):
            warnings.warn(
                f"learn_priors: skipping malformed benchmark report "
                f"{path}: top level is not an object",
                stacklevel=2,
            )
            continue
        # a torn or hand-mangled report may hold any shape under these
        # keys; one bad report must not poison prior learning for the rest
        try:
            for row in report.get("portfolio", []) or []:
                for label, single in (row.get("singles") or {}).items():
                    record(label, single.get("runtime_s"), single.get("status"))
            for row in report.get("certification", []) or []:
                for engine, outcome in (row.get("engines") or {}).items():
                    record(engine, outcome.get("runtime_s"), outcome.get("status"))
            for row in report.get("verdict_sweep", []) or []:
                for engine, outcome in (row.get("engines") or {}).items():
                    session = outcome.get("session") or {}
                    record(engine, session.get("runtime_s"), session.get("status"))
            sweeps = report.get("sweeps") or {}
            for sweep in sweeps.values():
                for item in (sweep or {}).get("items", []) or []:
                    engine = str(item.get("source", ""))
                    if engine.startswith("cache"):
                        continue
                    record(engine, item.get("runtime_s"), item.get("status"))
        except (AttributeError, TypeError, ValueError) as error:
            warnings.warn(
                f"learn_priors: skipping malformed benchmark report "
                f"{path}: {error}",
                stacklevel=2,
            )
            continue

    priors: Dict[str, Dict[str, float]] = {}
    for engine, runs in samples.items():
        total = sum(runtime for runtime, _ in runs)
        definitive = sum(1 for _, ok in runs if ok)
        rate = definitive / len(runs)
        mean = total / len(runs)
        priors[engine] = {
            "runs": len(runs),
            "definitive_rate": round(rate, 4),
            "mean_runtime_s": round(mean, 6),
            # fast deciders first; an engine that rarely decides is heavily
            # discounted but never excluded (the rung still runs it)
            "score": round(mean / max(rate, 0.05), 6),
        }
    return priors


def default_budget_ladder(
    representations: Sequence[str] = ("word",),
    bound: Optional[int] = None,
    timeout: Optional[float] = None,
    priors: Optional[Dict[str, Dict[str, float]]] = None,
) -> List[LadderRung]:
    """Build the default budget ladder from the engines' declared cost tiers.

    Ladder-flagged engines are grouped by
    :attr:`repro.engines.base.EngineCapabilities.cost` — interval abstract
    interpretation and random simulation first at a small slice of the
    budget, the k-induction family and BMC (k-induction's base case) next,
    the fixpoint provers last with everything that remains:
    ``[absint, rsim] -> [k-induction, kiki, bmc] -> [interpolation, pdr]``.
    Within a rung, engines that can prove run before refute-only ones,
    otherwise in registration order; ``priors`` (see :func:`learn_priors`),
    when the caller passes them, order each rung by historical score
    first.  Empty tiers are skipped.
    """
    from repro.engines.base import EngineCapabilities

    tiers: Dict[str, List[PortfolioConfig]] = {
        tier: [] for tier in EngineCapabilities.COST_TIERS
    }
    order: Dict[str, int] = {}
    refute_only: Dict[str, bool] = {}
    for representation in representations:
        for registration in list_engines(ladder_only=True):
            if representation not in registration.capabilities.representations:
                continue
            options: Dict[str, object] = {"representation": representation}
            if bound is not None:
                options.update(bound_options(bound))
            config = PortfolioConfig.of(registration.name, **options)
            tiers[registration.capabilities.cost].append(config)
            order[config.label] = len(order)
            refute_only[config.label] = not registration.capabilities.can_prove

    def sort_key(config: PortfolioConfig) -> Tuple[float, bool, int]:
        prior = (priors or {}).get(config.engine)
        score = prior["score"] if prior else float("inf")
        return (score, refute_only[config.label], order[config.label])

    populated = [
        (tier, configs) for tier, configs in tiers.items() if configs
    ]
    rungs: List[LadderRung] = []
    for index, (tier, configs) in enumerate(populated):
        final = index == len(populated) - 1
        budget: Optional[float] = None
        if not final and timeout is not None:
            fraction = DEFAULT_RUNG_FRACTIONS.get(tier, 0.2)
            budget = max(MIN_RUNG_BUDGET, timeout * fraction)
        rungs.append(
            LadderRung(tuple(sorted(configs, key=sort_key)), budget, tier)
        )
    return rungs


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

    A loader or engine failure comes back as an ``ERROR`` result (the crash
    category of the paper), so a configuration that cannot run still
    reports instead of being retried as a dead worker.
    """
    _, config, task, property_name, timeout = payload
    start = time.monotonic()
    try:
        with _telemetry.span("worker.config", label=config.label) as config_span:
            engine = make_engine(
                config.engine,
                task.load(),
                ignore_unknown_options=True,
                **config.options_dict,
            )
            result = engine.verify(property_name, timeout=timeout)
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
    which owns every process concern: deadlines, terminate-then-SIGKILL
    escalation, retries of workers that die without reporting, the
    in-process fallback once spawning fails, and the per-attempt trace
    spans.  The runner sees each answer through run_map's ``accept`` hook;
    the first definitive one sets the map's ``abort`` event, so the losers
    end ``cancelled`` (running) or ``skipped`` (never started).

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
    retry:
        :class:`repro.engines.supervision.RetryPolicy` for workers that die
        without reporting: the crashed configuration is relaunched with
        exponential backoff while its budget allows (default: one retry).
    certify:
        Accept a definitive worker answer only when its certificate passes
        independent validation (:func:`repro.certs.validate_result`).  Each
        claim is validated once, in the parent, as it arrives; an
        uncertified claim cannot end the race, is excluded from winning and
        is recorded under ``detail["certification"]``.
    """

    #: grace past a worker's deadline before it is stopped, and between the
    #: stop's SIGTERM and SIGKILL
    GRACE_SECONDS = 2.0

    def __init__(
        self,
        configs: Optional[Sequence[PortfolioConfig]] = None,
        timeout: Optional[float] = None,
        max_workers: Optional[int] = None,
        cross_check: bool = False,
        expected: Optional[str] = None,
        on_event: Optional[Callable[[Dict[str, object]], None]] = None,
        retry: Optional[RetryPolicy] = None,
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
        self.retry = retry if retry is not None else RetryPolicy()
        self.certify = certify
        start_methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in start_methods else "spawn"
        )

    # ------------------------------------------------------------------
    def _prewarm(self, task: VerificationTask) -> None:
        """Blast the task's frame templates once, in the parent, before forking.

        Every representation the configurations use is warmed, so the
        forked workers find their ``(system, representation)`` template
        library already built in inherited (copy-on-write) memory.  No-op
        under the ``spawn`` start method (workers warm their own caches
        there).
        """
        if self._context.get_start_method() != "fork":
            return
        warm_task_templates(
            task,
            {
                str(config.options_dict.get("representation", "word"))
                for config in self.configs
            },
        )

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
        self._prewarm(task)
        deadline = start + self.timeout if self.timeout is not None else None
        supervisor = WorkerSupervisor(
            self._context, retry=self.retry, grace=self.GRACE_SECONDS
        )
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
            kill_grace=self.GRACE_SECONDS,
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

