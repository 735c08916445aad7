"""Process-based parallel portfolio over engine×representation configurations.

The paper's headline observation is that no single technique wins everywhere:
BMC refutes quickly, k-induction/interpolation/kIkI/PDR prove, and which
prover is fastest varies per design (Figures 3–5).  A *portfolio* exploits
exactly that: run several engine configurations concurrently on the same
verification task and take the first definitive answer.

:class:`PortfolioRunner` fans the configurations out as worker *processes*
(``multiprocessing``; the engines are CPU-bound pure Python, so threads would
serialize on the GIL), streams per-worker lifecycle events and statistics
back over a queue, cancels the losers as soon as one worker returns a
definitive SAFE/UNSAFE answer, and aggregates everything into a
:class:`PortfolioResult`.  A *cross-check* mode instead lets every worker
finish and reports :data:`repro.engines.result.Status.WRONG` when two
definitive answers disagree — the "wrong result" category of the paper's
figures, applied to our own engines.

Workers receive a picklable :class:`VerificationTask` (a suite benchmark
name, a Verilog/AIGER file path, or a transition system) and rebuild the
design in the child process, so nothing non-picklable ever crosses the
process boundary under any start method.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engines.registry import list_engines, make_engine
from repro.engines.result import Counterexample, Status, VerificationResult
from repro.engines.supervision import RetryPolicy, WorkerSupervisor
from repro.faults import injection as _fault_injection
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
    blast in copy-on-write memory.  Shared by the portfolio fan-out, the
    ladder and the batch pool.  Best-effort: failures are ignored, a worker
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
    whatever remains of the overall portfolio budget — the usual choice for
    the final rung).  Rungs run in order; each is raced as its own
    mini-portfolio with per-rung cancellation, and the ladder escalates only
    when a rung ends without a definitive answer.
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

#: floor (seconds) under which a rung budget is not worth a process launch
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


#: worker states in a finished portfolio
DONE = "done"  # posted a result
CANCELLED = "cancelled"  # terminated after another worker won
TIMED_OUT = "timed-out"  # terminated at the portfolio deadline
SKIPPED = "skipped"  # never started (a winner emerged first)
CRASHED = "crashed"  # process died without posting a result


@dataclass
class WorkerOutcome:
    """What happened to one portfolio worker."""

    label: str
    engine: str
    options: Dict[str, object]
    state: str
    result: Optional[VerificationResult] = None
    runtime: float = 0.0
    #: process attempts this configuration consumed (retries increment it)
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
# the worker process
# ---------------------------------------------------------------------------


def _portfolio_worker(
    index: int,
    config: PortfolioConfig,
    task: VerificationTask,
    property_name: Optional[str],
    timeout: Optional[float],
    events: "multiprocessing.Queue",
    attempt: int = 0,
) -> None:
    """Run one engine configuration and stream lifecycle events back.

    When the parent was recording telemetry, the forked worker swaps in a
    fresh recorder and ships its exported span subtree on
    ``result.telemetry["trace"]``; the parent stitches it under the
    worker's parent-side span.
    """
    start = time.monotonic()
    _fault_injection.set_attempt(attempt)
    _telemetry.child_begin()
    try:
        with _telemetry.span(
            "worker.config", label=config.label, attempt=attempt
        ) as worker_span:
            system = task.load()
            engine = make_engine(
                config.engine,
                system,
                ignore_unknown_options=True,
                **config.options_dict,
            )
            events.put(("started", index, {"pid": os.getpid(), "label": config.label}))
            result = engine.verify(property_name, timeout=timeout)
            worker_span.set_outcome(result.status)
    except Exception as error:  # noqa: BLE001 - crash category of the paper
        result = VerificationResult(
            Status.ERROR,
            config.engine,
            property_name or "",
            runtime=time.monotonic() - start,
            reason=f"{type(error).__name__}: {error}",
        )
    trace = _telemetry.child_export()
    if trace is not None:
        telemetry = dict(result.telemetry or {})
        telemetry["trace"] = trace
        result.telemetry = telemetry
    # Queue.put serializes in a background feeder thread, so a pickling
    # failure would be swallowed there and the result silently lost; probe
    # the pickle here and strip the engine-specific payload if needed.
    try:
        pickle.dumps(result)
    except Exception:  # pragma: no cover - unpicklable engine detail
        result = VerificationResult(
            result.status,
            result.engine,
            result.property_name,
            runtime=result.runtime,
            cpu_time=result.cpu_time,
            reason=result.reason or "detail dropped (not picklable)",
            telemetry=result.telemetry,  # JSON-safe primitives, always pickles
        )
    events.put(("result", index, result))


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


class PortfolioRunner:
    """Race engine configurations in worker processes.

    Parameters
    ----------
    configs:
        The configurations to fan out (default:
        :func:`default_portfolio_configs`).
    timeout:
        Overall wall-clock budget in seconds for the whole portfolio; each
        worker also receives it as its engine budget.
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
        Optional callback receiving progress dicts
        (``{"event": "started"|"result"|..., "label": ..., ...}``) as they
        stream in from the workers.
    warm_templates:
        Pre-blast the frame templates of the task in the *parent* process
        before forking (default True).  Workers inherit the warmed caches via
        copy-on-write, so N workers share one blast instead of re-blasting N
        times.  No-op under the ``spawn`` start method (workers warm their
        own caches there).
    ladder:
        Budget-ladder mode (mutually exclusive with ``configs`` and
        ``cross_check``): a sequence of :class:`LadderRung` (see
        :func:`default_budget_ladder`).  Instead of fanning every
        configuration out at once, the rungs run in order — the cheap
        tier at a small budget first, escalating only when a rung ends
        without a definitive answer — with per-rung cancellation.
        ``timeout`` still bounds the whole ladder.
    retry:
        :class:`repro.engines.supervision.RetryPolicy` for workers that die
        without reporting: the crashed configuration is relaunched with
        exponential backoff while the portfolio's remaining budget allows
        (default: one retry).
    certify:
        Accept a definitive worker answer only when its certificate passes
        independent validation (:func:`repro.certs.validate_result`); an
        uncertified claim is excluded from winning and recorded under
        ``detail["certification"]``.
    """

    #: extra wall-clock grace before force-terminating workers at the deadline
    GRACE_SECONDS = 2.0

    def __init__(
        self,
        configs: Optional[Sequence[PortfolioConfig]] = None,
        timeout: Optional[float] = None,
        max_workers: Optional[int] = None,
        cross_check: bool = False,
        expected: Optional[str] = None,
        on_event: Optional[Callable[[Dict[str, object]], None]] = None,
        poll_interval: float = 0.05,
        warm_templates: bool = True,
        ladder: Optional[Sequence[LadderRung]] = None,
        retry: Optional[RetryPolicy] = None,
        certify: bool = False,
    ) -> None:
        self.ladder = list(ladder) if ladder is not None else None
        if self.ladder is not None:
            if cross_check:
                raise ValueError(
                    "budget-ladder scheduling cancels rung by rung and is "
                    "incompatible with cross_check (which needs every worker "
                    "to finish)"
                )
            if configs is not None:
                raise ValueError("pass either configs or ladder, not both")
            if not self.ladder or not any(rung.configs for rung in self.ladder):
                raise ValueError("ladder needs at least one configuration")
            self.configs = [
                config for rung in self.ladder for config in rung.configs
            ]
        else:
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
        self.poll_interval = poll_interval
        self.warm_templates = warm_templates
        self.retry = retry if retry is not None else RetryPolicy()
        self.certify = certify
        start_methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in start_methods else "spawn"
        )

    # ------------------------------------------------------------------
    def _prewarm(self, task: VerificationTask) -> None:
        """Blast the task's frame templates once, in the parent, before forking.

        Every representation the configuration fan-out uses is warmed, so the
        forked workers find their ``(system, representation)`` template
        library already built in inherited (copy-on-write) memory.
        """
        if not self.warm_templates or self._context.get_start_method() != "fork":
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
        """Run the portfolio (all-at-once or ladder) on ``task``."""
        if self.ladder is not None:
            with _telemetry.span(
                "portfolio.ladder", task=task.name, rungs=len(self.ladder)
            ) as ladder_span:
                result = self._run_ladder(task, property_name)
                ladder_span.set_outcome(result.status)
                return result
        with _telemetry.span(
            "portfolio.run", task=task.name, configs=len(self.configs)
        ) as run_span:
            result = self._run_fanout(task, property_name)
            run_span.set_outcome(result.status)
            return result

    def _run_fanout(
        self,
        task: VerificationTask,
        property_name: Optional[str] = None,
    ) -> PortfolioResult:
        """Race every configuration at once; first definitive answer wins."""
        start = time.monotonic()
        self._prewarm(task)
        deadline = start + self.timeout if self.timeout is not None else None
        events: "multiprocessing.Queue" = self._context.Queue()

        outcomes = [
            WorkerOutcome(config.label, config.engine, config.options_dict, SKIPPED)
            for config in self.configs
        ]
        processes: Dict[int, multiprocessing.Process] = {}
        launched: Dict[int, float] = {}
        finished = 0
        winner_index: Optional[int] = None
        supervisor = WorkerSupervisor(
            self._context, retry=self.retry, grace=self.GRACE_SECONDS
        )
        launch_queue = deque(range(len(self.configs)))
        attempts: Dict[int, int] = {}
        not_before: Dict[int, float] = {}
        retry_pending: set = set()
        degraded = False

        def emit(event: str, **payload) -> None:
            if self.on_event is not None:
                self.on_event({"event": event, **payload})

        # parent-side trace assembly: one explicit-parent span per launched
        # worker attempt (workers overlap, so the thread stack cannot hold
        # them); a reporting worker's exported subtree is stitched under its
        # span, and cancels/kills — where the worker ships nothing — are
        # recorded by the parent-side span alone
        recorder = _telemetry.get_recorder()
        fanout_parent = recorder.current_span() if recorder is not None else None
        worker_spans: Dict[int, object] = {}

        def begin_worker_span(index: int, attempt: int, pid=None) -> None:
            if recorder is None:
                return
            worker_spans[index] = recorder.start_span(
                "portfolio.worker",
                parent=fanout_parent,
                label=self.configs[index].label,
                attempt=attempt,
                **({"worker_pid": pid} if pid is not None else {}),
            )

        def end_worker_span(index: int, state: str, result=None) -> None:
            _telemetry.counter(f"portfolio.worker.{state}")
            if recorder is None:
                return
            span = worker_spans.pop(index, None)
            if span is None:
                return
            trace = (result.telemetry or {}).get("trace") if result is not None else None
            if trace:
                recorder.attach(trace, span)
            span.finish(outcome=state)

        def launch_until_full() -> None:
            nonlocal degraded
            rotations = 0
            while launch_queue and len(processes) < self.max_workers and not degraded:
                now = time.monotonic()
                index = launch_queue[0]
                if not_before.get(index, 0.0) > now:
                    # retry backoff not elapsed: rotate so others can launch
                    launch_queue.rotate(-1)
                    rotations += 1
                    if rotations >= len(launch_queue):
                        break
                    continue
                launch_queue.popleft()
                remaining = None if deadline is None else max(0.0, deadline - now)
                process = supervisor.spawn(
                    _portfolio_worker,
                    args=(
                        index,
                        self.configs[index],
                        task,
                        property_name,
                        remaining,
                        events,
                        attempts.get(index, 0),
                    ),
                )
                if process is None:
                    launch_queue.appendleft(index)
                    if not supervisor.pool_healthy:
                        degraded = True
                        emit("pool-unhealthy", error=supervisor.last_spawn_error)
                    break
                processes[index] = process
                launched[index] = time.monotonic()
                retry_pending.discard(index)
                outcomes[index].state = CANCELLED  # running; refined on completion
                outcomes[index].attempts = attempts.get(index, 0) + 1
                begin_worker_span(index, attempts.get(index, 0), pid=process.pid)

        def reap_death(index: int) -> None:
            """A worker died without reporting: retry under budget or retire."""
            nonlocal finished
            outcomes[index].state = CRASHED
            outcomes[index].runtime = time.monotonic() - launched[index]
            end_worker_span(index, CRASHED)
            remaining = None if deadline is None else deadline - time.monotonic()
            if winner_index is None and self.retry.should_retry(
                CRASHED, attempts.get(index, 0), remaining
            ):
                attempts[index] = attempts.get(index, 0) + 1
                not_before[index] = time.monotonic() + self.retry.backoff(
                    attempts[index]
                )
                retry_pending.add(index)
                supervisor.retries_launched += 1
                launch_queue.append(index)
                emit(
                    "retry",
                    label=outcomes[index].label,
                    attempt=attempts[index],
                )
            else:
                finished += 1
                emit("crashed", label=outcomes[index].label)

        launch_until_full()

        while finished < len(self.configs) and (processes or launch_queue):
            if deadline is not None and time.monotonic() > deadline + self.GRACE_SECONDS:
                break
            if degraded and not processes:
                break  # the degraded in-process drain below takes over
            try:
                kind, index, payload = events.get(timeout=self.poll_interval)
            except queue_module.Empty:
                # reap workers that died without posting a result
                for index, process in list(processes.items()):
                    if not process.is_alive():
                        process.join()
                        del processes[index]
                        if outcomes[index].result is None:
                            reap_death(index)
                launch_until_full()
                continue
            if kind == "started":
                emit("started", label=payload["label"], pid=payload["pid"])
                continue
            # kind == "result"
            result: VerificationResult = payload
            # a result can land after the reap branch already marked the
            # worker CRASHED (queue feeder raced the process exit): upgrade
            # the outcome but do not count the worker as finished twice —
            # unless a retry is still pending, in which case this result
            # settles the unit and the retry is withdrawn
            first_report = outcomes[index].result is None and (
                outcomes[index].state != CRASHED or index in retry_pending
            )
            if index in retry_pending:
                retry_pending.discard(index)
                try:
                    launch_queue.remove(index)
                except ValueError:
                    pass
            outcomes[index].result = result
            outcomes[index].state = DONE
            outcomes[index].runtime = time.monotonic() - launched[index]
            end_worker_span(index, DONE, result=result)
            if first_report:
                finished += 1
            process = processes.pop(index, None)
            if process is not None:
                process.join(timeout=self.GRACE_SECONDS)
                if process.is_alive():  # pragma: no cover - defensive
                    supervisor.stop(process)
            emit(
                "result",
                label=outcomes[index].label,
                status=result.status,
                runtime=outcomes[index].runtime,
                detail=dict(result.detail),
            )
            if result.is_definitive and not self.cross_check:
                winner_index = index
                break
            launch_until_full()

        # record results that raced the cancellation before terminating losers
        while True:
            try:
                kind, index, payload = events.get_nowait()
            except queue_module.Empty:
                break
            if kind != "result" or outcomes[index].result is not None:
                continue
            outcomes[index].result = payload
            outcomes[index].state = DONE
            outcomes[index].runtime = time.monotonic() - launched[index]
            end_worker_span(index, DONE, result=payload)
            finished += 1
            process = processes.pop(index, None)
            if process is not None:
                process.join(timeout=self.GRACE_SECONDS)

        # cancel everything still in flight, escalating terminate → SIGKILL so
        # a SIGTERM-ignoring worker can never leak past the driver as a zombie
        deadline_hit = deadline is not None and time.monotonic() >= deadline
        for index, process in processes.items():
            supervisor.stop(process)
            if outcomes[index].result is None:
                outcomes[index].state = TIMED_OUT if winner_index is None and deadline_hit else CANCELLED
                outcomes[index].runtime = time.monotonic() - launched[index]
                emit("cancelled", label=outcomes[index].label, state=outcomes[index].state)
                end_worker_span(index, outcomes[index].state)
        events.close()
        events.cancel_join_thread()

        if degraded and winner_index is None:
            # spawning is broken: give every unanswered configuration its
            # shot in-process, sequentially, until one answers definitively —
            # a degraded portfolio still serves every query
            for index, outcome in enumerate(outcomes):
                if outcome.result is not None:
                    continue
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break
                t0 = time.monotonic()
                _fault_injection.set_attempt(attempts.get(index, 0))
                begin_worker_span(index, attempts.get(index, 0))
                degraded_span = worker_spans.get(index)
                try:
                    system = task.load()
                    engine = make_engine(
                        self.configs[index].engine,
                        system,
                        ignore_unknown_options=True,
                        **self.configs[index].options_dict,
                    )
                    if recorder is not None and degraded_span is not None:
                        with recorder.under(degraded_span):
                            result = engine.verify(property_name, timeout=remaining)
                    else:
                        result = engine.verify(property_name, timeout=remaining)
                except Exception as error:  # noqa: BLE001 - crash category
                    result = VerificationResult(
                        Status.ERROR,
                        self.configs[index].engine,
                        property_name or "",
                        runtime=time.monotonic() - t0,
                        reason=f"{type(error).__name__}: {error}",
                    )
                finally:
                    _fault_injection.set_attempt(0)
                outcome.result = result
                outcome.state = DONE
                outcome.degraded = True
                outcome.runtime = time.monotonic() - t0
                end_worker_span(index, DONE)
                emit(
                    "degraded",
                    label=outcome.label,
                    status=result.status,
                    runtime=outcome.runtime,
                )
                if result.is_definitive and not self.cross_check:
                    winner_index = index
                    break

        supervision = {
            "spawned": supervisor.spawned,
            "spawn_failures": supervisor.spawn_failures,
            "retries": supervisor.retries_launched,
            "kills": supervisor.kills,
            "degraded": degraded,
        }
        return self._aggregate(
            task, property_name, outcomes, winner_index, start, supervision
        )

    # ------------------------------------------------------------------
    def _run_ladder(
        self,
        task: VerificationTask,
        property_name: Optional[str],
    ) -> PortfolioResult:
        """Escalate through the budget ladder instead of fanning out at once.

        Each rung is raced as its own mini-portfolio (first definitive
        answer cancels the rung's losers); the ladder stops at the first
        rung that produces a definitive (or expected-contradicting WRONG)
        answer and only then escalates to the next, more expensive tier.
        The aggregated result carries every rung's workers plus a
        ``detail["ladder"]`` record with per-rung wall/CPU accounting —
        on tasks a cheap rung decides, total CPU is a fraction of the
        all-at-once fan-out's.
        """
        assert self.ladder is not None
        start = time.monotonic()
        self._prewarm(task)
        deadline = start + self.timeout if self.timeout is not None else None

        all_workers: List[WorkerOutcome] = []
        rung_rows: List[Dict[str, object]] = []
        decided_rung: Optional[int] = None
        final: Optional[PortfolioResult] = None
        for index, rung in enumerate(self.ladder):
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            if remaining is not None and remaining <= 0:
                break
            budget = rung.budget
            if budget is None:
                budget = remaining
            elif remaining is not None:
                budget = min(budget, remaining)
            child = PortfolioRunner(
                configs=rung.configs,
                timeout=budget,
                max_workers=self.max_workers,
                expected=self.expected,
                on_event=self._rung_event(index, rung),
                poll_interval=self.poll_interval,
                warm_templates=False,  # warmed once above
                retry=self.retry,
                certify=self.certify,
            )
            rung_start = time.monotonic()
            with _telemetry.span(
                "ladder.rung", rung=index, tier=rung.tier
            ) as rung_span:
                result = child.run(task, property_name)
                rung_span.set_outcome(result.status)
            rung_wall = time.monotonic() - rung_start
            rung_cpu = sum(_worker_cpu(outcome) for outcome in result.workers)
            all_workers.extend(result.workers)
            rung_rows.append(
                {
                    "rung": index,
                    "tier": rung.tier,
                    "configs": list(rung.labels),
                    "budget_s": None if budget is None else round(budget, 6),
                    "wall_s": round(rung_wall, 6),
                    "cpu_s": round(rung_cpu, 6),
                    "status": result.status,
                    "winner": result.winner,
                }
            )
            if result.is_definitive or result.status == Status.WRONG:
                decided_rung = index
                final = result
                break

        runtime = time.monotonic() - start
        cpu_s = sum(_worker_cpu(outcome) for outcome in all_workers)
        ladder_detail: Dict[str, object] = {
            "rungs": rung_rows,
            "decided_rung": decided_rung,
            "schedule": [list(rung.labels) for rung in self.ladder],
        }
        if final is not None:
            detail = dict(final.detail)
            detail["ladder"] = ladder_detail
            detail["cpu_s"] = round(cpu_s, 6)
            return PortfolioResult(
                final.status,
                final.property_name,
                runtime,
                winner=final.winner,
                winner_engine=final.winner_engine,
                counterexample=final.counterexample,
                workers=all_workers,
                detail=detail,
                reason=final.reason
                or f"decided at ladder rung {decided_rung}",
                certificate=final.certificate,
            )

        # no rung reached a definitive answer: summarize like the fan-out
        finished = [outcome for outcome in all_workers if outcome.result is not None]
        statuses = [outcome.result.status for outcome in finished]
        if any(status == Status.UNKNOWN for status in statuses):
            status = Status.UNKNOWN
        elif statuses and all(status == Status.ERROR for status in statuses):
            status = Status.ERROR
        else:
            status = Status.TIMEOUT
        return PortfolioResult(
            status,
            self._property_name(property_name, finished),
            runtime,
            workers=all_workers,
            detail={
                "task": task.name,
                "configs": [outcome.label for outcome in all_workers],
                "worker_statuses": {
                    outcome.label: outcome.status for outcome in all_workers
                },
                "ladder": ladder_detail,
                "cpu_s": round(cpu_s, 6),
            },
            reason="no ladder rung reached a definitive answer",
        )

    def _rung_event(
        self, index: int, rung: LadderRung
    ) -> Optional[Callable[[Dict[str, object]], None]]:
        if self.on_event is None:
            return None

        def forward(event: Dict[str, object]) -> None:
            self.on_event({**event, "rung": index, "tier": rung.tier})

        return forward

    # ------------------------------------------------------------------
    def _aggregate(
        self,
        task: VerificationTask,
        property_name: Optional[str],
        outcomes: List[WorkerOutcome],
        winner_index: Optional[int],
        start: float,
        supervision: Optional[Dict[str, object]] = None,
    ) -> PortfolioResult:
        runtime = time.monotonic() - start
        detail: Dict[str, object] = {
            "task": task.name,
            "configs": [outcome.label for outcome in outcomes],
            "worker_statuses": {outcome.label: outcome.status for outcome in outcomes},
            "cross_check": self.cross_check,
            # CPU the fan-out spent: each worker's measured process time
            # (wall for workers that never reported), compared against
            # ladder CPU by the serve bench
            "cpu_s": round(sum(_worker_cpu(outcome) for outcome in outcomes), 6),
        }
        if supervision is not None:
            detail["supervision"] = supervision

        definitive = [
            outcome
            for outcome in outcomes
            if outcome.result is not None and outcome.result.is_definitive
        ]

        # certify mode: a definitive claim counts only with a certificate the
        # independent validator accepts — a liar is excluded from winning and
        # its rejection recorded, never silently dropped
        if self.certify and definitive:
            certification: Dict[str, Dict[str, object]] = {}
            certified: List[WorkerOutcome] = []
            try:
                system = task.load()
            except Exception as error:  # noqa: BLE001 - loader failures
                detail["certification"] = {
                    "error": f"{type(error).__name__}: {error}"
                }
                system = None
            if system is not None:
                from repro.certs import validate_result

                for outcome in definitive:
                    validation = validate_result(
                        system, outcome.result, timeout=self.timeout
                    )
                    certification[outcome.label] = {
                        "claimed": outcome.result.status,
                        "certified": validation.ok,
                        "reason": validation.reason,
                    }
                    if validation.ok:
                        certified.append(outcome)
                detail["certification"] = certification
                if winner_index is not None and outcomes[winner_index] not in certified:
                    winner_index = None
                definitive = certified

        # cross-check: disagreeing definitive answers are adjudicated by
        # validating the workers' certificates with the independent checker;
        # only an undecidable disagreement remains a wrong result
        statuses = {outcome.result.status for outcome in definitive}
        if len(statuses) > 1:
            detail["disagreement"] = {
                outcome.label: outcome.result.status for outcome in definitive
            }
            adjudicated = self._adjudicate(task, definitive, detail)
            if adjudicated is not None:
                winner_index = next(
                    index for index, outcome in enumerate(outcomes) if outcome is adjudicated
                )
                definitive = [adjudicated]
            else:
                return PortfolioResult(
                    Status.WRONG,
                    self._property_name(property_name, definitive),
                    runtime,
                    workers=outcomes,
                    detail=detail,
                    reason=(
                        "portfolio workers returned contradictory definitive "
                        "answers and certificate validation could not adjudicate"
                    ),
                )

        if winner_index is None and definitive:
            # cross-check mode: the earliest definitive finisher is the winner
            winner_index = min(
                (index for index, outcome in enumerate(outcomes) if outcome in definitive),
                key=lambda index: outcomes[index].runtime,
            )

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

    def _adjudicate(
        self,
        task: VerificationTask,
        definitive: List[WorkerOutcome],
        detail: Dict[str, object],
    ) -> Optional[WorkerOutcome]:
        """Decide a definitive-answer disagreement by validating certificates.

        Every disagreeing worker's certificate is checked by the independent
        validator (:func:`repro.certs.validate_result`).  If exactly one
        claimed status survives validation, the fastest worker holding a
        validated certificate of that status wins; otherwise (no certificate
        validates, or — which would indicate a validator bug — both sides
        validate) adjudication abstains and the caller reports WRONG.  The
        per-worker verdicts are recorded under ``detail["adjudication"]``.
        """
        from repro.certs import validate_result

        try:
            system = task.load()
        except Exception as error:  # noqa: BLE001 - loader failures abstain
            detail["adjudication"] = {"error": f"{type(error).__name__}: {error}"}
            return None
        verdicts: Dict[str, Dict[str, object]] = {}
        validated: List[WorkerOutcome] = []
        for outcome in definitive:
            # validation runs in the parent after the race; bound it by the
            # same per-run budget the workers had
            validation = validate_result(system, outcome.result, timeout=self.timeout)
            verdicts[outcome.label] = {
                "claimed": outcome.result.status,
                "certified": validation.ok,
                "reason": validation.reason,
            }
            if validation.ok:
                validated.append(outcome)
        detail["adjudication"] = verdicts
        validated_statuses = {outcome.result.status for outcome in validated}
        if len(validated_statuses) != 1:
            return None
        return min(validated, key=lambda outcome: outcome.runtime)

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


def run_portfolio(
    task: VerificationTask,
    property_name: Optional[str] = None,
    **runner_options,
) -> PortfolioResult:
    """Convenience wrapper: build a :class:`PortfolioRunner` and run it once."""
    return PortfolioRunner(**runner_options).run(task, property_name)
