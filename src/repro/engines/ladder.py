"""The cheap-first budget ladder: how one query is decided in-process.

The paper's figures show that no single technique wins everywhere, but most
designs fall to a cheap one: random simulation refutes the shallow bugs and
interval analysis or k-induction proves most safe designs in milliseconds.
:func:`default_budget_ladder` groups the ladder-flagged engines of the
registry by their declared cost tier —
``[absint, rsim] -> [k-induction, kiki, bmc] -> [interpolation, pdr]`` — and
:func:`run_sequential_ladder`, the package's one ladder loop, walks it one
engine at a time in the calling process and stops at the first definitive
answer.  A bare ``repro-verify`` query runs it in the CLI process; batch
pool workers and ``repro-serve`` misses run it inside a supervised worker.

The module also holds what every mode shares: the picklable descriptions
:class:`VerificationTask` (what to verify) and :class:`PortfolioConfig` (one
engine configuration), the portfolio's fan-out
(:func:`default_portfolio_configs`), and :func:`warm_task_templates`, the
pre-warm the portfolio, the batch pool and the server run before they fork.  It imports neither
:mod:`multiprocessing` nor the supervisor, and the registry imports an
engine module only when a rung first runs it, so a bare query loads only
the engines it runs.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engines.base import EngineCapabilities
from repro.engines.registry import (
    ENGINE_REGISTRY,
    get_registration,
    list_engines,
    make_engine,
)
from repro.engines.result import Budget, Status, VerificationResult
from repro.netlist import TransitionSystem
from repro.obs import telemetry as _telemetry
from repro.records import Frozen


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


class VerificationTask(Frozen):
    """A picklable description of *what* to verify.

    ``kind`` selects the loader: a suite ``"benchmark"`` by name, a
    ``"verilog"`` or ``"aiger"`` file by path, or a ``"system"`` carried
    directly (requires the transition system itself to pickle, which holds
    under the default ``fork`` start method on POSIX).
    """

    def __init__(self, kind: str, spec: object, name: str = "") -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "name", name)

    def __eq__(self, other: object) -> bool:
        if type(other) is not VerificationTask:
            return NotImplemented
        return (self.kind, self.spec, self.name) == (other.kind, other.spec, other.name)

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

    def load(self) -> TransitionSystem:
        """Build (or fetch the memoized) transition system of this task.

        Every kind resolves through a per-process memo: suite benchmarks via
        :func:`repro.benchmarks.load_system_cached`, Verilog/AIGER files via
        a ``(kind, spec)`` table here.  Repeated loads therefore return the
        *same instance*, so the blasted frame templates (cached per system
        object) are built once per process — and under the ``fork`` start
        method a worker's load returns the very object the parent
        pre-warmed, so the templates arrive via copy-on-write memory
        instead of being rebuilt per worker.
        """
        if self.kind == "system":
            return self.spec
        if self.kind == "benchmark":
            from repro.benchmarks import load_system_cached

            return load_system_cached(self.spec)
        key = (self.kind, self.spec)
        path = self.spec[0] if self.kind == "verilog" else self.spec
        stamp = _file_stamp(path)
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
        while len(_TASK_SYSTEMS) >= _TASK_SYSTEMS_MAX:
            _TASK_SYSTEMS.pop(next(iter(_TASK_SYSTEMS)))
        _TASK_SYSTEMS[key] = (stamp, system)
        return system


def warm_task_templates(
    task: "VerificationTask", configs: Sequence["PortfolioConfig"]
) -> None:
    """Prepare the calling process to fork workers that run ``configs``.

    Imports every configuration's engine module and blasts, for every
    representation the configurations use, the frame-template library of
    each property's cone of influence — the design the engines run on.
    The cone and template caches are keyed by system instance, and every task
    kind resolves repeated loads to the same instance (benchmarks via the
    memoized suite loader, files via the stamped per-task memo, systems by
    identity) — so workers forked after this call find both the engine code
    and the parent's warm blast in copy-on-write memory instead of
    importing and blasting after the fork.  Shared by the portfolio race,
    the batch pool and the serve layer.  Best-effort: failures are ignored,
    a worker that cannot build templates reports its own error through the
    normal result channel.
    """
    try:
        from repro.engines.encoding import cone_of_influence, template_library

        for config in configs:
            get_registration(config.engine).engine_class  # imports the module
        system = task.load()
        representations = sorted({config.representation for config in configs})
        for prop in system.properties:
            cone = cone_of_influence(system, prop.name)
            for representation in representations:
                template_library(cone, representation).property_template(prop.name)
    except Exception:  # noqa: BLE001 - warm-up is best effort
        pass


class PortfolioConfig(Frozen):
    """One engine configuration: a ladder attempt or a portfolio racer."""

    def __init__(self, engine: str, options: Tuple[Tuple[str, object], ...] = ()) -> None:
        object.__setattr__(self, "engine", engine)
        object.__setattr__(self, "options", options)

    def __eq__(self, other: object) -> bool:
        if type(other) is not PortfolioConfig:
            return NotImplemented
        return (self.engine, self.options) == (other.engine, other.options)

    @staticmethod
    def of(engine: str, **options) -> "PortfolioConfig":
        return PortfolioConfig(engine, tuple(sorted(options.items())))

    @property
    def options_dict(self) -> Dict[str, object]:
        return dict(self.options)

    @property
    def representation(self) -> str:
        return str(self.options_dict.get("representation", "word"))

    @property
    def label(self) -> str:
        return f"{self.engine}[{self.representation}]"


def bound_options(bound: int) -> Dict[str, object]:
    """The shared depth-cap option bag, routed per engine by its callers.

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


class LadderRung(Frozen):
    """One rung of a budget ladder: a config group and its wall-clock budget.

    ``budget`` is the rung's wall-clock allowance in seconds (``None``:
    whatever remains of the overall budget — the usual choice for the final
    rung).  :func:`run_sequential_ladder` runs the rungs in order, one
    configuration at a time, and escalates only when a rung ends without a
    definitive answer.
    """

    def __init__(
        self, configs: Tuple[PortfolioConfig, ...], budget: Optional[float] = None, tier: str = ""
    ) -> None:
        object.__setattr__(self, "configs", configs)
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "tier", tier)

    def __eq__(self, other: object) -> bool:
        if type(other) is not LadderRung:
            return NotImplemented
        return (self.configs, self.budget, self.tier) == (other.configs, other.budget, other.tier)

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

    Scans ``BENCH_*.json``-shaped reports (portfolio singles, certification
    sweeps, incremental verdict sweeps, serve sweeps) for per-engine run
    outcomes and aggregates them into ``{engine: {runs, definitive_rate,
    mean_runtime_s, score}}``.  ``score`` orders engines within a ladder
    rung — lower is better: historically fast engines that actually reach
    verdicts launch first.  Missing or unreadable reports contribute
    nothing; with no data the returned dict is empty and the ladder keeps
    its default order.  The caller names the reports: nothing in the
    package reads whatever happens to lie in the working directory.

    Nothing in the package writes such reports any more.  The one caller is
    perfbench's ladder probe (``perfbench/workloads.py``), which globs an
    empty working directory; this function and ``default_budget_ladder``'s
    ``priors`` can go once that probe stops importing them.
    """
    import json

    samples: Dict[str, List[Tuple[float, bool]]] = {}

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
# the ladder loop: one engine at a time, in the calling process
# ---------------------------------------------------------------------------


def run_sequential_ladder(
    system,
    property_name: Optional[str],
    rungs: Sequence[LadderRung],
    timeout: Optional[float] = None,
    certify: bool = False,
) -> VerificationResult:
    """Escalate through the ladder rungs one engine at a time, in-process.

    Every configuration of a rung runs with the rung's remaining budget
    (clipped to the overall ``timeout``); the first definitive answer wins
    and the attempt log is recorded under ``detail["ladder_attempts"]``.
    Engine crashes are recorded and skipped — the ladder's counterpart of
    the portfolio's crash category.  With ``certify`` a definitive answer is
    accepted only if its certificate passes independent validation; a claim
    that fails (a lying or fault-injected engine) is recorded as an
    ``uncertified`` attempt and the ladder escalates past it.

    Engines run on the property's cone of influence
    (:func:`repro.engines.encoding.cone_of_influence`; ``None`` means the
    first property), while certificates are validated against ``system``
    itself and witnesses valuate all of its inputs.
    """
    from repro.engines.encoding import cone_of_influence, widen_witness

    budget = Budget(timeout)
    attempts: List[Dict[str, object]] = []
    saw_unknown = False
    for rung_index, rung in enumerate(rungs):
        rung_deadline = (
            None if rung.budget is None else time.monotonic() + rung.budget
        )
        for config in rung.configs:
            remaining = budget.remaining()
            if remaining is not None and remaining <= 0:
                break
            allowance = remaining
            if rung_deadline is not None:
                rung_left = rung_deadline - time.monotonic()
                if rung_left <= 0:
                    break
                allowance = (
                    rung_left if allowance is None else min(allowance, rung_left)
                )
            t0 = time.monotonic()
            try:
                with _telemetry.span(
                    "ladder.attempt", config=config.label, rung=rung_index
                ) as attempt_span:
                    engine = make_engine(
                        config.engine,
                        cone_of_influence(system, property_name),
                        ignore_unknown_options=True,
                        **config.options_dict,
                    )
                    result = widen_witness(
                        engine.verify(property_name, timeout=allowance), system
                    )
                    attempt_span.set_outcome(result.status)
            except Exception as error:  # noqa: BLE001 - crash category
                attempts.append(
                    {
                        "config": config.label,
                        "rung": rung_index,
                        "status": Status.ERROR,
                        "runtime_s": round(time.monotonic() - t0, 6),
                        "reason": f"{type(error).__name__}: {error}",
                    }
                )
                continue
            attempts.append(
                {
                    "config": config.label,
                    "rung": rung_index,
                    "status": result.status,
                    "runtime_s": round(time.monotonic() - t0, 6),
                }
            )
            if result.status == Status.UNKNOWN:
                saw_unknown = True
            if result.is_definitive and certify:
                from repro.certs import validate_result

                validation = validate_result(system, result, timeout=allowance)
                if not validation.ok:
                    attempts[-1]["status"] = "uncertified"
                    attempts[-1]["reason"] = (
                        f"certificate rejected: {validation.reason}"
                    )
                    continue
                result.detail["certified"] = True
            if result.is_definitive:
                result.detail["ladder_rung"] = rung_index
                result.detail["ladder_attempts"] = attempts
                # keep result.runtime as the deciding engine's own time —
                # consumers (learn_priors) attribute it to that engine, so it
                # must not absorb earlier rungs' failed probes; the whole
                # ladder's elapsed time is reported separately
                result.detail["ladder_wall_s"] = round(budget.elapsed(), 6)
                return result
        if budget.expired():
            break
    status = Status.UNKNOWN if saw_unknown else Status.TIMEOUT
    if attempts and all(a["status"] == Status.ERROR for a in attempts):
        status = Status.ERROR
    resolved_property = property_name or (
        system.properties[0].name if system.properties else ""
    )
    return VerificationResult(
        status,
        "ladder",
        resolved_property,
        runtime=budget.elapsed(),
        detail={"ladder_attempts": attempts},
        reason="no ladder configuration reached a definitive answer",
    )
