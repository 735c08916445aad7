"""Per-layer timers around the program's public entry points.

A traced run installs these timers in the launched program before the
program starts (``launch.py``).  Each timer wraps one public function or
method and publishes what it measured through the program's own telemetry
counters (``repro.obs.telemetry.counter``).  Forked workers therefore ship
their totals back with the program's existing trace export, and the trace
file the program writes covers every worker and retry.  Nothing is added
to the program itself.

Per layer two wall-time totals are kept.  ``bench.<layer>.s`` is the time of
the layer's outermost calls (a layer that re-enters itself is timed once).
``bench.<layer>.self_s`` is that time minus the time of other layers' timers
nested inside it, so self times are disjoint: the self time of the engines
layer is the share of engine time no other layer accounts for.

Two timers also record spans, because their metrics need timestamps:
``bench.schedule.run_map`` around ``WorkerSupervisor.run_map`` and
``bench.schedule.spawn`` around ``WorkerSupervisor.spawn`` (tagged with the
started worker's pid).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

from repro.obs import telemetry

_state = threading.local()


def _stack() -> list:
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = _state.stack = []
    return stack


def _timed(layer: str, inner, after=None):
    """Wrap ``inner`` so its calls count as time spent in ``layer``.

    ``after(frame, args, result, elapsed)`` publishes layer-specific
    counters; ``frame[3]`` is a dict the layer's nested calls may fill.
    """

    @functools.wraps(inner)
    def timed(*args, **kwargs):
        stack = _stack()
        for frame in stack:
            if frame[0] == layer:
                return inner(*args, **kwargs)
        frame = [layer, time.perf_counter(), 0.0, {}]
        stack.append(frame)
        result = None
        try:
            result = inner(*args, **kwargs)
            return result
        finally:
            elapsed = time.perf_counter() - frame[1]
            del stack[next(i for i, f in enumerate(stack) if f is frame)]
            if stack:
                stack[-1][2] += elapsed
            telemetry.counter(f"bench.{layer}.s", elapsed)
            telemetry.counter(f"bench.{layer}.self_s", elapsed - frame[2])
            telemetry.counter(f"bench.{layer}.calls")
            if after is not None:
                after(frame, args, result, elapsed)

    return timed


def _innermost(layer: str):
    for frame in reversed(_stack()):
        if frame[0] == layer:
            return frame
    return None


# ---------------------------------------------------------------------------
# layer-specific counters
# ---------------------------------------------------------------------------


def _after_check(frame, args, result, elapsed) -> None:
    engine = _innermost("engines.verify")
    if engine is not None:
        # the solver's clause count at its latest check inside this engine run
        solver = args[0]
        engine[3][id(solver)] = solver.solver.num_clauses


def _after_verify(frame, args, result, elapsed) -> None:
    from repro.engines.result import Status

    engine = args[0]
    telemetry.counter(f"bench.engines.{engine.name}.verify_s", elapsed)
    telemetry.counter("bench.engines.attempts")
    status = getattr(result, "status", None)
    if status in Status.DEFINITIVE:
        telemetry.counter("bench.engines.decided")
    else:
        telemetry.counter("bench.engines.wasted_s", elapsed)
    telemetry.counter("bench.encoding.clauses", sum(frame[3].values()))


def _after_validate(frame, args, result, elapsed) -> None:
    telemetry.counter("bench.certs.validations")
    if result is None or not result.ok:
        telemetry.counter("bench.certs.rejected")


def _after_portfolio(frame, args, result, elapsed) -> None:
    if result is None:
        return
    launched = [w for w in result.workers if w.state != "skipped"]
    telemetry.counter("bench.portfolio.workers", len(launched))
    telemetry.counter(
        "bench.portfolio.cancelled",
        sum(1 for w in result.workers if w.state == "cancelled"),
    )
    winner = next((w for w in result.workers if w.label == result.winner), None)
    telemetry.counter(
        "bench.portfolio.overhead_s",
        elapsed - (winner.runtime if winner is not None else 0.0),
    )


def _spanned_spawn(inner):
    @functools.wraps(inner)
    def spawn(self, *args, **kwargs):
        with telemetry.span("bench.schedule.spawn") as span:
            process = inner(self, *args, **kwargs)
            if process is not None:
                span.annotate(pid=process.pid)
            return process

    return spawn


def _spanned_run_map(inner):
    @functools.wraps(inner)
    def run_map(self, payloads, worker, jobs=1, *args, **kwargs):
        with telemetry.span("bench.schedule.run_map", jobs=jobs, units=len(payloads)):
            return inner(self, payloads, worker, jobs, *args, **kwargs)

    return run_map


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def _replace_function(module_name: str, name: str, wrapper) -> None:
    """Swap a module-level function everywhere the program imported it."""
    module = importlib.import_module(module_name)
    original = getattr(module, name)
    wrapped = wrapper(original)
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, attr, wrapped)


def _replace_method(module_name: str, qualname: str, wrapper) -> None:
    class_name, method = qualname.split(".")
    cls = getattr(importlib.import_module(module_name), class_name)
    setattr(cls, method, wrapper(cls.__dict__[method]))


def _layer(layer: str, after=None):
    return lambda inner: _timed(layer, inner, after)


#: (module, function or Class.method, wrapper) for every timed entry point
TARGETS = (
    ("repro.engines.portfolio", "VerificationTask.load", _layer("netlist.load")),
    ("repro.benchmarks.suite", "Benchmark.load", _layer("netlist.load")),
    ("repro.engines.encoding", "flattened_cached", _layer("netlist.load")),
    ("repro.smt.bitblaster", "BitBlaster.blast", _layer("encoding.blast")),
    ("repro.engines.encoding", "FrameEncoder.assert_init", _layer("encoding.stamp")),
    ("repro.engines.encoding", "FrameEncoder.assert_trans", _layer("encoding.stamp")),
    ("repro.engines.encoding", "FrameEncoder.property_literal", _layer("encoding.stamp")),
    ("repro.smt.solver", "BVSolver.check", _layer("sat.check", _after_check)),
    ("repro.engines.supervision", "WorkerSupervisor.spawn", _spanned_spawn),
    ("repro.engines.supervision", "WorkerSupervisor.run_map", _spanned_run_map),
    ("repro.engines.portfolio", "PortfolioRunner.run", _layer("portfolio.run", _after_portfolio)),
    ("repro.certs.validate", "CertificateValidator.validate", _layer("certs.validate", _after_validate)),
    ("repro.cache.result_cache", "ResultCache.lookup", _layer("cache.lookup")),
    ("repro.cache.result_cache", "ResultCache.store", _layer("cache.store")),
    ("repro.cache.minimize", "minimize_certificate", _layer("cache.minimize")),
)


def install() -> None:
    """Wrap every entry point of :data:`TARGETS` and every engine's verify."""
    for module_name in (
        "repro.engines",
        "repro.benchmarks",
        "repro.cache",
        "repro.certs",
        "repro.serve.server",
        "repro.tools.verify_cli",
    ):
        importlib.import_module(module_name)
    for module_name, name, wrapper in TARGETS:
        if "." in name:
            _replace_method(module_name, name, wrapper)
        else:
            _replace_function(module_name, name, wrapper)
    from repro.engines import list_engines

    for registration in list_engines():
        cls = registration.engine_class
        if "verify" in cls.__dict__:
            cls.verify = _timed("engines.verify", cls.__dict__["verify"], _after_verify)
