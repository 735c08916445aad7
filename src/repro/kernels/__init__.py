"""Compiled per-design step kernels (the native tier of the raw-speed layer).

Tiering, fastest first, every step gated so verdicts can never change:

1. **compiled** — the C step function built through ``v2c/codegen.py``,
   loaded over ctypes, replay loop in C.  Spot-checked per cycle against the
   scalar simulator (:class:`~repro.kernels.ckernel.CompiledKernel.replay_checked`);
   unavailable without a compiler, for >64-bit designs, or on any mismatch.
2. **packed** — the pure-Python bit-parallel simulator
   (:mod:`repro.netlist.bitsim`), itself cross-checked lane-by-lane.
3. **scalar** — the reference simulator (:mod:`repro.netlist.simulate`),
   the semantics all faster tiers are judged against.

:func:`checked_replay` walks that ladder for one input sequence and reports
which tier answered; demotion reasons are carried along for observability.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from repro.netlist import TransitionSystem
from repro.obs import telemetry as _telemetry
from repro.netlist.simulate import Simulator
from repro.kernels.build import (
    KernelUnavailable,
    build_kernel,
    compiler_available,
    default_cache_dir,
    find_compiler,
)
from repro.kernels.ckernel import CompiledKernel, KernelMismatch, KernelRun

__all__ = [
    "CompiledKernel",
    "KernelMismatch",
    "KernelRun",
    "KernelUnavailable",
    "ReplayOutcome",
    "build_kernel",
    "checked_replay",
    "compiler_available",
    "default_cache_dir",
    "find_compiler",
    "get_kernel",
]

_KERNEL_CACHE: Dict[str, CompiledKernel] = {}


def get_kernel(
    system: TransitionSystem, cache_dir: Optional[Path] = None
) -> CompiledKernel:
    """Build/load the design's compiled kernel, memoized per content key.

    Raises :class:`KernelUnavailable` when the native tier cannot serve.
    """
    from repro.cache.key import kernel_key
    from repro.v2c.codegen import KERNEL_ABI_VERSION

    key = kernel_key(system, KERNEL_ABI_VERSION)
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        with _telemetry.span(
            "kernels.build", design=getattr(system, "name", "?")
        ):
            kernel = CompiledKernel(system, cache_dir=cache_dir)
        _KERNEL_CACHE[key] = kernel
    return kernel


@dataclass
class ReplayOutcome:
    """Uniform result of a tiered replay: which tier answered, and what."""

    backend: str  # 'compiled' | 'packed' | 'scalar'
    first_violation: Optional[int]
    violated_property: Optional[str]
    #: why faster tiers were skipped, oldest demotion first
    demotions: List[str]


def _scalar_replay(
    system: TransitionSystem, input_sequence: Sequence[Mapping[str, int]]
) -> ReplayOutcome:
    """Reference replay with the same constraint-alive semantics as the fast
    tiers: a violation only counts while every environment constraint has
    held up to and including its cycle."""
    simulator = Simulator(system)
    for inputs in input_sequence:
        values = simulator.advance(inputs)
        if not all(values.constraints):
            break
        violated = values.violated_property
        if violated is not None:
            return ReplayOutcome("scalar", values.cycle, violated, [])
    return ReplayOutcome("scalar", None, None, [])


def checked_replay(
    system: TransitionSystem,
    input_sequence: Sequence[Mapping[str, int]],
    cache_dir: Optional[Path] = None,
    use_compiled: bool = True,
    use_packed: bool = True,
) -> ReplayOutcome:
    """Replay one input sequence through the fastest trustworthy tier.

    Tier demotion is silent about *performance* but loud about *trust*: a
    :class:`KernelMismatch` (divergent compiled output, incl. the injected
    ``kernel-miscompile`` fault) and a packed
    :class:`~repro.netlist.bitsim.SimulationMismatch` both demote to the next
    tier and are recorded in :attr:`ReplayOutcome.demotions`; the verdict
    always comes from a tier that agreed with the reference semantics.
    """
    demotions: List[str] = []
    with _telemetry.span(
        "kernels.replay",
        design=getattr(system, "name", "?"),
        cycles=len(input_sequence),
    ) as replay_span:
        if use_compiled:
            try:
                kernel = get_kernel(system, cache_dir=cache_dir)
                run = kernel.replay_checked(input_sequence, stop_on_violation=False)
                _telemetry.counter("kernels.served.compiled")
                replay_span.set_outcome("compiled")
                return ReplayOutcome(
                    "compiled", run.first_violation, run.violated_property, demotions
                )
            except KernelUnavailable as error:
                demotions.append(f"compiled unavailable: {error}")
                _telemetry.counter("kernels.demotions.compiled_unavailable")
            except KernelMismatch as error:
                demotions.append(f"compiled demoted: {error}")
                _telemetry.counter("kernels.demotions.compiled_mismatch")
        if use_packed:
            from repro.netlist.bitsim import (
                PackedSimulator,
                SimulationMismatch,
                crosscheck_lane,
            )

            try:
                packed = PackedSimulator(system, lanes=1)
                run = packed.replay(input_sequence)
                crosscheck_lane(system, run, lane=0, cycles=8)
                _telemetry.counter("kernels.served.packed")
                replay_span.set_outcome("packed")
                if run.violation is not None:
                    return ReplayOutcome(
                        "packed",
                        run.violation.cycle,
                        run.violation.property_name,
                        demotions,
                    )
                return ReplayOutcome("packed", None, None, demotions)
            except SimulationMismatch as error:
                demotions.append(f"packed demoted: {error}")
                _telemetry.counter("kernels.demotions.packed_mismatch")
        outcome = _scalar_replay(system, input_sequence)
        outcome.demotions = demotions
        _telemetry.counter("kernels.served.scalar")
        replay_span.set_outcome("scalar")
        return outcome
