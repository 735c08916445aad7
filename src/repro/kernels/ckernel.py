"""ctypes bridge to the compiled per-design step kernel.

:class:`CompiledKernel` loads the design's shared object (building through
the on-disk cache on first use) and exposes the C replay loop to Python.  The
native tier is gated by the repo's cross-checked-verdict pattern:
:meth:`CompiledKernel.replay_checked` spot-checks the compiled trace against
the scalar reference simulator cycle by cycle on a prefix of the run, and
any divergence raises :class:`KernelMismatch` — callers treat that exactly
like :class:`~repro.kernels.build.KernelUnavailable` and fall back to the
pure-Python tiers, so a miscompiled (or fault-injected) kernel can slow a
query down but can never change an answer.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from repro.cache.key import kernel_key
from repro.netlist import TransitionSystem
from repro.netlist.simulate import Simulator
from repro.v2c.codegen import KERNEL_ABI_VERSION
from repro.v2c.softnetlist import SoftwareNetlist
from repro.kernels.build import KernelUnavailable, build_kernel

#: how many leading cycles of every checked replay are re-run in the scalar
#: simulator (registers, property and constraint verdicts compared bit-exactly)
DEFAULT_CROSSCHECK_CYCLES = 8


class KernelMismatch(RuntimeError):
    """Compiled kernel output diverged from the scalar reference semantics."""


@dataclass
class KernelRun:
    """Decoded result of one C-side replay."""

    cycles: int
    first_violation: Optional[int]
    violated_property: Optional[str]
    #: per-cycle pre-update register values (only when a trace was recorded)
    states: List[Dict[str, int]]
    #: per-cycle property-violation bitmask (bit i = netlist.assertions[i])
    viol_masks: List[int]
    #: per-cycle environment-constraint-violation bitmask
    cviol_masks: List[int]


class CompiledKernel:
    """One design's compiled step function behind the flat uint64 ABI."""

    def __init__(
        self, system: TransitionSystem, cache_dir: Optional[Path] = None
    ) -> None:
        self.system = system
        self.netlist = SoftwareNetlist(system)
        self.register_order = list(self.netlist.registers)
        self.input_order = list(self.netlist.inputs)
        self.property_names = [a.name for a in self.netlist.assertions]
        self.key = kernel_key(system, KERNEL_ABI_VERSION)
        self.so_path = build_kernel(system, cache_dir=cache_dir)
        try:
            library = ctypes.CDLL(str(self.so_path))
        except OSError as error:
            raise KernelUnavailable(f"cannot load kernel {self.so_path}: {error}") from error
        prefix = self._symbol_prefix()
        try:
            self._kinit = getattr(library, f"{prefix}_kinit")
            self._kstep = getattr(library, f"{prefix}_kstep")
            self._kreplay = getattr(library, f"{prefix}_kreplay")
        except AttributeError as error:
            raise KernelUnavailable(f"kernel {self.so_path} lacks symbols: {error}") from error
        u64p = ctypes.POINTER(ctypes.c_uint64)
        self._kinit.argtypes = [u64p]
        self._kinit.restype = None
        self._kstep.argtypes = [u64p, u64p, ctypes.POINTER(ctypes.c_uint32)]
        self._kstep.restype = ctypes.c_uint32
        self._kreplay.argtypes = [u64p, u64p, ctypes.c_longlong, ctypes.c_int, u64p]
        self._kreplay.restype = ctypes.c_longlong
        self._library = library

    def _symbol_prefix(self) -> str:
        from repro.v2c.codegen import _sanitize

        return _sanitize(self.system.name or "design")

    # ------------------------------------------------------------------
    def _pack_inputs(self, input_sequence: Sequence[Mapping[str, int]]):
        n_inputs = len(self.input_order)
        flat = (ctypes.c_uint64 * (len(input_sequence) * max(1, n_inputs)))()
        for cycle, inputs in enumerate(input_sequence):
            base = cycle * n_inputs
            for offset, name in enumerate(self.input_order):
                flat[base + offset] = int(inputs.get(name, 0)) & 0xFFFFFFFFFFFFFFFF
        return flat

    def replay(
        self,
        input_sequence: Sequence[Mapping[str, int]],
        stop_on_violation: bool = False,
        want_trace: bool = True,
    ) -> KernelRun:
        """Run the C replay loop from reset over ``input_sequence``."""
        ncycles = len(input_sequence)
        n_regs = len(self.register_order)
        state = (ctypes.c_uint64 * max(1, n_regs))()
        self._kinit(state)
        flat_inputs = self._pack_inputs(input_sequence)
        trace = (
            (ctypes.c_uint64 * (ncycles * (n_regs + 2)))() if want_trace and ncycles else None
        )
        first = self._kreplay(
            state,
            flat_inputs,
            ncycles,
            1 if stop_on_violation else 0,
            trace if trace is not None else None,
        )
        states: List[Dict[str, int]] = []
        viol_masks: List[int] = []
        cviol_masks: List[int] = []
        recorded = ncycles if first < 0 or not stop_on_violation else int(first) + 1
        if trace is not None:
            stride = n_regs + 2
            for cycle in range(recorded):
                row = trace[cycle * stride : (cycle + 1) * stride]
                states.append(dict(zip(self.register_order, map(int, row[:n_regs]))))
                viol_masks.append(int(row[n_regs]))
                cviol_masks.append(int(row[n_regs + 1]))
        violated_name: Optional[str] = None
        if first >= 0 and viol_masks:
            cycle_mask = viol_masks[int(first)]
            bit = (cycle_mask & -cycle_mask).bit_length() - 1
            violated_name = self.property_names[bit]
        elif first >= 0:
            violated_name = self.property_names[0] if self.property_names else None
        return KernelRun(
            cycles=recorded,
            first_violation=int(first) if first >= 0 else None,
            violated_property=violated_name,
            states=states,
            viol_masks=viol_masks,
            cviol_masks=cviol_masks,
        )

    # ------------------------------------------------------------------
    def replay_checked(
        self,
        input_sequence: Sequence[Mapping[str, int]],
        stop_on_violation: bool = False,
        crosscheck_cycles: int = DEFAULT_CROSSCHECK_CYCLES,
    ) -> KernelRun:
        """Replay with the cross-checked-verdict gate engaged.

        The first ``crosscheck_cycles`` cycles of the compiled trace are
        re-executed in the scalar reference simulator and compared register
        for register, property for property and constraint for constraint;
        any divergence — including
        one injected by the ``kernel-miscompile`` chaos fault — raises
        :class:`KernelMismatch` so the caller falls back to pure Python.
        """
        run = self.replay(input_sequence, stop_on_violation=stop_on_violation)
        from repro.faults import injection

        if injection.forge_kernel_output(self.system.name or "design"):
            run = _forged(run, self.property_names)
        self._crosscheck(input_sequence, run, crosscheck_cycles)
        return run

    def _crosscheck(
        self,
        input_sequence: Sequence[Mapping[str, int]],
        run: KernelRun,
        cycles: int,
    ) -> None:
        end = min(cycles, run.cycles, len(run.states))
        simulator = Simulator(self.system)
        for cycle in range(end):
            values = simulator.advance(input_sequence[cycle])
            for name in self.register_order:
                if run.states[cycle][name] != values.state[name]:
                    raise KernelMismatch(
                        f"{self.system.name}: compiled register {name!r} diverged at "
                        f"cycle {cycle}: kernel {run.states[cycle][name]}, "
                        f"scalar {values.state[name]}"
                    )
            scalar_mask = 0
            for bit, assertion in enumerate(self.netlist.assertions):
                if not values.properties[assertion.name]:
                    scalar_mask |= 1 << bit
            if run.viol_masks[cycle] != scalar_mask:
                raise KernelMismatch(
                    f"{self.system.name}: compiled property verdicts diverged at "
                    f"cycle {cycle}: kernel mask {run.viol_masks[cycle]:#x}, "
                    f"scalar mask {scalar_mask:#x}"
                )
            scalar_cmask = 0
            for bit, value in enumerate(values.constraints):
                if not value:
                    scalar_cmask |= 1 << bit
            if run.cviol_masks[cycle] != scalar_cmask:
                raise KernelMismatch(
                    f"{self.system.name}: compiled constraint verdicts diverged at "
                    f"cycle {cycle}: kernel mask {run.cviol_masks[cycle]:#x}, "
                    f"scalar mask {scalar_cmask:#x}"
                )


def _forged(run: KernelRun, property_names: List[str]) -> KernelRun:
    """Corrupt a kernel run the way a miscompiled step function would.

    The forgery flips the verdict: a spurious violation is claimed at cycle 0
    and any real violations are erased — wrong in a way the per-cycle prefix
    cross-check detects deterministically (the scalar simulator disagrees
    about cycle 0 already).
    """
    if not property_names or not run.viol_masks:
        return run
    viol_masks = [0] * len(run.viol_masks)
    viol_masks[0] = 1
    return KernelRun(
        cycles=run.cycles,
        first_violation=0,
        violated_property=property_names[0],
        states=run.states,
        viol_masks=viol_masks,
        cviol_masks=run.cviol_masks,
    )
