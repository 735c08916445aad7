"""Word-level transition system ("word-level netlist").

The transition system is the central intermediate representation of the tool
flow: the Verilog synthesizer produces it, the bit-level flow bit-blasts it to
an AIG, one step compiler (:mod:`repro.netlist.step`) turns it into the
scalar, packed and interval step functions, and the verification engines
analyse it directly.
"""

from repro.netlist.transition import (
    SafetyProperty,
    TransitionSystem,
    TransitionSystemError,
)
from repro.netlist.simulate import CycleValues, Simulator, Trace, TraceStep

__all__ = [
    "SafetyProperty",
    "TransitionSystem",
    "TransitionSystemError",
    "CycleValues",
    "Simulator",
    "Trace",
    "TraceStep",
]
