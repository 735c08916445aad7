"""Software-netlist program model.

The software-netlist is the program view of the circuit: a state structure
(one field per register, nested following the module hierarchy), an input
structure, and a *step function* that computes the combinational signals and
updates every register exactly once — one call per clock cycle, as described
in Section III.A of the paper.

The Python model here is that program: the wire assignments in dependency
order, the assertions and the register updates.  The packed simulator
(:mod:`repro.netlist.bitsim`) is built from it; every cross-check executes
the reference simulator (:class:`repro.netlist.simulate.Simulator`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.exprs import Expr, collect_vars, evaluate
from repro.netlist import TransitionSystem


class SoftwareNetlistError(Exception):
    """Raised for malformed software netlists."""


class AssignmentStep:
    """One straight-line assignment of the step function."""

    __slots__ = ("target", "expr", "kind")

    def __init__(self, target: str, expr: Expr, kind: str) -> None:
        self.target = target
        self.expr = expr
        self.kind = kind  # 'wire' | 'register'


class AssertionPoint:
    """An instrumented assertion checked each cycle before the state update."""

    __slots__ = ("name", "expr")

    def __init__(self, name: str, expr: Expr) -> None:
        self.name = name
        self.expr = expr


class SoftwareNetlist:
    """Straight-line program equivalent of a transition system.

    The constructor performs the dependency analysis between combinational
    definitions so that the wire assignments are emitted in topological order
    (the "intra-modular and inter-modular dependency analysis" of the paper);
    register updates are emitted last and read only pre-update values, which
    reproduces the non-blocking assignment semantics of the RTL.
    """

    def __init__(self, system: TransitionSystem) -> None:
        system.validate()
        self.system = system
        self.name = system.name
        self.inputs: Dict[str, int] = dict(system.inputs)
        self.registers: Dict[str, int] = dict(system.state_vars)
        self.initial_values: Dict[str, int] = {
            name: evaluate(expr, {}) for name, expr in system.init.items()
        }
        self.wire_order: List[str] = self._order_wires(system.wires)
        self.assignments: List[AssignmentStep] = self._build_assignments()
        self.assertions: List[AssertionPoint] = [
            AssertionPoint(prop.name, prop.expr) for prop in system.properties
        ]
        self.constraints: List[Expr] = list(system.constraints)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _order_wires(self, wires: Mapping[str, Expr]) -> List[str]:
        """Topologically sort wire definitions by their wire-to-wire dependencies."""
        dependencies: Dict[str, set] = {}
        for name, expr in wires.items():
            dependencies[name] = {
                var.name for var in collect_vars(expr) if var.name in wires and var.name != name
            }
        ordered: List[str] = []
        placed: set = set()
        remaining = dict(dependencies)
        while remaining:
            ready = [name for name, deps in remaining.items() if deps <= placed]
            if not ready:
                raise SoftwareNetlistError(
                    f"combinational cycle through wires: {sorted(remaining)}"
                )
            for name in sorted(ready):
                ordered.append(name)
                placed.add(name)
                del remaining[name]
        return ordered

    def _build_assignments(self) -> List[AssignmentStep]:
        steps: List[AssignmentStep] = []
        for name in self.wire_order:
            steps.append(AssignmentStep(name, self.system.wires[name], "wire"))
        for name in self.registers:
            steps.append(AssignmentStep(name, self.system.next[name], "register"))
        return steps
