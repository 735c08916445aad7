"""Cycle-accurate simulation of a transition system.

The simulator is the executable reference semantics of the word-level
netlist.  Every clock cycle runs through one straight-line Python function
that is generated from the design and ``compile()``d once per design: the
scalar domain (:class:`ScalarStep`) of the step compiler in
:mod:`repro.netlist.step`, which reads the :class:`TransitionSystem` the
same way for the packed and the interval domain.  The step has one local
per expression DAG node (shared subterms are bound once, by node identity)
and masks and constants inlined; it returns the cycle's wire, property and
constraint values and the next state in one pass.
:func:`repro.exprs.evaluate` stays the reference model the compiled step is
tested against.

The simulator is used to

* replay counterexample traces (the certificate validator's witness check),
* confirm the packed tier: rsim's packed hits and the packed lane
  cross-check (:func:`repro.netlist.bitsim.crosscheck_lane`),
* cross-validate the bit-level lifting of a design (the paper's Section
  III.C equivalence argument: bugs must manifest in the same clock cycle in
  both models).

:meth:`Simulator.advance` is the one per-cycle call: it evaluates the
current cycle and moves to the next, so each trace is walked once.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exprs import evaluate
from repro.exprs.nodes import Const, Op, mask
from repro.netlist.step import StepCompiler, mapping, sequence
from repro.netlist.transition import TransitionSystem, TransitionSystemError


class TraceStep:
    """Signal valuation of one clock cycle."""

    __slots__ = ("cycle", "inputs", "state", "wires")

    def __init__(
        self,
        cycle: int,
        inputs: Optional[Dict[str, int]] = None,
        state: Optional[Dict[str, int]] = None,
        wires: Optional[Dict[str, int]] = None,
    ) -> None:
        self.cycle = cycle
        self.inputs = {} if inputs is None else inputs
        self.state = {} if state is None else state
        self.wires = {} if wires is None else wires

    def value(self, name: str) -> int:
        """Return the value of any signal recorded in this step."""
        for table in (self.state, self.inputs, self.wires):
            if name in table:
                return table[name]
        raise KeyError(name)


class Trace:
    """A sequence of trace steps, optionally ending in a property violation."""

    __slots__ = ("steps", "violated_property")

    def __init__(
        self, steps: Optional[List[TraceStep]] = None, violated_property: Optional[str] = None
    ) -> None:
        self.steps = [] if steps is None else steps
        self.violated_property = violated_property

    def __len__(self) -> int:
        return len(self.steps)

    def last(self) -> TraceStep:
        return self.steps[-1]

    def values_of(self, name: str) -> List[int]:
        """Return the per-cycle values of one signal."""
        return [step.value(name) for step in self.steps]


class CycleValues:
    """Every value one clock cycle computes (see :meth:`Simulator.advance`).

    ``state`` holds the registers before the cycle and ``next_state`` after
    it; ``inputs`` are the cycle's inputs truncated to their widths (0 where
    the caller gave none); ``properties`` maps each property name to 1
    (holds) or 0 (violated) in declaration order; ``constraints`` holds each
    environment constraint's value, in declaration order.
    """

    # a plain slotted class, not a dataclass: one is built per simulated
    # cycle, and a dataclass costs every CLI start-up its class generation
    __slots__ = (
        "cycle", "state", "inputs", "wires", "properties", "constraints", "next_state",
    )

    def __init__(
        self,
        cycle: int,
        state: Dict[str, int],
        inputs: Dict[str, int],
        wires: Dict[str, int],
        properties: Dict[str, int],
        constraints: Tuple[int, ...],
        next_state: Dict[str, int],
    ) -> None:
        self.cycle = cycle
        self.state = state
        self.inputs = inputs
        self.wires = wires
        self.properties = properties
        self.constraints = constraints
        self.next_state = next_state

    @property
    def violated_property(self) -> Optional[str]:
        """The first property, in declaration order, violated this cycle."""
        for name, value in self.properties.items():
            if not value:
                return name
        return None


_NO_INPUTS: Mapping[str, int] = {}


class Simulator:
    """Executes a transition system cycle by cycle.

    The design's compiled step is looked up (and built, once per design) on
    the first cycle this simulator runs, so constructing a simulator costs
    no compilation.
    """

    def __init__(self, system: TransitionSystem) -> None:
        system.validate()
        self.system = system
        self._step: Optional[Callable] = None
        self._state: Dict[str, int] = {}
        self.cycle = 0
        self.reset()

    # ------------------------------------------------------------------
    # state control
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Reset all registers to their initial values."""
        self._state = {
            name: evaluate(init_expr, {}) for name, init_expr in self.system.init.items()
        }
        self.cycle = 0

    @property
    def state(self) -> Dict[str, int]:
        """Current register values."""
        return dict(self._state)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _values(self, inputs: Optional[Mapping[str, int]]) -> CycleValues:
        """The values of the current cycle; the simulator stays in it."""
        step = self._step
        if step is None:
            step = self._step = ScalarStep.step_for(self.system)
        return step(self.cycle, self._state, _NO_INPUTS if inputs is None else inputs)

    def advance(self, inputs: Optional[Mapping[str, int]] = None) -> CycleValues:
        """Run the current cycle under ``inputs`` and move to the next one.

        Missing inputs default to 0.  Returns every value of the cycle just
        run, computed in one pass of the compiled step.
        """
        values = self._values(inputs)
        self._state = values.next_state
        self.cycle += 1
        return values

    def check_properties(self, inputs: Optional[Mapping[str, int]] = None) -> Optional[str]:
        """Return the name of the first violated property in the current cycle, or None."""
        return self._values(inputs).violated_property

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self, inputs: Optional[Mapping[str, int]] = None) -> TraceStep:
        """Advance one clock cycle with the given input values (default 0)."""
        values = self.advance(inputs)
        return TraceStep(values.cycle, values.inputs, values.state, values.wires)

    def run(
        self,
        input_sequence: Sequence[Mapping[str, int]],
        stop_on_violation: bool = True,
    ) -> Trace:
        """Run the simulator for one step per element of ``input_sequence``."""
        trace = Trace()
        for inputs in input_sequence:
            values = self.advance(inputs)
            trace.steps.append(
                TraceStep(values.cycle, values.inputs, values.state, values.wires)
            )
            violated = values.violated_property
            if violated is not None:
                trace.violated_property = violated
                if stop_on_violation:
                    return trace
        return trace


def replay(system: TransitionSystem, input_sequence: Sequence[Mapping[str, int]]) -> Trace:
    """Convenience helper: simulate ``system`` from reset on a fixed input sequence."""
    return Simulator(system).run(input_sequence, stop_on_violation=False)


# ---------------------------------------------------------------------------
# the scalar domain of the step compiler
# ---------------------------------------------------------------------------

_BITWISE = {"and": "&", "or": "|", "xor": "^"}
_NEGATED_BITWISE = {"xnor": "^", "nand": "&", "nor": "|"}
_MODULAR = {"add": "+", "sub": "-", "mul": "*"}
_UNSIGNED_COMPARE = {
    "eq": "==", "ne": "!=", "ult": "<", "ule": "<=", "ugt": ">", "uge": ">=",
}
_SIGNED_COMPARE = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
_CONCAT_CHUNK = 64


class ScalarStep(StepCompiler):
    """The scalar domain: Python ints, masks and constants inlined.

    The step is ``_step(cycle, S, I)`` over the cycle number and the state
    and input mappings, and returns the cycle's :class:`CycleValues`.
    Every value it computes is an unsigned int below ``2**width``, the
    invariant :func:`repro.exprs.evaluate` keeps, so only the operators that
    can leave that range are masked.  Both arms of an ``ite`` are computed,
    so every operator must be total: division by zero follows ``evaluate``
    and each shift tests its amount before shifting, so a 64-bit amount
    never builds a huge int.
    """

    params = "cycle, S, I"
    read_input = "I.get({name!r}, 0) & {mask}"
    tag = "simulate"
    kernels = {"CycleValues": CycleValues}

    def constant(self, value: int, width: int) -> str:
        return str(value)

    def operator(self, node: Op, args: List[str]) -> str:
        op = node.op
        width = node.width
        a = args[0]
        b = args[1] if len(args) > 1 else None
        operand_mask = mask(node.args[0].width)
        if op in _BITWISE:
            return self._bind(f"{a} {_BITWISE[op]} {b}")
        if op in _NEGATED_BITWISE:
            return self._bind(f"~({a} {_NEGATED_BITWISE[op]} {b}) & {operand_mask}")
        if op in _MODULAR:
            return self._bind(f"({a} {_MODULAR[op]} {b}) & {operand_mask}")
        if op in _UNSIGNED_COMPARE:
            return self._bind(f"1 if {a} {_UNSIGNED_COMPARE[op]} {b} else 0")
        if op in _SIGNED_COMPARE:
            # flipping the sign bit maps two's-complement order onto unsigned
            sign = 1 << (node.args[0].width - 1)
            return self._bind(
                f"1 if ({a} ^ {sign}) {_SIGNED_COMPARE[op]} ({b} ^ {sign}) else 0"
            )
        if op == "udiv":
            return self._bind(f"{a} // {b} if {b} else {operand_mask}")
        if op == "urem":
            return self._bind(f"{a} % {b} if {b} else {a}")
        if op == "not":
            if node.args[0].width == width:
                return self._bind(f"{a} ^ {mask(width)}")
            return self._bind(f"~{a} & {mask(width)}")
        if op == "neg":
            return self._bind(f"-{a} & {mask(width)}")
        if op in ("shl", "lshr", "ashr"):
            return self._shift(node, a, b)
        if op == "redand":
            return self._bind(f"1 if {a} == {operand_mask} else 0")
        if op == "redor":
            return self._bind(f"1 if {a} else 0")
        if op == "redxor":
            return self._bind(f"bin({a}).count('1') & 1")
        if op == "concat":
            # a flat OR of shifted parts, bound every _CONCAT_CHUNK parts:
            # Python's parser refuses deeply nested parentheses
            parts: List[str] = []
            shift = 0
            for arg, atom in zip(reversed(node.args), reversed(args)):
                parts.append(f"({atom} << {shift})" if shift else atom)
                shift += arg.width
                if len(parts) == _CONCAT_CHUNK:
                    parts = [self._bind(" | ".join(parts))]
            return self._bind(" | ".join(parts))
        if op == "extract":
            hi, lo = node.params
            if lo == 0:
                return self._bind(f"{a} & {mask(hi + 1)}")
            return self._bind(f"({a} >> {lo}) & {mask(hi - lo + 1)}")
        if op == "zext":
            return a
        if op == "sext":
            sign = 1 << (node.args[0].width - 1)
            return self._bind(f"(({a} ^ {sign}) - {sign}) & {mask(width)}")
        if op == "ite":
            return self._bind(f"{b} if {a} else {args[2]}")
        raise TransitionSystemError(f"cannot compile operator {op!r}")  # pragma: no cover

    def _shift(self, node: Op, a: str, b: str) -> str:
        """Shifts by ``width`` or more saturate, as in ``evaluate``."""
        op = node.op
        width = node.width
        amount = node.args[1]
        if op == "ashr":
            sign = 1 << (node.args[0].width - 1)
            signed = f"(({a} ^ {sign}) - {sign})"
            if isinstance(amount, Const):
                clamped = str(min(amount.value, width))
            else:
                clamped = f"({b} if {b} < {width} else {width})"
            return self._bind(f"({signed} >> {clamped}) & {mask(width)}")
        shifted = f"({a} << {b}) & {mask(width)}" if op == "shl" else f"{a} >> {b}"
        if isinstance(amount, Const):
            return self._bind(shifted if amount.value < width else "0")
        return self._bind(f"{shifted} if {b} < {width} else 0")

    def returns(self) -> str:
        system = self.system
        wires = {name: self.signal(name) for name in system.wires}
        properties = self.properties()
        constraints = [self.emit(expr) for expr in system.constraints]
        next_state = {name: self.emit(expr) for name, expr in system.next.items()}
        cycle_inputs = {name: self.signals[name] for name in system.inputs}
        results = [
            "cycle",
            "S",
            mapping(cycle_inputs),
            mapping(wires),
            mapping(properties),
            sequence(constraints),
            mapping(next_state),
        ]
        return f"CycleValues({', '.join(results)})"
