"""Cycle-accurate simulation of a transition system.

The simulator is the executable reference semantics of the word-level
netlist.  Every clock cycle runs through one straight-line Python function
that is generated from the design and ``compile()``d once per design: the
step function of the paper's v2c flow (Section III.A) and the scalar twin of
the packed tier's :class:`repro.netlist.bitsim._StepCompiler`.  Both
compilers read the :class:`TransitionSystem` the same way: a wire is emitted
where it is first used (a wire that reaches itself is a combinational
cycle), and the first property of a name answers for it.  The step has one
local per expression DAG node (shared subterms are bound once, by node
identity) and masks and constants inlined; it returns the cycle's wire,
property and constraint values and the next state in one pass.
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

import os
import threading
import weakref
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.exprs import evaluate
from repro.exprs.nodes import Const, Expr, Op, Var, mask
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
            step = self._step = _step_for(self.system)
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
# the compiled step, one per design
# ---------------------------------------------------------------------------

_BITWISE = {"and": "&", "or": "|", "xor": "^"}
_NEGATED_BITWISE = {"xnor": "^", "nand": "&", "nor": "|"}
_MODULAR = {"add": "+", "sub": "-", "mul": "*"}
_UNSIGNED_COMPARE = {
    "eq": "==", "ne": "!=", "ult": "<", "ule": "<=", "ugt": ">", "uge": ">=",
}
_SIGNED_COMPARE = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
_CONCAT_CHUNK = 64


class _StepCompiler:
    """Emits the straight-line scalar step function of one design.

    The function is ``_step(cycle, S, I)`` over the cycle number and the
    state and input mappings, and returns the cycle's :class:`CycleValues`.
    Every value it computes is an unsigned int below ``2**width``, the
    invariant :func:`repro.exprs.evaluate` keeps, so only the operators that
    can leave that range are masked.  Both arms of an ``ite`` are computed,
    so every operator must be total: division by zero follows ``evaluate``
    and each shift tests its amount before shifting, so a 64-bit amount
    never builds a huge int.
    """

    def __init__(self, system: TransitionSystem) -> None:
        self.system = system
        self.widths = system.signal_widths()
        self.lines: List[str] = ["def _step(cycle, S, I):"]
        #: id(node) -> the local (or literal) holding its value
        self.atoms: Dict[int, str] = {}
        #: signal name -> the local (or literal) holding its value
        self.signals: Dict[str, str] = {}
        self.resolving: Set[str] = set()

    def _bind(self, code: str) -> str:
        local = f"t{len(self.lines)}"
        self.lines.append(f"    {local} = {code}")
        return local

    def emit(self, node: Expr) -> str:
        key = id(node)
        atom = self.atoms.get(key)
        if atom is None:
            atom = self.atoms[key] = self._emit(node)
        return atom

    def _signal(self, name: str) -> str:
        atom = self.signals.get(name)
        if atom is not None:
            return atom
        if name not in self.system.wires:
            raise TransitionSystemError(f"expression refers to undeclared signal {name!r}")
        if name in self.resolving:
            raise TransitionSystemError(
                f"combinational cycle through wires: {sorted(self.resolving)}"
            )
        self.resolving.add(name)
        atom = self.signals[name] = self.emit(self.system.wires[name])
        self.resolving.discard(name)
        return atom

    def _emit(self, node: Expr) -> str:
        if isinstance(node, Const):
            return str(node.value)
        if isinstance(node, Var):
            atom = self._signal(node.name)
            if node.width != self.widths[node.name]:
                return self._bind(f"{atom} & {mask(node.width)}")
            return atom
        assert isinstance(node, Op)
        op = node.op
        width = node.width
        args = [self.emit(arg) for arg in node.args]
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

    def compile(self) -> Callable:
        system = self.system
        for index, name in enumerate(system.state_vars):
            self.signals[name] = f"s{index}"
            self.lines.append(f"    s{index} = S[{name!r}]")
        for index, (name, width) in enumerate(system.inputs.items()):
            self.signals[name] = f"i{index}"
            self.lines.append(f"    i{index} = I.get({name!r}, 0) & {mask(width)}")
        wires = {name: self._signal(name) for name in system.wires}
        properties: Dict[str, str] = {}
        for prop in system.properties:
            # the first property of a name answers for it, as in property_by_name
            if prop.name not in properties:
                properties[prop.name] = self.emit(prop.expr)
        constraints = [self.emit(expr) for expr in system.constraints]
        next_state = {name: self.emit(expr) for name, expr in system.next.items()}

        def mapping(atoms: Mapping[str, str]) -> str:
            items = ", ".join(f"{name!r}: {atom}" for name, atom in atoms.items())
            return "{" + items + "}"

        cycle_inputs = {name: self.signals[name] for name in system.inputs}
        results = [
            "cycle",
            "S",
            mapping(cycle_inputs),
            mapping(wires),
            mapping(properties),
            "(" + "".join(f"{atom}, " for atom in constraints) + ")",
            mapping(next_state),
        ]
        self.lines.append(f"    return CycleValues({', '.join(results)})")
        source = "\n".join(self.lines)
        namespace: Dict[str, object] = {}
        exec(  # noqa: S102 - compiling our own generated step function
            compile(source, f"<simulate:{system.name}>", "exec"),
            {"CycleValues": CycleValues},
            namespace,
        )
        step = namespace["_step"]
        step._source = source  # kept for debugging
        return step


#: system -> (fingerprint, compiled step); weak keys so designs built on the
#: fly do not accumulate, and the step holds no reference to its system
_STEPS: "weakref.WeakKeyDictionary[TransitionSystem, Tuple[int, Callable]]" = (
    weakref.WeakKeyDictionary()
)
_STEPS_LOCK = threading.Lock()


def _step_for(system: TransitionSystem) -> Callable:
    """Return (compiling if needed) the step function of a design.

    Checked against :meth:`TransitionSystem.fingerprint`, so a design
    mutated in place gets a new step.
    """
    fingerprint = system.fingerprint()
    with _STEPS_LOCK:
        entry = _STEPS.get(system)
        if entry is None or entry[0] != fingerprint:
            entry = _STEPS[system] = (fingerprint, _StepCompiler(system).compile())
        return entry[1]


def _forget_steps() -> None:
    """A forked child starts afresh: a parent thread may hold the lock."""
    global _STEPS, _STEPS_LOCK
    _STEPS = weakref.WeakKeyDictionary()
    _STEPS_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_steps)
