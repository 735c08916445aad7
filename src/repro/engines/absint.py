"""Abstract interpretation with intervals (the Astrée stand-in).

The engine computes, per register, an unsigned interval enclosing all
reachable values: starting from the (singleton) initial state it repeatedly
evaluates the next-state functions in interval arithmetic, joins the result
with the current intervals and widens from round :data:`WIDEN_AFTER` on.
Each round is one call of the design's compiled interval step
(:class:`IntervalStep`, the interval domain of :mod:`repro.netlist.step`):
straight-line code with one transfer-function kernel per expression node.
Widening alone makes the iteration terminate, so it has no round cap: it
stops at a fixpoint, the only point where the box is inductive, or when the
budget runs out (TIMEOUT).  Inputs are unconstrained (top).  If the safety
property evaluates to definitely-true under the fixpoint the design is
proved safe;
otherwise the result is ``UNKNOWN`` — a potential false alarm, which is
exactly the behaviour the paper reports for Astrée on the software netlists
("it generates many false alarms for safe benchmarks" due to the numerical
abstraction losing bit-precise information).

The engine can also export its fixpoint as word-level invariant expressions,
which the kIkI combination (:mod:`repro.engines.kiki`) uses to strengthen
k-induction — mirroring how 2LS combines k-induction with k-invariants.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Optional, Tuple

from repro.certs import InductiveCertificate
from repro.engines.base import Engine
from repro.engines.encoding import flattened_cached
from repro.engines.result import Budget, Status, VerificationResult
from repro.exprs import TRUE, Expr, bv_const, bv_var, bool_and
from repro.exprs.nodes import Op, mask
from repro.netlist import TransitionSystem
from repro.netlist.step import StepCompiler, mapping, sequence
from repro.records import Frozen

#: rounds of plain joins before every round widens
WIDEN_AFTER = 8


class Interval(Frozen):
    """An unsigned interval ``[lo, hi]`` over ``width`` bits."""

    def __init__(self, lo: int, hi: int, width: int) -> None:
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "width", width)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Interval:
            return NotImplemented
        return (self.lo, self.hi, self.width) == (other.lo, other.hi, other.width)

    @staticmethod
    def top(width: int) -> "Interval":
        return Interval(0, mask(width), width)

    @staticmethod
    def constant(value: int, width: int) -> "Interval":
        value &= mask(width)
        return Interval(value, value, width)

    @property
    def is_top(self) -> bool:
        return self.lo == 0 and self.hi == mask(self.width)

    @property
    def is_constant(self) -> bool:
        return self.lo == self.hi

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi), self.width)

    def widen(self, other: "Interval") -> "Interval":
        """Classical interval widening: unstable bounds jump to the type bounds."""
        lo = self.lo if other.lo >= self.lo else 0
        hi = self.hi if other.hi <= self.hi else mask(self.width)
        return Interval(lo, hi, self.width)

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]#{self.width}"


#: the 1-bit interval of a comparison that may go either way
UNKNOWN = Interval(0, 1, 1)


def _bool(value: bool) -> Interval:
    return Interval.constant(int(value), 1)


# ---------------------------------------------------------------------------
# the transfer functions: one kernel per operator, over evaluated arguments
# ---------------------------------------------------------------------------


def _i_add(a: Interval, b: Interval, width: int) -> Interval:
    if a.hi + b.hi <= mask(width):
        return Interval(a.lo + b.lo, a.hi + b.hi, width)
    return Interval.top(width)


def _i_sub(a: Interval, b: Interval, width: int) -> Interval:
    if a.lo - b.hi >= 0:
        return Interval(a.lo - b.hi, a.hi - b.lo, width)
    return Interval.top(width)


def _i_mul(a: Interval, b: Interval, width: int) -> Interval:
    if a.hi * b.hi <= mask(width):
        return Interval(a.lo * b.lo, a.hi * b.hi, width)
    return Interval.top(width)


def _i_udiv(a: Interval, b: Interval, width: int) -> Interval:
    if b.lo > 0:
        return Interval(a.lo // b.hi, a.hi // b.lo, width)
    return Interval.top(width)


def _i_urem(a: Interval, b: Interval, width: int) -> Interval:
    if b.lo > 0:
        return Interval(0, min(a.hi, b.hi - 1), width)
    return Interval(0, a.hi, width)


def _i_neg(a: Interval, width: int) -> Interval:
    if a.is_constant:
        return Interval.constant(-a.lo, width)
    return Interval.top(width)


def _i_and(a: Interval, b: Interval, width: int) -> Interval:
    if a.is_constant and b.is_constant:
        return Interval.constant(a.lo & b.lo, width)
    return Interval(0, min(a.hi, b.hi), width)


def _i_or(a: Interval, b: Interval, width: int) -> Interval:
    if a.is_constant and b.is_constant:
        return Interval.constant(a.lo | b.lo, width)
    upper_bits = max(a.hi, b.hi).bit_length()
    return Interval(max(a.lo, b.lo), min(mask(width), (1 << upper_bits) - 1), width)


def _i_xor(a: Interval, b: Interval, width: int) -> Interval:
    if a.is_constant and b.is_constant:
        return Interval.constant(a.lo ^ b.lo, width)
    upper_bits = max(a.hi, b.hi).bit_length()
    return Interval(0, min(mask(width), (1 << upper_bits) - 1), width)


def _i_not(a: Interval, width: int) -> Interval:
    return Interval(mask(width) - a.hi, mask(width) - a.lo, width)


def _i_shl(a: Interval, b: Interval, width: int) -> Interval:
    if b.is_constant:
        shift = b.lo
        if shift >= width:
            return Interval.constant(0, width)
        if a.hi << shift <= mask(width):
            return Interval(a.lo << shift, a.hi << shift, width)
    return Interval.top(width)


def _i_lshr(a: Interval, b: Interval, width: int) -> Interval:
    if b.is_constant:
        shift = b.lo
        if shift >= width:
            return Interval.constant(0, width)
        return Interval(a.lo >> shift, a.hi >> shift, width)
    return Interval(0, a.hi, width)


def _i_eq(a: Interval, b: Interval) -> Interval:
    if a.is_constant and b.is_constant:
        return _bool(a.lo == b.lo)
    if a.hi < b.lo or b.hi < a.lo:
        return _bool(False)
    return UNKNOWN


def _i_ult(a: Interval, b: Interval) -> Interval:
    if a.hi < b.lo:
        return _bool(True)
    if a.lo >= b.hi:
        return _bool(False)
    return UNKNOWN


def _i_ule(a: Interval, b: Interval) -> Interval:
    if a.hi <= b.lo:
        return _bool(True)
    if a.lo > b.hi:
        return _bool(False)
    return UNKNOWN


def _i_ne(a: Interval, b: Interval) -> Interval:
    return _i_not(_i_eq(a, b), 1)


def _i_ugt(a: Interval, b: Interval) -> Interval:
    return _i_not(_i_ule(a, b), 1)


def _i_uge(a: Interval, b: Interval) -> Interval:
    return _i_not(_i_ult(a, b), 1)


def _i_redand(a: Interval, operand_width: int) -> Interval:
    full = mask(operand_width)
    if a.is_constant:
        return _bool(a.lo == full)
    if a.hi < full:
        return _bool(False)
    return UNKNOWN


def _i_redor(a: Interval) -> Interval:
    if a.is_constant:
        return _bool(a.lo != 0)
    if a.lo > 0:
        return _bool(True)
    return UNKNOWN


def _i_redxor(a: Interval) -> Interval:
    if a.is_constant:
        return _bool(bool(bin(a.lo).count("1") & 1))
    return UNKNOWN


def _i_concat(parts: Tuple[Interval, ...], widths: Tuple[int, ...], width: int) -> Interval:
    if all(part.is_constant for part in parts):
        value = 0
        for part, part_width in zip(parts, widths):
            value = (value << part_width) | part.lo
        return Interval.constant(value, width)
    return Interval.top(width)


def _i_extract(a: Interval, lo: int, width: int) -> Interval:
    if a.is_constant:
        return Interval.constant((a.lo >> lo) & mask(width), width)
    if lo == 0 and a.hi <= mask(width):
        return Interval(a.lo, a.hi, width)
    return Interval.top(width)


def _i_zext(a: Interval, width: int) -> Interval:
    return Interval(a.lo, a.hi, width)


def _i_sext(a: Interval, inner_width: int, width: int) -> Interval:
    if a.hi < (1 << (inner_width - 1)):
        return Interval(a.lo, a.hi, width)
    return Interval.top(width)


def _i_ite(condition: Interval, then_interval: Interval, else_interval: Interval) -> Interval:
    if condition.is_constant:
        return then_interval if condition.lo else else_interval
    return then_interval.join(else_interval)


#: operators whose interval is always top (``top``) or, for the signed
#: comparisons, unknown; each other operator has its ``_i_`` kernel
_TOP = frozenset({"xnor", "nand", "nor", "ashr"})
_SIGNED_COMPARE = frozenset({"slt", "sle", "sgt", "sge"})
#: kernels that take no result width
_WIDTHLESS = frozenset(
    {"eq", "ne", "ult", "ule", "ugt", "uge", "redand", "redor", "redxor", "ite"}
)


class IntervalStep(StepCompiler):
    """The interval domain: the post image of a box of unsigned intervals.

    The step is ``_step(S, I)`` over the register and input intervals, and
    returns the next-state intervals and the property intervals by name.
    Each operator is one kernel call with its widths and parameters fixed
    at compile time.
    """

    tag = "absint"
    kernels = {name: value for name, value in globals().items() if name.startswith("_i_")}

    def constant(self, value: int, width: int) -> str:
        return self.hoist(Interval.constant(value, width))

    def operator(self, node: Op, args: List[str]) -> str:
        op = node.op
        width = node.width
        if op in _TOP:
            return self._bind(self.hoist(Interval.top(width)))
        if op in _SIGNED_COMPARE:
            return self._bind(self.hoist(UNKNOWN))
        if op == "concat":
            args = [sequence(args), repr(tuple(arg.width for arg in node.args))]
        elif op == "extract":
            args = [*args, str(node.params[1])]  # the low bit
        elif op in ("sext", "redand"):
            args = [*args, str(node.args[0].width)]  # the operand's width
        if op not in _WIDTHLESS:
            args = [*args, str(width)]
        return self._bind(f"_i_{op}({', '.join(args)})")

    def returns(self) -> str:
        next_state = {name: self.emit(expr) for name, expr in self.system.next.items()}
        return f"{mapping(next_state)}, {mapping(self.properties())}"


class AbstractInterpretationEngine(Engine):
    """Interval analysis of the software-netlist."""

    name = "abstract-interpretation"

    def __init__(self, system: TransitionSystem) -> None:
        super().__init__(system)
        # shared memoized flatten: portfolio workers forked after the parent
        # pre-warm inherit it copy-on-write instead of re-flattening
        self.flat = flattened_cached(system)

    # ------------------------------------------------------------------
    def compute_invariants(self, budget: Optional[Budget] = None) -> Dict[str, Interval]:
        """Run the iteration to its fixpoint; returns the per-register intervals.

        Only a fixpoint is inductive, so the iteration has no round cap: it
        stops there, or when ``budget`` expires (callers then read the
        budget, not the intervals).  It terminates because from round
        :data:`WIDEN_AFTER` on every round that changes anything moves some
        register bound to its type bound, so it ends within
        ``WIDEN_AFTER + 2 * registers + 1`` rounds.
        """
        from repro.exprs import evaluate

        step = IntervalStep.step_for(self.flat)
        inputs = self._inputs()
        intervals: Dict[str, Interval] = {
            name: Interval.constant(evaluate(self.flat.init[name], {}), width)
            for name, width in self.flat.state_vars.items()
        }
        for iteration in itertools.count():
            if budget is not None and budget.expired():
                break
            new_intervals: Dict[str, Interval] = {}
            changed = False
            for name, post in step(intervals, inputs)[0].items():
                joined = intervals[name].join(post)
                if iteration >= WIDEN_AFTER:
                    joined = intervals[name].widen(joined)
                if joined != intervals[name]:
                    changed = True
                new_intervals[name] = joined
            intervals = new_intervals
            if not changed:
                break
        return intervals

    def _inputs(self) -> Dict[str, Interval]:
        """Inputs are unconstrained: each is top."""
        return {name: Interval.top(width) for name, width in self.flat.inputs.items()}

    def invariant_exprs(self, intervals: Dict[str, Interval]) -> List[Expr]:
        """Turn non-trivial intervals into word-level invariant expressions."""
        exprs: List[Expr] = []
        for name, interval in intervals.items():
            if interval.is_top:
                continue
            var = bv_var(name, interval.width)
            if interval.lo > 0:
                exprs.append(var.uge(bv_const(interval.lo, interval.width)))
            if interval.hi < mask(interval.width):
                exprs.append(var.ule(bv_const(interval.hi, interval.width)))
        return exprs

    def verify(
        self, property_name: Optional[str] = None, timeout: Optional[float] = None
    ) -> VerificationResult:
        budget = Budget(timeout)
        property_name = self.default_property(property_name)
        start = time.monotonic()
        intervals = self.compute_invariants(budget)
        if budget.expired():
            return VerificationResult(
                Status.TIMEOUT, self.name, property_name, runtime=budget.elapsed()
            )
        step = IntervalStep.step_for(self.flat)
        verdict = step(intervals, self._inputs())[1][property_name]
        runtime = time.monotonic() - start
        detail = {
            "intervals": {name: (iv.lo, iv.hi) for name, iv in intervals.items()},
        }
        if verdict.is_constant and verdict.lo == 1:
            # the interval box is inductive (it is the fixpoint of the
            # interval-arithmetic post) and strong enough to imply P
            constraints = self.invariant_exprs(intervals)
            invariant = bool_and(*constraints) if constraints else TRUE
            return VerificationResult(
                Status.SAFE,
                self.name,
                property_name,
                runtime=runtime,
                detail=detail,
                reason="interval invariant implies the property",
                certificate=InductiveCertificate(property_name, self.name, invariant),
            )
        return VerificationResult(
            Status.UNKNOWN,
            self.name,
            property_name,
            runtime=runtime,
            detail=detail,
            reason="interval abstraction too imprecise (possible false alarm)",
        )
