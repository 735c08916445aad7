"""Abstract interpretation with intervals (the Astrée stand-in).

The engine computes, per register, an unsigned interval enclosing all
reachable values: starting from the (singleton) initial state it repeatedly
evaluates the next-state functions in interval arithmetic, joins the result
with the current intervals and widens from round :data:`WIDEN_AFTER` on.
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
from typing import Dict, List, Optional

from repro.certs import InductiveCertificate
from repro.engines.base import Engine
from repro.engines.encoding import flattened_cached
from repro.engines.result import Budget, Status, VerificationResult
from repro.exprs import TRUE, Expr, bv_const, bv_var, bool_and
from repro.exprs.nodes import Const, Op, Var, mask
from repro.netlist import TransitionSystem
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


class IntervalEvaluator:
    """Evaluates word-level expressions in interval arithmetic."""

    def __init__(self, env: Dict[str, Interval]) -> None:
        self.env = env

    def eval(self, expr: Expr) -> Interval:
        if isinstance(expr, Const):
            return Interval.constant(expr.value, expr.width)
        if isinstance(expr, Var):
            found = self.env.get(expr.name)
            if found is None:
                return Interval.top(expr.width)
            return found
        assert isinstance(expr, Op)
        handler = getattr(self, f"_eval_{expr.op}", None)
        if handler is None:
            return Interval.top(expr.width)
        return handler(expr)

    # -- helpers -----------------------------------------------------------
    def _args(self, expr: Op) -> List[Interval]:
        return [self.eval(arg) for arg in expr.args]

    def _bool(self, value: Optional[bool]) -> Interval:
        if value is None:
            return Interval(0, 1, 1)
        return Interval.constant(int(value), 1)

    # -- arithmetic --------------------------------------------------------
    def _eval_add(self, expr: Op) -> Interval:
        a, b = self._args(expr)
        if a.hi + b.hi <= mask(expr.width):
            return Interval(a.lo + b.lo, a.hi + b.hi, expr.width)
        return Interval.top(expr.width)

    def _eval_sub(self, expr: Op) -> Interval:
        a, b = self._args(expr)
        if a.lo - b.hi >= 0:
            return Interval(a.lo - b.hi, a.hi - b.lo, expr.width)
        return Interval.top(expr.width)

    def _eval_mul(self, expr: Op) -> Interval:
        a, b = self._args(expr)
        if a.hi * b.hi <= mask(expr.width):
            return Interval(a.lo * b.lo, a.hi * b.hi, expr.width)
        return Interval.top(expr.width)

    def _eval_udiv(self, expr: Op) -> Interval:
        a, b = self._args(expr)
        if b.lo > 0:
            return Interval(a.lo // b.hi, a.hi // b.lo, expr.width)
        return Interval.top(expr.width)

    def _eval_urem(self, expr: Op) -> Interval:
        a, b = self._args(expr)
        if b.lo > 0:
            return Interval(0, min(a.hi, b.hi - 1), expr.width)
        return Interval(0, a.hi, expr.width)

    def _eval_neg(self, expr: Op) -> Interval:
        (a,) = self._args(expr)
        if a.is_constant:
            return Interval.constant(-a.lo, expr.width)
        return Interval.top(expr.width)

    # -- bitwise -----------------------------------------------------------
    def _eval_and(self, expr: Op) -> Interval:
        a, b = self._args(expr)
        if a.is_constant and b.is_constant:
            return Interval.constant(a.lo & b.lo, expr.width)
        return Interval(0, min(a.hi, b.hi), expr.width)

    def _eval_or(self, expr: Op) -> Interval:
        a, b = self._args(expr)
        if a.is_constant and b.is_constant:
            return Interval.constant(a.lo | b.lo, expr.width)
        upper_bits = max(a.hi, b.hi).bit_length()
        return Interval(max(a.lo, b.lo), min(mask(expr.width), (1 << upper_bits) - 1), expr.width)

    def _eval_xor(self, expr: Op) -> Interval:
        a, b = self._args(expr)
        if a.is_constant and b.is_constant:
            return Interval.constant(a.lo ^ b.lo, expr.width)
        upper_bits = max(a.hi, b.hi).bit_length()
        return Interval(0, min(mask(expr.width), (1 << upper_bits) - 1), expr.width)

    def _eval_not(self, expr: Op) -> Interval:
        (a,) = self._args(expr)
        return Interval(mask(expr.width) - a.hi, mask(expr.width) - a.lo, expr.width)

    def _eval_xnor(self, expr: Op) -> Interval:
        return Interval.top(expr.width)

    def _eval_nand(self, expr: Op) -> Interval:
        return Interval.top(expr.width)

    def _eval_nor(self, expr: Op) -> Interval:
        return Interval.top(expr.width)

    # -- shifts -----------------------------------------------------------
    def _eval_shl(self, expr: Op) -> Interval:
        a, b = self._args(expr)
        if b.is_constant:
            shift = b.lo
            if shift >= expr.width:
                return Interval.constant(0, expr.width)
            if a.hi << shift <= mask(expr.width):
                return Interval(a.lo << shift, a.hi << shift, expr.width)
        return Interval.top(expr.width)

    def _eval_lshr(self, expr: Op) -> Interval:
        a, b = self._args(expr)
        if b.is_constant:
            shift = b.lo
            if shift >= expr.width:
                return Interval.constant(0, expr.width)
            return Interval(a.lo >> shift, a.hi >> shift, expr.width)
        return Interval(0, a.hi, expr.width)

    def _eval_ashr(self, expr: Op) -> Interval:
        return Interval.top(expr.width)

    # -- comparisons --------------------------------------------------------
    def _eval_eq(self, expr: Op) -> Interval:
        a, b = self._args(expr)
        if a.is_constant and b.is_constant:
            return self._bool(a.lo == b.lo)
        if a.hi < b.lo or b.hi < a.lo:
            return self._bool(False)
        return self._bool(None)

    def _eval_ne(self, expr: Op) -> Interval:
        inner = self._eval_eq(expr)
        if inner.is_constant:
            return self._bool(not bool(inner.lo))
        return self._bool(None)

    def _eval_ult(self, expr: Op) -> Interval:
        a, b = self._args(expr)
        if a.hi < b.lo:
            return self._bool(True)
        if a.lo >= b.hi:
            return self._bool(False)
        return self._bool(None)

    def _eval_ule(self, expr: Op) -> Interval:
        a, b = self._args(expr)
        if a.hi <= b.lo:
            return self._bool(True)
        if a.lo > b.hi:
            return self._bool(False)
        return self._bool(None)

    def _eval_ugt(self, expr: Op) -> Interval:
        inner = self._eval_ule(expr)
        if inner.is_constant:
            return self._bool(not bool(inner.lo))
        return self._bool(None)

    def _eval_uge(self, expr: Op) -> Interval:
        inner = self._eval_ult(expr)
        if inner.is_constant:
            return self._bool(not bool(inner.lo))
        return self._bool(None)

    def _eval_slt(self, expr: Op) -> Interval:
        return self._bool(None)

    def _eval_sle(self, expr: Op) -> Interval:
        return self._bool(None)

    def _eval_sgt(self, expr: Op) -> Interval:
        return self._bool(None)

    def _eval_sge(self, expr: Op) -> Interval:
        return self._bool(None)

    # -- reductions ---------------------------------------------------------
    def _eval_redand(self, expr: Op) -> Interval:
        (a,) = self._args(expr)
        operand_width = expr.args[0].width
        if a.is_constant:
            return self._bool(a.lo == mask(operand_width))
        if a.hi < mask(operand_width):
            return self._bool(False)
        return self._bool(None)

    def _eval_redor(self, expr: Op) -> Interval:
        (a,) = self._args(expr)
        if a.is_constant:
            return self._bool(a.lo != 0)
        if a.lo > 0:
            return self._bool(True)
        return self._bool(None)

    def _eval_redxor(self, expr: Op) -> Interval:
        (a,) = self._args(expr)
        if a.is_constant:
            return self._bool(bool(bin(a.lo).count("1") & 1))
        return self._bool(None)

    # -- structural -----------------------------------------------------------
    def _eval_concat(self, expr: Op) -> Interval:
        intervals = self._args(expr)
        if all(i.is_constant for i in intervals):
            value = 0
            for interval, arg in zip(intervals, expr.args):
                value = (value << arg.width) | interval.lo
            return Interval.constant(value, expr.width)
        return Interval.top(expr.width)

    def _eval_extract(self, expr: Op) -> Interval:
        hi, lo = expr.params
        (a,) = self._args(expr)
        if a.is_constant:
            return Interval.constant((a.lo >> lo) & mask(hi - lo + 1), expr.width)
        if lo == 0 and a.hi <= mask(hi - lo + 1):
            return Interval(a.lo, a.hi, expr.width)
        return Interval.top(expr.width)

    def _eval_zext(self, expr: Op) -> Interval:
        (a,) = self._args(expr)
        return Interval(a.lo, a.hi, expr.width)

    def _eval_sext(self, expr: Op) -> Interval:
        (a,) = self._args(expr)
        inner_width = expr.args[0].width
        if a.hi < (1 << (inner_width - 1)):
            return Interval(a.lo, a.hi, expr.width)
        return Interval.top(expr.width)

    def _eval_ite(self, expr: Op) -> Interval:
        condition = self.eval(expr.args[0])
        then_interval = self.eval(expr.args[1])
        else_interval = self.eval(expr.args[2])
        if condition.is_constant:
            return then_interval if condition.lo else else_interval
        return then_interval.join(else_interval)


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

        intervals: Dict[str, Interval] = {
            name: Interval.constant(evaluate(self.flat.init[name], {}), width)
            for name, width in self.flat.state_vars.items()
        }
        for iteration in itertools.count():
            if budget is not None and budget.expired():
                break
            env: Dict[str, Interval] = dict(intervals)
            for name, width in self.flat.inputs.items():
                env[name] = Interval.top(width)
            evaluator = IntervalEvaluator(env)
            new_intervals: Dict[str, Interval] = {}
            changed = False
            for name, next_expr in self.flat.next.items():
                post = evaluator.eval(next_expr)
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
        env: Dict[str, Interval] = dict(intervals)
        for name, width in self.flat.inputs.items():
            env[name] = Interval.top(width)
        prop = self.flat.property_by_name(property_name)
        verdict = IntervalEvaluator(env).eval(prop.expr)
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
