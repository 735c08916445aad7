"""Bit-blasting of a word-level transition system into a sequential AIG.

Every register bit becomes a latch, every input bit a primary input, and the
word-level next-state/property expressions are lowered to AND/inverter gates.
The result is the bit-level netlist on which the ABC-style engines operate and
which the AIGER writer serializes (standing in for the Yosys → BLIF → ABC
flow of the paper).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.exprs.nodes import Const, Expr, Op, Var
from repro.aig.graph import AIG, AigerLiteral, aig_negate
from repro.netlist import TransitionSystem


class AigBitBlastError(Exception):
    """Raised when an expression cannot be lowered to the AIG."""


class _AigBlaster:
    """Lowers word-level expressions to per-bit AIG literals."""

    def __init__(self, aig: AIG, signal_bits: Dict[str, List[AigerLiteral]]) -> None:
        self.aig = aig
        self.signal_bits = signal_bits
        self._cache: Dict[Expr, Tuple[AigerLiteral, ...]] = {}

    # -- helpers -----------------------------------------------------------
    def const_bits(self, value: int, width: int) -> List[AigerLiteral]:
        return [self.aig.TRUE if (value >> i) & 1 else self.aig.FALSE for i in range(width)]

    def blast(self, expr: Expr) -> List[AigerLiteral]:
        cached = self._cache.get(expr)
        if cached is not None:
            return list(cached)
        result = self._blast(expr)
        if len(result) != expr.width:
            raise AigBitBlastError(f"width mismatch lowering {expr!r}")
        self._cache[expr] = tuple(result)
        return list(result)

    def blast_bool(self, expr: Expr) -> AigerLiteral:
        bits = self.blast(expr)
        return bits[0] if len(bits) == 1 else self.aig.add_or_list(bits)

    # -- node dispatch --------------------------------------------------------
    def _blast(self, expr: Expr) -> List[AigerLiteral]:
        aig = self.aig
        if isinstance(expr, Const):
            return self.const_bits(expr.value, expr.width)
        if isinstance(expr, Var):
            bits = self.signal_bits.get(expr.name)
            if bits is None:
                raise AigBitBlastError(f"unknown signal {expr.name!r} during bit-blasting")
            if len(bits) != expr.width:
                raise AigBitBlastError(f"width mismatch for signal {expr.name!r}")
            return list(bits)
        assert isinstance(expr, Op)
        op = expr.op
        args = expr.args

        if op == "not":
            return [aig_negate(bit) for bit in self.blast(args[0])]
        if op in ("and", "or", "xor", "xnor", "nand", "nor"):
            a = self.blast(args[0])
            b = self.blast(args[1])
            gate = {
                "and": aig.add_and,
                "or": aig.add_or,
                "xor": aig.add_xor,
                "xnor": aig.add_xnor,
                "nand": lambda x, y: aig_negate(aig.add_and(x, y)),
                "nor": lambda x, y: aig_negate(aig.add_or(x, y)),
            }[op]
            return [gate(x, y) for x, y in zip(a, b)]
        if op == "neg":
            a = self.blast(args[0])
            return self._adder(self.const_bits(0, len(a)), [aig_negate(x) for x in a], aig.TRUE)
        if op == "add":
            return self._adder(self.blast(args[0]), self.blast(args[1]), aig.FALSE)
        if op == "sub":
            b = self.blast(args[1])
            return self._adder(self.blast(args[0]), [aig_negate(x) for x in b], aig.TRUE)
        if op == "mul":
            return self._multiplier(self.blast(args[0]), self.blast(args[1]))
        if op in ("udiv", "urem"):
            quotient, remainder = self._divider(self.blast(args[0]), self.blast(args[1]))
            return quotient if op == "udiv" else remainder
        if op in ("shl", "lshr", "ashr"):
            return self._shifter(expr)
        if op in ("eq", "ne"):
            a = self.blast(args[0])
            b = self.blast(args[1])
            equal = self.aig.add_and_list([aig.add_xnor(x, y) for x, y in zip(a, b)])
            return [equal if op == "eq" else aig_negate(equal)]
        if op in ("ult", "ule", "ugt", "uge"):
            a = self.blast(args[0])
            b = self.blast(args[1])
            geq = self._unsigned_geq(a, b)
            leq = self._unsigned_geq(b, a)
            return {
                "uge": [geq],
                "ult": [aig_negate(geq)],
                "ule": [leq],
                "ugt": [aig_negate(leq)],
            }[op]
        if op in ("slt", "sle", "sgt", "sge"):
            a = self.blast(args[0])
            b = self.blast(args[1])
            a = a[:-1] + [aig_negate(a[-1])]
            b = b[:-1] + [aig_negate(b[-1])]
            geq = self._unsigned_geq(a, b)
            leq = self._unsigned_geq(b, a)
            return {
                "sge": [geq],
                "slt": [aig_negate(geq)],
                "sle": [leq],
                "sgt": [aig_negate(leq)],
            }[op]
        if op == "redand":
            return [self.aig.add_and_list(self.blast(args[0]))]
        if op == "redor":
            return [self.aig.add_or_list(self.blast(args[0]))]
        if op == "redxor":
            bits = self.blast(args[0])
            result = bits[0]
            for bit in bits[1:]:
                result = aig.add_xor(result, bit)
            return [result]
        if op == "concat":
            result: List[AigerLiteral] = []
            for arg in reversed(args):
                result.extend(self.blast(arg))
            return result
        if op == "extract":
            hi, lo = expr.params
            return self.blast(args[0])[lo : hi + 1]
        if op == "zext":
            (extra,) = expr.params
            return self.blast(args[0]) + [aig.FALSE] * extra
        if op == "sext":
            (extra,) = expr.params
            bits = self.blast(args[0])
            return bits + [bits[-1]] * extra
        if op == "ite":
            cond = self.blast_bool(args[0])
            then_bits = self.blast(args[1])
            else_bits = self.blast(args[2])
            return [aig.add_mux(cond, t, e) for t, e in zip(then_bits, else_bits)]
        raise AigBitBlastError(f"unsupported operator {op!r}")

    # -- arithmetic helpers ------------------------------------------------
    def _adder(
        self, a: List[AigerLiteral], b: List[AigerLiteral], carry: AigerLiteral
    ) -> List[AigerLiteral]:
        aig = self.aig
        out: List[AigerLiteral] = []
        for x, y in zip(a, b):
            xor_xy = aig.add_xor(x, y)
            out.append(aig.add_xor(xor_xy, carry))
            carry = aig.add_or(aig.add_and(x, y), aig.add_and(xor_xy, carry))
        return out

    def _multiplier(self, a: List[AigerLiteral], b: List[AigerLiteral]) -> List[AigerLiteral]:
        aig = self.aig
        width = len(a)
        accum = self.const_bits(0, width)
        for shift, b_bit in enumerate(b):
            partial = [
                aig.add_and(a[i - shift], b_bit) if i >= shift else aig.FALSE
                for i in range(width)
            ]
            accum = self._adder(accum, partial, aig.FALSE)
        return accum

    def _divider(
        self, numerator: List[AigerLiteral], denominator: List[AigerLiteral]
    ) -> Tuple[List[AigerLiteral], List[AigerLiteral]]:
        aig = self.aig
        width = len(numerator)
        remainder = self.const_bits(0, width)
        quotient = [aig.FALSE] * width
        for i in reversed(range(width)):
            remainder = [numerator[i]] + remainder[:-1]
            geq = self._unsigned_geq(remainder, denominator)
            difference = self._adder(remainder, [aig_negate(x) for x in denominator], aig.TRUE)
            remainder = [aig.add_mux(geq, d, r) for d, r in zip(difference, remainder)]
            quotient[i] = geq
        den_zero = aig_negate(aig.add_or_list(denominator))
        ones = self.const_bits((1 << width) - 1, width)
        quotient = [aig.add_mux(den_zero, o, q) for o, q in zip(ones, quotient)]
        remainder = [aig.add_mux(den_zero, n, r) for n, r in zip(numerator, remainder)]
        return quotient, remainder

    def _unsigned_geq(self, a: List[AigerLiteral], b: List[AigerLiteral]) -> AigerLiteral:
        aig = self.aig
        carry = aig.TRUE
        for x, y in zip(a, b):
            xor_term = aig.add_xor(x, aig_negate(y))
            carry = aig.add_or(
                aig.add_and(x, aig_negate(y)), aig.add_and(xor_term, carry)
            )
        return carry

    def _shifter(self, expr: Op) -> List[AigerLiteral]:
        aig = self.aig
        value = self.blast(expr.args[0])
        amount = self.blast(expr.args[1])
        width = len(value)
        left = expr.op == "shl"
        arithmetic = expr.op == "ashr"
        fill = value[-1] if arithmetic else aig.FALSE
        stages = max(1, (width - 1).bit_length())
        current = list(value)
        for stage in range(min(stages, len(amount))):
            shift_by = 1 << stage
            sel = amount[stage]
            shifted = []
            for i in range(width):
                if left:
                    src = i - shift_by
                    bit = current[src] if src >= 0 else aig.FALSE
                else:
                    src = i + shift_by
                    bit = current[src] if src < width else fill
                shifted.append(aig.add_mux(sel, bit, current[i]))
            current = shifted
        high_bits = amount[stages:]
        if high_bits:
            overflow = aig.add_or_list(high_bits)
            saturate = aig.FALSE if (left or not arithmetic) else fill
            current = [aig.add_mux(overflow, saturate, bit) for bit in current]
        return current


def aig_from_transition_system(
    system: TransitionSystem, flat: Optional[TransitionSystem] = None
) -> AIG:
    """Bit-blast a transition system into a sequential AIG.

    Properties become *bad* outputs (the negation of each property), matching
    the HWMCC convention that a bad output asserted in some reachable state
    means the property fails.  Environment constraints become invariant
    constraints that hold in every cycle; each bad output is also gated by
    the current cycle's constraints.  ``flat`` is the design's flattening
    when the caller already holds it.
    """
    flat = system.flattened() if flat is None else flat
    aig = AIG(name=flat.name)
    signal_bits: Dict[str, List[AigerLiteral]] = {}

    for name, width in flat.inputs.items():
        signal_bits[name] = [aig.add_input(f"{name}[{i}]") for i in range(width)]

    latch_map: Dict[str, List] = {}
    from repro.exprs import evaluate

    for name, width in flat.state_vars.items():
        init_value = evaluate(flat.init[name], {})
        latches = [
            aig.add_latch(f"{name}[{i}]", reset=(init_value >> i) & 1) for i in range(width)
        ]
        latch_map[name] = latches
        signal_bits[name] = [latch.literal for latch in latches]

    blaster = _AigBlaster(aig, signal_bits)

    for name, width in flat.state_vars.items():
        next_bits = blaster.blast(flat.next[name])
        for latch, bit in zip(latch_map[name], next_bits):
            aig.set_latch_next(latch, bit)

    constraint_lit = aig.TRUE
    for constraint in flat.constraints:
        literal = blaster.blast_bool(constraint)
        aig.constraints.append(literal)
        constraint_lit = aig.add_and(constraint_lit, literal)

    for prop in flat.properties:
        good = blaster.blast_bool(prop.expr)
        bad = aig.add_and(constraint_lit, aig_negate(good))
        aig.add_bad(prop.name, bad)
        aig.add_output(prop.name, good)

    return aig


def transition_system_from_aig(
    aig: AIG, name: Optional[str] = None
) -> TransitionSystem:
    """Lift a sequential AIG back into a (1-bit-word) transition system.

    Every latch becomes a 1-bit state variable and every primary input a
    1-bit input; AND gates become shared word-level expressions over them.
    Bad outputs (AIGER 1.9) become safety properties asserting the bad
    literal is never 1; ordinary outputs are used as bad states when no bad
    section is present (the pre-1.9 HWMCC convention).  Invariant
    constraints become environment constraints asserting their literal is 1
    in every cycle.  This is the loader
    behind verifying ``.aag`` files with the word-level engines through the
    ``repro-verify`` CLI.
    """
    from repro.exprs import bv_and, bv_const, bv_eq, bv_not

    system = TransitionSystem(name or aig.name or "aig")

    def signal_name(raw: str, fallback: str, used: set) -> str:
        candidate = raw or fallback
        if candidate in used:
            candidate = f"{fallback}_{candidate}"
        index = 2
        base = candidate
        while candidate in used:
            candidate = f"{base}_{index}"
            index += 1
        used.add(candidate)
        return candidate

    used: set = set()
    node_expr: Dict[AigerLiteral, Expr] = {}
    for literal in aig.inputs:
        input_name = signal_name(aig.input_names.get(literal, ""), f"i{literal >> 1}", used)
        node_expr[literal] = system.add_input(input_name, 1)
    latch_names: Dict[AigerLiteral, str] = {}
    for latch in aig.latches:
        latch_name = signal_name(latch.name, f"l{latch.literal >> 1}", used)
        latch_names[latch.literal] = latch_name
        node_expr[latch.literal] = system.add_state_var(
            latch_name, 1, init=latch.reset & 1
        )

    false_expr = bv_const(0, 1)

    def expr_of(literal: AigerLiteral) -> Expr:
        """Resolve a literal to an expression, building AND cones iteratively."""
        base = literal & ~1
        if base == 0:
            result = false_expr
        else:
            result = node_expr.get(base)
            if result is None:
                stack = [base]
                while stack:
                    node = stack[-1]
                    if node in node_expr:
                        stack.pop()
                        continue
                    left, right = aig.ands[node]
                    pending = [
                        child & ~1
                        for child in (left, right)
                        if (child & ~1) != 0 and (child & ~1) not in node_expr
                    ]
                    if pending:
                        stack.extend(pending)
                        continue
                    stack.pop()
                    node_expr[node] = bv_and(_phase(left), _phase(right))
                result = node_expr[base]
        return bv_not(result) if literal & 1 else result

    def _phase(literal: AigerLiteral) -> Expr:
        base = literal & ~1
        expr = false_expr if base == 0 else node_expr[base]
        return bv_not(expr) if literal & 1 else expr

    for latch in aig.latches:
        system.set_next(latch_names[latch.literal], expr_of(latch.next_literal))
    for literal in aig.constraints:
        system.add_constraint(bv_eq(expr_of(literal), bv_const(1, 1)))

    bad_states = list(aig.bad)
    if not bad_states:
        # pre-AIGER-1.9 convention: outputs are bad-state functions
        bad_states = [(name or f"o{index}", literal)
                      for index, (name, literal) in enumerate(aig.outputs)]
    for index, (bad_name, bad_literal) in enumerate(bad_states):
        system.add_property(
            bad_name or f"bad{index}", bv_eq(expr_of(bad_literal), false_expr)
        )
    return system
