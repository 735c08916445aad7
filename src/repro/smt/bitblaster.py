"""Bit-blasting of word-level expressions into CNF.

Each :class:`repro.exprs.Expr` is translated to a vector of SAT literals
(least-significant bit first).  Word-level operators are expanded into
propositional gate networks through a :class:`repro.sat.tseitin.TseitinEncoder`.
This is the same flattening approach taken by the SAT back-ends of CBMC and
EBMC, which the paper relies on for bit-precise reasoning.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.exprs.nodes import Const, Expr, Op, Var
from repro.sat.tseitin import TseitinEncoder


class BitBlaster:
    """Translates word-level expressions to literal vectors over a SAT sink.

    The sink must provide ``new_var()`` and ``add_clause()`` (both
    :class:`repro.sat.cnf.CNF` and :class:`repro.sat.solver.Solver` do).

    Variable bits are allocated once per variable name and reused, so that two
    expressions mentioning the same variable constrain the same SAT variables.
    Gate-level structural hashing lives in the Tseitin encoder.
    """

    def __init__(self, sink) -> None:
        self._encoder = TseitinEncoder(sink)
        self._var_bits: Dict[str, List[int]] = {}
        self._expr_cache: Dict[Expr, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # variable and constant handling
    # ------------------------------------------------------------------
    @property
    def encoder(self) -> TseitinEncoder:
        """The underlying Tseitin encoder."""
        return self._encoder

    @property
    def true_lit(self) -> int:
        """The literal constrained to true."""
        return self._encoder.true_lit

    def bits_of_var(self, name: str, width: int) -> List[int]:
        """Return (allocating if necessary) the literal vector of a variable."""
        bits = self._var_bits.get(name)
        if bits is None:
            bits = [self._encoder.new_var() for _ in range(width)]
            self._var_bits[name] = bits
        if len(bits) != width:
            raise ValueError(
                f"variable {name!r} blasted with width {len(bits)}, requested {width}"
            )
        return bits

    def has_var(self, name: str) -> bool:
        """Return True if variable bits have already been allocated for ``name``."""
        return name in self._var_bits

    def var_names(self) -> List[str]:
        """Return all variable names with allocated bits."""
        return list(self._var_bits)

    def lookup_bit(self, lit: int) -> Optional[Tuple[str, int, bool]]:
        """Map a SAT literal back to ``(variable name, bit index, positive?)``.

        Returns None for literals that are internal gate outputs.
        """
        var = abs(lit)
        for name, bits in self._var_bits.items():
            if var in bits:
                return name, bits.index(var), lit > 0
        return None

    def bit_map(self) -> Dict[int, Tuple[str, int]]:
        """Return a map from SAT variable to (variable name, bit index)."""
        result: Dict[int, Tuple[str, int]] = {}
        for name, bits in self._var_bits.items():
            for index, bit_var in enumerate(bits):
                result[bit_var] = (name, index)
        return result

    def var_bit_table(self) -> Dict[str, Tuple[int, ...]]:
        """Return the full symbol table: variable name -> its SAT bit variables.

        Bits are LSB first, exactly as allocated by :meth:`bits_of_var`.  The
        frame-template capture in :mod:`repro.engines.encoding` uses this to
        classify every blasted variable as a current-state, next-state or
        input bit; everything not listed here (and not :attr:`true_var`) is an
        internal Tseitin gate output.
        """
        return {name: tuple(bits) for name, bits in self._var_bits.items()}

    @property
    def true_var(self) -> Optional[int]:
        """The constant-true SAT variable, or None if it was never needed."""
        return self._encoder.true_var

    def const_bits(self, value: int, width: int) -> List[int]:
        """Return constant literals for ``value`` over ``width`` bits."""
        return [
            self._encoder.const_lit(bool((value >> i) & 1)) for i in range(width)
        ]

    # ------------------------------------------------------------------
    # main entry points
    # ------------------------------------------------------------------
    def blast(self, expr: Expr) -> List[int]:
        """Return the literal vector (LSB first) encoding ``expr``."""
        cached = self._expr_cache.get(expr)
        if cached is not None:
            return list(cached)
        result = self._blast_node(expr)
        if len(result) != expr.width:
            raise AssertionError(
                f"bit-blasting width mismatch for {expr!r}: "
                f"{len(result)} vs {expr.width}"
            )
        self._expr_cache[expr] = tuple(result)
        return list(result)

    def blast_bool(self, expr: Expr) -> int:
        """Return a single literal that is true iff ``expr`` is non-zero."""
        bits = self.blast(expr)
        if len(bits) == 1:
            return bits[0]
        return self._encoder.or_gate(bits)

    def assert_true(self, expr: Expr) -> None:
        """Assert that ``expr`` evaluates to a non-zero (true) value."""
        self._encoder.assert_lit(self.blast_bool(expr))

    def assert_false(self, expr: Expr) -> None:
        """Assert that ``expr`` evaluates to zero (false)."""
        self._encoder.assert_lit(-self.blast_bool(expr))

    def model_value(self, solver, name: str, width: int) -> int:
        """Read back the value of a variable from a satisfying assignment."""
        bits = self.bits_of_var(name, width)
        value = 0
        for index, lit in enumerate(bits):
            if solver.model_value(lit):
                value |= 1 << index
        return value

    # ------------------------------------------------------------------
    # node translation
    # ------------------------------------------------------------------
    def _blast_node(self, expr: Expr) -> List[int]:
        if isinstance(expr, Const):
            return self.const_bits(expr.value, expr.width)
        if isinstance(expr, Var):
            return list(self.bits_of_var(expr.name, expr.width))
        assert isinstance(expr, Op)
        op = expr.op
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise NotImplementedError(f"bit-blasting of operator {op!r}")
        return handler(expr)

    # -- bitwise ---------------------------------------------------------
    def _op_not(self, expr: Op) -> List[int]:
        return [-lit for lit in self.blast(expr.args[0])]

    def _bitwise(self, expr: Op, gate) -> List[int]:
        a = self.blast(expr.args[0])
        b = self.blast(expr.args[1])
        return [gate(x, y) for x, y in zip(a, b)]

    def _op_and(self, expr: Op) -> List[int]:
        return self._bitwise(expr, lambda x, y: self._encoder.and_gate([x, y]))

    def _op_or(self, expr: Op) -> List[int]:
        return self._bitwise(expr, lambda x, y: self._encoder.or_gate([x, y]))

    def _op_xor(self, expr: Op) -> List[int]:
        return self._bitwise(expr, self._encoder.xor_gate)

    def _op_xnor(self, expr: Op) -> List[int]:
        return self._bitwise(expr, self._encoder.xnor_gate)

    def _op_nand(self, expr: Op) -> List[int]:
        return self._bitwise(expr, lambda x, y: -self._encoder.and_gate([x, y]))

    def _op_nor(self, expr: Op) -> List[int]:
        return self._bitwise(expr, lambda x, y: -self._encoder.or_gate([x, y]))

    # -- arithmetic --------------------------------------------------------
    def _adder(self, a: Sequence[int], b: Sequence[int], carry: int) -> List[int]:
        out = []
        for x, y in zip(a, b):
            total, carry = self._encoder.full_adder(x, y, carry)
            out.append(total)
        return out

    def _op_add(self, expr: Op) -> List[int]:
        a = self.blast(expr.args[0])
        b = self.blast(expr.args[1])
        return self._adder(a, b, self._encoder.false_lit)

    def _op_sub(self, expr: Op) -> List[int]:
        a = self.blast(expr.args[0])
        b = self.blast(expr.args[1])
        return self._adder(a, [-lit for lit in b], self._encoder.true_lit)

    def _op_neg(self, expr: Op) -> List[int]:
        a = self.blast(expr.args[0])
        zeros = self.const_bits(0, len(a))
        return self._adder(zeros, [-lit for lit in a], self._encoder.true_lit)

    def _op_mul(self, expr: Op) -> List[int]:
        a = self.blast(expr.args[0])
        b = self.blast(expr.args[1])
        width = len(a)
        accum = self.const_bits(0, width)
        for shift, b_bit in enumerate(b):
            # partial product: (a << shift) AND-ed with b_bit, added to accum
            partial = [
                self._encoder.and_gate([a[i - shift], b_bit]) if i >= shift else self._encoder.false_lit
                for i in range(width)
            ]
            accum = self._adder(accum, partial, self._encoder.false_lit)
        return accum

    def _op_udiv(self, expr: Op) -> List[int]:
        quotient, _ = self._divmod(expr.args[0], expr.args[1])
        return quotient

    def _op_urem(self, expr: Op) -> List[int]:
        _, remainder = self._divmod(expr.args[0], expr.args[1])
        return remainder

    def _divmod(self, num_expr: Expr, den_expr: Expr) -> Tuple[List[int], List[int]]:
        """Restoring long division; division by zero yields (all-ones, dividend)."""
        numerator = self.blast(num_expr)
        denominator = self.blast(den_expr)
        width = len(numerator)
        encoder = self._encoder
        remainder = self.const_bits(0, width)
        quotient = [encoder.false_lit] * width
        for i in reversed(range(width)):
            # remainder = (remainder << 1) | numerator[i]
            remainder = [numerator[i]] + remainder[:-1]
            # compare remainder >= denominator
            geq = self._unsigned_geq(remainder, denominator)
            # subtract if geq
            difference = self._adder(
                remainder, [-lit for lit in denominator], encoder.true_lit
            )
            remainder = [
                encoder.ite_gate(geq, diff_bit, rem_bit)
                for diff_bit, rem_bit in zip(difference, remainder)
            ]
            quotient[i] = geq
        den_zero = -encoder.or_gate(denominator)
        ones = self.const_bits((1 << width) - 1, width)
        quotient = [
            encoder.ite_gate(den_zero, one_bit, q_bit)
            for one_bit, q_bit in zip(ones, quotient)
        ]
        remainder = [
            encoder.ite_gate(den_zero, num_bit, r_bit)
            for num_bit, r_bit in zip(numerator, remainder)
        ]
        return quotient, remainder

    # -- shifts -----------------------------------------------------------
    def _shift(self, expr: Op, arithmetic: bool, left: bool) -> List[int]:
        value = self.blast(expr.args[0])
        amount = self.blast(expr.args[1])
        width = len(value)
        encoder = self._encoder
        fill = value[-1] if arithmetic else encoder.false_lit
        stages = max(1, (width - 1).bit_length())
        current = list(value)
        for stage in range(stages):
            if stage >= len(amount):
                break
            shift_by = 1 << stage
            sel = amount[stage]
            shifted = []
            for i in range(width):
                if left:
                    src = i - shift_by
                    shifted_bit = current[src] if src >= 0 else encoder.false_lit
                else:
                    src = i + shift_by
                    shifted_bit = current[src] if src < width else fill
                shifted.append(encoder.ite_gate(sel, shifted_bit, current[i]))
            current = shifted
        # if any higher shift-amount bit is set, the result saturates
        high_bits = amount[stages:]
        if high_bits:
            overflow = encoder.or_gate(high_bits)
            saturated = encoder.false_lit if (left or not arithmetic) else fill
            current = [encoder.ite_gate(overflow, saturated, bit) for bit in current]
        return current

    def _op_shl(self, expr: Op) -> List[int]:
        return self._shift(expr, arithmetic=False, left=True)

    def _op_lshr(self, expr: Op) -> List[int]:
        return self._shift(expr, arithmetic=False, left=False)

    def _op_ashr(self, expr: Op) -> List[int]:
        return self._shift(expr, arithmetic=True, left=False)

    # -- comparisons --------------------------------------------------------
    def _unsigned_geq(self, a: Sequence[int], b: Sequence[int]) -> int:
        """Return a literal true iff vector a >= vector b (unsigned)."""
        encoder = self._encoder
        # a >= b  <=>  carry-out of a + ~b + 1 is 1
        carry = encoder.true_lit
        for x, y in zip(a, b):
            axb = encoder.xor_gate(x, -y)
            carry = encoder.or_gate(
                [encoder.and_gate([x, -y]), encoder.and_gate([axb, carry])]
            )
        return carry

    def _equality(self, expr: Op) -> int:
        a = self.blast(expr.args[0])
        b = self.blast(expr.args[1])
        return self._encoder.and_gate(
            [self._encoder.xnor_gate(x, y) for x, y in zip(a, b)]
        )

    def _op_eq(self, expr: Op) -> List[int]:
        return [self._equality(expr)]

    def _op_ne(self, expr: Op) -> List[int]:
        return [-self._equality(expr)]

    def _op_ult(self, expr: Op) -> List[int]:
        a = self.blast(expr.args[0])
        b = self.blast(expr.args[1])
        return [-self._unsigned_geq(a, b)]

    def _op_ule(self, expr: Op) -> List[int]:
        a = self.blast(expr.args[0])
        b = self.blast(expr.args[1])
        return [self._unsigned_geq(b, a)]

    def _op_ugt(self, expr: Op) -> List[int]:
        a = self.blast(expr.args[0])
        b = self.blast(expr.args[1])
        return [-self._unsigned_geq(b, a)]

    def _op_uge(self, expr: Op) -> List[int]:
        a = self.blast(expr.args[0])
        b = self.blast(expr.args[1])
        return [self._unsigned_geq(a, b)]

    def _signed_compare(self, expr: Op) -> Tuple[List[int], List[int]]:
        """Return operand vectors with the sign bit flipped (maps signed to unsigned)."""
        a = self.blast(expr.args[0])
        b = self.blast(expr.args[1])
        a = a[:-1] + [-a[-1]]
        b = b[:-1] + [-b[-1]]
        return a, b

    def _op_slt(self, expr: Op) -> List[int]:
        a, b = self._signed_compare(expr)
        return [-self._unsigned_geq(a, b)]

    def _op_sle(self, expr: Op) -> List[int]:
        a, b = self._signed_compare(expr)
        return [self._unsigned_geq(b, a)]

    def _op_sgt(self, expr: Op) -> List[int]:
        a, b = self._signed_compare(expr)
        return [-self._unsigned_geq(b, a)]

    def _op_sge(self, expr: Op) -> List[int]:
        a, b = self._signed_compare(expr)
        return [self._unsigned_geq(a, b)]

    # -- reductions ---------------------------------------------------------
    def _op_redand(self, expr: Op) -> List[int]:
        bits = self.blast(expr.args[0])
        return [self._encoder.and_gate(bits)]

    def _op_redor(self, expr: Op) -> List[int]:
        bits = self.blast(expr.args[0])
        return [self._encoder.or_gate(bits)]

    def _op_redxor(self, expr: Op) -> List[int]:
        bits = self.blast(expr.args[0])
        result = bits[0]
        for bit in bits[1:]:
            result = self._encoder.xor_gate(result, bit)
        return [result]

    # -- structural -----------------------------------------------------------
    def _op_concat(self, expr: Op) -> List[int]:
        # first argument is the most significant part; result is LSB-first
        parts = [self.blast(arg) for arg in expr.args]
        result: List[int] = []
        for part in reversed(parts):
            result.extend(part)
        return result

    def _op_extract(self, expr: Op) -> List[int]:
        hi, lo = expr.params
        bits = self.blast(expr.args[0])
        return bits[lo : hi + 1]

    def _op_zext(self, expr: Op) -> List[int]:
        (extra,) = expr.params
        bits = self.blast(expr.args[0])
        return bits + [self._encoder.false_lit] * extra

    def _op_sext(self, expr: Op) -> List[int]:
        (extra,) = expr.params
        bits = self.blast(expr.args[0])
        return bits + [bits[-1]] * extra

    def _op_ite(self, expr: Op) -> List[int]:
        cond = self.blast_bool(expr.args[0])
        then_bits = self.blast(expr.args[1])
        else_bits = self.blast(expr.args[2])
        return [
            self._encoder.ite_gate(cond, t, e) for t, e in zip(then_bits, else_bits)
        ]
