"""Tseitin encoding of propositional structure into CNF clauses.

The encoder produces fresh variables for gate outputs and emits the standard
defining clauses.  It is used by the bit-blaster (:mod:`repro.smt`), by the
AIG frame templates and by the engines when they need to assert arbitrary
propositional formulas (for instance, the negation of a candidate inductive
invariant).

Before a gate allocates its output it folds its inputs, as the AIG's
``add_and`` and the propositional back end of CBMC/EBMC do:

* ``and``: the true literal and duplicates drop out; a false input or an
  input next to its negation gives false; no input left gives true, one
  input left is the result;
* ``xor``: a constant input gives the other input or its negation, ``a, a``
  gives false and ``a, -a`` true; otherwise the gate is hashed on the
  unsigned pair, so ``xor(-a, b)`` is the negated ``xor(a, b)``;
* ``ite``: a constant condition selects a branch; equal branches give the
  branch and complementary ones an ``xnor``; a branch that is constant or
  ``±cond`` leaves one ``and`` or ``or`` gate.

Whatever does not fold is structurally hashed.  ``or``, ``xnor`` and the full
adder are built from these gates and fold with them.

Literals use the DIMACS convention of :mod:`repro.sat.cnf`.  The special
constant literals are handled through a dedicated always-true variable,
allocated on first use.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple


class TseitinEncoder:
    """Builds CNF for AND/OR/XOR/ITE/equality gates over literals.

    The encoder owns variable allocation: either wrap an existing
    :class:`repro.sat.cnf.CNF` or a :class:`repro.sat.solver.Solver` — any
    object with ``new_var()`` and ``add_clause(iterable)``.
    """

    def __init__(self, sink) -> None:
        self._sink = sink
        self._true_lit: Optional[int] = None
        # structural hashing of gates: (op, args) -> output literal
        self._cache: Dict[Tuple, int] = {}

    # -- variable / constant management --------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable in the underlying sink."""
        return self._sink.new_var()

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause directly to the underlying sink."""
        self._sink.add_clause(list(literals))

    @property
    def true_lit(self) -> int:
        """A literal constrained to be true (allocated lazily)."""
        if self._true_lit is None:
            var = self.new_var()
            self._sink.add_clause([var])
            self._true_lit = var
        return self._true_lit

    @property
    def false_lit(self) -> int:
        """A literal constrained to be false."""
        return -self.true_lit

    @property
    def true_var(self) -> Optional[int]:
        """The constant-true variable if it has been allocated, else None.

        Unlike :attr:`true_lit` this never allocates; template capture uses it
        to tell the constant apart from internal gate variables.
        """
        return self._true_lit

    def const_lit(self, value: bool) -> int:
        """Return the constant literal for ``value``."""
        return self.true_lit if value else self.false_lit

    # -- gates -----------------------------------------------------------
    # The folding compares inputs against ``_true_lit`` and never allocates
    # the constant just to test for it: while none exists, ``or 0`` makes
    # every comparison with it fail, since no literal is 0.
    def and_gate(self, literals: Sequence[int]) -> int:
        """Return a literal equivalent to the conjunction of ``literals``."""
        true = self._true_lit or 0
        inputs: Dict[int, None] = {}  # ordered, duplicate-free
        for lit in literals:
            if lit == -true or -lit in inputs:
                return self.false_lit
            if lit != true:
                inputs[lit] = None
        if not inputs:
            return self.true_lit
        if len(inputs) == 1:
            return next(iter(inputs))
        key = ("and", tuple(sorted(inputs)))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        out = self.new_var()
        for lit in inputs:
            self._sink.add_clause([-out, lit])
        self._sink.add_clause([out] + [-lit for lit in inputs])
        self._cache[key] = out
        return out

    def or_gate(self, literals: Sequence[int]) -> int:
        """Return a literal equivalent to the disjunction of ``literals``."""
        return -self.and_gate([-lit for lit in literals])

    def xor_gate(self, a: int, b: int) -> int:
        """Return a literal equivalent to ``a xor b``.

        The gate is hashed on the unsigned pair: ``xor(-a, b)`` is the
        negated output of ``xor(a, b)``.
        """
        true = self._true_lit or 0
        if abs(a) == true:
            return -b if a == true else b
        if abs(b) == true:
            return -a if b == true else a
        if a == b:
            return self.false_lit
        if a == -b:
            return self.true_lit
        negated = (a < 0) != (b < 0)
        a, b = sorted((abs(a), abs(b)))
        key = ("xor", a, b)
        out = self._cache.get(key)
        if out is None:
            out = self.new_var()
            self._sink.add_clause([-out, a, b])
            self._sink.add_clause([-out, -a, -b])
            self._sink.add_clause([out, -a, b])
            self._sink.add_clause([out, a, -b])
            self._cache[key] = out
        return -out if negated else out

    def xnor_gate(self, a: int, b: int) -> int:
        """Return a literal equivalent to ``a == b``."""
        return -self.xor_gate(a, b)

    def ite_gate(self, cond: int, then_lit: int, else_lit: int) -> int:
        """Return a literal equivalent to ``cond ? then_lit : else_lit``.

        A branch that is constant, or ``±cond``, reduces the multiplexer to
        one AND or OR gate (in the then-branch ``cond`` reads as 1, in the
        else-branch as 0).
        """
        true = self._true_lit or 0
        if abs(cond) == true:
            return then_lit if cond == true else else_lit
        if then_lit == else_lit:
            return then_lit
        if then_lit == -else_lit:
            return -self.xor_gate(cond, then_lit)
        if then_lit in (true, cond):
            return self.or_gate([cond, else_lit])
        if then_lit in (-true, -cond):
            return self.and_gate([-cond, else_lit])
        if else_lit in (-true, cond):
            return self.and_gate([cond, then_lit])
        if else_lit in (true, -cond):
            return self.or_gate([-cond, then_lit])
        key = ("ite", cond, then_lit, else_lit)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        out = self.new_var()
        self._sink.add_clause([-cond, -then_lit, out])
        self._sink.add_clause([-cond, then_lit, -out])
        self._sink.add_clause([cond, -else_lit, out])
        self._sink.add_clause([cond, else_lit, -out])
        self._cache[key] = out
        return out

    # -- adders used by the word-level bit-blaster -----------------------
    def full_adder(self, a: int, b: int, carry_in: int) -> Tuple[int, int]:
        """Return ``(sum, carry_out)`` literals of a full adder."""
        axb = self.xor_gate(a, b)
        total = self.xor_gate(axb, carry_in)
        carry = self.or_gate(
            [self.and_gate([a, b]), self.and_gate([axb, carry_in])]
        )
        return total, carry

    # -- assertions -------------------------------------------------------
    def assert_lit(self, lit: int) -> None:
        """Assert that ``lit`` is true (adds a unit clause)."""
        self._sink.add_clause([lit])

    def assert_equal(self, a: int, b: int) -> None:
        """Assert that two literals are equivalent."""
        self._sink.add_clause([-a, b])
        self._sink.add_clause([a, -b])
