"""Clause database and literal conventions.

Literals follow the DIMACS convention: variables are positive integers
``1, 2, 3, ...``; literal ``v`` is the positive phase of variable ``v`` and
``-v`` its negation.  A clause is a list/tuple of literals interpreted as a
disjunction.  The empty clause is unsatisfiable.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple


def neg(lit: int) -> int:
    """Return the negation of a literal."""
    return -lit


def var_of(lit: int) -> int:
    """Return the variable of a literal."""
    return abs(lit)


class CNF:
    """A growable clause database.

    The class is used both as the target of the Tseitin encoder and as a
    portable container that can be handed to the solver.
    """

    def __init__(self) -> None:
        self.num_vars: int = 0
        self.clauses: List[Tuple[int, ...]] = []

    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> List[int]:
        """Allocate ``count`` fresh variables and return them in order."""
        return [self.new_var() for _ in range(count)]

    def ensure_var(self, var: int) -> None:
        """Grow the variable count so that ``var`` is a valid variable."""
        if var > self.num_vars:
            self.num_vars = var

    def add_clause(self, literals: Iterable[int]) -> Tuple[int, ...]:
        """Add a clause (a disjunction of literals) and return it as a tuple."""
        clause = tuple(literals)
        for lit in clause:
            if lit == 0:
                raise ValueError("literal 0 is not allowed in a clause")
            self.ensure_var(var_of(lit))
        self.clauses.append(clause)
        return clause

    def add_clauses_mapped(
        self, clauses: Iterable[Sequence[int]], table: Sequence[int]
    ) -> None:
        """Bulk-append clauses remapped through a variable table.

        ``table[v]`` gives the target (positive) variable for source variable
        ``v``; a literal ``l`` maps to ``table[l]`` when positive and
        ``-table[-l]`` when negative.  The clauses are assumed pre-validated
        (no zero literals), so the per-literal checks of :meth:`add_clause`
        are skipped.  Portable-container mirror of
        :meth:`repro.sat.solver.Solver.add_clauses_mapped` (which is the path
        the frame templates actually stamp through); useful when an unrolled
        frame must land in a standalone CNF.
        """
        top = 0
        for var in table:
            if var > top:
                top = var
        self.ensure_var(top)
        append = self.clauses.append
        for clause in clauses:
            append(tuple(table[l] if l > 0 else -table[-l] for l in clause))

    def copy(self) -> "CNF":
        """Return a shallow copy (clauses are immutable tuples)."""
        clone = CNF()
        clone.num_vars = self.num_vars
        clone.clauses = list(self.clauses)
        return clone

    def __len__(self) -> int:
        return len(self.clauses)

    def __repr__(self) -> str:
        return f"CNF(vars={self.num_vars}, clauses={len(self.clauses)})"
