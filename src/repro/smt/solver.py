"""Bit-vector solver facade combining the bit-blaster and the CDCL solver.

The facade provides the incremental SMT-like interface the verification
engines are written against:

* :meth:`BVSolver.assert_expr` — add a word-level constraint permanently,
* :meth:`BVSolver.activation_literal` — add a constraint guarded by a fresh
  assumption literal (retractable, used by IC3/PDR frames),
* :meth:`BVSolver.check` — solve under optional word-level assumptions,
* :meth:`BVSolver.value` — read back values of expressions from the model.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exprs.nodes import Expr
from repro.obs import telemetry as _telemetry
from repro.sat.solver import Solver, SolverInterrupted, SolverResult
from repro.smt.bitblaster import BitBlaster


class BVResult:
    """Result constants mirroring :class:`repro.sat.solver.SolverResult`."""

    SAT = SolverResult.SAT
    UNSAT = SolverResult.UNSAT
    UNKNOWN = SolverResult.UNKNOWN


class BVSolver:
    """Incremental bit-vector solver built on bit-blasting.

    Parameters
    ----------
    proof:
        Enable resolution-proof logging in the underlying SAT solver so that
        interpolants can be extracted (see
        :class:`repro.sat.interpolate.Interpolator`).
    """

    def __init__(self, proof: bool = False) -> None:
        self.solver = Solver(proof=proof)
        self.blaster = BitBlaster(self.solver)
        self._deadline: Optional[float] = None

    # ------------------------------------------------------------------
    # constraint construction
    # ------------------------------------------------------------------
    def assert_expr(self, expr: Expr) -> Tuple[int, int]:
        """Assert that ``expr`` is true; returns the (start, end) clause-id range added."""
        start = self.solver.num_clauses
        self.blaster.assert_true(expr)
        return start, self.solver.num_clauses

    def assert_exprs(self, exprs: Iterable[Expr]) -> Tuple[int, int]:
        """Assert several expressions; returns the covering clause-id range."""
        start = self.solver.num_clauses
        for expr in exprs:
            self.blaster.assert_true(expr)
        return start, self.solver.num_clauses

    def literal_for(self, expr: Expr) -> int:
        """Return a SAT literal equivalent to the truth of ``expr``."""
        return self.blaster.blast_bool(expr)

    def activation_literal(self, expr: Expr) -> int:
        """Return a fresh assumption literal ``a`` with ``a -> expr`` asserted.

        Passing ``a`` as an assumption activates the constraint; omitting it
        (or passing ``-a``) retracts it.  This is the standard trick used by
        incremental IC3/PDR implementations for frame clauses.
        """
        activation = self.solver.new_var()
        target = self.blaster.blast_bool(expr)
        self.solver.add_clause([-activation, target])
        return activation

    def new_activation(self) -> int:
        """Allocate a fresh activation variable for a retractable group.

        Constraints attached with :meth:`assert_guarded` /
        :meth:`assert_exprs_guarded` under the returned variable are active
        while it is passed as an assumption to :meth:`check` and are
        permanently dropped by :meth:`retire`.
        """
        return self.solver.new_var()

    def assert_guarded(self, expr: Expr, activation: int) -> Tuple[int, int]:
        """Assert ``activation -> expr``; returns the clause-id range added.

        The range covers the Tseitin definition clauses of ``expr`` as well
        (they are retraction-safe: definitions over fresh gate variables never
        constrain the named bits on their own).
        """
        start = self.solver.num_clauses
        target = self.blaster.blast_bool(expr)
        self.solver.add_clause([-activation, target])
        return start, self.solver.num_clauses

    def assert_exprs_guarded(self, exprs: Iterable[Expr], activation: int) -> Tuple[int, int]:
        """Assert several expressions under one activation guard."""
        start = self.solver.num_clauses
        for expr in exprs:
            target = self.blaster.blast_bool(expr)
            self.solver.add_clause([-activation, target])
        return start, self.solver.num_clauses

    def retire(self, activation: int) -> int:
        """Permanently drop the constraints guarded by ``activation``.

        Returns the clause id of the retiring unit (``[-activation]``); the
        underlying solver also garbage-collects the learned clauses that
        depended on the guard (see
        :meth:`repro.sat.solver.Solver.retire_activation`).
        """
        return self.solver.retire_activation(activation)

    def new_bool(self) -> int:
        """Allocate a fresh free Boolean SAT variable."""
        return self.solver.new_var()

    @property
    def stats(self):
        """The underlying solver's :class:`repro.sat.solver.SolverStats`."""
        return self.solver.stats

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def set_deadline(self, deadline: Optional[float]) -> None:
        """Set an absolute ``time.monotonic()`` deadline for subsequent checks.

        The deadline is armed cooperatively in the underlying CDCL solver
        (:meth:`repro.sat.solver.Solver.set_deadline`), so it interrupts
        decision/propagation-heavy solves too, not just conflict-dense ones;
        an expired check reports :data:`BVResult.UNKNOWN`.
        """
        self._deadline = deadline
        self.solver.set_deadline(deadline)

    def check(
        self,
        assumptions: Sequence[int] = (),
        expr_assumptions: Sequence[Expr] = (),
        conflict_limit: Optional[int] = None,
    ) -> str:
        """Solve under SAT-literal and/or word-level assumptions.

        Each call is timed under a ``solver.check`` span when telemetry is
        recording, and the :class:`~repro.sat.solver.SolverStats` deltas it
        produced (conflicts, propagations, decisions, ...) are promoted to
        ``solver.*`` counters — at the call boundary, never inside the CDCL
        loops, so the solver hot path is untouched.
        """
        literal_assumptions = list(assumptions)
        for expr in expr_assumptions:
            literal_assumptions.append(self.blaster.blast_bool(expr))
        if _telemetry.get_recorder() is None:
            try:
                return self.solver.solve(
                    assumptions=literal_assumptions,
                    conflict_limit=conflict_limit,
                    deadline=self._deadline,
                )
            except SolverInterrupted:
                # the engines treat an expired budget as UNKNOWN and convert
                # it to their TIMEOUT verdict; the solver backtracked to
                # level 0 before raising, so it stays usable
                return SolverResult.UNKNOWN
        stats_before = self.solver.stats.as_dict()
        with _telemetry.span(
            "solver.check",
            assumptions=len(literal_assumptions),
            clauses=self.solver.num_clauses,
        ) as check_span:
            try:
                result = self.solver.solve(
                    assumptions=literal_assumptions,
                    conflict_limit=conflict_limit,
                    deadline=self._deadline,
                )
            except SolverInterrupted:
                result = SolverResult.UNKNOWN
            check_span.set_outcome(result)
            stats_after = self.solver.stats.as_dict()
            _telemetry.add_counters(
                {
                    name: stats_after[name] - stats_before.get(name, 0)
                    for name in stats_after
                    if isinstance(stats_after[name], (int, float))
                },
                prefix="solver.",
            )
            _telemetry.counter("solver.checks")
            _telemetry.counter(f"solver.result.{result}")
        return result

    def check_expr(self, expr: Expr, conflict_limit: Optional[int] = None) -> str:
        """Check satisfiability of the current constraints plus ``expr``."""
        return self.check(expr_assumptions=[expr], conflict_limit=conflict_limit)

    # ------------------------------------------------------------------
    # model extraction
    # ------------------------------------------------------------------
    def value(self, name: str, width: int) -> int:
        """Return the model value of variable ``name``."""
        return self.blaster.model_value(self.solver, name, width)

    def value_of_expr(self, expr: Expr) -> int:
        """Return the model value of an arbitrary expression.

        The expression must already have been blasted as part of an assertion
        or assumption (otherwise its fresh encoding would be unconstrained).
        """
        bits = self.blaster.blast(expr)
        value = 0
        for index, lit in enumerate(bits):
            if self._lit_value(lit):
                value |= 1 << index
        return value

    def _lit_value(self, lit: int) -> bool:
        if lit > 0:
            return self.solver.model_value(lit)
        return not self.solver.model_value(-lit)

    def model_of_vars(self, widths: Dict[str, int]) -> Dict[str, int]:
        """Return model values for all the given variables (name -> width map)."""
        return {name: self.value(name, width) for name, width in widths.items()}

    @property
    def failed_assumptions(self):
        """Failed assumption literals of the last UNSAT check."""
        return self.solver.failed_assumptions
