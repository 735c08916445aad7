"""Interpolation-based unbounded model checking (McMillan, CAV 2003).

The engine computes an over-approximation of the reachable states by
iterating bounded checks and extracting Craig interpolants from their
refutations:

1. ``R := Init``.
2. Check ``R(s0) ∧ T(s0,s1) ∧ [T(s1..sk) ∧ ¬P somewhere in frames 1..k]``.
   If satisfiable and ``R = Init`` the trace is a real counterexample; if
   satisfiable with ``R ⊃ Init`` the approximation was too coarse, so the
   unrolling depth ``k`` is increased and the iteration restarts from
   ``Init``.
3. If unsatisfiable, the interpolant ``I`` of the partition
   ``A = R(s0) ∧ T(s0,s1)`` / ``B = rest`` is an over-approximation of the
   image of ``R`` expressed over the frame-1 state bits.  If ``I`` implies the
   accumulated reachable-set approximation, a fixpoint is reached and the
   property is proved; otherwise ``I`` (renamed to frame 0) is added to ``R``
   and the loop continues.

This is the algorithm behind ABC's interpolation engine at the bit level and
CPAChecker's interpolation-based analysis at the software level, compared in
Figure 4 of the paper.

Persistent sessions
-------------------

*One* proof-logging solver serves every iteration at every depth: the
unrolled transition frames and property cones are stamped once and only
extended as the depth grows, the frontier ``R`` is asserted under an
activation literal and retracted when replaced, and the per-depth "bad
somewhere" disjunction enters each query as an assumption literal.  The A/B
partition of each query is expressed as clause-id sets over the cumulative
database; unsatisfiability under assumptions yields a resolution chain over
the failed assumptions (:attr:`repro.sat.solver.Solver.assumption_core_chain`)
which the :class:`repro.sat.interpolate.Interpolator` completes against the
assumption literals' virtual unit clauses.  Learned clauses are implied by
the clause database alone (activation is assumption-based), so everything
the solver learned about the transition relation in earlier iterations
keeps pruning the later ones.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.certs import InductiveCertificate, witness_from_counterexample
from repro.engines.base import Engine
from repro.engines.encoding import FrameEncoder, flattened_cached
from repro.engines.result import Budget, Status, VerificationResult
from repro.exprs import (
    Expr,
    FALSE,
    TRUE,
    bool_and,
    bool_not,
    bool_or,
    bv_extract,
    bv_var,
    simplify,
)
from repro.netlist import TransitionSystem
from repro.obs import telemetry as _telemetry
from repro.sat.interpolate import Interpolator, ItpNode
from repro.sat.solver import SolverStats
from repro.smt import BVResult, BVSolver


def init_state_expr(flat: TransitionSystem) -> Expr:
    """The initial state as a predicate over the unstamped state variables."""
    return bool_and(
        *[
            bv_var(name, width).eq(flat.init[name])
            for name, width in flat.state_vars.items()
        ]
    )


def itp_to_state_expr(node: ItpNode, encoder: FrameEncoder, frame: int) -> Expr:
    """Convert an interpolant over frame-``frame`` state bits into an expression
    over the unstamped state variables."""
    bit_map = encoder.solver.blaster.bit_map()
    state_widths = encoder.state_vars()
    suffix = f"@{frame}"

    true_var = abs(encoder.solver.blaster.true_lit)

    def convert(n: ItpNode) -> Expr:
        if n.kind == "const":
            return TRUE if n.value else FALSE
        if n.kind == "lit":
            variable = abs(n.lit)
            if variable == true_var:
                # the shared constant-true variable
                return TRUE if n.lit > 0 else FALSE
            mapped = bit_map.get(variable)
            if mapped is None:
                raise RuntimeError(
                    "interpolant mentions an internal solver variable; "
                    "the A/B sharing barrier was violated"
                )
            name, bit_index = mapped
            if not name.endswith(suffix):
                raise RuntimeError(
                    f"interpolant variable {name!r} is not a frame-{frame} state bit"
                )
            base = name[: -len(suffix)]
            if base not in state_widths:
                raise RuntimeError(
                    f"interpolant variable {name!r} does not map to a state variable"
                )
            bit = bv_extract(bv_var(base, state_widths[base]), bit_index, bit_index)
            return bit if n.lit > 0 else bool_not(bit)
        children = [convert(child) for child in n.args]
        if n.kind == "and":
            return bool_and(*children)
        return bool_or(*children)

    return convert(node)


class _InterpolationSession:
    """One persistent proof-logging solver shared by every bounded check.

    Tracks the cumulative A/B clause-id partition: the frame-0 transition,
    the (guarded) ``Init``/frontier assertions and their retirement units are
    A; the deeper transition frames, the property cones at frames >= 1 and
    the per-depth bad disjunction gates are B.  The property cone at frame 0
    (used only by the initial-state check, which never interpolates) is
    stamped on the A side so the frame-0 bits stay A-local.
    """

    def __init__(self, engine: "InterpolationEngine", property_name: str, budget: Budget) -> None:
        self.encoder = FrameEncoder(
            engine.system, proof=True, representation=engine.representation
        )
        self.solver = self.encoder.solver
        self.solver.set_deadline(budget.deadline)
        self.sat = self.solver.solver
        self.property_name = property_name
        self.a_ids: List[int] = []
        self.b_ids: List[int] = []
        #: frames 0..frames-1 have their transition stamped
        self.frames = 0
        #: per-depth "¬P somewhere in 1..depth" assumption literal
        self.bad_literals: Dict[int, int] = {}
        self.frontier_act: Optional[int] = None

        self._record(self.a_ids, self.encoder.assert_trans(0))
        self.frames = 1
        self.init_act = self.encoder.new_activation()
        self._record(self.a_ids, self.encoder.assert_init(0, guard=self.init_act))

    # ------------------------------------------------------------------
    def _record(self, ids: List[int], clause_range: Tuple[int, int]) -> None:
        start, end = clause_range
        ids.extend(range(start, end))

    def _property(self, frame: int, ids: List[int]) -> int:
        """The property literal at ``frame``; its (lazy) stamp lands in ``ids``."""
        start = self.sat.num_clauses
        literal = self.encoder.property_literal(self.property_name, frame)
        end = self.sat.num_clauses
        if end > start:
            ids.extend(range(start, end))
        return literal

    def ensure_depth(self, depth: int) -> None:
        """Extend the unrolling so frames ``0..depth-1`` are stamped."""
        while self.frames < depth:
            self._record(self.b_ids, self.encoder.assert_trans(self.frames))
            self.frames += 1

    def bad_literal(self, depth: int) -> int:
        """An assumption literal equivalent to "¬P at some frame in 1..depth"."""
        cached = self.bad_literals.get(depth)
        if cached is not None:
            return cached
        bads = [-self._property(frame, self.b_ids) for frame in range(1, depth + 1)]
        start = self.sat.num_clauses
        literal = self.solver.blaster.encoder.or_gate(bads)
        self._record(self.b_ids, (start, self.sat.num_clauses))
        self.bad_literals[depth] = literal
        return literal

    def set_frontier(self, frontier: Optional[Expr]) -> int:
        """Install ``frontier`` (None means Init); returns the assumption literal.

        The previous frontier's activation is retired — its guarded clauses
        and the learned clauses recorded against it are dropped, while
        everything learned about the transition frames survives.
        """
        if self.frontier_act is not None:
            self.a_ids.append(self.encoder.retire(self.frontier_act))
            self.frontier_act = None
        if frontier is None:
            return self.init_act
        act = self.encoder.new_activation()
        self._record(
            self.a_ids,
            self.solver.assert_guarded(self.encoder.rename_to_frame(frontier, 0), act),
        )
        self.frontier_act = act
        return act

    # ------------------------------------------------------------------
    def check_initial(self) -> str:
        """Is the property violated in the initial state itself?"""
        literal = self._property(0, self.a_ids)
        return self.solver.check(assumptions=[self.init_act, -literal])

    def bounded_check(
        self, frontier: Optional[Expr], depth: int
    ) -> Tuple[str, Optional[ItpNode]]:
        """One interpolation query; returns (outcome, interpolant node)."""
        self.ensure_depth(depth)
        bad = self.bad_literal(depth)
        act = self.set_frontier(frontier)
        outcome = self.solver.check(assumptions=[act, bad])
        if outcome != BVResult.UNSAT:
            return outcome, None
        interpolator = Interpolator(
            self.sat,
            self.a_ids,
            self.b_ids,
            assumptions=[(act, "A"), (bad, "B")],
        )
        return outcome, interpolator.compute()


class InterpolationEngine(Engine):
    """McMillan-style interpolation model checker."""

    name = "interpolation"

    def __init__(
        self,
        system: TransitionSystem,
        initial_depth: int = 1,
        max_depth: int = 64,
        max_iterations: int = 200,
        representation: str = "word",
    ) -> None:
        super().__init__(system)
        self.initial_depth = max(1, initial_depth)
        self.max_depth = max_depth
        self.max_iterations = max_iterations
        self.representation = representation

    # ------------------------------------------------------------------
    def verify(
        self, property_name: Optional[str] = None, timeout: Optional[float] = None
    ) -> VerificationResult:
        budget = Budget(timeout)
        property_name = self.default_property(property_name)
        start = time.monotonic()
        self._stats = SolverStats()
        self._fixpoint_solver: Optional[BVSolver] = None
        session = _InterpolationSession(self, property_name, budget)

        # the iteration below only examines frames >= 1, so the initial state
        # itself is checked once up front
        initial_check = self._check_initial_state(property_name, budget, session)
        if initial_check is not None:
            self._fold_stats(session)
            return initial_check

        depth = self.initial_depth
        iterations = 0

        while depth <= self.max_depth:
            reached_disjuncts: List[Expr] = []  # approximation beyond Init (frame-0 terms)
            frontier: Optional[Expr] = None  # None means "Init"
            while True:
                iterations += 1
                if budget.expired() or iterations > self.max_iterations:
                    self._fold_stats(session)
                    return self._timeout(property_name, budget, depth, iterations)
                with _telemetry.span(
                    "engine.interpolation.iteration",
                    depth=depth,
                    iteration=iterations,
                ) as iteration_span:
                    outcome, interpolant_expr, cex = self._bounded_check(
                        property_name, frontier, depth, session
                    )
                    iteration_span.set_outcome(outcome)
                if outcome == "timeout":
                    self._fold_stats(session)
                    return self._timeout(property_name, budget, depth, iterations)
                if outcome == "sat":
                    if frontier is None:
                        self._fold_stats(session)
                        return VerificationResult(
                            Status.UNSAFE,
                            self.name,
                            property_name,
                            runtime=time.monotonic() - start,
                            counterexample=cex,
                            detail={"depth": depth, "solver_stats": self._stats.as_dict()},
                            certificate=witness_from_counterexample(
                                self.system, self.name, cex
                            ),
                        )
                    # spurious due to over-approximation: deepen and restart
                    depth += 1
                    break
                # UNSAT: interpolant over-approximates the image of the frontier
                assert interpolant_expr is not None
                if self._implies_reached(interpolant_expr, reached_disjuncts, budget):
                    # the accumulated approximation R = Init ∨ I_1 ∨ ... is an
                    # inductive invariant: each disjunct over-approximates the
                    # image of its predecessor and the new interpolant folded
                    # back into R at the fixpoint
                    invariant = simplify(
                        bool_or(
                            init_state_expr(flattened_cached(self.system)),
                            *reached_disjuncts,
                        )
                    )
                    self._fold_stats(session)
                    return VerificationResult(
                        Status.SAFE,
                        self.name,
                        property_name,
                        runtime=time.monotonic() - start,
                        detail={
                            "depth": depth,
                            "iterations": iterations,
                            "disjuncts": len(reached_disjuncts) + 1,
                            "solver_stats": self._stats.as_dict(),
                        },
                        reason="interpolant fixpoint reached",
                        certificate=InductiveCertificate(
                            property_name, self.name, invariant
                        ),
                    )
                reached_disjuncts.append(interpolant_expr)
                frontier = interpolant_expr
        self._fold_stats(session)
        return VerificationResult(
            Status.UNKNOWN,
            self.name,
            property_name,
            runtime=time.monotonic() - start,
            detail={"max_depth": self.max_depth, "solver_stats": self._stats.as_dict()},
            reason="maximum interpolation depth exceeded",
        )

    # ------------------------------------------------------------------
    def _fold_stats(self, session: _InterpolationSession) -> None:
        self._stats.add(session.sat.stats)
        if self._fixpoint_solver is not None:
            self._stats.add(self._fixpoint_solver.stats)
            self._fixpoint_solver = None

    # ------------------------------------------------------------------
    def _check_initial_state(
        self, property_name: str, budget: Budget, session: _InterpolationSession
    ) -> Optional[VerificationResult]:
        """Return an UNSAFE/TIMEOUT result if the property already fails at cycle 0."""
        outcome = session.check_initial()
        if outcome == BVResult.SAT:
            cex = session.encoder.extract_counterexample(property_name, 0)
            return VerificationResult(
                Status.UNSAFE,
                self.name,
                property_name,
                runtime=budget.elapsed(),
                counterexample=cex,
                detail={"depth": 0},
                certificate=witness_from_counterexample(self.system, self.name, cex),
            )
        if outcome == BVResult.UNKNOWN:
            return self._timeout(property_name, budget, 0, 0)
        return None

    # ------------------------------------------------------------------
    def _bounded_check(
        self,
        property_name: str,
        frontier: Optional[Expr],
        depth: int,
        session: _InterpolationSession,
    ) -> Tuple[str, Optional[Expr], Optional[object]]:
        """One interpolation query.

        Returns ``(outcome, interpolant, counterexample)`` where outcome is
        ``"sat"``, ``"unsat"`` or ``"timeout"``.  The interpolant is an
        expression over the *unstamped* state variables.
        """
        outcome, node = session.bounded_check(frontier, depth)
        if outcome == BVResult.SAT:
            cex = session.encoder.extract_counterexample(property_name, depth)
            return "sat", None, cex
        if outcome == BVResult.UNKNOWN:
            return "timeout", None, None
        interpolant = itp_to_state_expr(node, session.encoder, frame=1)
        return "unsat", simplify(interpolant), None

    def _implies_reached(
        self, interpolant: Expr, reached: List[Expr], budget: Budget
    ) -> bool:
        """Check whether the new interpolant is already covered (fixpoint test).

        The cover checks share one solver: each query's constraints are
        guarded by a throwaway activation literal and retired immediately, so
        the blasted predicates (and anything learned about them) are reused
        across the fixpoint tests of a run.
        """
        covered = bool_or(init_state_expr(flattened_cached(self.system)), *reached)
        if self._fixpoint_solver is None:
            self._fixpoint_solver = BVSolver()
        solver = self._fixpoint_solver
        solver.set_deadline(budget.deadline)
        activation = solver.new_activation()
        solver.assert_guarded(interpolant, activation)
        solver.assert_guarded(bool_not(covered), activation)
        outcome = solver.check(assumptions=[activation])
        solver.retire(activation)
        return outcome == BVResult.UNSAT

    def _timeout(
        self, property_name: str, budget: Budget, depth: int, iterations: int
    ) -> VerificationResult:
        return VerificationResult(
            Status.TIMEOUT,
            self.name,
            property_name,
            runtime=budget.elapsed(),
            detail={
                "depth": depth,
                "iterations": iterations,
                "solver_stats": self._stats.as_dict(),
            },
        )
