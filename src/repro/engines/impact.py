"""Lazy abstraction with interpolants (IMPACT; McMillan CAV 2006).

IMPARA, compared in Figure 4 of the paper, implements the IMPACT algorithm
for software.  The software-netlist has a single program location (the cycle
loop), so the abstract reachability tree degenerates into a chain of nodes
``v_0 → v_1 → ...`` — one per unrolled cycle — each labelled with a formula
over the registers.  The engine

1. expands the chain one node at a time,
2. when a node's label admits a property violation, checks the corresponding
   concrete path with a bounded query; a feasible path is a counterexample,
3. an infeasible path is used to *refine* the labels along the path with
   sequence interpolants,
4. when a new node's label is implied by the union of the previous labels the
   node is *covered*; the accumulated labels then form a candidate invariant
   which is certified inductive before declaring the design safe.

The engine allocates no throwaway solvers inside its refinement loop: one
predicate solver answers every label/coverage query under per-query
activation literals, one incremental encoder serves all path-feasibility
checks (frames are only ever extended), and one proof-logging encoder hosts
every cut interpolant — the A/B split at a cut is expressed by *recoloring*
the cumulative clause-id sets per query, so the unrolled frames are stamped
exactly once per run no matter how many cuts are interpolated.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.certs import InductiveCertificate, witness_from_counterexample
from repro.engines.base import Engine
from repro.engines.encoding import FrameEncoder, flattened_cached
from repro.engines.interpolation import init_state_expr, itp_to_state_expr
from repro.engines.result import Budget, Status, VerificationResult
from repro.exprs import Expr, TRUE, bool_and, bool_not, bool_or, simplify
from repro.netlist import TransitionSystem
from repro.sat.interpolate import Interpolator
from repro.smt import BVResult, BVSolver


class ImpactEngine(Engine):
    """IMPACT-style lazy interpolation on the software-netlist."""

    name = "impact"

    def __init__(
        self,
        system: TransitionSystem,
        max_depth: int = 48,
        representation: str = "word",
    ) -> None:
        super().__init__(system)
        self.flat = flattened_cached(system)
        self.max_depth = max_depth
        self.representation = representation
        self._reset_sessions()

    # ------------------------------------------------------------------
    def _reset_sessions(self) -> None:
        #: predicate queries (labels, coverage, invariant implications)
        self._query_solver: Optional[BVSolver] = None
        #: Init-rooted unrolling for path feasibility (extended, never rebuilt)
        self._path_encoder: Optional[FrameEncoder] = None
        self._path_frames = 0
        #: one-step encoder for inductiveness checks (T(0) stamped once)
        self._step_encoder: Optional[FrameEncoder] = None
        #: proof-logging session for cut interpolants
        self._itp_encoder: Optional[FrameEncoder] = None
        self._itp_init_ids: List[int] = []
        self._itp_frame_ids: Dict[int, List[int]] = {}
        self._itp_prop_ids: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    def verify(
        self, property_name: Optional[str] = None, timeout: Optional[float] = None
    ) -> VerificationResult:
        budget = Budget(timeout)
        property_name = self.default_property(property_name)
        start = time.monotonic()
        self._reset_sessions()

        labels: List[Expr] = [init_state_expr(self.flat)]

        for depth in range(0, self.max_depth + 1):
            if budget.expired():
                return self._timeout(property_name, budget, depth)
            if depth >= len(labels):
                labels.append(TRUE)

            # 1. does the node's label admit a property violation?
            if self._label_admits_violation(labels[depth], property_name, budget):
                # 2. concrete feasibility of the error path of this length
                feasible, cex = self._path_feasible(property_name, depth, budget)
                if feasible is None:
                    return self._timeout(property_name, budget, depth)
                if feasible:
                    return VerificationResult(
                        Status.UNSAFE,
                        self.name,
                        property_name,
                        runtime=time.monotonic() - start,
                        counterexample=cex,
                        detail={"depth": depth, "solver_stats": self._stats_dict()},
                        certificate=witness_from_counterexample(
                            self.system, self.name, cex
                        ),
                    )
                # 3. refine the labels along the infeasible path
                for cut in range(1, depth + 1):
                    interpolant = self._cut_interpolant(property_name, depth, cut, budget)
                    if interpolant is None:
                        return self._timeout(property_name, budget, depth)
                    labels[cut] = simplify(bool_and(labels[cut], interpolant))

            # 4. covering check followed by certification of the candidate invariant
            if depth > 0 and self._covered(labels, depth, budget):
                candidate = bool_or(*labels[: depth + 1])
                if self._certify_invariant(candidate, property_name, budget):
                    return VerificationResult(
                        Status.SAFE,
                        self.name,
                        property_name,
                        runtime=time.monotonic() - start,
                        detail={
                            "depth": depth,
                            "nodes": depth + 1,
                            "solver_stats": self._stats_dict(),
                        },
                        reason="covered ART with certified invariant",
                        certificate=InductiveCertificate(
                            property_name, self.name, simplify(candidate)
                        ),
                    )

        return VerificationResult(
            Status.UNKNOWN,
            self.name,
            property_name,
            runtime=time.monotonic() - start,
            detail={"max_depth": self.max_depth, "solver_stats": self._stats_dict()},
            reason="unwinding limit reached without covering",
        )

    # ------------------------------------------------------------------
    def _stats_dict(self) -> Dict[str, int]:
        from repro.sat.solver import SolverStats

        total = SolverStats()
        for holder in (self._query_solver,):
            if holder is not None:
                total.add(holder.stats)
        for encoder in (self._path_encoder, self._step_encoder, self._itp_encoder):
            if encoder is not None:
                total.add(encoder.solver.stats)
        return total.as_dict()

    # ------------------------------------------------------------------
    def _predicate_query(self, exprs: List[Expr], budget: Budget) -> str:
        """SAT-check a conjunction of state predicates.

        Every call goes through one reused solver, guarded by a throwaway
        activation literal that is retired right after the check.
        """
        if self._query_solver is None:
            self._query_solver = BVSolver()
        solver = self._query_solver
        solver.set_deadline(budget.deadline)
        activation = solver.new_activation()
        for expr in exprs:
            solver.assert_guarded(expr, activation)
        outcome = solver.check(assumptions=[activation])
        solver.retire(activation)
        return outcome

    def _label_admits_violation(self, label: Expr, property_name: str, budget: Budget) -> bool:
        prop = self.flat.property_by_name(property_name)
        return (
            self._predicate_query([label, bool_not(prop.expr)], budget)
            != BVResult.UNSAT
        )

    def _path_feasible(
        self, property_name: str, depth: int, budget: Budget
    ) -> Tuple[Optional[bool], Optional[object]]:
        if self._path_encoder is None:
            self._path_encoder = FrameEncoder(
                self.system, representation=self.representation
            )
            self._path_encoder.assert_init(0)
            self._path_frames = 0
        encoder = self._path_encoder
        encoder.solver.set_deadline(budget.deadline)
        while self._path_frames < depth:
            encoder.assert_trans(self._path_frames)
            self._path_frames += 1
        literal = encoder.property_literal(property_name, depth)
        outcome = encoder.solver.check(assumptions=[-literal])
        if outcome == BVResult.SAT:
            return True, encoder.extract_counterexample(property_name, depth)
        if outcome == BVResult.UNKNOWN:
            return None, None
        return False, None

    # ------------------------------------------------------------------
    # cut interpolants over one persistent proof session
    # ------------------------------------------------------------------
    def _itp_session(self) -> FrameEncoder:
        if self._itp_encoder is None:
            encoder = FrameEncoder(
                self.system, proof=True, representation=self.representation,
            )
            sat = encoder.solver.solver
            start = sat.num_clauses
            encoder.assert_init(0)
            self._itp_init_ids = list(range(start, sat.num_clauses))
            self._itp_encoder = encoder
        return self._itp_encoder

    def _itp_ensure_depth(self, depth: int) -> None:
        """Stamp transition frames / property cones the query needs (once ever)."""
        encoder = self._itp_encoder
        sat = encoder.solver.solver
        for frame in range(depth):
            if frame not in self._itp_frame_ids:
                start = sat.num_clauses
                encoder.assert_trans(frame)
                self._itp_frame_ids[frame] = list(range(start, sat.num_clauses))

    def _itp_property(self, property_name: str, frame: int) -> int:
        encoder = self._itp_encoder
        sat = encoder.solver.solver
        start = sat.num_clauses
        literal = encoder.property_literal(property_name, frame)
        if sat.num_clauses > start:
            self._itp_prop_ids[frame] = list(range(start, sat.num_clauses))
        return literal

    def _cut_interpolant(
        self, property_name: str, depth: int, cut: int, budget: Budget
    ) -> Optional[Expr]:
        """Interpolant at position ``cut`` of the infeasible error path of length ``depth``.

        The A/B partition is *recolored* per query over the cumulative clause
        database — ``Init`` and frames ``< cut`` (and any property cone
        stamped at a frame ``< cut``) are A, everything else is B, and the
        negated property at ``depth`` enters as a B-side assumption literal.  Since frames only share the state bits at their
        boundary, the shared variables of the partition are exactly the
        frame-``cut`` state bits.
        """
        encoder = self._itp_session()
        solver = encoder.solver
        solver.set_deadline(budget.deadline)
        sat = solver.solver
        self._itp_ensure_depth(depth)
        literal = self._itp_property(property_name, depth)

        outcome = solver.check(assumptions=[-literal])
        if outcome != BVResult.UNSAT:
            return None
        a_ids: List[int] = list(self._itp_init_ids)
        b_ids: List[int] = []
        for frame, ids in self._itp_frame_ids.items():
            (a_ids if frame < cut else b_ids).extend(ids)
        for frame, ids in self._itp_prop_ids.items():
            (a_ids if frame < cut else b_ids).extend(ids)
        interpolator = Interpolator(
            sat, a_ids, b_ids, assumptions=[(-literal, "B")]
        )
        node = interpolator.compute()
        return simplify(itp_to_state_expr(node, encoder, cut))

    # ------------------------------------------------------------------
    def _covered(self, labels: List[Expr], depth: int, budget: Budget) -> bool:
        """Is the newest label implied by the union of the earlier ones?"""
        return (
            self._predicate_query(
                [labels[depth], bool_not(bool_or(*labels[:depth]))], budget
            )
            == BVResult.UNSAT
        )

    def _certify_invariant(self, candidate: Expr, property_name: str, budget: Budget) -> bool:
        """Check Init => R, R ∧ T => R', and R => P for the candidate invariant."""
        prop = self.flat.property_by_name(property_name)
        # R => P
        if self._predicate_query([candidate, bool_not(prop.expr)], budget) != BVResult.UNSAT:
            return False
        # Init => R  (Init is the first disjunct, so this holds by construction,
        # but check anyway for robustness)
        init = init_state_expr(self.flat)
        if self._predicate_query([init, bool_not(candidate)], budget) != BVResult.UNSAT:
            return False
        # R ∧ T => R'
        if self._step_encoder is None:
            self._step_encoder = FrameEncoder(
                self.system, representation=self.representation
            )
            self._step_encoder.assert_trans(0)
        encoder = self._step_encoder
        encoder.solver.set_deadline(budget.deadline)
        activation = encoder.new_activation()
        encoder.solver.assert_guarded(
            encoder.rename_to_frame(candidate, 0), activation
        )
        encoder.solver.assert_guarded(
            encoder.rename_to_frame(bool_not(candidate), 1), activation
        )
        outcome = encoder.solver.check(assumptions=[activation])
        encoder.retire(activation)
        return outcome == BVResult.UNSAT

    def _timeout(self, property_name: str, budget: Budget, depth: int) -> VerificationResult:
        return VerificationResult(
            Status.TIMEOUT,
            self.name,
            property_name,
            runtime=budget.elapsed(),
            detail={"depth": depth, "solver_stats": self._stats_dict()},
        )
