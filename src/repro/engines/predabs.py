"""Predicate abstraction with CEGAR (the CPAChecker stand-in).

The engine abstracts the software-netlist by a finite set of predicates over
the registers.  Abstract states are truth assignments to the predicates;
abstract successors are enumerated with SAT queries over the concrete
transition relation (Cartesian-free, i.e. Boolean predicate abstraction).
A breadth-first search explores the abstract state space:

* if no abstract state violating the property is reachable, the abstraction
  is a proof and the design is safe;
* if an abstract error path is found it is replayed concretely (a bounded
  model checking query of the same length); a feasible replay is a real
  counterexample, an infeasible one triggers refinement — interpolants along
  the spurious path contribute new predicates (bit-level atoms), and the
  search restarts.

The abstract-state, refinement and predicate budgets
(:data:`MAX_ABSTRACT_STATES`, :data:`MAX_REFINEMENTS`,
:data:`MAX_PREDICATES`) model the practical limits of predicate abstraction
on bit-level-heavy designs that Figure 5 of the paper shows (CPAChecker
times out on two benchmarks).
"""

from __future__ import annotations

import time
from typing import List, Optional, Set, Tuple

from repro.certs import InductiveCertificate, witness_from_counterexample
from repro.engines.base import Engine
from repro.engines.encoding import FrameEncoder, flattened_cached
from repro.engines.result import Budget, Counterexample, Status, VerificationResult
from repro.exprs import (
    Expr,
    TRUE,
    bool_and,
    bool_not,
    bool_or,
    bv_var,
    collect_vars,
    evaluate,
    simplify,
)
from repro.exprs.nodes import Op
from repro.netlist import TransitionSystem
from repro.smt import BVResult, BVSolver


AbstractState = Tuple[bool, ...]

#: the search budgets: abstract states explored per abstraction, refinement
#: rounds, and predicates in the abstraction
MAX_ABSTRACT_STATES = 4000
MAX_REFINEMENTS = 20
MAX_PREDICATES = 64


class PredicateAbstractionEngine(Engine):
    """Boolean predicate abstraction with interpolant-based refinement."""

    name = "predicate-abstraction"

    def __init__(self, system: TransitionSystem, representation: str = "word") -> None:
        super().__init__(system)
        self.flat = flattened_cached(system)
        self.representation = representation
        self._reset_sessions()

    # ------------------------------------------------------------------
    def _reset_sessions(self) -> None:
        """Drop the per-run solver sessions.

        The engine reuses, across its whole exploration: one solver for the "abstract state admits a violation"
        queries (the negated property is asserted once, each state constraint
        comes and goes under an activation literal), one encoder for
        successor enumeration per predicate set (the transition relation is
        stamped once instead of once per abstract state — the hot loop of
        Boolean predicate abstraction), one Init-rooted encoder for
        counterexample replays (frames only ever extend), and one
        :class:`repro.engines.impact.ImpactEngine` helper whose persistent
        interpolation session serves every refinement.
        """
        self._admits_solver: Optional[BVSolver] = None
        self._succ_encoder: Optional[FrameEncoder] = None
        self._succ_literals: List[int] = []
        self._succ_predicates: Tuple[Expr, ...] = ()
        self._replay_encoder: Optional[FrameEncoder] = None
        self._replay_frames = 0
        self._refine_helper = None

    # ------------------------------------------------------------------
    def verify(
        self, property_name: Optional[str] = None, timeout: Optional[float] = None
    ) -> VerificationResult:
        budget = Budget(timeout)
        property_name = self.default_property(property_name)
        start = time.monotonic()
        self._reset_sessions()
        prop = self.flat.property_by_name(property_name)

        predicates: List[Expr] = self._initial_predicates(prop.expr)
        refinements = 0

        while True:
            if budget.expired():
                return self._timeout(property_name, budget, refinements, len(predicates))
            exploration = self._explore(predicates, prop.expr, budget)
            if exploration is None:
                return self._timeout(property_name, budget, refinements, len(predicates))
            status, error_depth = exploration
            if status == "safe":
                # the reachable abstract states form an inductive invariant:
                # their union is closed under the transition relation and no
                # member admits a violation
                invariant = simplify(
                    bool_or(
                        *[
                            self._state_constraint(predicates, state)
                            for state in sorted(self._reached_states)
                        ]
                    )
                )
                return VerificationResult(
                    Status.SAFE,
                    self.name,
                    property_name,
                    runtime=time.monotonic() - start,
                    detail={
                        "predicates": len(predicates),
                        "refinements": refinements,
                        "abstract_states": len(self._reached_states),
                    },
                    reason="abstract reachability proof",
                    certificate=InductiveCertificate(
                        property_name, self.name, invariant
                    ),
                )
            if status == "limit":
                return VerificationResult(
                    Status.UNKNOWN,
                    self.name,
                    property_name,
                    runtime=time.monotonic() - start,
                    detail={
                        "predicates": len(predicates),
                        "refinements": refinements,
                    },
                    reason="abstract state budget exhausted",
                )
            # abstract error path of length error_depth: replay concretely
            feasible, cex = self._replay(property_name, error_depth, budget)
            if feasible is None:
                return self._timeout(property_name, budget, refinements, len(predicates))
            if feasible:
                return VerificationResult(
                    Status.UNSAFE,
                    self.name,
                    property_name,
                    runtime=time.monotonic() - start,
                    counterexample=cex,
                    detail={"depth": error_depth, "predicates": len(predicates)},
                    certificate=witness_from_counterexample(self.system, self.name, cex),
                )
            # spurious: refine
            refinements += 1
            if refinements > MAX_REFINEMENTS or len(predicates) >= MAX_PREDICATES:
                return VerificationResult(
                    Status.UNKNOWN,
                    self.name,
                    property_name,
                    runtime=time.monotonic() - start,
                    detail={"predicates": len(predicates), "refinements": refinements},
                    reason="refinement budget exhausted",
                )
            new_predicates = self._refine(property_name, error_depth, budget)
            if new_predicates is None:
                return self._timeout(property_name, budget, refinements, len(predicates))
            added = False
            for predicate in new_predicates:
                if predicate not in predicates and len(predicates) < MAX_PREDICATES:
                    predicates.append(predicate)
                    added = True
            if not added:
                return VerificationResult(
                    Status.UNKNOWN,
                    self.name,
                    property_name,
                    runtime=time.monotonic() - start,
                    detail={"predicates": len(predicates), "refinements": refinements},
                    reason="refinement produced no new predicates",
                )

    # ------------------------------------------------------------------
    # predicate discovery
    # ------------------------------------------------------------------
    def _initial_predicates(self, property_expr: Expr) -> List[Expr]:
        """Atoms of the property plus register/initial-value equalities."""
        predicates: List[Expr] = []
        state_names = set(self.flat.state_vars)

        def over_state_only(expr: Expr) -> bool:
            return all(var.name in state_names for var in collect_vars(expr))

        def collect_atoms(expr: Expr) -> None:
            if isinstance(expr, Op) and expr.op in (
                "eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge",
                "redor", "redand",
            ):
                if over_state_only(expr) and expr not in predicates:
                    predicates.append(expr)
                return
            if isinstance(expr, Op):
                for arg in expr.args:
                    collect_atoms(arg)

        collect_atoms(property_expr)
        for name, width in self.flat.state_vars.items():
            equality = bv_var(name, width).eq(self.flat.init[name])
            if equality not in predicates:
                predicates.append(equality)
        return predicates[:MAX_PREDICATES]

    # ------------------------------------------------------------------
    # abstract exploration
    # ------------------------------------------------------------------
    def _abstract_init(self, predicates: List[Expr]) -> AbstractState:
        init_env = {name: evaluate(expr, {}) for name, expr in self.flat.init.items()}
        return tuple(bool(evaluate(p, init_env)) for p in predicates)

    def _state_constraint(self, predicates: List[Expr], state: AbstractState) -> Expr:
        terms = []
        for predicate, value in zip(predicates, state):
            terms.append(predicate if value else bool_not(predicate))
        return bool_and(*terms) if terms else TRUE

    def _explore(
        self, predicates: List[Expr], property_expr: Expr, budget: Budget
    ) -> Optional[Tuple[str, int]]:
        """Breadth-first abstract reachability.

        Returns ("safe", 0), ("error", depth) or ("limit", 0); None on timeout.
        """
        initial = self._abstract_init(predicates)
        visited: Set[AbstractState] = {initial}
        #: reachable abstract states of the last exploration (certificate basis)
        self._reached_states = visited
        frontier: List[AbstractState] = [initial]
        depth = 0
        while frontier:
            if budget.expired():
                return None
            # does any frontier state admit a violation?
            for state in frontier:
                admits = self._admits_violation(predicates, state, property_expr, budget)
                if admits is None:
                    return None
                if admits:
                    return ("error", depth)
            next_frontier: List[AbstractState] = []
            for state in frontier:
                successors = self._abstract_successors(predicates, state, budget)
                if successors is None:
                    return None
                for successor in successors:
                    if successor not in visited:
                        visited.add(successor)
                        next_frontier.append(successor)
                        if len(visited) > MAX_ABSTRACT_STATES:
                            return ("limit", 0)
            frontier = next_frontier
            depth += 1
        return ("safe", 0)

    def _admits_violation(
        self, predicates: List[Expr], state: AbstractState, property_expr: Expr, budget: Budget
    ) -> Optional[bool]:
        # one solver for every admits-violation query of the run: ¬P is
        # asserted permanently, the state constraint is guarded per call
        if self._admits_solver is None:
            self._admits_solver = BVSolver()
            self._admits_solver.assert_expr(bool_not(property_expr))
        solver = self._admits_solver
        solver.set_deadline(budget.deadline)
        activation = solver.new_activation()
        solver.assert_guarded(self._state_constraint(predicates, state), activation)
        outcome = solver.check(assumptions=[activation])
        solver.retire(activation)
        if outcome == BVResult.UNKNOWN:
            return None
        return outcome == BVResult.SAT

    def _abstract_successors(
        self, predicates: List[Expr], state: AbstractState, budget: Budget
    ) -> Optional[List[AbstractState]]:
        """Enumerate the abstract successors of one abstract state.

        This is the hot loop of Boolean predicate abstraction: one SAT-based
        image computation per reachable abstract state.  The transition
        relation is stamped and the successor predicates are blasted *once
        per predicate set*; each source state then only contributes a
        guarded state constraint and guarded blocking clauses, all retracted
        when its enumeration finishes.
        """
        key = tuple(predicates)
        if self._succ_encoder is None or self._succ_predicates != key:
            encoder = FrameEncoder(self.system, representation=self.representation)
            encoder.assert_trans(0)
            self._succ_encoder = encoder
            self._succ_literals = [
                encoder.solver.literal_for(encoder.rename_to_frame(predicate, 1))
                for predicate in predicates
            ]
            self._succ_predicates = key
        encoder = self._succ_encoder
        solver = encoder.solver
        solver.set_deadline(budget.deadline)
        successor_literals = self._succ_literals
        activation = solver.new_activation()
        solver.assert_guarded(
            encoder.rename_to_frame(self._state_constraint(predicates, state), 0),
            activation,
        )
        successors: List[AbstractState] = []
        while True:
            if budget.expired():
                solver.retire(activation)
                return None
            outcome = solver.check(assumptions=[activation])
            if outcome == BVResult.UNKNOWN:
                solver.retire(activation)
                return None
            if outcome == BVResult.UNSAT:
                solver.retire(activation)
                return successors
            assignment = tuple(
                solver.solver.model_value(literal) for literal in successor_literals
            )
            successors.append(assignment)
            # block this abstract successor and enumerate the next one; the
            # blocking clauses are scoped to this source state's activation
            blocking = [
                -literal if value else literal
                for literal, value in zip(successor_literals, assignment)
            ]
            if not blocking:
                solver.retire(activation)
                return successors
            solver.solver.add_clause([-activation] + blocking)

    # ------------------------------------------------------------------
    # concretization and refinement
    # ------------------------------------------------------------------
    def _replay(
        self, property_name: str, depth: int, budget: Budget
    ) -> Tuple[Optional[bool], Optional[Counterexample]]:
        # one Init-rooted unrolling for every replay; frames only extend
        # (extra frames beyond this query's depth cannot constrain it — the
        # transition relation is total), the per-depth bad disjunction is
        # guarded and retired after the query
        if self._replay_encoder is None:
            self._replay_encoder = FrameEncoder(
                self.system, representation=self.representation
            )
            self._replay_encoder.assert_init(0)
            self._replay_frames = 0
        encoder = self._replay_encoder
        encoder.solver.set_deadline(budget.deadline)
        while self._replay_frames < depth:
            encoder.assert_trans(self._replay_frames)
            self._replay_frames += 1
        bad_literals = [
            -encoder.property_literal(property_name, frame)
            for frame in range(depth + 1)
        ]
        activation = encoder.new_activation()
        encoder.solver.solver.add_clause([-activation] + bad_literals)
        outcome = encoder.solver.check(assumptions=[activation])
        result: Tuple[Optional[bool], Optional[Counterexample]]
        if outcome == BVResult.UNKNOWN:
            result = None, None
        elif outcome == BVResult.SAT:
            result = True, encoder.extract_counterexample(property_name, depth)
        else:
            result = False, None
        encoder.retire(activation)
        return result

    def _refine(
        self, property_name: str, depth: int, budget: Budget
    ) -> Optional[List[Expr]]:
        """Derive new predicates from the interpolants of the spurious path.

        The IMPACT helper (and with it the persistent proof session hosting
        the cut interpolants) is shared across every refinement of the run.
        """
        from repro.engines.impact import ImpactEngine

        if self._refine_helper is None:
            self._refine_helper = ImpactEngine(
                self.system, representation=self.representation
            )
        helper = self._refine_helper
        new_predicates: List[Expr] = []
        for cut in range(1, depth + 1):
            interpolant = helper._cut_interpolant(property_name, depth, cut, budget)
            if interpolant is None:
                if budget.expired():
                    return None
                continue
            for atom in self._atoms_of(interpolant):
                if atom not in new_predicates:
                    new_predicates.append(atom)
        return new_predicates

    def _atoms_of(self, expr: Expr) -> List[Expr]:
        """Extract 1-bit atoms (comparisons / bit tests) from an interpolant."""
        atoms: List[Expr] = []

        def walk(node: Expr) -> None:
            if isinstance(node, Op):
                if node.op in ("eq", "ne", "extract", "ult", "ule", "ugt", "uge") and node.width == 1:
                    if node not in atoms:
                        atoms.append(node)
                    return
                for arg in node.args:
                    walk(arg)

        walk(expr)
        return atoms

    def _timeout(
        self, property_name: str, budget: Budget, refinements: int, predicates: int
    ) -> VerificationResult:
        return VerificationResult(
            Status.TIMEOUT,
            self.name,
            property_name,
            runtime=budget.elapsed(),
            detail={"refinements": refinements, "predicates": predicates},
        )
