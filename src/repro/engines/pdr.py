"""IC3 / Property Directed Reachability (Bradley FMCAD 2007, Eén et al. 2011).

The engine maintains a sequence of over-approximating frames
``F_0 = Init, F_1, ..., F_N`` (sets of blocked cubes over the register bits,
delta-encoded) and incrementally strengthens them by blocking predecessors of
property violations with relatively-inductive clauses, generalizing each
learned clause by literal dropping.  When two consecutive frames coincide the
property is proved; when a proof obligation reaches the initial frame the
property is refuted.

This is the technique behind ABC's ``pdr`` command (bit level) and SeaHorn's
Horn-clause PDR (software level) compared in Figure 5 of the paper.  The
SeaHorn configuration of the tools layer runs this engine on an integer
over-approximation of the design, reproducing its documented imprecision on
bit-vector-heavy netlists.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.certs import InductiveCertificate, witness_from_counterexample
from repro.engines.base import Engine
from repro.engines.bmc import BMCEngine
from repro.engines.encoding import FrameEncoder, frame_name
from repro.engines.result import Budget, Counterexample, Status, VerificationResult
from repro.netlist import TransitionSystem
from repro.obs import telemetry as _telemetry
from repro.smt import BVResult
from repro.exprs import bool_and, bool_not, bool_or, bv_var, evaluate, simplify


#: a cube literal: (register name, bit index, value)
CubeLit = Tuple[str, int, bool]
Cube = FrozenSet[CubeLit]


class PDREngine(Engine):
    """Incremental IC3/PDR over the register bits of the design."""

    name = "pdr"

    def __init__(
        self,
        system: TransitionSystem,
        max_frames: int = 200,
        representation: str = "word",
        generalize_passes: int = 1,
    ) -> None:
        super().__init__(system)
        self.max_frames = max_frames
        self.representation = representation
        self.generalize_passes = generalize_passes
        self._sim_skips = 0

    # ------------------------------------------------------------------
    def verify(
        self, property_name: Optional[str] = None, timeout: Optional[float] = None
    ) -> VerificationResult:
        budget = Budget(timeout)
        property_name = self.default_property(property_name)
        start = time.monotonic()
        try:
            return self._run(property_name, budget, start)
        except _PdrTimeout:
            return VerificationResult(
                Status.TIMEOUT,
                self.name,
                property_name,
                runtime=budget.elapsed(),
                detail={"frames": getattr(self, "_frame_count", 0)},
            )

    # ------------------------------------------------------------------
    def _run(self, property_name: str, budget: Budget, start: float) -> VerificationResult:
        encoder = FrameEncoder(self.system, representation=self.representation)
        solver = encoder.solver
        solver.set_deadline(budget.deadline)
        self._encoder = encoder
        self._budget = budget

        flat = encoder.flat
        self._state_widths = dict(flat.state_vars)
        self._init_values = {name: evaluate(expr, {}) for name, expr in flat.init.items()}

        from repro.netlist.bitsim import ReachabilitySampler

        self._sim_skips = 0
        self._sampler = ReachabilitySampler(self.system)

        # transition relation between frame 0 (current) and frame 1 (next)
        encoder.assert_trans(0)
        self._property_literal_now = encoder.property_literal(property_name, 0)

        # current/next bit literals per register
        self._bits_now: Dict[str, List[int]] = {}
        self._bits_next: Dict[str, List[int]] = {}
        for name, width in self._state_widths.items():
            self._bits_now[name] = solver.blaster.bits_of_var(frame_name(name, 0), width)
            self._bits_next[name] = solver.blaster.bits_of_var(frame_name(name, 1), width)

        # guarded initial-state clauses
        self._init_act = solver.new_bool()
        for name, width in self._state_widths.items():
            value = self._init_values[name]
            for bit in range(width):
                literal = self._bits_now[name][bit]
                wanted = literal if (value >> bit) & 1 else -literal
                solver.solver.add_clause([-self._init_act, wanted])

        # property must hold in the initial state
        if self._solve([self._init_act, -self._property_literal_now]) == BVResult.SAT:
            cex = Counterexample(property_name, [self._model_full_state()])
            return VerificationResult(
                Status.UNSAFE,
                self.name,
                property_name,
                runtime=time.monotonic() - start,
                counterexample=cex,
                detail={"frames": 0},
                certificate=witness_from_counterexample(self.system, self.name, cex),
            )

        # frames: frames[i] is the set of cubes blocked at level exactly i
        self._frames: List[Set[Cube]] = [set(), set()]
        self._acts: List[int] = [solver.new_bool(), solver.new_bool()]
        self._frame_count = 1

        while self._frame_count < self.max_frames:
            with _telemetry.span(
                "engine.pdr.frame", frame=self._frame_count
            ) as frame_span:
                if budget.expired():
                    frame_span.set_outcome("timeout")
                    raise _PdrTimeout()
                # block all bad states reachable in the top frame
                while True:
                    outcome = self._solve(
                        self._frame_assumptions(self._frame_count)
                        + [-self._property_literal_now]
                    )
                    if outcome != BVResult.SAT:
                        break
                    bad_cube = self._model_cube()
                    if not self._block(bad_cube, self._frame_count, property_name):
                        cex = self._extract_counterexample(property_name)
                        frame_span.set_outcome("unsafe")
                        return VerificationResult(
                            Status.UNSAFE,
                            self.name,
                            property_name,
                            runtime=time.monotonic() - start,
                            counterexample=cex,
                            detail={"frames": self._frame_count},
                            certificate=witness_from_counterexample(
                                self.system, self.name, cex
                            ),
                        )

                # open a new frame and propagate clauses forward
                self._frames.append(set())
                self._acts.append(self._encoder.solver.new_bool())
                self._frame_count += 1
                fixpoint_at = self._propagate()
                if fixpoint_at is not None:
                    frame_span.set_outcome("safe")
                    return VerificationResult(
                        Status.SAFE,
                        self.name,
                        property_name,
                        runtime=time.monotonic() - start,
                        detail={
                            "frames": self._frame_count,
                            "fixpoint_frame": fixpoint_at,
                            "invariant_clauses": sum(
                                len(self._frames[j]) for j in range(fixpoint_at, len(self._frames))
                            ),
                            "sim_generalize_skips": self._sim_skips,
                        },
                        reason="inductive invariant found",
                        certificate=InductiveCertificate(
                            property_name,
                            self.name,
                            self._invariant_expr(fixpoint_at, property_name),
                        ),
                    )

        return VerificationResult(
            Status.UNKNOWN,
            self.name,
            property_name,
            runtime=time.monotonic() - start,
            detail={"frames": self._frame_count},
            reason="frame limit exceeded",
        )

    # ------------------------------------------------------------------
    # solver plumbing
    # ------------------------------------------------------------------
    def _solve(self, assumptions: Sequence[int]) -> str:
        if self._budget.expired():
            raise _PdrTimeout()
        outcome = self._encoder.solver.check(assumptions=assumptions)
        if outcome == BVResult.UNKNOWN:
            raise _PdrTimeout()
        return outcome

    def _frame_assumptions(self, level: int) -> List[int]:
        """Activation literals selecting the clauses of frame ``level``."""
        assumptions = [self._acts[j] for j in range(level, len(self._acts))]
        if level == 0:
            assumptions.append(self._init_act)
        return assumptions

    def _cube_lits_now(self, cube: Cube) -> List[int]:
        return [
            self._bits_now[name][bit] if value else -self._bits_now[name][bit]
            for name, bit, value in cube
        ]

    def _cube_lits_next(self, cube: Cube) -> List[int]:
        return [
            self._bits_next[name][bit] if value else -self._bits_next[name][bit]
            for name, bit, value in cube
        ]

    def _model_cube(self) -> Cube:
        """Project the current satisfying assignment onto the register bits."""
        solver = self._encoder.solver
        literals: List[CubeLit] = []
        for name, width in self._state_widths.items():
            value = solver.value(frame_name(name, 0), width)
            for bit in range(width):
                literals.append((name, bit, bool((value >> bit) & 1)))
        return frozenset(literals)

    def _model_full_state(self) -> Dict[str, int]:
        solver = self._encoder.solver
        state = {}
        for name, width in self._state_widths.items():
            state[name] = solver.value(frame_name(name, 0), width)
        for name, width in self._encoder.flat.inputs.items():
            state[name] = solver.value(frame_name(name, 0), width)
        return state

    def _intersects_init(self, cube: Cube) -> bool:
        """True if the single initial state satisfies the cube."""
        for name, bit, value in cube:
            init_bit = bool((self._init_values[name] >> bit) & 1)
            if init_bit != value:
                return False
        return True

    def _add_blocked_cube(self, cube: Cube, level: int) -> None:
        """Record that ``cube`` is unreachable up to frame ``level``."""
        # subsumption within the delta encoding: drop weaker cubes
        for j in range(1, level + 1):
            self._frames[j] = {c for c in self._frames[j] if not cube <= c}
        self._frames[level].add(cube)
        clause = [-self._acts[level]] + [-lit for lit in self._cube_lits_now(cube)]
        self._encoder.solver.solver.add_clause(clause)

    # ------------------------------------------------------------------
    # blocking and generalization
    # ------------------------------------------------------------------
    def _block(self, cube: Cube, level: int, property_name: str) -> bool:
        """Recursively block ``cube`` at ``level``; False means a real counterexample."""
        obligations: List[Tuple[int, Cube]] = [(level, cube)]
        self._cex_chain: List[Cube] = []
        while obligations:
            obligations.sort(key=lambda item: item[0])
            obligation_level, obligation_cube = obligations[0]
            if obligation_level == 0 or self._intersects_init(obligation_cube):
                # the obligation chain reaches the initial state
                return False
            if self._budget.expired():
                raise _PdrTimeout()

            relative = self._relative_induction_query(obligation_cube, obligation_level - 1)
            if relative is None:
                # cube has no predecessor in F_{level-1}: block a generalization
                obligations.pop(0)
                generalized = self._generalize(obligation_cube, obligation_level - 1)
                push_level = obligation_level
                # push the clause as far forward as it stays inductive
                while push_level < self._frame_count and (
                    self._relative_induction_query(generalized, push_level) is None
                ):
                    push_level += 1
                self._add_blocked_cube(generalized, min(push_level, self._frame_count))
            else:
                predecessor = relative
                obligations.insert(0, (obligation_level - 1, predecessor))
        return True

    def _relative_induction_query(self, cube: Cube, level: int) -> Optional[Cube]:
        """Check ``F_level ∧ ¬cube ∧ T ∧ cube'``.

        Returns None when unsatisfiable (the cube is inductive relative to
        ``F_level``); otherwise returns the predecessor cube extracted from
        the model.
        """
        solver = self._encoder.solver
        # temporary activation literal for the ¬cube disjunction
        temp = solver.new_bool()
        clause = [-temp] + [-lit for lit in self._cube_lits_now(cube)]
        solver.solver.add_clause(clause)
        assumptions = self._frame_assumptions(level) + [temp] + self._cube_lits_next(cube)
        outcome = self._solve(assumptions)
        result: Optional[Cube]
        if outcome == BVResult.SAT:
            result = self._model_cube()
        else:
            result = None
        # retire the temporary activation literal
        solver.solver.add_clause([-temp])
        return result

    def _generalize(self, cube: Cube, level: int) -> Cube:
        """Drop literals from the cube while it stays relatively inductive."""
        current = set(cube)
        for _ in range(self.generalize_passes):
            changed = False
            for literal in list(current):
                if len(current) <= 1:
                    break
                candidate = frozenset(current - {literal})
                if self._intersects_init(candidate):
                    continue
                # bit-parallel screen: if a sampled reachable state satisfies
                # the widened cube, blocking it would over-generalize into the
                # reachable set and be repaired later — skip the induction
                # query and keep the literal (purely a query-saving heuristic;
                # the kept cube is strictly stronger, so soundness is
                # unaffected either way)
                if self._sampler.satisfies_cube(candidate):
                    self._sim_skips += 1
                    continue
                if self._relative_induction_query(candidate, level) is None:
                    current.discard(literal)
                    changed = True
            if not changed:
                break
        return frozenset(current)

    # ------------------------------------------------------------------
    # certificates
    # ------------------------------------------------------------------
    def _invariant_expr(self, fixpoint_at: int, property_name: str):
        """The inductive invariant at the fixpoint: the frame clauses.

        Each blocked cube becomes a clause ``⋁ (register bit ≠ cube value)``
        over the word-level state variables.  The conjunction of the clauses
        at levels >= the fixpoint frame is one-step inductive (the relative
        induction queries that admitted the cubes) and excludes every bad
        state for every input valuation (the blocking loop left no
        ``F ∧ ¬P`` model) — exactly the obligations the independent
        certificate validator re-checks with its own SAT queries.
        """
        clauses = []
        for level in range(fixpoint_at, len(self._frames)):
            for cube in self._frames[level]:
                literals = []
                for name, bit, value in sorted(cube):
                    bit_expr = bv_var(name, self._state_widths[name]).bit(bit)
                    literals.append(bool_not(bit_expr) if value else bit_expr)
                clauses.append(bool_or(*literals))
        return simplify(bool_and(*clauses))

    # ------------------------------------------------------------------
    # propagation and counterexamples
    # ------------------------------------------------------------------
    def _propagate(self) -> Optional[int]:
        """Push clauses forward; return the frame index of a fixpoint, if any."""
        for level in range(1, self._frame_count):
            for cube in sorted(self._frames[level], key=len):
                if self._budget.expired():
                    raise _PdrTimeout()
                if self._relative_induction_query(cube, level) is None:
                    self._frames[level].discard(cube)
                    self._add_blocked_cube(cube, level + 1)
            if not self._frames[level]:
                return level
        return None

    def _extract_counterexample(self, property_name: str) -> Optional[Counterexample]:
        """Recover a concrete trace with a bounded check of matching depth."""
        bmc = BMCEngine(
            self.system,
            max_bound=self._frame_count + 1,
            representation=self.representation,
        )
        result = bmc.verify(property_name, timeout=self._budget.remaining())
        return result.counterexample


class _PdrTimeout(Exception):
    """Internal control-flow exception for budget exhaustion."""
