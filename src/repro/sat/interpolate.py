"""Craig interpolation from resolution proofs (McMillan's system).

Given an unsatisfiable CNF partitioned into an *A* part and a *B* part, and
the resolution proof recorded by :class:`repro.sat.solver.Solver` (constructed
with ``proof=True``), the :class:`Interpolator` computes a propositional
formula ``I`` over the shared variables such that

* ``A`` implies ``I``,
* ``I`` and ``B`` are jointly unsatisfiable, and
* every variable of ``I`` occurs both in ``A`` and in ``B``.

The construction follows McMillan (CAV 2003): partial interpolants are
attached to every clause of the proof —

* an original clause of A gets the disjunction of its literals whose variable
  also occurs in B (its *global* literals),
* an original clause of B gets *true*,
* a resolvent on pivot ``v`` combines the partial interpolants with *or* when
  ``v`` is local to A and with *and* otherwise.

The partial interpolant of the empty clause is the interpolant of (A, B).

Interpolant formulas are represented as light-weight :class:`ItpNode` DAGs so
the engines can either evaluate them, rename their variables to another time
frame, or re-encode them into CNF/AIG form.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.records import Frozen
from repro.sat.cnf import var_of
from repro.sat.solver import Solver


class ItpNode(Frozen):
    """A node of an interpolant formula.

    ``kind`` is one of ``"const"``, ``"lit"``, ``"and"``, ``"or"``.
    For ``const`` the payload is ``value``; for ``lit`` it is ``lit`` (a
    DIMACS literal); for the connectives it is ``args``.  Nodes compare and
    hash by identity: no walker keys a memo by node structure.
    """

    def __init__(
        self,
        kind: str,
        value: bool = False,
        lit: int = 0,
        args: Tuple["ItpNode", ...] = (),
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "lit", lit)
        object.__setattr__(self, "args", args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == "const":
            return "T" if self.value else "F"
        if self.kind == "lit":
            return str(self.lit)
        joiner = " & " if self.kind == "and" else " | "
        return "(" + joiner.join(repr(a) for a in self.args) + ")"


_TRUE = ItpNode("const", value=True)
_FALSE = ItpNode("const", value=False)


def itp_lit(lit: int) -> ItpNode:
    """Return an interpolant node for a single literal."""
    return ItpNode("lit", lit=lit)


def itp_or(args: Iterable[ItpNode]) -> ItpNode:
    """Disjunction with constant simplification."""
    flat: List[ItpNode] = []
    for arg in args:
        if arg.kind == "const":
            if arg.value:
                return _TRUE
            continue
        flat.append(arg)
    if not flat:
        return _FALSE
    if len(flat) == 1:
        return flat[0]
    return ItpNode("or", args=tuple(flat))


def itp_and(args: Iterable[ItpNode]) -> ItpNode:
    """Conjunction with constant simplification."""
    flat: List[ItpNode] = []
    for arg in args:
        if arg.kind == "const":
            if not arg.value:
                return _FALSE
            continue
        flat.append(arg)
    if not flat:
        return _TRUE
    if len(flat) == 1:
        return flat[0]
    return ItpNode("and", args=tuple(flat))


def itp_evaluate(node: ItpNode, assignment: Dict[int, bool]) -> bool:
    """Evaluate an interpolant under a variable assignment (missing vars = False)."""
    if node.kind == "const":
        return node.value
    if node.kind == "lit":
        value = assignment.get(var_of(node.lit), False)
        return value if node.lit > 0 else not value
    if node.kind == "and":
        return all(itp_evaluate(a, assignment) for a in node.args)
    return any(itp_evaluate(a, assignment) for a in node.args)


def itp_map_literals(node: ItpNode, mapping: Dict[int, int]) -> ItpNode:
    """Rename variables of an interpolant (``mapping`` maps var -> var)."""
    if node.kind == "const":
        return node
    if node.kind == "lit":
        var = var_of(node.lit)
        new_var = mapping.get(var, var)
        new_lit = new_var if node.lit > 0 else -new_var
        return ItpNode("lit", lit=new_lit)
    args = tuple(itp_map_literals(a, mapping) for a in node.args)
    return ItpNode(node.kind, args=args)


def itp_to_clauses(node: ItpNode, encoder) -> int:
    """Tseitin-encode an interpolant through ``encoder`` and return its output literal."""
    if node.kind == "const":
        return encoder.const_lit(node.value)
    if node.kind == "lit":
        return node.lit
    child_lits = [itp_to_clauses(a, encoder) for a in node.args]
    if node.kind == "and":
        return encoder.and_gate(child_lits)
    return encoder.or_gate(child_lits)


class Interpolator:
    """Extracts a Craig interpolant from a solver refutation.

    Usage::

        solver = Solver(proof=True)
        a_ids = [solver.add_clause(c) for c in a_clauses]
        b_ids = [solver.add_clause(c) for c in b_clauses]
        assert solver.solve() == SolverResult.UNSAT
        itp = Interpolator(solver, a_ids, b_ids).compute()

    Assumption-based (retractable) queries of a persistent solver session are
    supported through ``assumptions``: each entry ``(literal, origin)`` with
    origin ``"A"`` or ``"B"`` declares an assumption of the last solve as a
    virtual unit input clause of the corresponding partition.  When the solve
    returned UNSAT under assumptions (so the solver recorded
    :attr:`repro.sat.solver.Solver.assumption_core_chain` instead of a
    top-level refutation), the interpolator completes the refutation by
    resolving the derived core clause against those virtual units.
    """

    def __init__(
        self,
        solver: Solver,
        a_clause_ids: Sequence[int],
        b_clause_ids: Sequence[int],
        assumptions: Sequence[Tuple[int, str]] = (),
    ) -> None:
        if not solver.proof_logging:
            raise ValueError("interpolation requires a proof-logging solver")
        self._solver = solver
        self._a_ids: FrozenSet[int] = frozenset(a_clause_ids)
        self._b_ids: FrozenSet[int] = frozenset(b_clause_ids)
        self._assumptions: Dict[int, Tuple[int, str]] = {}
        for literal, origin in assumptions:
            if origin not in ("A", "B"):
                raise ValueError(f"assumption origin must be 'A' or 'B', got {origin!r}")
            self._assumptions[var_of(literal)] = (literal, origin)
        self._b_vars: Set[int] = set()
        for cid in b_clause_ids:
            for lit in solver.clause_literals(cid):
                self._b_vars.add(var_of(lit))
        self._a_vars: Set[int] = set()
        for cid in a_clause_ids:
            for lit in solver.clause_literals(cid):
                self._a_vars.add(var_of(lit))
        for literal, origin in assumptions:
            (self._a_vars if origin == "A" else self._b_vars).add(var_of(literal))
        self._partial: Dict[int, ItpNode] = {}

    # -- labelling -------------------------------------------------------
    def _is_global(self, var: int) -> bool:
        return var in self._b_vars

    def _clause_origin(self, cid: int) -> str:
        """Classify an original clause as belonging to the A or B partition.

        Clauses that were added by neither partition (e.g. auxiliary clauses
        added after the partitions were registered) default to B, which keeps
        the interpolant sound with respect to A.
        """
        if cid in self._a_ids:
            return "A"
        return "B"

    # -- main computation --------------------------------------------------
    def compute(self) -> ItpNode:
        """Return the interpolant for the recorded refutation."""
        final = self._solver.final_proof
        if final is not None:
            self._compute_partials(final[0])
            antecedents, pivots = final
            return self._resolve_chain(antecedents, pivots)
        core_chain = self._solver.assumption_core_chain
        if core_chain is not None and self._assumptions:
            self._compute_partials(core_chain[0])
            antecedents, pivots = core_chain
            current = self._resolve_chain(antecedents, pivots)
            # the derived clause holds negations of the failed assumptions:
            # resolving it against the virtual assumption unit clauses
            # completes the refutation of (A + A-units, B + B-units)
            for literal in self._solver.assumption_core:
                var = var_of(literal)
                entry = self._assumptions.get(var)
                if entry is None:
                    raise RuntimeError(
                        "assumption core mentions an undeclared assumption "
                        f"variable {var}"
                    )
                unit_lit, origin = entry
                if origin == "A":
                    unit_partial = (
                        itp_lit(unit_lit) if self._is_global(var) else _FALSE
                    )
                else:
                    unit_partial = _TRUE
                if self._is_global(var):
                    current = itp_and([current, unit_partial])
                else:
                    current = itp_or([current, unit_partial])
            return current
        raise RuntimeError("solver holds no refutation proof")

    def _compute_partials(self, roots: Sequence[int]) -> None:
        """Compute partial interpolants for every clause the proof reaches.

        Only the proof cone of ``roots`` is processed (a persistent session's
        clause database is far larger than any single refutation).  Every
        learned clause only references clauses with smaller ids, so a pass in
        ascending id order never recurses through the proof DAG.
        """
        needed: Set[int] = set()
        stack = list(roots)
        proofs = self._solver.clause_proof
        while stack:
            cid = stack.pop()
            if cid in needed:
                continue
            needed.add(cid)
            proof = proofs[cid]
            if proof is not None:
                stack.extend(proof[0])
        for cid in sorted(needed):
            proof = proofs[cid]
            if proof is None:
                self._partial[cid] = self._leaf_interpolant(cid)
            else:
                antecedents, pivots = proof
                self._partial[cid] = self._resolve_chain(antecedents, pivots)

    def _partial_interpolant(self, cid: int) -> ItpNode:
        cached = self._partial.get(cid)
        if cached is not None:
            return cached
        proof = self._solver.clause_proof[cid]
        if proof is None:
            result = self._leaf_interpolant(cid)
        else:
            antecedents, pivots = proof
            result = self._resolve_chain(antecedents, pivots)
        self._partial[cid] = result
        return result

    def _leaf_interpolant(self, cid: int) -> ItpNode:
        if self._clause_origin(cid) == "A":
            literals = self._solver.clause_literals(cid)
            shared = [itp_lit(lit) for lit in literals if self._is_global(var_of(lit))]
            return itp_or(shared)
        return _TRUE

    def _resolve_chain(
        self, antecedents: Tuple[int, ...], pivots: Tuple[int, ...]
    ) -> ItpNode:
        current = self._partial_interpolant(antecedents[0])
        for next_cid, pivot in zip(antecedents[1:], pivots):
            other = self._partial_interpolant(next_cid)
            if self._is_global(pivot):
                current = itp_and([current, other])
            else:
                current = itp_or([current, other])
        return current
