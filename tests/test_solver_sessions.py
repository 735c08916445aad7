"""Persistent-session solver features: retraction, minimization, binary watches.

Covers the PR-4 solver work: activation-literal retirement (retired groups no
longer constrain, their guarded learned clauses are garbage-collected,
UNSAT under assumptions stays correct afterwards), self-subsuming conflict
minimization (every learned clause — minimized or not — is still implied by
the original clauses, and the recorded resolution chains derive exactly the
learned clauses), the binary-clause watch fast path (cross-checked against
brute force on random CNFs), the indexed VSIDS heap invariants, and
interpolation from UNSAT-under-assumption queries.
"""

import itertools
import random

from repro.sat.cnf import CNF, var_of
from repro.sat.interpolate import Interpolator, itp_evaluate
from repro.sat.solver import Solver, SolverResult


def _pigeonhole_clauses(holes):
    """PHP(holes+1, holes) clause list over variables 1..holes*(holes+1)."""
    pigeons = holes + 1
    var = {}
    count = 0
    for p in range(pigeons):
        for h in range(holes):
            count += 1
            var[p, h] = count
    clauses = [[var[p, h] for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var[p1, h], -var[p2, h]])
    return count, clauses


# ---------------------------------------------------------------------------
# activation-literal retraction
# ---------------------------------------------------------------------------


def test_retired_group_no_longer_constrains():
    solver = Solver()
    x, y = solver.new_vars(2)
    act = solver.new_var()
    solver.add_clause([-act, x])
    solver.add_clause([-act, -x])  # contradiction while act is assumed
    assert solver.solve(assumptions=[act]) == SolverResult.UNSAT
    solver.retire_activation(act)
    assert solver.stats.retired_activations == 1
    assert solver.solve() == SolverResult.SAT
    # both polarities of x are free again
    assert solver.solve(assumptions=[x]) == SolverResult.SAT
    assert solver.solve(assumptions=[-x]) == SolverResult.SAT


def test_retired_guarded_learned_clauses_are_collected():
    solver = Solver()
    num_vars, clauses = _pigeonhole_clauses(4)
    solver.new_vars(num_vars)
    act = solver.new_var()
    for clause in clauses:
        solver.add_clause(clause + [-act])
    assert solver.solve(assumptions=[act]) == SolverResult.UNSAT
    assert solver.stats.learned_clauses > 0
    solver.retire_activation(act)
    # the learned clauses recorded a -act dependency and were swept
    assert solver.stats.retired_clauses > 0
    assert solver.solve() == SolverResult.SAT
    # the swept clauses are really gone from the database (emptied in place)
    emptied = sum(
        1
        for cid in range(solver.num_clauses)
        if solver.is_learned(cid) and not solver.clause_literals(cid)
    )
    assert emptied == solver.stats.retired_clauses


def test_assumption_unsat_stays_correct_after_retraction():
    solver = Solver()
    x, y = solver.new_vars(2)
    act1 = solver.new_var()
    solver.add_clause([-act1, -x])  # act1 -> ¬x
    assert solver.solve(assumptions=[act1, x]) == SolverResult.UNSAT
    assert solver.ok
    solver.retire_activation(act1)
    assert solver.solve(assumptions=[x]) == SolverResult.SAT
    # a new group over the same variable conflicts with x again
    act2 = solver.new_var()
    solver.add_clause([-act2, -x])
    assert solver.solve(assumptions=[act2, x, y]) == SolverResult.UNSAT
    assert solver.ok
    assert solver.solve(assumptions=[act2, x]) == SolverResult.UNSAT
    # without the new activation nothing conflicts: the retired group is gone
    assert solver.solve(assumptions=[x, y]) == SolverResult.SAT
    assert solver.solve() == SolverResult.SAT


def test_retire_then_extend_session():
    """A retired frame can be replaced by a new group over the same bits."""
    solver = Solver()
    x = solver.new_var()
    act1 = solver.new_var()
    solver.add_clause([-act1, x])
    assert solver.solve(assumptions=[act1, -x]) == SolverResult.UNSAT
    solver.retire_activation(act1)
    act2 = solver.new_var()
    solver.add_clause([-act2, -x])  # opposite constraint, new guard
    assert solver.solve(assumptions=[act2, x]) == SolverResult.UNSAT
    assert solver.solve(assumptions=[act2]) == SolverResult.SAT
    assert solver.model_value(x) is False


# ---------------------------------------------------------------------------
# conflict-clause minimization
# ---------------------------------------------------------------------------


def test_minimization_fires_on_pigeonhole():
    solver = Solver()
    num_vars, clauses = _pigeonhole_clauses(4)
    solver.new_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    assert solver.solve() == SolverResult.UNSAT
    assert solver.stats.minimized_literals > 0


def test_minimized_learned_clauses_still_implied():
    """Soundness: every learned clause follows from the original clauses."""
    rng = random.Random(7)
    num_vars, clauses = _pigeonhole_clauses(4)
    solver = Solver()
    solver.new_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    assert solver.solve() == SolverResult.UNSAT
    learned = [
        solver.clause_literals(cid)
        for cid in range(solver.num_clauses)
        if solver.is_learned(cid) and solver.clause_literals(cid)
    ]
    assert learned
    for clause in rng.sample(learned, min(12, len(learned))):
        checker = Solver()
        checker.new_vars(num_vars)
        for original in clauses:
            checker.add_clause(original)
        for lit in clause:
            checker.add_clause([-lit])
        assert checker.solve() == SolverResult.UNSAT


def test_proof_chains_derive_exactly_the_learned_clauses():
    """Replaying each recorded resolution chain reproduces the clause.

    This pins the proof-correctness of minimization: every removed literal
    appends one more resolution step, so the chain must still derive exactly
    the stored clause.
    """
    solver = Solver(proof=True)
    num_vars, clauses = _pigeonhole_clauses(4)
    solver.new_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    assert solver.solve() == SolverResult.UNSAT
    assert solver.stats.minimized_literals > 0  # the chains include removals
    checked = 0
    for cid in range(solver.num_clauses):
        chain = solver.clause_proof[cid]
        if chain is None or not solver.is_learned(cid):
            continue
        antecedents, pivots = chain
        current = set(solver.clause_literals(antecedents[0]))
        for next_cid, pivot in zip(antecedents[1:], pivots):
            other = set(solver.clause_literals(next_cid))
            assert pivot in {var_of(l) for l in current & {-l for l in other}} or (
                any(var_of(l) == pivot for l in current)
            )
            current = {l for l in current if var_of(l) != pivot} | {
                l for l in other if var_of(l) != pivot
            }
        assert current == set(solver.clause_literals(cid))
        checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# binary watch fast path (cross-checked against brute force)
# ---------------------------------------------------------------------------


def _brute_force_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {v: bits[v - 1] for v in range(1, num_vars + 1)}
        if all(
            any(assignment[abs(l)] == (l > 0) for l in clause) for clause in clauses
        ):
            return True
    return False


def test_random_binary_heavy_cnfs_match_brute_force():
    rng = random.Random(2024)
    for _ in range(60):
        num_vars = rng.randint(3, 8)
        num_clauses = rng.randint(3, 24)
        clauses = []
        for _ in range(num_clauses):
            width = rng.choice([1, 2, 2, 2, 3])  # binary-heavy
            literals = []
            for _ in range(width):
                var = rng.randint(1, num_vars)
                literals.append(var if rng.random() < 0.5 else -var)
            clauses.append(literals)
        solver = Solver()
        solver.new_vars(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        expected = _brute_force_sat(num_vars, clauses)
        assert (solver.solve() == SolverResult.SAT) is expected


def test_incremental_binary_additions_between_solves():
    solver = Solver()
    a, b, c = solver.new_vars(3)
    solver.add_clause([a, b])
    assert solver.solve() == SolverResult.SAT
    solver.add_clause([-a, c])
    solver.add_clause([-b, c])
    assert solver.solve(assumptions=[-c]) == SolverResult.UNSAT
    assert solver.solve(assumptions=[c]) == SolverResult.SAT


# ---------------------------------------------------------------------------
# indexed VSIDS heap
# ---------------------------------------------------------------------------


def test_order_heap_invariants_after_search():
    solver = Solver()
    num_vars, clauses = _pigeonhole_clauses(4)
    solver.new_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    solver.solve()
    heap = solver._heap
    positions = solver._heap_pos
    # position index and heap agree
    for index, var in enumerate(heap):
        assert positions[var] == index
    in_heap = set(heap)
    for var in range(1, solver.num_vars + 1):
        if positions[var] >= 0:
            assert var in in_heap
    # max-heap property over activities
    for index in range(1, len(heap)):
        parent = (index - 1) >> 1
        assert solver._activity[heap[parent]] >= solver._activity[heap[index]]


def test_heap_contains_no_duplicates():
    solver = Solver()
    num_vars, clauses = _pigeonhole_clauses(3)
    solver.new_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    solver.solve()
    assert len(solver._heap) == len(set(solver._heap))
    # bounded by the variable count: no stale-entry flooding
    assert len(solver._heap) <= solver.num_vars


# ---------------------------------------------------------------------------
# interpolation from assumption-based (retractable) queries
# ---------------------------------------------------------------------------


def test_interpolant_from_assumption_core():
    solver = Solver(proof=True)
    x, y = solver.new_vars(2)
    act_a = solver.new_var()
    act_b = solver.new_var()
    a_ids = [solver.add_clause([-act_a, x]), solver.add_clause([-act_a, -x, y])]
    b_ids = [solver.add_clause([-act_b, -y])]
    assert solver.solve(assumptions=[act_a, act_b]) == SolverResult.UNSAT
    assert solver.final_proof is None
    assert solver.assumption_core_chain is not None
    interpolant = Interpolator(
        solver, a_ids, b_ids, assumptions=[(act_a, "A"), (act_b, "B")]
    ).compute()
    # A implies I, I refutes B: with y the only shared variable, I forces y
    assert itp_evaluate(interpolant, {y: True}) is True
    assert itp_evaluate(interpolant, {y: False}) is False


def test_interpolant_after_frontier_retraction():
    """The same session yields valid interpolants across retractions."""
    solver = Solver(proof=True)
    x, y = solver.new_vars(2)
    b_act = solver.new_var()
    b_ids = [solver.add_clause([-b_act, -y])]
    results = []
    a_ids = []
    previous_act = None
    for frontier in ([x], [-x, y], [y]):
        if previous_act is not None:
            a_ids.append(solver.retire_activation(previous_act))
        act = solver.new_var()
        a_ids.append(solver.add_clause([-act] + [l for l in frontier]))
        a_ids.append(solver.add_clause([-act, y]))  # frontier implies y
        assert solver.solve(assumptions=[act, b_act]) == SolverResult.UNSAT
        interpolant = Interpolator(
            solver, a_ids, b_ids, assumptions=[(act, "A"), (b_act, "B")]
        ).compute()
        assert itp_evaluate(interpolant, {y: True}) is True
        assert itp_evaluate(interpolant, {y: False}) is False
        results.append(interpolant)
        previous_act = act
    assert len(results) == 3
