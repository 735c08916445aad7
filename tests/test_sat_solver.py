"""SAT solver unit tests: propagation, assumptions, proofs, bulk APIs."""

import pytest

from repro.sat.cnf import CNF
from repro.sat.interpolate import Interpolator, itp_evaluate
from repro.sat.solver import Solver, SolverResult, luby


def test_luby_sequence():
    # the seed's recurrence looped forever from luby(2); pin the fixed sequence
    assert [luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
    ]


def test_unit_propagation_chain():
    solver = Solver()
    a, b, c, d = solver.new_vars(4)
    solver.add_clause([a])
    solver.add_clause([-a, b])
    solver.add_clause([-b, c])
    solver.add_clause([-c, d])
    assert solver.solve() == SolverResult.SAT
    assert solver.model_value(a) and solver.model_value(d)
    assert solver.stats.propagations >= 4
    assert solver.stats.decisions == 0  # everything follows at level 0


def test_simple_unsat():
    solver = Solver()
    x, y = solver.new_vars(2)
    solver.add_clause([x, y])
    solver.add_clause([x, -y])
    solver.add_clause([-x, y])
    solver.add_clause([-x, -y])
    assert solver.solve() == SolverResult.UNSAT
    assert not solver.ok or solver.solve() == SolverResult.UNSAT


def test_propagation_counts_each_implied_literal_once():
    """One assumption and the chain it implies through binary clauses and a
    long clause: every literal dequeued counts as one propagation."""
    solver = Solver()
    a, b, c, d, e = solver.new_vars(5)
    solver.add_clause([-a, b])
    solver.add_clause([-b, c])
    solver.add_clause([-b, -c, d])  # b and c force d
    solver.add_clause([-d, e])
    assert solver.solve(assumptions=[a]) == SolverResult.SAT
    assert solver.stats.propagations == 5  # a, then b, c, d and e
    assert solver.stats.decisions == 0
    # the same chain again, ending on an assumption it refutes
    assert solver.solve(assumptions=[a, -e]) == SolverResult.UNSAT
    assert solver.stats.propagations == 10
    assert solver.stats.conflicts == 0


def test_conflicting_assumptions_are_unsat_and_leave_the_solver_ok():
    solver = Solver()
    x, y, z = solver.new_vars(3)
    solver.add_clause([-x, y])
    # x forces y; assuming -y alongside x must fail, z is irrelevant
    assert solver.solve(assumptions=[x, z, -y]) == SolverResult.UNSAT
    # the assumptions conflict with the clauses, which stay satisfiable
    assert solver.ok
    assert solver.solve(assumptions=[x, -y]) == SolverResult.UNSAT
    assert solver.solve(assumptions=[x, z]) == SolverResult.SAT
    # refuting the clause database itself is what clears ok
    solver.add_clause([x])
    solver.add_clause([-y])
    assert solver.solve() == SolverResult.UNSAT
    assert not solver.ok


def test_incremental_reuse_after_unsat_assumptions():
    solver = Solver()
    x, y = solver.new_vars(2)
    solver.add_clause([-x, y])
    assert solver.solve(assumptions=[x, -y]) == SolverResult.UNSAT
    assert solver.solve(assumptions=[x, y]) == SolverResult.SAT
    assert solver.solve() == SolverResult.SAT


def test_proof_logging_and_interpolation():
    solver = Solver(proof=True)
    a, b = solver.new_vars(2)
    a_ids = [solver.add_clause([a]), solver.add_clause([-a, b])]
    b_ids = [solver.add_clause([-b])]
    assert solver.solve() == SolverResult.UNSAT
    assert solver.final_proof is not None
    interpolant = Interpolator(solver, a_ids, b_ids).compute()
    # A implies I and I contradicts B: with b shared, I must force b true
    assert itp_evaluate(interpolant, {b: True}) is True
    assert itp_evaluate(interpolant, {b: False}) is False


def test_tautology_and_duplicate_literals():
    solver = Solver()
    x, y = solver.new_vars(2)
    solver.add_clause([x, -x, y])  # tautology: must not constrain anything
    solver.add_clause([y, y, y])  # deduplicated to a unit
    assert solver.solve() == SolverResult.SAT
    assert solver.model_value(y)
    assert solver.solve(assumptions=[-x]) == SolverResult.SAT


def _pigeonhole_cnf(holes: int) -> CNF:
    """PHP(holes+1, holes): unsatisfiable, forces real conflict analysis."""
    cnf = CNF()
    pigeons = holes + 1
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[p, h] = cnf.new_var()
    for p in range(pigeons):
        cnf.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[p1, h], -var[p2, h]])
    return cnf


def test_pigeonhole_unsat_with_learning():
    solver = Solver()
    solver.add_cnf(_pigeonhole_cnf(4))
    assert solver.solve() == SolverResult.UNSAT
    assert solver.stats.conflicts > 0
    assert solver.stats.learned_clauses > 0


def test_add_clauses_mapped_identity_matches_add_clause():
    """The bulk template path must not change search behaviour at all."""
    cnf = _pigeonhole_cnf(4)

    reference = Solver()
    reference.ensure_vars(cnf.num_vars)
    for clause in cnf.clauses:
        reference.add_clause(clause)
    assert reference.solve() == SolverResult.UNSAT

    bulk = Solver()
    table = [0] + bulk.new_vars(cnf.num_vars)
    start, end = bulk.add_clauses_mapped(cnf.clauses, table)
    assert (start, end) == (0, len(cnf.clauses))
    assert bulk.solve() == SolverResult.UNSAT

    # identical propagation/decision/conflict counts: the fast path is
    # behaviourally invisible (asserted via SolverStats per the perf PR)
    assert bulk.stats.propagations == reference.stats.propagations
    assert bulk.stats.decisions == reference.stats.decisions
    assert bulk.stats.conflicts == reference.stats.conflicts


def test_add_clauses_mapped_remaps_variables():
    solver = Solver()
    shift = solver.new_vars(3)  # occupy 1..3
    table = [0, *solver.new_vars(2)]  # template vars 1, 2 -> solver vars 4, 5
    solver.add_clauses_mapped([(1, 2), (-1, 2), (-2,)], table)
    assert solver.solve() == SolverResult.UNSAT
    # the original block is untouched and free
    assert solver.solve(assumptions=[shift[0]]) == SolverResult.UNSAT


def test_add_fresh_clauses_offset_block():
    solver = Solver()
    base = solver.new_vars(3)[0]  # template uses vars 1..3, block starts here
    delta = base - 1
    solver.add_fresh_clauses([(1, 2), (-1, 3), (-2, 3)], delta)
    assert solver.solve(assumptions=[-(3 + delta)]) == SolverResult.UNSAT
    assert solver.solve(assumptions=[3 + delta]) == SolverResult.SAT


def test_cnf_add_clauses_mapped():
    source = CNF()
    v1, v2 = source.new_var(), source.new_var()
    source.add_clause([v1, -v2])
    target = CNF()
    table = [0, target.new_var(), target.new_var()]
    target.add_clauses_mapped(source.clauses, table)
    assert target.clauses == [(table[v1], -table[v2])]
    assert target.num_vars == 2


def test_deadline_returns_unknown():
    import time

    solver = Solver()
    solver.add_cnf(_pigeonhole_cnf(7))
    outcome = solver.solve(deadline=time.monotonic())  # already expired
    assert outcome in (SolverResult.UNKNOWN, SolverResult.UNSAT)


def test_conflict_limit_returns_unknown():
    solver = Solver()
    solver.add_cnf(_pigeonhole_cnf(7))
    assert solver.solve(conflict_limit=5) == SolverResult.UNKNOWN
