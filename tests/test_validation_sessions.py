"""The validator's warm per-design sessions.

A validation session keeps one SAT solver per design whose clause database
only ever holds gate definitions, and decides every obligation under
assumptions.  Its contract is tested here: a warm session decides exactly
what a cold one does, whatever it validated before (forgeries included);
re-validating the same certificate adds nothing to it; sessions survive
threads and forks; a mutated design gets a new session and a collected
one takes its session with it; and the two guards
(inconsistent session, bloated session) drop a session instead of trusting
it.
"""

import dataclasses
import gc
import os
import random
import select
import signal
import sys
import threading
import weakref

import pytest

from repro.benchmarks import BENCHMARKS, load_system
from repro.certs import (
    InductiveCertificate,
    KInductiveCertificate,
    dumps,
    loads,
    validate_certificate,
)
from repro.certs import validate as validate_module
from repro.engines import Status, make_engine
from repro.exprs import TRUE, bool_and, bv_const, bv_eq, bv_ule, bv_ult, bv_var

_session_for = validate_module._session_for


def _outcomes(validation):
    return [(o.name, o.outcome) for o in validation.obligations]


def _size(session):
    return session.solver.solver.num_vars, session.solver.solver.num_clauses


# ---------------------------------------------------------------------------
# the suite's certificates
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def suite_certificates():
    """One certificate per suite property, from the fastest engine deciding it."""
    certificates = []
    for name, benchmark in BENCHMARKS.items():
        system = load_system(name)
        engines = (
            [("bmc", {"max_bound": 80})]
            if benchmark.expected == Status.UNSAFE
            else [("absint", {}), ("k-induction", {}), ("pdr", {})]
        )
        for prop in system.properties:
            for engine, options in engines:
                result = make_engine(engine, system, **options).verify(prop.name, timeout=60)
                if result.status in Status.DEFINITIVE:
                    certificates.append((name, result.certificate))
                    break
            else:
                pytest.fail(f"no engine decided {name}:{prop.name}")
    assert len(certificates) == 14
    return certificates


def test_warm_and_cold_sessions_agree_on_every_suite_certificate(suite_certificates):
    warm = {name: load_system(name) for name in BENCHMARKS}
    order = list(suite_certificates)
    sessions = {}
    for round_index in range(3):
        random.Random(round_index).shuffle(order)
        for name, certificate in order:
            validation = validate_certificate(warm[name], certificate)
            assert validation.ok, (name, validation.reason)
            session = _session_for(warm[name])
            # normal traffic never trips the growth guard
            assert sessions.setdefault(name, session) is session
    for name, certificate in suite_certificates:
        warm_outcome = _outcomes(validate_certificate(warm[name], certificate))
        cold_outcome = _outcomes(validate_certificate(load_system(name), certificate))
        assert warm_outcome == cold_outcome, (name, certificate.property_name)


# ---------------------------------------------------------------------------
# forgeries on one design object
# ---------------------------------------------------------------------------


def _mac16_with_lag():
    """mac16 plus a register trailing ``cnt`` and one unsafe property.

    ``lag_le_9`` is 2-inductive but not 1-inductive; ``cnt_below_5`` fails
    at cycle 5.
    """
    system = load_system("mac16")
    cnt = system.var("cnt")
    lag = system.add_state_var("lag", 4, init=0, next_expr=cnt)
    system.add_property("lag_le_9", bv_ule(lag, bv_const(9, 4)))
    system.add_property("cnt_below_5", bv_ult(cnt, bv_const(5, 4)))
    system.validate()
    return system


def _good_and_forged():
    cnt = bv_ule(bv_var("cnt", 4), bv_const(9, 4))
    lag = bv_ule(bv_var("lag", 4), bv_const(9, 4))
    acc = bv_var("acc", 16)
    invariant = InductiveCertificate("lag_le_9", "test", bool_and(cnt, lag))
    good = [
        invariant,
        KInductiveCertificate("lag_le_9", "test", k=2),
        KInductiveCertificate("cnt_le_9", "test", k=1, simple_path=True),
    ]
    forged = {
        "true-invariant": (
            InductiveCertificate("lag_le_9", "forger", TRUE),
            {"property"},
        ),
        "non-inductive-conjunct": (
            InductiveCertificate(
                "lag_le_9", "forger", bool_and(cnt, lag, bv_eq(acc, bv_const(0, 16)))
            ),
            {"consecution"},
        ),
        "k-too-small": (
            KInductiveCertificate("lag_le_9", "forger", k=1),
            {"step"},
        ),
        "wrong-property": (
            dataclasses.replace(invariant, property_name="cnt_below_5", engine="forger"),
            {"property"},
        ),
    }
    return good, forged


@pytest.mark.parametrize("forged_first", [True, False], ids=["forged-first", "good-first"])
def test_forgeries_fail_and_good_certificates_hold_in_either_order(forged_first):
    good, forged = _good_and_forged()
    sequence = [("forged", label, cert, failing) for label, (cert, failing) in forged.items()]
    sequence += [("good", str(i), cert, set()) for i, cert in enumerate(good)]
    if not forged_first:
        sequence.reverse()
    system = _mac16_with_lag()
    for _ in range(2):
        for tag, label, certificate, failing in sequence:
            validation = validate_certificate(system, certificate)
            assert validation.ok == (tag == "good"), (label, validation.reason)
            assert {o.name for o in validation.failed_obligations()} == failing, label
            cold = validate_certificate(_mac16_with_lag(), certificate)
            assert _outcomes(validation) == _outcomes(cold), label


def test_revalidating_the_same_certificate_adds_no_clauses_or_variables():
    system = load_system("mac16")
    result = make_engine("k-induction", system).verify("cnt_in_range", timeout=60)
    stored = dumps(result.certificate)
    assert validate_certificate(system, loads(stored)).ok
    session = _session_for(system)
    size = _size(session)
    for _ in range(50):
        # a fresh copy each time, as every cache hit loads one from disk
        assert validate_certificate(system, loads(stored)).ok
    assert _session_for(system) is session
    assert _size(session) == size


def test_threads_validating_one_design_get_the_right_outcomes():
    good, forged = _good_and_forged()
    certificates = good + [cert for cert, _ in forged.values()]
    expected = [
        _outcomes(validate_certificate(_mac16_with_lag(), cert)) for cert in certificates
    ]
    system = _mac16_with_lag()
    seeds = range(4)  # more threads than the CI runners have cores
    barrier = threading.Barrier(len(seeds))
    mismatches = []

    def worker(seed):
        order = list(range(len(certificates)))
        barrier.wait()
        for round_index in range(8):
            random.Random(seed * 100 + round_index).shuffle(order)
            for index in order:
                got = _outcomes(validate_certificate(system, certificates[index]))
                if got != expected[index]:
                    mismatches.append((index, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside the solver, not between calls
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with a live thread
def test_forked_child_validates_while_a_parent_thread_holds_the_session_lock():
    system = load_system("mac16")
    certificate = KInductiveCertificate("cnt_le_9", "test", k=1)
    assert validate_certificate(system, certificate).ok
    session = _session_for(system)
    held, release = threading.Event(), threading.Event()

    def hold():
        with session.lock, validate_module._SESSIONS_LOCK:
            held.set()
            release.wait(60)

    holder = threading.Thread(target=hold)
    holder.start()
    assert held.wait(10)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        try:
            ok = validate_certificate(system, certificate).ok
            os.write(write_fd, b"ok" if ok else b"failed")
        finally:
            os._exit(0)
    os.close(write_fd)
    ready = []
    try:
        ready, _, _ = select.select([read_fd], [], [], 60)
        reply = os.read(read_fd, 16) if ready else b"deadlocked"
    finally:
        release.set()
        holder.join()
        if not ready:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.close(read_fd)
    assert reply == b"ok"
    # the parent's session is untouched and still serves
    assert _session_for(system) is session
    assert validate_certificate(system, certificate).ok


def test_mutating_the_design_gives_it_a_new_session():
    system = _mac16_with_lag()
    certificate = _good_and_forged()[0][0]
    assert validate_certificate(system, certificate).ok
    session = _session_for(system)
    # lag now trails cnt + 7, which leaves the invariant's range
    system.set_next("lag", system.var("cnt") + bv_const(7, 4))
    validation = validate_certificate(system, certificate)
    assert _session_for(system) is not session
    assert {o.name for o in validation.failed_obligations()} == {"consecution"}


def test_a_session_dies_with_its_design():
    system = load_system("rcu")
    certificate = KInductiveCertificate(system.properties[0].name, "test", k=1)
    assert validate_certificate(system, certificate).ok
    session = weakref.ref(_session_for(system))
    del system
    gc.collect()
    assert session() is None


# ---------------------------------------------------------------------------
# session guards
# ---------------------------------------------------------------------------


def test_an_inconsistent_session_decides_nothing_and_is_dropped():
    good, forged = _good_and_forged()
    forgery, failing = forged["true-invariant"]
    system = _mac16_with_lag()
    assert validate_certificate(system, good[0]).ok
    session = _session_for(system)
    # refute the clause database itself: every check is now UNSAT with an
    # empty assumption core, which must never read as a discharged obligation
    poison = session.solver.new_bool()
    session.solver.solver.add_clause([poison])
    session.solver.solver.add_clause([-poison])

    validation = validate_certificate(system, forgery)
    assert not validation.ok
    sat_obligations = [o for o in validation.obligations if o.name != "well-formed"]
    assert sat_obligations and all(o.outcome == "undecided" for o in sat_obligations)
    assert _session_for(system) is not session

    # the rebuilt session decides correctly again
    assert {o.name for o in validate_certificate(system, forgery).failed_obligations()} == failing
    assert validate_certificate(system, good[0]).ok


def test_a_bloated_session_is_dropped_and_rebuilt():
    system = load_system("rcu")
    prop = system.properties[0].name
    certificate = KInductiveCertificate(prop, "test", k=1)
    assert validate_certificate(system, certificate).ok
    session = _session_for(system)
    # a forged entry with a huge k blows the session far past its first size
    validate_certificate(system, KInductiveCertificate(prop, "forger", k=48))
    assert _session_for(system) is not session
    assert validate_certificate(system, certificate).ok
