"""Cone-of-influence slicing, on both sides of the trust boundary.

The ladder, the portfolio and ``repro-verify --engine`` run every engine
on the property's cone of influence
(:func:`repro.engines.encoding.cone_of_influence`); the certificate
validator derives its own cone per obligation and never reads the engines'
slice.  These tests pin the contract of each half and the soundness of the
simple-path condition over a closed cone.
"""

import gc
import json
import os
import re
import subprocess
import sys
import threading
import time
import weakref

import pytest

from repro.aig import aig_from_transition_system, write_aiger
from repro.benchmarks import BENCHMARKS, get_benchmark, load_system
from repro.certs import KInductiveCertificate, dumps, validate_certificate, validate_result
from repro.engines import Status
from repro.engines import encoding
from repro.engines.absint import AbstractInterpretationEngine
from repro.engines.encoding import cone_of_influence, flattened_cached, template_library
from repro.engines.ladder import (
    LadderRung,
    PortfolioConfig,
    VerificationTask,
    default_budget_ladder,
    run_sequential_ladder,
    warm_task_templates,
)
from repro.engines.portfolio import PortfolioRunner
from repro.exprs import bool_implies, bool_not, bv_const, bv_eq, bv_ite, bv_ne
from repro.netlist import TransitionSystem
from repro.netlist.bitsim import PackedSimulator
from repro.netlist.step import StepCompiler
from repro.obs import telemetry

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _c(value: int, width: int = 2):
    return bv_const(value, width)


def _simple_path_design() -> TransitionSystem:
    """``x`` runs 0 -> 1 -> 0 from reset; the unreachable 2 loops until
    ``go`` moves it to 3, which ``p`` forbids.  ``y`` counts freely and
    lies outside the property's cone."""
    ts = TransitionSystem("simple_path_cone")
    go = ts.add_input("go", 1)
    x = ts.add_state_var("x", 2, init=0)
    y = ts.add_state_var("y", 8, init=0)
    ts.set_next(
        "x",
        bv_ite(
            bv_eq(x, _c(0)),
            _c(1),
            bv_ite(
                bv_eq(x, _c(1)),
                _c(0),
                bv_ite(bv_eq(x, _c(2)), bv_ite(go, _c(3), _c(2)), _c(3)),
            ),
        ),
    )
    ts.set_next("y", y + bv_const(1, 8))
    ts.add_property("p", bv_ne(x, _c(3)))
    return ts


def _late_flag_design() -> TransitionSystem:
    """``e`` counts from 0 and ``d`` latches ``e == 7``: ``p`` fails at cycle 8."""
    ts = TransitionSystem("late_flag")
    e = ts.add_state_var("e", 4, init=0)
    d = ts.add_state_var("d", 1, init=0)
    ts.set_next("e", e + bv_const(1, 4))
    ts.set_next("d", bv_eq(e, bv_const(7, 4)))
    ts.add_property("p", bv_eq(d, bv_const(0, 1)))
    return ts


# ---------------------------------------------------------------------------
# the engines' slice
# ---------------------------------------------------------------------------


#: what each property's cone drops; the other seven designs are their own cone
_DROPPED = {
    "huffman_enc": {"sr"},
    "daio": {"acc", "sample"},
    "mac16": {"acc", "x", "y"},
    "proc3": {"pc", "acc", "imm"},
    "iqueue": {"head", "tail"},
}


@pytest.mark.parametrize("design, dropped", sorted(_DROPPED.items()))
def test_cone_drops_what_the_property_never_reads(design, dropped):
    system = load_system(design)
    flat = flattened_cached(system)
    for prop in system.properties:
        cone = cone_of_influence(system, prop.name)
        kept = set(cone.state_vars) | set(cone.inputs)
        assert kept == (set(flat.state_vars) | set(flat.inputs)) - dropped
        assert [p.name for p in cone.properties] == [prop.name]
        assert cone.constraints == flat.constraints
        # memoized, and its own flattening
        assert cone_of_influence(system, prop.name) is cone
        assert flattened_cached(cone) is cone


def test_cone_is_the_flattened_design_when_nothing_can_be_dropped():
    for name in BENCHMARKS:
        if name in _DROPPED:
            continue
        system = load_system(name)
        for prop in system.properties:
            assert cone_of_influence(system, prop.name) is flattened_cached(system)


def test_flattening_keeps_the_subexpressions_roots_share():
    """buffalloc's next-state functions of ``free`` and ``used`` share their
    difference; the flattened design and its cone keep that one node, so
    the cone's packed step computes it once (19 temporaries; a flatten that
    copied it per root compiled 26, more than the 21 of the design)."""
    system = load_system("buffalloc")
    assert system.next["free"].args[1] is system.next["used"].args[1]
    flat = system.flattened()
    assert flat.next["free"].args[1] is flat.next["used"].args[1]
    step = PackedSimulator(cone_of_influence(system, "conservation"))._step_fn._source
    assert len(re.findall(r"^ +t\d+ = ", step, re.M)) == 19


def test_cone_keeps_every_constraint_and_its_support():
    """``z`` and ``b`` reach the property only through the constraint."""
    ts = TransitionSystem("constrained")
    a = ts.add_input("a", 1)
    b = ts.add_input("b", 1)
    c = ts.add_state_var("c", 2, init=0)
    z = ts.add_state_var("z", 1, init=0)
    w = ts.add_state_var("w", 4, init=0)
    ts.set_next("c", bv_ite(a, c + _c(1), c))
    ts.set_next("z", b)
    ts.set_next("w", w + bv_const(1, 4))
    ts.add_constraint(bool_implies(z, bool_not(a)))
    ts.add_property("p", bv_ne(c, _c(3)))
    cone = cone_of_influence(ts, "p")
    assert (list(cone.state_vars), list(cone.inputs)) == (["c", "z"], ["a", "b"])
    assert cone.constraints == flattened_cached(ts).constraints


def test_a_mutated_design_gets_a_new_cone():
    system = load_system("mac16")
    cone = cone_of_influence(system, "cnt_in_range")
    system.set_next("cnt", system.var("cnt"))
    assert cone_of_influence(system, "cnt_in_range") is not cone


def test_cones_and_their_templates_die_with_their_design():
    system = load_system("mac16")
    cone = cone_of_influence(system, "cnt_in_range")
    template_library(cone, "word").property_template("cnt_in_range")
    template_library(cone, "bit").property_template("cnt_in_range")
    cone_ref = weakref.ref(cone)
    del system, cone
    gc.collect()
    assert cone_ref() is None


def test_threads_share_one_flattening_its_interval_step_and_one_cone(monkeypatch):
    """Threads that first ask for one design at once flatten it once, so
    the memos keyed by the flattening (its compiled interval step) are
    built once too, and they get one cone of its property."""
    flattenings, compiles = [], []
    flatten, compile_step = TransitionSystem.flattened, StepCompiler.compile

    def slow_flatten(self):
        flattenings.append(self.name)
        time.sleep(0.01)  # every thread is inside before the first returns
        return flatten(self)

    def counting_compile(self):
        compiles.append(type(self).__name__)
        return compile_step(self)

    monkeypatch.setattr(TransitionSystem, "flattened", slow_flatten)
    monkeypatch.setattr(StepCompiler, "compile", counting_compile)
    system = load_system("daio")  # a fresh design: no memo holds it yet
    prop = system.properties[0].name
    results = []
    ready = threading.Barrier(8)

    def run():
        ready.wait(timeout=60)
        engine = AbstractInterpretationEngine(system)
        engine.compute_invariants()
        results.append((engine.flat, cone_of_influence(system, prop)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 8
    assert flattenings == ["daio"]
    assert compiles == ["IntervalStep"]
    assert len({id(flat) for flat, _ in results}) == 1
    assert len({id(cone) for _, cone in results}) == 1
    assert results[0][1] is not results[0][0]  # a strict slice of daio


def test_threads_share_one_template_library(monkeypatch):
    """Threads that first ask for one cone's templates at once blast it
    once and get one library."""
    blasts = []
    build = encoding._build_word_trans_template

    def slow_build(flat):
        blasts.append(flat.name)
        time.sleep(0.01)  # every thread is inside before the first returns
        return build(flat)

    monkeypatch.setattr(encoding, "_build_word_trans_template", slow_build)
    system = load_system("tlc")  # a fresh design: no memo holds it yet
    prop = system.properties[0].name
    libraries = []
    ready = threading.Barrier(8)

    def run():
        ready.wait(timeout=60)
        libraries.append(template_library(cone_of_influence(system, prop), "word"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(libraries) == 8
    assert blasts == ["tlc"]
    assert len({id(library) for library in libraries}) == 1


def _warm_for_the_ladder(task):
    warm_task_templates(task, [PortfolioConfig.of("k-induction")])
    return ("word",)


def _warm_for_a_portfolio(task):
    runner = PortfolioRunner(
        configs=[
            PortfolioConfig.of("bmc", representation="word", max_bound=8),
            PortfolioConfig.of("k-induction", representation="bit", max_k=8),
        ],
        timeout=30,
    )
    warm_task_templates(task, runner.configs)
    return ("word", "bit")


def test_warm_task_templates_blasts_each_cone_before_a_fork():
    # a fresh mac16 per input: its two properties read only the 4-bit
    # counter, so each cone is a strict slice, and no earlier test warmed it
    for warm in (_warm_for_the_ladder, _warm_for_a_portfolio):
        system = load_system("mac16")
        representations = warm(VerificationTask.system(system))
        with telemetry.recording() as recorder:
            for prop in system.properties:
                cone = cone_of_influence(system, prop.name)
                assert len(cone.state_vars) < len(system.state_vars)
                for representation in representations:
                    library = template_library(cone, representation)
                    assert prop.name in library._property_templates
        expected = len(system.properties) * len(representations)
        assert recorder.counters.get("encoding.template_library.hit") == expected
        assert "encoding.template_library.miss" not in recorder.counters


# ---------------------------------------------------------------------------
# the validator's own cone, and simple paths over it
# ---------------------------------------------------------------------------


def test_simple_path_proof_on_the_cone_validates_against_the_full_design():
    """Over (x, y) every window is simple, so k-induction never closes; over
    the cone {x} it proves ``p`` at k = 2, and the validator, slicing on its
    own, accepts that certificate for the whole design."""
    system = _simple_path_design()
    rung = LadderRung((PortfolioConfig.of("k-induction", max_k=8),))
    result = run_sequential_ladder(system, None, [rung], timeout=60, certify=True)
    assert result.status == Status.SAFE, result.detail
    certificate = result.certificate
    assert (certificate.k, certificate.simple_path) == (2, True)
    assert validate_result(system, result).ok


def test_forged_simple_path_claim_fails_its_step():
    """Over ``d`` alone no three states are distinct, so the forgery would
    pass; ``d`` reads ``e``, and over the closed cone {d, e} it fails."""
    system = _late_flag_design()
    forged = KInductiveCertificate("p", "forged", 2, simple_path=True)
    validation = validate_certificate(system, forged)
    assert not validation.ok
    assert {o.name: o.outcome for o in validation.obligations} == {
        "well-formed": "holds",
        "base": "holds",
        "step": "failed",
    }


def test_suite_verdicts_are_unchanged_and_certificates_validate_on_the_full_design():
    rungs = default_budget_ladder(timeout=60)
    for name, benchmark in BENCHMARKS.items():
        system = load_system(name)
        for prop in system.properties:
            result = run_sequential_ladder(
                system, prop.name, rungs, timeout=60, certify=True
            )
            assert result.status == benchmark.expected, (name, prop.name)
            assert validate_result(system, result).ok, (name, prop.name)
            if benchmark.bug_cycle is not None:
                assert result.certificate.violation_cycle == benchmark.bug_cycle
            if name in ("mac16", "proc3"):
                assert "acc" not in dumps(result.certificate)


def test_sliced_witness_valuates_every_input_of_the_design():
    system = load_system("daio")
    rungs = default_budget_ladder(timeout=60)
    result = run_sequential_ladder(system, None, rungs, timeout=60)
    assert result.status == Status.UNSAFE
    assert "sample" not in cone_of_influence(system, "no_overrun").inputs
    witness = result.certificate
    assert witness.length == get_benchmark("daio").bug_cycle + 1
    assert all(step == {"sample": 0} for step in witness.inputs)
    assert json.loads(dumps(witness))["inputs"][0] == {"sample": 0}


# ---------------------------------------------------------------------------
# AIGER: the exported mac16 answers
# ---------------------------------------------------------------------------


def test_exported_mac16_aiger_answers_a_validated_safe(tmp_path):
    path = tmp_path / "mac16.aag"
    path.write_text(write_aiger(aig_from_transition_system(load_system("mac16"))))
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro.tools.verify_cli",
            str(path), "--certify", "--timeout", "20",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": _SRC},
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "-> VALIDATED [k-inductive]" in completed.stdout
    assert "safe" in completed.stdout
