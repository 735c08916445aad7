"""The template encoding against ground truth and the certificate validator.

Frame-template stamping (:mod:`repro.engines.encoding`) is the only way the
engines unroll a design.  Its referee is not a second encoder but the
suite's known verdicts plus :func:`repro.certs.validate_result`: at both the
word and the bit level, BMC must not refute a design within a bound its bug
lies beyond, a real bug must come back at its exact cycle with a witness
that replays, and every proof must carry a certificate the independent
validator accepts.
"""

import pytest

from repro.benchmarks import get_benchmark, load_system
from repro.certs import validate_result
from repro.engines import Status
from repro.engines.bmc import BMCEngine
from repro.engines.encoding import (
    FrameEncoder,
    cone_of_influence,
    template_library,
    widen_witness,
)
from repro.engines.kinduction import KInductionEngine
from repro.engines.ladder import bound_options
from repro.engines.pdr import PDREngine
from repro.engines.registry import list_engines, make_engine
from repro.exprs import bv_const, bv_eq, bv_ne, bv_ult, bv_xor
from repro.netlist import TransitionSystem

#: three safe suite designs plus daio, whose bug lies at cycle 64: all stay
#: UNKNOWN at bound 5, exercising the full unroll on both representations
EQUISAT_BENCHMARKS = ["huffman_dec", "daio", "fifo", "arbiter"]
REPRESENTATIONS = ["word", "bit"]


def _tiny_unsafe() -> TransitionSystem:
    """A counter whose property fails at cycle 3 (exercises the SAT path)."""
    ts = TransitionSystem("tiny_unsafe")
    c = ts.add_state_var("c", 3, init=0)
    ts.set_next("c", c + bv_const(1, 3))
    ts.add_property("p", bv_ne(c, bv_const(3, 3)))
    return ts


def _bmc(system, representation, max_bound=5):
    engine = BMCEngine(system, max_bound=max_bound, representation=representation)
    return engine.verify(timeout=60)


def _assert_validates(system, result):
    validation = validate_result(system, result, timeout=60)
    assert validation.ok, validation.reason


@pytest.mark.parametrize("name", EQUISAT_BENCHMARKS)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_bmc_equisat_on_benchmarks(name, representation):
    result = _bmc(load_system(name), representation)
    assert result.status == "unknown", result.detail
    assert result.detail["bound_reached"] == 5


@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_bmc_equisat_unsafe_counterexample(representation):
    system = _tiny_unsafe()
    result = _bmc(system, representation, max_bound=6)
    assert result.status == "unsafe"
    assert result.detail["bound"] == 3
    assert result.counterexample.length == 4  # cycles 0..3
    _assert_validates(system, result)


@pytest.mark.parametrize("name", ["huffman_enc", "rcu", "iqueue"])
@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_kinduction_equisat(name, representation):
    system = load_system(name)
    result = KInductionEngine(
        system, max_k=8, representation=representation
    ).verify(timeout=60)
    assert result.status == get_benchmark(name).expected
    _assert_validates(system, result)


@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_pdr_equisat(representation):
    system = load_system("huffman_dec")
    result = PDREngine(system, representation=representation).verify(timeout=60)
    assert result.status == "safe"
    _assert_validates(system, result)


@pytest.mark.parametrize("engine_name", ["bmc", "k-induction", "kiki", "pdr", "interpolation"])
def test_bit_level_engines_respect_constraints_on_every_frame(engine_name):
    """fifo is safe only under its environment constraints: the bit-level
    encoding must enforce them on every frame, not just the property's."""
    system = load_system("fifo")
    options = {"max_bound": 20} if engine_name == "bmc" else {}
    result = make_engine(
        engine_name, system, representation="bit", **options
    ).verify(timeout=60)
    assert result.status in ("safe", "unknown"), result.detail
    if result.is_definitive:
        _assert_validates(system, result)


def test_template_library_is_cached_per_system():
    system = load_system("arbiter")
    first = template_library(system, "word")
    second = template_library(system, "word")
    assert first is second
    # a different build of the same design gets its own library
    other = load_system("arbiter")
    assert template_library(other, "word") is not first


def test_template_cache_invalidated_on_mutation():
    """Mutating a design between runs must not reuse the stale template."""
    system = _tiny_unsafe()
    unsafe = _bmc(system, "word", max_bound=6)
    assert unsafe.status == "unsafe"
    # retarget the counter to hold its value: the property becomes invariant
    system.set_next("c", system.var("c"))
    fixed = _bmc(system, "word", max_bound=6)
    assert fixed.status == "unknown"
    assert fixed.detail["bound_reached"] == 6


def test_template_cache_sees_added_property():
    system = _tiny_unsafe()
    encoder = FrameEncoder(system)
    encoder.property_literal("p", 0)
    system.add_property("p2", bv_ne(system.var("c"), bv_const(7, 3)))
    fresh = FrameEncoder(system)
    assert fresh.property_literal("p2", 0)  # must not raise KeyError


def test_template_structure():
    system = load_system("buffalloc")
    library = template_library(system, "word")
    template = library.trans_template
    # canonical renumbering: internal gate vars form the trailing block
    assert template.internal == tuple(
        range(template.named_count + 1, template.num_vars + 1)
    )
    state_names = {name for name, _, _ in template.cur}
    next_names = {name for name, _, _ in template.nxt}
    assert next_names == set(system.state_vars)
    assert state_names <= set(system.state_vars)
    # gate clauses never touch named variables
    for clause in template.gate_clauses + template.gate_binary:
        assert all(abs(lit) > template.named_count for lit in clause)
    assert template.num_clauses == (
        len(template.gate_clauses)
        + len(template.gate_binary)
        + len(template.boundary_clauses)
    )
    # the binary split is exact: no two-literal clause left in gate_clauses
    assert all(len(clause) > 2 for clause in template.gate_clauses)
    assert all(len(clause) == 2 for clause in template.gate_binary)


def test_property_literal_cached_per_frame():
    system = load_system("arbiter")
    encoder = FrameEncoder(system)
    encoder.assert_init(0)
    first = encoder.property_literal("one_hot_grant", 0)
    clauses_after = encoder.solver.solver.num_clauses
    second = encoder.property_literal("one_hot_grant", 0)
    assert first == second
    assert encoder.solver.solver.num_clauses == clauses_after


#: properties that fold to a constant when blasted, and their verdicts
CONSTANT_PROPERTIES = {
    "tautology": Status.SAFE,  # xor(x, x) == 0
    "contradiction": Status.UNSAFE,  # xor(x, i) != xor(i, x)
    "below-zero": Status.UNSAFE,  # x <u 0
}
#: the runs that cannot decide: bmc and rsim prove nothing, absint refutes
#: nothing
UNDECIDED = {
    ("tautology", "bmc"),
    ("tautology", "rsim"),
    ("contradiction", "absint"),
    ("below-zero", "absint"),
}


def _constant_property(kind: str) -> TransitionSystem:
    ts = TransitionSystem(kind)
    i = ts.add_input("i", 4)
    x = ts.add_state_var("x", 4, init=0)
    ts.set_next("x", x + i)
    ts.add_property(
        "p",
        {
            "tautology": bv_eq(bv_xor(x, x), bv_const(0, 4)),
            "contradiction": bv_ne(bv_xor(x, i), bv_xor(i, x)),
            "below-zero": bv_ult(x, bv_const(0, 4)),
        }[kind],
    )
    return ts


def _constant_property_runs():
    """Every engine but the forging oracle, on each representation it takes."""
    for kind in CONSTANT_PROPERTIES:
        for registration in list_engines():
            if registration.name != "oracle":
                for representation in registration.capabilities.representations:
                    yield kind, registration.name, representation


@pytest.mark.parametrize(
    "kind, engine_name, representation", list(_constant_property_runs())
)
def test_a_property_that_folds_to_a_constant(kind, engine_name, representation):
    """The property template's output is the constant itself (``±true_var``):
    every engine that decides gives the design's verdict on its cone, as
    the drivers run it, and the verdict validates on the whole design."""
    system = _constant_property(kind)
    cone = cone_of_influence(system, "p")
    template = template_library(cone, representation).property_template("p")
    assert template.true_var is not None
    assert abs(template.output) == template.true_var
    engine = make_engine(
        engine_name,
        cone,
        ignore_unknown_options=True,
        representation=representation,
        **bound_options(8),
    )
    result = widen_witness(engine.verify("p", timeout=60), system)
    if (kind, engine_name) in UNDECIDED:
        assert result.status == Status.UNKNOWN
    else:
        assert result.status == CONSTANT_PROPERTIES[kind]
        _assert_validates(system, result)
