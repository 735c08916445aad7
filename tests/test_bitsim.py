"""Bit-parallel packed simulation: differential tests against the scalar oracle.

The packed simulator (:mod:`repro.netlist.bitsim`) is a raw-speed tier, so
every test here is a cross-check: packed lanes against the scalar reference
simulator, the compiled packed step's per-operator lowering against
:func:`repro.exprs.evaluate`, the rsim falsifier's verdicts against bmc and
its witnesses against the independent certificate validator, and both
scalar simulators (word-level netlist vs AIG graph) against each other — one
scalar oracle, agreed on by every representation.
"""

import random

import pytest

from repro.aig import aig_from_transition_system
from repro.benchmarks import benchmark_names, get_benchmark, load_system
from repro.certs import validate_result
from repro.engines import Status, make_engine
from repro.exprs import (
    bv_add,
    bv_ashr,
    bv_concat,
    bv_const,
    bv_extract,
    bv_ite,
    bv_lshr,
    bv_mul,
    bv_neg,
    bv_reduce_and,
    bv_reduce_or,
    bv_reduce_xor,
    bv_shl,
    bv_sign_extend,
    bv_sle,
    bv_slt,
    bv_sub,
    bv_udiv,
    bv_ule,
    bv_ult,
    bv_urem,
    bv_var,
    bv_xor,
    bv_zero_extend,
    evaluate,
)
from repro.netlist import TransitionSystem, TransitionSystemError
from repro.netlist.bitsim import (
    PackedSimulator,
    ReachabilitySampler,
    SimulationMismatch,
    broadcast,
    crosscheck_lane,
    pack_values,
    unpack_lane,
)
from repro.netlist.simulate import Simulator

SUITE = benchmark_names()


# ---------------------------------------------------------------------------
# packing primitives
# ---------------------------------------------------------------------------


def test_pack_unpack_round_trip():
    rng = random.Random(0)
    values = [rng.getrandbits(11) for _ in range(64)]
    planes = pack_values(values, 11)
    assert len(planes) == 11
    assert [unpack_lane(planes, lane) for lane in range(64)] == values


def test_broadcast_fills_every_lane():
    planes = broadcast(0b1011, 4, (1 << 64) - 1)
    for lane in (0, 1, 33, 63):
        assert unpack_lane(planes, lane) == 0b1011


# ---------------------------------------------------------------------------
# the compiled packed step's operator lowering vs the scalar evaluator
# ---------------------------------------------------------------------------


def _packed_step(exprs, inputs):
    """Each lane's value of each expression as the compiled packed step,
    the code rsim runs, computes it.

    ``exprs`` maps a register name to its next-state expression and
    ``inputs`` an input name to ``(width, per-lane values)``; one packed step
    of that design leaves every expression's value in its register.
    """
    system = TransitionSystem("operators")
    for name, (width, _values) in inputs.items():
        system.add_input(name, width)
    for name, expr in exprs.items():
        system.add_state_var(name, expr.width, next_expr=expr)
    simulator = PackedSimulator(system)
    simulator.step(
        {name: pack_values(values, width) for name, (width, values) in inputs.items()}
    )
    return {
        name: [unpack_lane(simulator.state[name], lane) for lane in range(simulator.lanes)]
        for name in exprs
    }


_BINARY_OPS = [
    bv_add, bv_sub, bv_mul, bv_udiv, bv_urem, bv_xor,
    bv_shl, bv_lshr, bv_ashr,
    bv_ult, bv_ule, bv_slt, bv_sle,
]


@pytest.mark.parametrize("make_op", _BINARY_OPS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("width", [1, 5, 8])
def test_binary_operators_match_scalar(make_op, width):
    """Every lane of the packed result equals the scalar evaluator's answer."""
    lanes = 64
    rng = random.Random(hash((make_op.__name__, width)) & 0xFFFF)
    a_vals = [rng.getrandbits(width) for _ in range(lanes)]
    # bias the second operand toward small values so shifts exercise both
    # in-range and >= width amounts, and division sees zero divisors
    b_vals = [
        rng.getrandbits(width) if rng.random() < 0.5 else rng.randrange(0, width + 2)
        for _ in range(lanes)
    ]
    a, b = bv_var("a", width), bv_var("b", width)
    exprs = {"r": make_op(a, b)}
    if make_op in (bv_shl, bv_lshr, bv_ashr):
        # a constant amount compiles to tuple slicing, not a barrel shifter
        for amount in range(width + 2):
            exprs[f"k{amount}"] = make_op(a, bv_const(amount, width))
    packed = _packed_step(exprs, {"a": (width, a_vals), "b": (width, b_vals)})
    for name, expr in exprs.items():
        for lane in range(lanes):
            expected = evaluate(expr, {"a": a_vals[lane], "b": b_vals[lane]})
            assert packed[name][lane] == expected, (
                f"{make_op.__name__} w={width} {name} lane={lane}: "
                f"a={a_vals[lane]} b={b_vals[lane]}"
            )


@pytest.mark.parametrize(
    "make_expr",
    [
        lambda a: bv_neg(a),
        lambda a: bv_reduce_and(a),
        lambda a: bv_reduce_or(a),
        lambda a: bv_reduce_xor(a),
        lambda a: bv_zero_extend(a, 3),
        lambda a: bv_sign_extend(a, 3),
        lambda a: bv_extract(a, 4, 2),
        lambda a: bv_concat(a, bv_extract(a, 2, 0)),
        lambda a: bv_ite(bv_ult(a, bv_var("b", 6)), a, bv_var("b", 6)),
    ],
    ids=[
        "neg", "redand", "redor", "redxor", "zext", "sext",
        "extract", "concat", "ite",
    ],
)
def test_structural_operators_match_scalar(make_expr):
    lanes, width = 64, 6
    rng = random.Random(7)
    a_vals = [rng.getrandbits(width) for _ in range(lanes)]
    b_vals = [rng.getrandbits(width) for _ in range(lanes)]
    expr = make_expr(bv_var("a", width))
    packed = _packed_step({"r": expr}, {"a": (width, a_vals), "b": (width, b_vals)})
    for lane in range(lanes):
        expected = evaluate(expr, {"a": a_vals[lane], "b": b_vals[lane]})
        assert packed["r"][lane] == expected


# ---------------------------------------------------------------------------
# whole-design lane fuzz: 64 random lanes vs the scalar simulator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("design", SUITE)
def test_packed_run_agrees_with_scalar_lanes(design):
    """Random packed runs cross-check lane-exactly on every suite design."""
    system = load_system(design)
    simulator = PackedSimulator(system)
    run = simulator.run_random(24, seed=2016, stop_on_violation=False)
    for lane in (0, 17, 63):
        assert crosscheck_lane(system, run, lane) == run.cycles


def test_crosscheck_lane_detects_divergence():
    system = load_system("arbiter")
    simulator = PackedSimulator(system)
    run = simulator.run_random(8, seed=1, stop_on_violation=False)
    # corrupt one recorded register plane: the cross-check must notice
    name, planes = next(iter(run.states[4].items()))
    run.states[4][name] = tuple(plane ^ 1 for plane in planes)
    with pytest.raises(SimulationMismatch):
        crosscheck_lane(system, run, 0)


def test_replay_broadcast_matches_scalar_trace():
    system = load_system("daio")
    rng = random.Random(3)
    sequence = [
        {name: rng.getrandbits(width) for name, width in system.inputs.items()}
        for _ in range(40)
    ]
    run = PackedSimulator(system, lanes=1).replay(sequence)
    scalar = Simulator(system)
    for cycle in range(run.cycles):
        assert run.lane_state(cycle, 0) == scalar.state
        scalar.step(sequence[cycle])


def test_replay_many_keeps_lanes_independent():
    system = load_system("huffman_dec")
    rng = random.Random(11)
    sequences = [
        [
            {name: rng.getrandbits(width) for name, width in system.inputs.items()}
            for _ in range(12)
        ]
        for _ in range(5)
    ]
    run = PackedSimulator(system).replay_many(sequences)
    for lane, sequence in enumerate(sequences):
        scalar = Simulator(system)
        for cycle in range(len(sequence)):
            assert run.lane_state(cycle, lane) == scalar.state
            scalar.step(sequence[cycle])


def test_constraints_kill_lanes_for_violation_reporting():
    """fifo has environment constraints: a lane that breaks them cannot
    report violations from that cycle on (SAT frame semantics)."""
    system = load_system("fifo")
    assert system.constraints, "fifo is the suite's constrained design"
    simulator = PackedSimulator(system)
    run = simulator.run_random(32, seed=5, stop_on_violation=False)
    mask = (1 << simulator.lanes) - 1
    # alive masks only ever shrink
    for earlier, later in zip(run.alive, run.alive[1:]):
        assert later & ~earlier == 0
    # with random inputs some lane violates a constraint eventually
    assert run.alive[-1] != mask


def test_wide_lane_counts_work():
    """Lane counts beyond the machine word (and tiny ones) work unchanged."""
    system = load_system("arbiter")
    for lanes in (1, 128):
        simulator = PackedSimulator(system, lanes=lanes)
        run = simulator.run_random(8, seed=9, stop_on_violation=False)
        assert crosscheck_lane(system, run, lanes - 1) == run.cycles


# ---------------------------------------------------------------------------
# the reachability sampler (PDR's cube screen)
# ---------------------------------------------------------------------------


def test_sampler_satisfies_cube_is_conservative():
    system = load_system("huffman_dec")
    sampler = ReachabilitySampler(system)
    # unknown signals or out-of-range bits must never claim satisfaction
    assert not sampler.satisfies_cube([("no_such_signal", 0, 1)])


# ---------------------------------------------------------------------------
# the rsim engine: packed falsification with validated witnesses
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("design", ["daio", "tlc"])
def test_rsim_finds_and_certifies_suite_bugs(design):
    benchmark = get_benchmark(design)
    system = benchmark.load()
    result = make_engine("rsim", system).verify(timeout=60)
    assert result.status == Status.UNSAFE
    assert result.detail["scalar_confirmed"] is True
    assert result.counterexample.length - 1 == benchmark.bug_cycle
    validation = validate_result(system, result)
    assert validation.ok, validation.reason


@pytest.mark.parametrize("design", ["buffalloc", "fifo"])
def test_rsim_stays_unknown_on_safe_designs(design):
    system = load_system(design)
    result = make_engine("rsim", system).verify(timeout=60)
    assert result.status == Status.UNKNOWN


def test_rsim_cannot_prove():
    from repro.engines import get_registration

    capabilities = get_registration("rsim").capabilities
    assert capabilities.can_refute and not capabilities.can_prove


@pytest.mark.parametrize("violated_first", [True, False], ids=["violated-first", "holding-first"])
def test_packed_and_scalar_steps_agree_on_a_repeated_property_name(violated_first):
    """A 4-bit counter declares ``p`` twice: once violated at cycle 3, once
    always true.  The first ``p`` answers for the name in the packed step as
    in the scalar step and bmc, so rsim matches bmc and never raises."""
    system = TransitionSystem("twice")
    count = system.add_state_var("count", 4)
    system.set_next("count", bv_add(count, bv_const(1, 4)))
    violated = bv_ult(count, bv_const(3, 4))
    holding = bv_ule(count, bv_const(15, 4))
    for expr in (violated, holding) if violated_first else (holding, violated):
        system.add_property("p", expr)
    expected = Status.UNSAFE if violated_first else Status.UNKNOWN
    assert make_engine("bmc", system, max_bound=8).verify("p", timeout=60).status == expected
    result = make_engine("rsim", system).verify("p", timeout=60)
    assert result.status == expected
    if violated_first:
        assert result.detail["violation_cycle"] == 3
        assert validate_result(system, result).ok


def test_packed_step_reports_a_combinational_cycle():
    """The packed step resolves wires as the scalar step does, with the same
    error for a wire that reaches itself."""
    system = TransitionSystem("loop")
    x = system.add_input("x", 4)
    system.add_wire("a", bv_add(bv_var("b", 4), x))
    system.add_wire("b", bv_add(bv_var("a", 4), x))
    system.add_property("p", bv_ult(bv_var("a", 4), x))
    with pytest.raises(TransitionSystemError, match="combinational cycle"):
        PackedSimulator(system)


# ---------------------------------------------------------------------------
# one scalar oracle: the AIG graph simulator vs the netlist simulator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("design", ["huffman_dec", "daio", "arbiter"])
def test_aig_and_netlist_simulators_agree(design):
    """The two scalar simulators are one oracle: identical per-cycle property
    verdicts on random stimulus (bad output asserted <=> property violated)."""
    system = load_system(design)
    aig = aig_from_transition_system(system)
    bit_of = {}
    for literal in aig.inputs:
        name = aig.input_names[literal]  # "input[bit]"
        base, _, index = name.rpartition("[")
        bit_of[literal] = (base, int(index.rstrip("]")))
    rng = random.Random(2016)
    word_sequence = [
        {name: rng.getrandbits(width) for name, width in system.inputs.items()}
        for _ in range(48)
    ]
    aig_sequence = [
        {
            literal: bool((inputs[base] >> index) & 1)
            for literal, (base, index) in bit_of.items()
        }
        for inputs in word_sequence
    ]
    bad_values = aig.simulate(aig_sequence)
    scalar = Simulator(system)
    for cycle, inputs in enumerate(word_sequence):
        values = scalar.advance(inputs)
        for prop in system.properties:
            violated = values.properties[prop.name] == 0
            assert bad_values[cycle][prop.name] == violated, (
                f"{design}:{prop.name} diverges at cycle {cycle}"
            )
