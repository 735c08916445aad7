"""AIG → TransitionSystem lifting: round trips and simulator cross-checks.

The bit-level flow lowers a word-level design to an AIG, serializes it as
ASCII AIGER and lifts it back into a (1-bit-word) transition system
(:func:`repro.aig.bitblast.transition_system_from_aig`).  These tests assert
the paper's Section III.C equivalence argument on that path: the lifted
model agrees with the word-level reference simulator cycle by cycle, and
bugs manifest in the same clock cycle in both models.
"""

import os
import random

import pytest

from repro.aig import aig_from_transition_system, write_aiger
from repro.aig.bitblast import transition_system_from_aig
from repro.aig.formats import read_aiger
from repro.benchmarks import BENCHMARKS, get_benchmark
from repro.engines import Status, make_engine
from repro.engines.ladder import default_budget_ladder, run_sequential_ladder
from repro.netlist.simulate import Simulator

#: 201 one-bit latches reset to 0 with ``r0' = 1`` and ``r_i' = r_{i-1}``;
#: the property ``r200 == 0`` fails at cycle 201.  Written once with
#: ``aig_from_transition_system`` and ``write_aiger``.
SHIFT201 = os.path.join(os.path.dirname(__file__), "data", "aiger", "shift201.aag")


def _lift_round_trip(system):
    """system -> AIG -> AIGER text -> AIG -> lifted transition system."""
    aig = aig_from_transition_system(system)
    lifted = transition_system_from_aig(read_aiger(write_aiger(aig)))
    lifted.validate()
    return aig, lifted


def _bit_inputs(system, word_inputs):
    """Decompose word-level input values into the lifted ``name[i]`` bits."""
    bits = {}
    for name, width in system.inputs.items():
        value = word_inputs.get(name, 0)
        for index in range(width):
            bits[f"{name}[{index}]"] = (value >> index) & 1
    return bits


def _state_bits(system, state):
    bits = {}
    for name, width in system.state_vars.items():
        for index in range(width):
            bits[f"{name}[{index}]"] = (state[name] >> index) & 1
    return bits


@pytest.mark.parametrize("design", ["huffman_dec", "arbiter", "daio"])
def test_lifting_round_trip_structure(design):
    system = get_benchmark(design).load()
    aig, lifted = _lift_round_trip(system)
    assert len(lifted.inputs) == sum(system.inputs.values())
    assert len(lifted.state_vars) == sum(system.state_vars.values())
    assert len(lifted.properties) == len(system.properties)
    assert {p.name for p in lifted.properties} == {p.name for p in system.properties}
    # reset values survive the round trip
    lifted_sim = Simulator(lifted)
    word_sim = Simulator(system)
    assert lifted_sim.state == _state_bits(system, word_sim.state)


@pytest.mark.parametrize("design", ["huffman_dec", "arbiter"])
def test_lifted_simulation_matches_word_level(design):
    """Random simulation agrees register bit by register bit, cycle by cycle."""
    system = get_benchmark(design).load()
    _, lifted = _lift_round_trip(system)
    word_sim = Simulator(system)
    bit_sim = Simulator(lifted)
    rng = random.Random(2016)
    for cycle in range(64):
        word_inputs = {
            name: rng.getrandbits(width) for name, width in system.inputs.items()
        }
        bit_inputs = _bit_inputs(system, word_inputs)
        # same property verdicts in the current cycle...
        assert word_sim.check_properties(word_inputs) == bit_sim.check_properties(
            bit_inputs
        ), f"property verdicts diverge at cycle {cycle}"
        word_sim.step(word_inputs)
        bit_sim.step(bit_inputs)
        # ... and the same next state, register bit by register bit
        assert bit_sim.state == _state_bits(system, word_sim.state), (
            f"state diverges at cycle {cycle + 1}"
        )


def test_lifted_model_reproduces_bug_in_same_cycle():
    """The daio bug manifests at cycle 64 in the lifted model too (III.C)."""
    benchmark = get_benchmark("daio")
    system = benchmark.load()
    result = make_engine("bmc", system, max_bound=70).verify(timeout=90)
    assert result.status == Status.UNSAFE
    _, lifted = _lift_round_trip(system)
    witness = result.certificate
    bit_sequence = [_bit_inputs(system, step) for step in witness.input_sequence()]
    trace = Simulator(lifted).run(bit_sequence, stop_on_violation=True)
    assert trace.violated_property == result.property_name
    assert len(trace) - 1 == benchmark.bug_cycle


@pytest.mark.parametrize("design", list(BENCHMARKS))
def test_aiger_round_trip_keeps_every_suite_verdict(design):
    """word -> AIG -> ``.aag`` text -> lift -> the certified ladder returns
    the suite verdict for every property.  fifo's environment constraints
    must survive the file: without them a path that breaks one in cycle 0
    reaches bad in cycle 1, a witness that validates against the lift."""
    benchmark = get_benchmark(design)
    aig, lifted = _lift_round_trip(benchmark.load())
    assert len(lifted.constraints) == len(aig.constraints)
    for prop in lifted.properties:
        result = run_sequential_ladder(
            lifted, prop.name, default_budget_ladder(timeout=30), timeout=30,
            certify=True,
        )
        assert result.status == benchmark.expected, prop.name


def test_read_aiger_refuses_justice_and_fairness_properties():
    text = write_aiger(aig_from_transition_system(get_benchmark("fifo").load()))
    header, _, body = text.partition("\n")
    assert len(header.split()) == 8  # aag M I L O A B C
    for extra in (" 1", " 0 1"):  # one justice, then one fairness property
        with pytest.raises(ValueError, match="justice and fairness"):
            read_aiger(f"{header}{extra}\n{body}")


def test_absint_proves_nothing_from_an_unfinished_interval_iteration(capsys):
    """The shift register's interval iteration moves one latch to [0, 1] per
    round and reaches its fixpoint, every latch [0, 1], after 202 rounds.
    A box taken before that is not inductive, so absint must not call the
    property SAFE from it; no rung finds the cycle-201 bug within 2 s, so
    the CLI's answer is inconclusive (exit 3), not a wrong SAFE (exit 2)."""
    from repro.tools.verify_cli import main

    with open(SHIFT201) as handle:
        lifted = transition_system_from_aig(read_aiger(handle.read()))
    assert len(lifted.state_vars) == 201
    result = make_engine("absint", lifted).verify(timeout=60)
    assert result.status == Status.UNKNOWN
    assert result.detail["intervals"]["r200[0]"] == (0, 1)
    assert main([SHIFT201, "--expected", "unsafe", "--timeout", "2"]) == 3
    capsys.readouterr()
