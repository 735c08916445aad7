"""The compiled scalar step against the tree-walking reference.

:class:`repro.netlist.simulate.Simulator` runs every cycle through one
straight-line function compiled per design; :func:`repro.exprs.evaluate`
stays the reference model.  A seeded differential fuzz drives random designs
(every operator, widths 1-64, edge constants, shared subterms, wires chained
against declaration order) through both, every suite design and the
AIG-lifted daio are stepped 64 random cycles against an ``evaluate`` loop
written here, and the fast tiers' cross-checks are shown to catch a packed
simulator that ignores environment constraints.
"""

import random
import sys
import threading
import time

import pytest

from repro.aig import aig_from_transition_system
from repro.aig.bitblast import transition_system_from_aig
from repro.benchmarks import benchmark_names, load_system
from repro.engines import make_engine
from repro.engines.absint import Interval, IntervalStep
from repro.exprs import (
    BV_OPS,
    bv_add,
    bv_and,
    bv_ashr,
    bv_concat,
    bv_const,
    bv_eq,
    bv_extract,
    bv_ite,
    bv_lshr,
    bv_mul,
    bv_nand,
    bv_ne,
    bv_neg,
    bv_nor,
    bv_not,
    bv_or,
    bv_reduce_and,
    bv_reduce_or,
    bv_reduce_xor,
    bv_sge,
    bv_sgt,
    bv_shl,
    bv_sign_extend,
    bv_sle,
    bv_slt,
    bv_sub,
    bv_udiv,
    bv_uge,
    bv_ugt,
    bv_ule,
    bv_ult,
    bv_urem,
    bv_var,
    bv_xnor,
    bv_xor,
    bv_zero_extend,
    collect_vars,
    evaluate,
    mask,
)
from repro.exprs.nodes import Op
from repro.netlist import Trace, TraceStep, TransitionSystem, TransitionSystemError
from repro.netlist.bitsim import PackedSimulator, SimulationMismatch, crosscheck_lane
from repro.netlist.simulate import Simulator, replay
from repro.netlist.step import StepCompiler

WIDTHS = (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33, 63, 64)
UNARY = (bv_not, bv_neg)
BINARY = (
    bv_and, bv_or, bv_xor, bv_xnor, bv_nand, bv_nor,
    bv_add, bv_sub, bv_mul, bv_udiv, bv_urem,
)
SHIFTS = (bv_shl, bv_lshr, bv_ashr)
COMPARISONS = (
    bv_eq, bv_ne, bv_ult, bv_ule, bv_ugt, bv_uge, bv_slt, bv_sle, bv_sgt, bv_sge,
)
REDUCTIONS = (bv_reduce_and, bv_reduce_or, bv_reduce_xor)


# ---------------------------------------------------------------------------
# the reference: an evaluate loop
# ---------------------------------------------------------------------------


class _Env(dict):
    """An ``evaluate`` environment that resolves each wire on first read."""

    def __init__(self, system, values):
        super().__init__(values)
        self.system = system

    def __contains__(self, name):
        return dict.__contains__(self, name) or name in self.system.wires

    def __missing__(self, name):
        value = self[name] = evaluate(self.system.wires[name], self)
        return value


def _reference_cycle(system, state, inputs):
    """One cycle by tree walking, in the shape of ``Simulator.advance``."""
    cycle_inputs = {
        name: inputs.get(name, 0) & mask(width) for name, width in system.inputs.items()
    }
    env = _Env(system, {**state, **cycle_inputs})
    properties = {}
    for prop in system.properties:
        properties.setdefault(prop.name, evaluate(prop.expr, env))
    return {
        "state": dict(state),
        "inputs": cycle_inputs,
        "wires": {name: env[name] for name in system.wires},
        "properties": properties,
        "constraints": tuple(evaluate(c, env) for c in system.constraints),
        "next_state": {name: evaluate(e, env) for name, e in system.next.items()},
    }


def _assert_agrees(system, sequence):
    """Step ``sequence`` through the simulator and the reference, cycle by cycle."""
    simulator = Simulator(system)
    state = {name: evaluate(expr, {}) for name, expr in system.init.items()}
    for cycle, inputs in enumerate(sequence):
        values = simulator.advance(inputs)
        expected = _reference_cycle(system, state, inputs)
        actual = {key: getattr(values, key) for key in expected}
        assert values.cycle == cycle
        assert actual == expected, f"{system.name}: cycle {cycle}"
        for key in ("state", "inputs", "wires", "properties", "next_state"):
            assert all(type(v) is int for v in actual[key].values()), key
        state = expected["next_state"]


# ---------------------------------------------------------------------------
# seeded differential fuzz
# ---------------------------------------------------------------------------


def _edge_value(rng, width):
    top = 1 << (width - 1)
    return rng.choice((0, 1, mask(width), top, top - 1, rng.getrandbits(width)))


class _Generator:
    """Random expressions over a design's signals, reusing earlier subtrees."""

    def __init__(self, rng, signals):
        self.rng = rng
        self.signals = signals  # width -> [Var]
        self.pool = {}  # width -> [Expr] built so far (shared subterms)

    def leaf(self, width):
        rng = self.rng
        if self.signals.get(width) and rng.random() < 0.6:
            return rng.choice(self.signals[width])
        return bv_const(_edge_value(rng, width), width)

    def tree(self, width, depth):
        rng = self.rng
        shared = self.pool.get(width)
        if shared and rng.random() < 0.15:
            return rng.choice(shared)
        if depth == 0 or rng.random() < 0.15:
            return self.leaf(width)
        expr = self._node(width, depth)
        self.pool.setdefault(width, []).append(expr)
        return expr

    def _node(self, width, depth):
        rng = self.rng
        kinds = ["unary", "binary", "binary", "shift", "ite", "extract"]
        kinds += ["concat", "extend"] if width > 1 else ["compare", "compare", "reduce"]
        kind = rng.choice(kinds)
        sub = depth - 1
        if kind == "unary":
            return rng.choice(UNARY)(self.tree(width, sub))
        if kind == "binary":
            return rng.choice(BINARY)(self.tree(width, sub), self.tree(width, sub))
        if kind == "shift":
            amount = self.tree(rng.choice(WIDTHS), sub)
            return rng.choice(SHIFTS)(self.tree(width, sub), amount)
        if kind == "ite":
            return bv_ite(self.tree(1, sub), self.tree(width, sub), self.tree(width, sub))
        if kind == "extract":
            wider = rng.choice([w for w in WIDTHS if w >= width])
            low = rng.randint(0, wider - width)
            return bv_extract(self.tree(wider, sub), low + width - 1, low)
        if kind == "concat":
            high = rng.randint(1, width - 1)
            return bv_concat(self.tree(high, sub), self.tree(width - high, sub))
        if kind == "extend":
            narrow = rng.randint(1, width - 1)
            extend = rng.choice((bv_zero_extend, bv_sign_extend))
            return extend(self.tree(narrow, sub), width - narrow)
        if kind == "reduce":
            return rng.choice(REDUCTIONS)(self.tree(rng.choice(WIDTHS), sub))
        operand = rng.choice(WIDTHS)
        return rng.choice(COMPARISONS)(self.tree(operand, sub), self.tree(operand, sub))


def _random_design(rng, index):
    """A design whose wires read wires declared after them."""
    system = TransitionSystem(f"fuzz{index}")
    signals = {}
    for k in range(3):
        width = rng.choice(WIDTHS)
        signals.setdefault(width, []).append(system.add_input(f"x{k}", width))
    registers = []
    for k in range(2):
        width = rng.choice(WIDTHS)
        var = system.add_state_var(f"r{k}", width, init=_edge_value(rng, width))
        signals.setdefault(width, []).append(var)
        registers.append((var, width))
    generator = _Generator(rng, signals)
    # build the last-declared wire first, so w0 reads w1 reads w2 ...
    wires = []
    for k in reversed(range(4)):
        width = rng.choice(WIDTHS)
        wires.append((f"w{k}", generator.tree(width, rng.randint(1, 4))))
        signals.setdefault(width, []).append(bv_var(f"w{k}", width))
    for name, expr in reversed(wires):
        system.add_wire(name, expr)
    for var, width in registers:
        system.set_next(var.name, generator.tree(width, rng.randint(1, 4)))
    for k in range(2):
        system.add_property(f"p{k}", generator.tree(1, rng.randint(1, 4)))
    system.add_constraint(generator.tree(1, rng.randint(1, 3)))
    return system


def _random_inputs(rng, system):
    """Edge values, sometimes with junk above the width or left out."""
    inputs = {}
    for name, width in system.inputs.items():
        if rng.random() < 0.1:
            continue
        value = _edge_value(rng, width)
        if rng.random() < 0.2:
            value |= rng.getrandbits(8) << width
        inputs[name] = value
    return inputs


def _operators(exprs):
    seen, stack, visited = set(), list(exprs), set()
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        if isinstance(node, Op):
            seen.add(node.op)
            stack.extend(node.args)
    return seen


def _reads_a_later_wire(system):
    names = list(system.wires)
    return any(
        var.name in names[index + 1:]
        for index, expr in enumerate(system.wires.values())
        for var in collect_vars(expr)
    )


def test_compiled_step_matches_evaluate_on_random_designs():
    rng = random.Random(2016)
    seen = set()
    chained = 0
    for index in range(500):
        system = _random_design(rng, index)
        system.validate()
        seen |= _operators(
            [*system.wires.values(), *system.next.values(), *system.constraints]
            + [prop.expr for prop in system.properties]
        )
        chained += _reads_a_later_wire(system)
        _assert_agrees(system, [_random_inputs(rng, system) for _ in range(6)])
    assert seen == BV_OPS, sorted(BV_OPS - seen)
    assert chained >= 50, chained


@pytest.mark.parametrize("width", [1, 8, 63, 64])
def test_edge_operands_match_evaluate(width):
    """Division by zero, shifts by ``width`` or more (up to 2**64-1, which
    must not build a huge int), shifts of negative values, sign extension."""
    system = TransitionSystem(f"edges{width}")
    a = system.add_input("a", width)
    b = system.add_input("b", width)
    amount = system.add_input("amount", 64)
    for shift in SHIFTS:
        system.add_wire(f"{shift.__name__}_dyn", shift(a, amount))
        system.add_wire(f"{shift.__name__}_narrow", shift(a, b))
        for k in sorted({0, width - 1, width, 1 << 63}):
            system.add_wire(f"{shift.__name__}_{k}", shift(a, bv_const(k, 64)))
    for op in (bv_udiv, bv_urem, bv_sub, bv_neg, bv_not):
        args = (a,) if op in (bv_neg, bv_not) else (a, b)
        system.add_wire(op.__name__, op(*args))
    system.add_wire("sext", bv_sign_extend(a, 64 - width + 3))
    for compare in COMPARISONS:
        system.add_property(compare.__name__, compare(a, b))
    for reduce in REDUCTIONS:
        system.add_property(reduce.__name__, reduce(a))
    top = 1 << (width - 1)
    values = sorted({0, 1, top, top - 1, mask(width)})
    amounts = (0, 1, width - 1, width, width + 1, 1 << 63, mask(64))
    sequence = [
        {"a": x, "b": y, "amount": k} for x in values for y in values for k in amounts
    ]
    _assert_agrees(system, sequence)


def test_wide_concat_matches_evaluate():
    """A concat of hundreds of parts compiles (no deeply nested source)."""
    system = TransitionSystem("wide")
    bits = [system.add_input(f"b{k}", 1) for k in range(300)]
    word = system.add_wire("word", bv_concat(*bits))
    system.add_property("not_all_ones", bv_ne(word, bv_const(mask(300), 300)))
    rng = random.Random(300)
    sequence = [{f"b{k}": rng.getrandbits(1) for k in range(300)} for _ in range(4)]
    sequence.append({f"b{k}": 1 for k in range(300)})
    _assert_agrees(system, sequence)


# ---------------------------------------------------------------------------
# the suite designs
# ---------------------------------------------------------------------------


def _lifted_daio():
    lifted = transition_system_from_aig(aig_from_transition_system(load_system("daio")))
    lifted.validate()
    return lifted


@pytest.mark.parametrize("design", [*benchmark_names(), "daio[bit]"])
def test_suite_designs_match_evaluate_loop(design):
    system = _lifted_daio() if design == "daio[bit]" else load_system(design)
    rng = random.Random(64)
    sequence = [
        {name: rng.getrandbits(width) for name, width in system.inputs.items()}
        for _ in range(64)
    ]
    _assert_agrees(system, sequence)


# ---------------------------------------------------------------------------
# the step's lifetime and malformed designs
# ---------------------------------------------------------------------------


def test_design_mutated_in_place_replays_with_new_semantics():
    system = TransitionSystem("counter")
    count = system.add_state_var("count", 4, init=0)
    system.set_next("count", bv_add(count, bv_const(1, 4)))
    system.add_property("below_3", bv_ult(count, bv_const(3, 4)))
    assert replay(system, [{}] * 5).violated_property == "below_3"
    system.set_next("count", count)
    trace = replay(system, [{}] * 5)
    assert trace.violated_property is None
    assert trace.values_of("count") == [0] * 5


def _packed_replay(system, sequence):
    """Lane 0 of a packed replay, as a trace of its register states."""
    run = PackedSimulator(system).replay(sequence)
    return Trace([TraceStep(c, state=run.lane_state(c, 0)) for c in range(run.cycles)])


def _interval_replay(system, sequence):
    """The interval step's images of the initial box, one per cycle."""
    step = IntervalStep.step_for(system)
    box = {
        name: Interval.constant(evaluate(expr, {}), system.state_vars[name])
        for name, expr in system.init.items()
    }
    inputs = {name: Interval.top(width) for name, width in system.inputs.items()}
    trace = Trace()
    for cycle in range(len(sequence)):
        trace.steps.append(TraceStep(cycle, state=box))
        box = step(box, inputs)[0]
    return trace


@pytest.mark.parametrize(
    "replay", [replay, _packed_replay, _interval_replay], ids=["scalar", "packed", "interval"]
)
def test_threads_share_one_compiled_step(monkeypatch, replay):
    """Concurrent first cycles on one design compile its step once."""
    compiles = []
    compile_step = StepCompiler.compile

    def counting(self):
        compiles.append(self.system.name)
        time.sleep(0.01)  # widen the window another thread could race into
        return compile_step(self)

    monkeypatch.setattr(StepCompiler, "compile", counting)
    system = load_system("tlc")
    sequence = [{name: 0 for name in system.inputs}] * 8
    expected = [step.state for step in replay(system, sequence).steps]
    compiles.clear()
    system.add_property("extra", bv_eq(bv_const(0, 1), bv_const(0, 1)))  # a new step
    results = []
    ready = threading.Barrier(8)

    def run():
        ready.wait(timeout=60)
        results.append([step.state for step in replay(system, sequence).steps])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 8
    assert compiles == ["tlc"]


def test_combinational_wire_cycle_raises():
    system = TransitionSystem("loop")
    x = system.add_input("x", 4)
    system.add_wire("a", bv_add(bv_var("b", 4), x))
    system.add_wire("b", bv_add(bv_var("a", 4), x))
    system.add_property("p", bv_eq(bv_var("a", 4), x))
    simulator = Simulator(system)
    with pytest.raises(TransitionSystemError, match="combinational cycle"):
        simulator.advance({"x": 1})


# ---------------------------------------------------------------------------
# the fast tiers' cross-checks see environment constraints
# ---------------------------------------------------------------------------


@pytest.fixture()
def constraint_blind_packed(monkeypatch):
    """A packed simulator that reports every constraint as held."""
    original = PackedSimulator.step

    def step(self, inputs=None):
        properties, _ = original(self, inputs)
        return properties, self.mask

    monkeypatch.setattr(PackedSimulator, "step", step)


def test_rsim_rejects_a_packed_hit_that_breaks_a_constraint(constraint_blind_packed):
    """The blind packed run pops the empty FIFO at cycle 0 and claims fifo's
    property fails at cycle 1; the scalar confirmation must refuse it."""
    with pytest.raises(SimulationMismatch, match="environment constraint"):
        make_engine("rsim", load_system("fifo")).verify()


def test_crosscheck_lane_compares_constraint_alive_bits(constraint_blind_packed):
    system = load_system("fifo")
    run = PackedSimulator(system).run_random(16, seed=5, stop_on_violation=False)
    with pytest.raises(SimulationMismatch, match="constraint-alive"):
        crosscheck_lane(system, run, lane=3)
