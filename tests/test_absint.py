"""absint's compiled interval step.

absint runs each fixpoint round as one call of the design's interval step
(:class:`repro.engines.absint.IntervalStep`).  Three checks hold it:

* the verdicts and fixpoint boxes on every suite property's cone and on the
  201-latch shift register are pinned, so no transfer function drifts;
* a soundness fuzz: on random expression trees over random input
  intervals, ``evaluate`` at points inside the inputs lands inside the
  step's interval, and the draws reach every kernel;
* the multiply-accumulate miter, whose DAG a tree walk re-walks per use,
  answers within its budget, with one temporary per distinct node.
"""

import os
import random
import re

from test_aig_lifting import SHIFT201
from test_blaster_fuzz import WIDTHS, _edge_value, _tree

from repro.aig.bitblast import transition_system_from_aig
from repro.aig.formats import read_aiger
from repro.benchmarks import benchmark_names, load_system
from repro.engines import Status, make_engine
from repro.engines.absint import Interval, IntervalStep
from repro.engines.encoding import cone_of_influence, flattened_cached
from repro.exprs import (
    BV_OPS,
    bv_reduce_and,
    bv_reduce_or,
    bv_reduce_xor,
    collect_vars,
    evaluate,
    mask,
)
from repro.exprs.nodes import Op
from repro.netlist import TransitionSystem

#: the multiply-accumulate miter at w = 5: inputs ``x`` and ``y`` of 5 bits,
#: registers ``acc`` and ``dup`` of 10 bits that reset to 0 and each add
#: ``zext(x) * zext(y)`` per cycle, and the property ``acc == dup``; 389
#: ANDs.  Written once with ``aig_from_transition_system`` and
#: ``write_aiger`` from that word-level design.
MAC5 = os.path.join(os.path.dirname(__file__), "data", "aiger", "mac5.aag")


def _lift(path):
    with open(path) as handle:
        return transition_system_from_aig(read_aiger(handle.read()))


# ---------------------------------------------------------------------------
# the pinned boxes
# ---------------------------------------------------------------------------

#: (design, property) -> absint's verdict and fixpoint box on the cone
PINNED = {
    ("arbiter", "one_hot_grant"): (Status.SAFE, {"grant": (0, 2)}),
    ("barrel16", "nonzero"): (Status.UNKNOWN, {"r": (0, 65535)}),
    ("buffalloc", "conservation"): (Status.UNKNOWN, {"free": (0, 15), "used": (0, 15)}),
    ("daio", "no_overrun"): (Status.UNKNOWN, {"err": (0, 1), "t": (0, 127)}),
    ("fifo", "no_overflow"): (Status.UNKNOWN, {"count": (0, 15)}),
    ("huffman_dec", "valid_node"): (Status.SAFE, {"node": (0, 6)}),
    ("huffman_enc", "len_bounded"): (Status.UNKNOWN, {"len": (0, 15)}),
    ("iqueue", "no_overfill"): (Status.UNKNOWN, {"count": (0, 15)}),
    ("mac16", "cnt_in_range"): (Status.UNKNOWN, {"cnt": (0, 15)}),
    ("mac16", "cnt_le_9"): (Status.UNKNOWN, {"cnt": (0, 15)}),
    ("proc3", "stage_le_2"): (Status.UNKNOWN, {"stage": (0, 3)}),
    ("proc3", "valid_stage"): (Status.UNKNOWN, {"stage": (0, 3)}),
    ("rcu", "mutex"): (Status.UNKNOWN, {"s0": (0, 2), "s1": (0, 2), "turn": (0, 1)}),
    ("tlc", "exclusive_green"): (Status.UNKNOWN, {"phase": (0, 3), "timer": (0, 127)}),
}


def test_absint_keeps_its_verdict_and_box_on_every_suite_cone():
    found = {}
    for design in benchmark_names():
        system = load_system(design)
        for prop in system.properties:
            cone = cone_of_influence(system, prop.name)
            result = make_engine("absint", cone).verify(prop.name, timeout=60)
            found[design, prop.name] = (result.status, result.detail["intervals"])
    assert found == PINNED


def test_absint_keeps_its_box_on_the_shift_register():
    lifted = _lift(SHIFT201)
    result = make_engine("absint", lifted).verify(timeout=60)
    assert result.status == Status.UNKNOWN
    assert result.detail["intervals"] == {name: (0, 1) for name in lifted.state_vars}


# ---------------------------------------------------------------------------
# soundness of the interval domain
# ---------------------------------------------------------------------------

REDUCTIONS = (bv_reduce_and, bv_reduce_or, bv_reduce_xor)


def _interval_tree(rng):
    """A tree of ``_tree``'s draws, under a reduction a fifth of the time."""
    if rng.random() < 0.2:
        return rng.choice(REDUCTIONS)(_tree(rng, rng.choice(WIDTHS), rng.randint(0, 3)))
    return _tree(rng, rng.choice(WIDTHS), rng.randint(1, 4))


def _random_interval(rng, width):
    """A constant, top, a range between two edge values, or a narrow range
    from an edge value up."""
    draw = rng.random()
    if draw < 0.25:
        return Interval.constant(_edge_value(rng, width), width)
    if draw < 0.35:
        return Interval.top(width)
    if draw < 0.7:
        lo, hi = sorted((_edge_value(rng, width), _edge_value(rng, width)))
        return Interval(lo, hi, width)
    lo = _edge_value(rng, width)
    return Interval(lo, min(lo + rng.randrange(4), mask(width)), width)


def _counting_kernels(called):
    """The interval kernels, each adding its name to ``called``."""

    def counting(name, kernel):
        def counted(*args):
            called.add(name)
            return kernel(*args)

        return counted

    return {name: counting(name, kernel) for name, kernel in IntervalStep.kernels.items()}


def _op_nodes(roots):
    """The distinct ``Op`` nodes under ``roots``, by identity."""
    found = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if isinstance(node, Op) and id(node) not in found:
            found[id(node)] = node
            stack.extend(node.args)
    return found.values()


def test_interval_step_encloses_every_concrete_value():
    rng = random.Random(2016)
    drawn = set()
    called = set()
    kernels = _counting_kernels(called)
    for _ in range(3000):
        expr = _interval_tree(rng)
        drawn |= {node.op for node in _op_nodes([expr])}
        # the tree is the next state of ``out``, over inputs held in boxes
        system = TransitionSystem("tree")
        for var in sorted(collect_vars(expr), key=lambda var: var.name):
            system.add_input(var.name, var.width)
        system.add_state_var("out", expr.width, next_expr=expr)
        inputs = {name: _random_interval(rng, width) for name, width in system.inputs.items()}
        compiler = IntervalStep(system)
        compiler.namespace.update(kernels)
        post = compiler.compile()({"out": Interval.top(expr.width)}, inputs)[0]["out"]
        assert post.width == expr.width and 0 <= post.lo <= post.hi <= mask(expr.width), expr
        for _ in range(8):
            # each input at an end of its box or inside it
            env = {
                name: rng.choice((box.lo, box.hi, rng.randint(box.lo, box.hi)))
                for name, box in inputs.items()
            }
            assert post.contains(evaluate(expr, env)), (expr, inputs, env, post)
    assert drawn == BV_OPS
    assert called == set(IntervalStep.kernels)


# ---------------------------------------------------------------------------
# the multiply-accumulate miter
# ---------------------------------------------------------------------------


def test_absint_answers_the_miter_within_its_budget():
    """A tree walk of the miter's DAG spent about a minute in its first
    round and then answered TIMEOUT; the compiled step computes each node
    once per round, so absint reaches its fixpoint and answers UNKNOWN."""
    with open(MAC5) as handle:
        assert handle.readline().split()[5] == "389"  # aag M I L O A
    lifted = _lift(MAC5)
    assert (len(lifted.inputs), len(lifted.state_vars)) == (10, 20)
    result = make_engine("absint", lifted).verify(timeout=10)
    assert result.status == Status.UNKNOWN
    flat = flattened_cached(lifted)
    nodes = _op_nodes([*flat.next.values(), *(prop.expr for prop in flat.properties)])
    source = IntervalStep.step_for(flat)._source
    assert len(re.findall(r"^ +t\d+ = (?!S\[|I\[)", source, re.M)) == len(nodes)
