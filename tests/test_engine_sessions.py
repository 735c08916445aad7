"""Persistent engine sessions against ground truth and the validator.

Every engine keeps one solver session per run (BMC, k-induction, kIkI,
interpolation, IMPACT, predicate abstraction).  Frame retraction through
:class:`repro.engines.encoding.FrameEncoder` activation guards must actually
detach a frame's constraints; across the whole benchmark suite no engine
may contradict a design's known verdict, and every definitive answer must
carry a certificate the independent validator accepts; and the portfolio
pre-warm must make workers inherit the parent's blasted templates (what
it blasts for each property's cone is pinned in ``test_cone_of_influence``).
"""

import pytest

from repro.benchmarks import benchmark_names, get_benchmark, load_system_cached
from repro.certs import validate_result
from repro.engines.bmc import BMCEngine
from repro.engines.encoding import FrameEncoder, template_library
from repro.engines.impact import ImpactEngine
from repro.engines.interpolation import InterpolationEngine
from repro.engines.kiki import KikiEngine
from repro.engines.kinduction import KInductionEngine
from repro.engines.ladder import warm_task_templates
from repro.engines.portfolio import PortfolioConfig, PortfolioRunner, VerificationTask
from repro.engines.predabs import PredicateAbstractionEngine
from repro.exprs import bv_const, bv_eq, bv_ne
from repro.netlist import TransitionSystem
from repro.smt import BVResult


def _tiny_unsafe() -> TransitionSystem:
    ts = TransitionSystem("tiny_unsafe")
    c = ts.add_state_var("c", 3, init=0)
    ts.set_next("c", c + bv_const(1, 3))
    ts.add_property("p", bv_ne(c, bv_const(3, 3)))
    return ts


# ---------------------------------------------------------------------------
# frame retraction through the encoder
# ---------------------------------------------------------------------------


def test_retired_frame_no_longer_constrains():
    ts = TransitionSystem("tiny")
    c = ts.add_state_var("c", 3, init=0)
    ts.set_next("c", c + bv_const(1, 3))
    ts.add_property("p", bv_eq(c, c))
    encoder = FrameEncoder(ts)
    encoder.assert_init(0)
    activation = encoder.new_activation()
    encoder.assert_trans(0, guard=activation)
    query = encoder.solver.literal_for(
        bv_eq(encoder.var_at("c", 1), bv_const(5, 3))
    )
    # with the frame active, c@1 is forced to 1
    assert encoder.solver.check(assumptions=[activation, query]) == BVResult.UNSAT
    assert encoder.solver.check(assumptions=[activation, -query]) == BVResult.SAT
    encoder.retire(activation)
    # retired: c@1 is unconstrained again
    assert encoder.solver.check(assumptions=[query]) == BVResult.SAT


def test_retracted_frame_can_be_restamped():
    """The sliding-window pattern: retire a frame, stamp it again, same bits."""
    ts = TransitionSystem("tiny")
    c = ts.add_state_var("c", 3, init=0)
    ts.set_next("c", c + bv_const(1, 3))
    ts.add_property("p", bv_eq(c, c))
    encoder = FrameEncoder(ts)
    encoder.assert_init(0)
    first = encoder.new_activation()
    encoder.assert_trans(0, guard=first)
    encoder.retire(first)
    second = encoder.new_activation()
    encoder.assert_trans(0, guard=second)
    forced = encoder.solver.literal_for(
        bv_eq(encoder.var_at("c", 1), bv_const(1, 3))
    )
    assert encoder.solver.check(assumptions=[second, -forced]) == BVResult.UNSAT
    assert encoder.solver.check(assumptions=[second, forced]) == BVResult.SAT


def test_guarded_init_retraction():
    ts = _tiny_unsafe()
    encoder = FrameEncoder(ts)
    activation = encoder.new_activation()
    encoder.assert_init(0, guard=activation)
    nonzero = encoder.solver.literal_for(
        bv_ne(encoder.var_at("c", 0), bv_const(0, 3))
    )
    assert encoder.solver.check(assumptions=[activation, nonzero]) == BVResult.UNSAT
    encoder.retire(activation)
    assert encoder.solver.check(assumptions=[nonzero]) == BVResult.SAT


# ---------------------------------------------------------------------------
# verdict sweep against the suite's ground truth (the test names keep their
# old "legacy" spelling so the case ids stay stable)
# ---------------------------------------------------------------------------

_SWEEP_FACTORIES = {
    "bmc": lambda system: BMCEngine(system, max_bound=8),
    "k-induction": lambda system: KInductionEngine(system, max_k=8),
    "kiki": lambda system: KikiEngine(system, max_k=8),
    "interpolation": lambda system: InterpolationEngine(system, max_depth=8),
    "predabs": lambda system: PredicateAbstractionEngine(system),
}


def _assert_sound(design, system, result):
    """A definitive answer must match the suite verdict and validate."""
    if not result.is_definitive:
        return
    assert result.status == get_benchmark(design).expected
    validation = validate_result(system, result, timeout=60)
    assert validation.ok, validation.reason


@pytest.mark.parametrize("engine_name", sorted(_SWEEP_FACTORIES))
@pytest.mark.parametrize("design", benchmark_names())
def test_session_vs_legacy_verdicts(engine_name, design):
    system = get_benchmark(design).load()
    result = _SWEEP_FACTORIES[engine_name](system).verify(timeout=60)
    _assert_sound(design, system, result)


@pytest.mark.parametrize("design", ["huffman_dec", "fifo", "arbiter", "barrel16"])
def test_impact_session_vs_legacy(design):
    system = get_benchmark(design).load()
    result = ImpactEngine(system).verify(timeout=60)
    assert result.status == get_benchmark(design).expected
    _assert_sound(design, system, result)


def test_session_counterexample_matches_legacy():
    for engine_class in (BMCEngine, KInductionEngine):
        system = _tiny_unsafe()
        result = engine_class(system).verify(timeout=60)
        assert result.status == "unsafe"
        assert result.counterexample.length == 4  # cycles 0..3
        validation = validate_result(system, result, timeout=60)
        assert validation.ok, validation.reason


def test_session_results_report_solver_stats():
    result = BMCEngine(_tiny_unsafe()).verify(timeout=60)
    stats = result.detail.get("solver_stats")
    assert stats is not None
    assert stats["propagations"] > 0
    for key in ("conflicts", "decisions", "restarts", "reduce_db", "minimized_literals"):
        assert key in stats


# ---------------------------------------------------------------------------
# session-produced certificates stay independently checkable
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "factory",
    [
        lambda system: InterpolationEngine(system),
        lambda system: KInductionEngine(system, max_k=8),
        lambda system: KikiEngine(system, max_k=8),
    ],
)
def test_session_safe_certificates_validate(factory):
    system = get_benchmark("huffman_dec").load()
    result = factory(system).verify(timeout=60)
    assert result.status == "safe"
    validation = validate_result(system, result, timeout=60)
    assert validation.ok, validation.reason


def test_interpolation_session_unsafe_witness_validates():
    system = _tiny_unsafe()
    result = InterpolationEngine(system).verify(timeout=60)
    assert result.status == "unsafe"
    validation = validate_result(system, result, timeout=60)
    assert validation.ok, validation.reason


# ---------------------------------------------------------------------------
# portfolio template pre-warm
# ---------------------------------------------------------------------------


def test_cached_loader_returns_shared_instance():
    first = load_system_cached("arbiter")
    second = load_system_cached("arbiter")
    assert first is second
    # the portfolio task loader resolves to the same shared instance
    assert VerificationTask.benchmark("arbiter").load() is first


def test_prewarm_builds_templates_in_parent():
    runner = PortfolioRunner(
        configs=[
            PortfolioConfig.of("bmc", representation="word", max_bound=8),
            PortfolioConfig.of("k-induction", representation="bit", max_k=8),
        ],
        timeout=30,
    )
    task = VerificationTask.benchmark("huffman_dec")
    warm_task_templates(task, runner.configs)
    system = load_system_cached("huffman_dec")
    # both representations were blasted on the shared instance: further
    # lookups return the already-built libraries (no rebuild)
    word = template_library(system, "word")
    bit = template_library(system, "bit")
    assert template_library(system, "word") is word
    assert template_library(system, "bit") is bit
    # property templates were warmed too
    prop = system.properties[0].name
    assert word.property_template(prop) is word.property_template(prop)


def test_portfolio_with_prewarm_still_correct():
    runner = PortfolioRunner(
        configs=[
            PortfolioConfig.of("bmc", max_bound=80),
            PortfolioConfig.of("k-induction", max_k=16),
        ],
        timeout=120,
        expected="unsafe",
    )
    result = runner.run(VerificationTask.benchmark("daio"))
    assert result.status == "unsafe"
