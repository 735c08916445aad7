"""Compiled C kernels: differential correctness, build cache, degradation.

The native tier must be bit-exact with the scalar reference wherever it is
allowed to answer, must disappear gracefully (never erroring a query) when no
compiler is available, and must be caught by the cross-checked-verdict gate
when it lies — including lies injected by the ``kernel-miscompile`` chaos
fault.
"""

import random

import pytest

import repro.kernels as kernels
from repro.benchmarks import benchmark_names, load_system
from repro.cache.key import kernel_key
from repro.faults.injection import plan_installed
from repro.faults.plan import KERNEL_MISCOMPILE, FaultPlan
from repro.kernels import _scalar_replay, checked_replay
from repro.kernels.build import build_kernel, compiler_available
from repro.kernels.ckernel import CompiledKernel, KernelMismatch
from repro.netlist.simulate import Simulator
from repro.v2c.codegen import KERNEL_ABI_VERSION

SUITE = benchmark_names()

needs_cc = pytest.mark.skipif(
    not compiler_available(), reason="no C compiler available"
)


def _workload(system, cycles=72, seed=13):
    rng = random.Random(seed)
    return [
        {name: rng.getrandbits(width) for name, width in system.inputs.items()}
        for _ in range(cycles)
    ]


@pytest.fixture()
def fresh_tier(monkeypatch, tmp_path):
    """An empty on-disk build cache and a cleared in-process kernel memo."""
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    monkeypatch.setattr(kernels, "_KERNEL_CACHE", {})
    return tmp_path


# ---------------------------------------------------------------------------
# differential correctness: compiled vs scalar, whole suite
# ---------------------------------------------------------------------------


@needs_cc
@pytest.mark.parametrize("design", SUITE)
def test_compiled_trace_matches_scalar(design):
    """Register trace and first constraint-alive violation agree per design."""
    system = load_system(design)
    sequence = _workload(system)
    kernel = kernels.get_kernel(system)
    run = kernel.replay(sequence, want_trace=True)
    scalar = Simulator(system)
    for cycle in range(run.cycles):
        assert run.states[cycle] == scalar.state, f"{design} cycle {cycle}"
        scalar.step(sequence[cycle])
    reference = _scalar_replay(system, sequence)
    assert run.first_violation == reference.first_violation
    assert run.violated_property == reference.violated_property


@needs_cc
@pytest.mark.parametrize("design", SUITE)
def test_checked_replay_serves_compiled_and_agrees(design):
    system = load_system(design)
    sequence = _workload(system, seed=29)
    outcome = checked_replay(system, sequence)
    reference = _scalar_replay(system, sequence)
    assert outcome.backend == "compiled"
    assert outcome.demotions == []
    assert (outcome.first_violation, outcome.violated_property) == (
        reference.first_violation,
        reference.violated_property,
    )


# ---------------------------------------------------------------------------
# the on-disk build cache
# ---------------------------------------------------------------------------


@needs_cc
def test_build_cache_compiles_once(fresh_tier):
    system = load_system("arbiter")
    first = build_kernel(system, cache_dir=fresh_tier)
    stamp = first.stat().st_mtime_ns
    again = build_kernel(system, cache_dir=fresh_tier)
    assert again == first
    assert again.stat().st_mtime_ns == stamp, "cache hit must not rebuild"
    # the generated C source is published next to the shared object
    assert first.with_suffix(".c").exists()


def test_kernel_key_tracks_semantics():
    daio, tlc = load_system("daio"), load_system("tlc")
    assert kernel_key(daio, KERNEL_ABI_VERSION) != kernel_key(tlc, KERNEL_ABI_VERSION)
    assert kernel_key(daio, KERNEL_ABI_VERSION) != kernel_key(
        daio, KERNEL_ABI_VERSION + 1
    ), "an ABI bump must invalidate every cached kernel"
    assert kernel_key(daio, KERNEL_ABI_VERSION) == kernel_key(
        load_system("daio"), KERNEL_ABI_VERSION
    ), "the key is a content hash: reloading the design must not change it"


# ---------------------------------------------------------------------------
# graceful degradation without a compiler
# ---------------------------------------------------------------------------


def test_disabled_compiler_demotes_to_packed(monkeypatch, fresh_tier):
    monkeypatch.setenv("REPRO_CC", "disabled")
    assert not compiler_available()
    system = load_system("daio")
    sequence = _workload(system, seed=41)
    outcome = checked_replay(system, sequence)
    reference = _scalar_replay(system, sequence)
    assert outcome.backend == "packed"
    assert any("compiled unavailable" in reason for reason in outcome.demotions)
    assert (outcome.first_violation, outcome.violated_property) == (
        reference.first_violation,
        reference.violated_property,
    )


@needs_cc
def test_disabled_sentinel_beats_prebuilt_kernel(monkeypatch, fresh_tier):
    """REPRO_CC=disabled must shut the native tier even with a cached .so."""
    system = load_system("arbiter")
    build_kernel(system, cache_dir=fresh_tier)
    monkeypatch.setenv("REPRO_CC", "off")
    from repro.kernels.build import KernelUnavailable

    with pytest.raises(KernelUnavailable):
        build_kernel(system, cache_dir=fresh_tier)


def test_both_python_tiers_disabled_still_answers():
    system = load_system("tlc")
    sequence = _workload(system, seed=55)
    outcome = checked_replay(system, sequence, use_compiled=False, use_packed=False)
    reference = _scalar_replay(system, sequence)
    assert outcome.backend == "scalar"
    assert (outcome.first_violation, outcome.violated_property) == (
        reference.first_violation,
        reference.violated_property,
    )


# ---------------------------------------------------------------------------
# the kernel-miscompile chaos fault: caught, demoted, never believed
# ---------------------------------------------------------------------------


@needs_cc
def test_kernel_miscompile_fault_raises_mismatch():
    system = load_system("daio")
    sequence = _workload(system, seed=67)
    kernel = kernels.get_kernel(system)
    with plan_installed(FaultPlan(rates={KERNEL_MISCOMPILE: 1.0})):
        with pytest.raises(KernelMismatch):
            kernel.replay_checked(sequence)


@needs_cc
def test_constraint_blind_kernel_raises_mismatch(monkeypatch, fresh_tier):
    """A kernel that reports every environment constraint as held is caught
    by the prefix check, which reads constraints off the scalar simulator."""
    system = load_system("fifo")
    # pops the empty FIFO at cycle 0
    sequence = [{"put": 0, "get": 1}] + _workload(system, seed=67)
    kernel = kernels.get_kernel(system)
    assert kernel.replay(sequence).cviol_masks[0]
    honest = CompiledKernel.replay

    def blind(self, *args, **kwargs):
        run = honest(self, *args, **kwargs)
        run.cviol_masks = [0] * len(run.cviol_masks)
        return run

    monkeypatch.setattr(CompiledKernel, "replay", blind)
    with pytest.raises(KernelMismatch, match="constraint"):
        kernel.replay_checked(sequence)


@needs_cc
@pytest.mark.parametrize("design", ["daio", "huffman_dec"])
def test_kernel_miscompile_fault_demotes_not_lies(design):
    """Under a 100% miscompile fault the tier ladder falls back to packed and
    the verdict is byte-identical to the scalar reference — a corrupted
    kernel may cost speed, never an answer."""
    system = load_system(design)
    sequence = _workload(system, seed=71)
    reference = _scalar_replay(system, sequence)
    with plan_installed(FaultPlan(rates={KERNEL_MISCOMPILE: 1.0})):
        outcome = checked_replay(system, sequence)
    assert outcome.backend != "compiled"
    assert any("compiled demoted" in reason for reason in outcome.demotions)
    assert (outcome.first_violation, outcome.violated_property) == (
        reference.first_violation,
        reference.violated_property,
    )


@needs_cc
def test_first_attempt_only_plans_clear_on_retry():
    """A retried attempt runs clean under first_attempt_only plans, so the
    compiled tier comes back after a transient miscompile draw."""
    from repro.faults import injection

    system = load_system("arbiter")
    sequence = _workload(system, seed=83)
    with plan_installed(FaultPlan(rates={KERNEL_MISCOMPILE: 1.0})):
        injection.set_attempt(1)
        outcome = checked_replay(system, sequence)
    assert outcome.backend == "compiled"
    assert outcome.demotions == []


# ---------------------------------------------------------------------------
# unsupported designs degrade instead of erroring
# ---------------------------------------------------------------------------


def test_wide_design_is_kernel_unavailable(fresh_tier):
    from repro.kernels.build import KernelUnavailable
    from repro.netlist import TransitionSystem
    from repro.exprs import bv_add, bv_const, bv_ne, bv_var

    system = TransitionSystem(name="wide96")
    wide = system.add_state_var("acc", 96, init=0)
    system.set_next("acc", bv_add(wide, bv_const(1, 96)))
    system.add_property("nonzero", bv_ne(wide, bv_const(7, 96)))
    system.validate()
    with pytest.raises(KernelUnavailable):
        build_kernel(system, cache_dir=fresh_tier)
    # the tier ladder still answers through pure Python
    outcome = checked_replay(system, [{} for _ in range(10)])
    assert outcome.backend in ("packed", "scalar")
    assert outcome.first_violation == 7
