"""Unified engine API: registry metadata, option routing, capabilities."""

import os
import subprocess
import sys

import pytest

from repro.benchmarks import load_system
from repro.engines import (
    Engine,
    EngineOptionError,
    get_registration,
    list_engines,
    make_engine,
)
from repro.engines.encoding import FrameEncoder
from repro.engines.registry import ENGINE_REGISTRY
from repro.exprs import bv_add, bv_const, bv_eq, bv_ult, bv_var
from repro.netlist import TransitionSystem, TransitionSystemError


CANONICAL = [
    "bmc",
    "k-induction",
    "interpolation",
    "pdr",
    "kiki",
    "impact",
    "predabs",
    "absint",
    # bit-parallel random simulation: the budget ladder's cheapest refuter
    "rsim",
    # fault injection for the certification layer, not a paper engine
    "oracle",
]


@pytest.fixture(scope="module")
def design():
    return load_system("huffman_dec")


def test_all_engines_registered():
    names = [registration.name for registration in list_engines()]
    assert names == CANONICAL


def test_list_engines_is_deduplicated():
    registrations = list_engines()
    assert len({registration.name for registration in registrations}) == len(registrations)
    # aliases resolve to the same registration object as the canonical name
    for registration in registrations:
        for alias in registration.aliases:
            assert ENGINE_REGISTRY[alias] is ENGINE_REGISTRY[registration.name]


def test_every_engine_subclasses_engine_abc():
    for registration in list_engines():
        assert issubclass(registration.engine_class, Engine)
        assert registration.engine_class.name == registration.name or registration.name
        capabilities = registration.capabilities
        assert capabilities.can_prove or capabilities.can_refute
        assert set(capabilities.representations) <= {"word", "bit"}


def test_capability_declarations():
    assert not get_registration("bmc").capabilities.can_prove
    assert get_registration("bmc").capabilities.can_refute
    assert get_registration("pdr").capabilities.can_prove
    assert not get_registration("absint").capabilities.can_refute


def test_every_registered_engine_resolves_in_a_fresh_interpreter():
    """The registry imports each engine module on first use.

    Other tests of this process have imported every engine already, so
    only a fresh interpreter catches a registration naming the wrong module
    or class.  Every name and alias makes its engine, and each class
    reports exactly the capabilities its registration declares.
    """
    probe = (
        "from repro.benchmarks import load_system\n"
        "from repro.engines import list_engines, make_engine\n"
        "system = load_system('huffman_dec')\n"
        "for registration in list_engines():\n"
        "    for name in (registration.name, *registration.aliases):\n"
        "        engine = make_engine(name, system)\n"
        "        assert type(engine) is registration.engine_class, name\n"
        "        assert engine.capabilities == registration.capabilities, name\n"
        "    print(registration.name, registration.engine_class.__name__)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert completed.returncode == 0, completed.stderr
    assert [line.split()[0] for line in completed.stdout.splitlines()] == CANONICAL


def test_alias_lookup(design):
    for alias, canonical in (("kind", "k-induction"), ("itp", "interpolation"), ("ic3", "pdr")):
        engine = make_engine(alias, design)
        assert engine.name == canonical


def test_unknown_engine_lists_available(design):
    with pytest.raises(KeyError, match="bmc"):
        make_engine("no-such-engine", design)


def test_unknown_option_raises_engine_option_error(design):
    with pytest.raises(EngineOptionError) as excinfo:
        make_engine("bmc", design, max_k=5)
    message = str(excinfo.value)
    assert "max_k" in message
    assert "max_bound" in message  # the error names the supported options


@pytest.mark.parametrize(
    "option",
    [
        "incremental_template", "persistent_session", "sim_filter", "use_intervals",
        # search settings with one value, now module constants
        "initial_depth", "max_iterations", "generalize_passes", "max_abstract_states",
        "max_refinements", "max_predicates", "widen_after", "cycles", "rounds",
        "lanes", "seed", "trace_length",
    ],
)
def test_removed_encoding_switches_are_rejected(design, option):
    """Every engine has one encoding path and one value per search setting:
    none takes a switch to another path or another value."""
    for registration in list_engines():
        with pytest.raises(EngineOptionError, match=option):
            make_engine(registration.name, design, **{option: False})
    with pytest.raises(TypeError):
        FrameEncoder(design, **{option: True})


def test_kiki_runs_its_k_induction_without_simple_paths(design):
    """k-induction keeps ``simple_path`` (kiki sets it), kiki takes none."""
    with pytest.raises(EngineOptionError, match="simple_path"):
        make_engine("kiki", design, simple_path=True)
    assert make_engine("k-induction", design, simple_path=True).simple_path


def test_option_routing_drops_unknown_options(design):
    engine = make_engine("bmc", design, ignore_unknown_options=True, max_k=5, max_bound=7)
    assert engine.max_bound == 7
    assert not hasattr(engine, "max_k")


def test_unsupported_representation_is_rejected(design):
    with pytest.raises(EngineOptionError, match="representation"):
        make_engine("impact", design, representation="bit")


def test_portfolio_flag_selects_subset():
    portfolio = {registration.name for registration in list_engines(portfolio_only=True)}
    assert portfolio == {"bmc", "k-induction", "interpolation", "pdr", "kiki"}


def test_registration_is_callable_like_a_constructor(design):
    registration = get_registration("bmc")
    engine = registration(design, max_bound=3)
    assert engine.max_bound == 3
    result = engine.verify(timeout=10)
    assert result.engine == "bmc"


def test_interpolation_iteration_cap_is_unknown_not_timeout(monkeypatch):
    """Running out of ``MAX_ITERATIONS`` is inconclusive; TIMEOUT means an
    expired budget, and this run has 30 s left."""
    from repro.engines import interpolation

    monkeypatch.setattr(interpolation, "MAX_ITERATIONS", 3)
    engine = make_engine("interpolation", load_system("daio"))
    result = engine.verify(timeout=30)
    assert result.status == "unknown"
    assert "max_iterations=3" in result.reason
    assert result.detail["iterations"] == 3


def _malformed(defect):
    """A 4-bit counter ``x`` whose constraint reads an undeclared ``z``, or
    whose property reads ``x`` at 2 bits."""
    system = TransitionSystem(defect)
    x = system.add_state_var("x", 4, init=0)
    system.set_next("x", bv_add(x, bv_const(1, 4)))
    if defect == "undeclared":
        system.add_constraint(bv_eq(bv_var("z", 1), bv_const(1, 1)))
        system.add_property("p", bv_ult(x, bv_const(15, 4)))
    else:
        system.add_property("p", bv_ult(bv_var("x", 2), bv_const(3, 2)))
    return system


@pytest.mark.parametrize("defect", ["undeclared", "width"])
def test_every_engine_rejects_a_malformed_constraint_or_property(defect):
    """``validate`` checks every root alike, so no engine runs on such a
    design: each raised its own error, or answered, before."""
    with pytest.raises(TransitionSystemError):
        _malformed(defect).validate()
    for engine in ("bmc", "k-induction", "pdr", "rsim", "absint"):
        with pytest.raises(TransitionSystemError):
            make_engine(engine, _malformed(defect)).verify(timeout=10)


def test_every_public_name_resolves():
    """Each name in a ``repro`` package's ``__all__``, and each key of a
    lazy-export table such as ``repro.engines._EXPORTS``, resolves: a stale
    re-export would otherwise pass every other test until something
    imports it."""
    import importlib
    import pkgutil

    import repro

    packages = [
        importlib.import_module(f"repro.{info.name}")
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    ]
    assert {"engines", "exprs", "obs", "verilog"} <= {
        package.__name__.split(".")[1] for package in packages
    }
    for package in packages:
        names = [*getattr(package, "__all__", ()), *getattr(package, "_EXPORTS", {})]
        for name in names:
            assert hasattr(package, name), f"{package.__name__}.{name}"
