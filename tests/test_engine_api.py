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
    "option", ["incremental_template", "persistent_session", "sim_filter", "use_intervals"]
)
def test_removed_encoding_switches_are_rejected(design, option):
    """Every engine has one encoding path: none takes a switch to another."""
    for registration in list_engines():
        with pytest.raises(EngineOptionError, match=option):
            make_engine(registration.name, design, **{option: False})
    with pytest.raises(TypeError):
        FrameEncoder(design, **{option: True})


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
