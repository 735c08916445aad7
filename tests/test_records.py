"""The plain-class records of the verdict path keep their contracts.

The records a verdict builds are plain classes, not dataclasses (see
:mod:`repro.records`).  Pinned here: an immutable record rejects assignment
to a field, every record that crosses a worker pipe survives a pickle round
trip as an equal object, and each engine's option names, read from its
constructor's code object, are exactly the declared ones.
"""

import pickle

import pytest

from repro.benchmarks import get_benchmark, load_system
from repro.certs import InductiveCertificate, KInductiveCertificate, Witness
from repro.engines import get_registration, make_engine
from repro.engines.absint import Interval
from repro.engines.encoding import FrameTemplate
from repro.engines.ladder import (
    LadderRung,
    PortfolioConfig,
    VerificationTask,
    default_budget_ladder,
)
from repro.engines.registry import ENGINE_REGISTRY
from repro.engines.result import Status
from repro.exprs import TRUE

#: (what, a factory for one instance, a field and a value to assign to it)
FROZEN = [
    ("SafetyProperty", lambda: load_system("huffman_dec").properties[0], "name", "other"),
    ("Benchmark", lambda: get_benchmark("daio"), "expected", "safe"),
    ("Witness", lambda: Witness("p", "bmc", ({"a": 1},)), "engine", "forger"),
    ("InductiveCertificate", lambda: InductiveCertificate("p", "pdr", TRUE), "invariant", TRUE),
    ("KInductiveCertificate", lambda: KInductiveCertificate("p", "kind", 2), "k", 1),
    ("EngineCapabilities", lambda: get_registration("bmc").capabilities, "cost", "cheap"),
    ("EngineRegistration", lambda: get_registration("bmc"), "portfolio", False),
    ("VerificationTask", lambda: VerificationTask.benchmark("daio"), "spec", "tlc"),
    ("PortfolioConfig", lambda: PortfolioConfig.of("bmc", max_bound=8), "engine", "pdr"),
    ("LadderRung", lambda: LadderRung((PortfolioConfig("bmc"),), 0.5, "medium"), "budget", 9.0),
    ("FrameTemplate", lambda: FrameTemplate(1, 1, (), (), (), (), (), (), ()), "num_vars", 2),
    ("Interval", lambda: Interval(0, 3, 2), "hi", 1),
]


@pytest.mark.parametrize("what, make, field, value", FROZEN, ids=[row[0] for row in FROZEN])
def test_frozen_record_rejects_assignment(what, make, field, value):
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    assert getattr(record, field) is before


def _round_trips(record):
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(record, protocol=protocol))
        assert type(restored) is type(record)
        assert restored == record, protocol
        assert restored is not record


def test_results_with_certificates_pickle_to_equal_objects():
    refuted = make_engine("rsim", load_system("daio")).verify(timeout=60)
    assert refuted.status == Status.UNSAFE
    assert isinstance(refuted.certificate, Witness)
    assert refuted.counterexample is not None
    _round_trips(refuted)

    proved = make_engine("k-induction", load_system("mac16")).verify(timeout=60)
    assert proved.status == Status.SAFE
    assert isinstance(proved.certificate, KInductiveCertificate)
    _round_trips(proved)


def test_tasks_configs_and_rungs_pickle_to_equal_objects():
    rungs = default_budget_ladder(("word", "bit"), bound=40, timeout=30.0)
    _round_trips(VerificationTask.benchmark("daio"))
    _round_trips(VerificationTask.verilog("design.v", top="top"))
    for rung in rungs:
        _round_trips(rung)
        for config in rung.configs:
            _round_trips(config)


def test_certificate_replace_changes_only_the_named_fields():
    certificate = KInductiveCertificate("p", "k-induction", 3, True, (TRUE,))
    retagged = certificate.replace(engine="kiki")
    assert retagged == KInductiveCertificate("p", "kiki", 3, True, (TRUE,))
    assert certificate.engine == "k-induction"
    with pytest.raises(TypeError):
        certificate.replace(depth=4)


#: the keyword options each engine's constructor declares (besides the design)
OPTION_NAMES = {
    "bmc": ("max_bound", "representation"),
    "k-induction": ("max_k", "simple_path", "representation", "strengthening_invariants"),
    "interpolation": ("max_depth", "representation"),
    "pdr": ("max_frames", "representation"),
    "kiki": ("max_k", "representation"),
    "impact": ("max_depth", "representation"),
    "predabs": ("representation",),
    "absint": (),
    "rsim": (),
    "oracle": ("claim", "representation"),
}


def test_option_names_of_every_registered_engine():
    assert {registration.name for registration in ENGINE_REGISTRY.values()} == set(OPTION_NAMES)
    for name, registration in ENGINE_REGISTRY.items():
        expected = OPTION_NAMES[registration.name]
        assert registration.option_names == expected, name
        assert registration.engine_class.option_names() == expected, name
