"""Certificates: serialization, independent validation, adjudication, exit codes."""

import json
import os
import re

import pytest

from repro.benchmarks import get_benchmark
from repro.certs import (
    CertificateError,
    InductiveCertificate,
    KInductiveCertificate,
    Witness,
    certificate_from_json,
    dumps,
    expr_from_json,
    expr_to_json,
    loads,
    validate_certificate,
    validate_result,
    witness_from_counterexample,
)
from repro.certs.exprjson import ExprJsonError
from repro.engines import Status, make_engine
from repro.engines.result import VerificationResult
from repro.exprs import TRUE, bool_and, bv_const, bv_ule, bv_ult, bv_var


def _verify(engine_name, design, **options):
    benchmark = get_benchmark(design)
    system = benchmark.load()
    result = make_engine(engine_name, system, **options).verify(timeout=90)
    return system, result


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_expr_json_round_trip():
    expr = bool_and(
        bv_ule(bv_var("x", 8), bv_const(200, 8)),
        bv_var("flag", 1),
        bv_var("y", 4).bit(2),
    )
    assert expr_from_json(expr_to_json(expr)) == expr


def test_expr_json_rejects_malformed():
    with pytest.raises(ExprJsonError):
        expr_from_json(["o", "no-such-op", 1, [], [["c", 0, 1]]])
    with pytest.raises(ExprJsonError):
        expr_from_json(["c", "not-an-int", 4])
    with pytest.raises(ExprJsonError):
        expr_from_json([])


def test_certificate_json_round_trips():
    witness = Witness("p", "bmc", ({"a": 1, "b": 0}, {"a": 0, "b": 3}))
    inductive = InductiveCertificate("p", "pdr", bv_ule(bv_var("x", 4), bv_const(9, 4)))
    k_inductive = KInductiveCertificate(
        "p", "kiki", k=3, simple_path=True, invariants=(bv_var("ok", 1),)
    )
    for certificate in (witness, inductive, k_inductive):
        assert loads(dumps(certificate)) == certificate


def test_certificate_json_rejects_malformed():
    with pytest.raises(CertificateError):
        certificate_from_json({"format": "other", "kind": "witness"})
    with pytest.raises(CertificateError):
        certificate_from_json(
            {"format": "repro-cert-v1", "kind": "nonsense", "property": "p", "engine": "e"}
        )
    with pytest.raises(CertificateError):
        certificate_from_json(
            {"format": "repro-cert-v1", "kind": "k-inductive", "property": "p",
             "engine": "e", "k": 0}
        )


def test_witness_aiger_stimulus_export():
    from repro.aig import aig_from_transition_system

    system, result = _verify("bmc", "daio", max_bound=70)
    stimulus = result.certificate.to_aiger_stimulus(aig_from_transition_system(system))
    lines = stimulus.strip().split("\n")
    input_bits = sum(system.inputs.values())
    assert len(lines) == result.counterexample.length
    assert all(len(line) == input_bits and set(line) <= {"0", "1"} for line in lines)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def test_counterexample_fully_valuates_inputs():
    system, result = _verify("bmc", "daio", max_bound=70)
    for step in result.counterexample.steps:
        for name in system.inputs:
            assert name in step
    sequence = result.counterexample.input_sequence(dict(system.inputs))
    assert all(set(cycle) == set(system.inputs) for cycle in sequence)


def test_witness_validates_by_concrete_replay():
    system, result = _verify("bmc", "daio", max_bound=70)
    validation = validate_result(system, result)
    assert validation.ok
    assert validation.kind == "witness"
    assert "cycle 64" in validation.reason


def test_tampered_witness_fails_replay():
    system, result = _verify("bmc", "daio", max_bound=70)
    witness = result.certificate
    truncated = Witness(witness.property_name, witness.engine, witness.inputs[:10])
    validation = validate_certificate(system, truncated)
    assert not validation.ok
    assert "never violates" in validation.reason


def test_witness_validates_claimed_property_on_multi_property_design():
    """Another property failing earlier must not mask the claimed violation."""
    from repro.exprs import bv_ne
    from repro.netlist import TransitionSystem

    system = TransitionSystem("two_props")
    system.add_input("inc", 1)
    counter = system.add_state_var("counter", 4, init=0)
    system.set_next("counter", counter + bv_const(1, 4))
    system.add_property("fails_at_2", bv_ne(counter, bv_const(2, 4)))
    system.add_property("fails_at_5", bv_ne(counter, bv_const(5, 4)))
    system.validate()

    result = make_engine("bmc", system, max_bound=10).verify("fails_at_5", timeout=30)
    assert result.status == Status.UNSAFE
    validation = validate_result(system, result)
    assert validation.ok, validation.reason
    assert "cycle 5" in validation.reason


def test_witness_for_unknown_property_fails():
    system, result = _verify("bmc", "daio", max_bound=70)
    renamed = Witness("no_such_property", "bmc", result.certificate.inputs)
    validation = validate_certificate(system, renamed)
    assert not validation.ok


@pytest.mark.parametrize("backend", ["scalar", "packed"])
@pytest.mark.parametrize(
    "inputs",
    [
        # pops the empty FIFO at cycle 0, so count wraps to 15
        ({"put": 0, "get": 1}, {"put": 0, "get": 0}),
        # pushes into the full FIFO at cycle 8
        tuple({"put": 1, "get": 0} for _ in range(10)),
    ],
    ids=["pop-empty", "push-full"],
)
def test_witness_breaking_a_constraint_fails(inputs, backend):
    """A path that breaks an environment assumption is no counterexample,
    although fifo's property fails at its last cycle."""
    system = get_benchmark("fifo").load()
    witness = Witness("no_overflow", "hand", inputs)
    validation = validate_certificate(system, witness, replay_backend=backend)
    assert not validation.ok
    assert [o.name for o in validation.failed_obligations()] == ["constraints-hold"]


def test_certified_word_bit_race_on_fifo_is_safe(capsys):
    from repro.tools.verify_cli import main

    argv = ["fifo", "--portfolio", "--representation", "word", "bit", "--certify"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert re.search(r"^portfolio\s+safe\s", out, re.MULTILINE), out
    assert "VALIDATED" in out


# ---------------------------------------------------------------------------
# safety certificates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "engine_name,design,kind",
    [
        ("pdr", "huffman_dec", "inductive"),
        ("interpolation", "huffman_dec", "inductive"),
        ("impact", "huffman_dec", "inductive"),
        ("predabs", "huffman_dec", "inductive"),
        ("absint", "arbiter", "inductive"),
        ("k-induction", "buffalloc", "k-inductive"),
        ("kiki", "huffman_dec", "k-inductive"),
    ],
)
def test_safe_certificates_validate(engine_name, design, kind):
    system, result = _verify(engine_name, design)
    assert result.status == Status.SAFE
    assert result.certificate is not None
    assert result.certificate.kind == kind
    assert result.certificate.engine == result.engine
    validation = validate_result(system, result)
    assert validation.ok, validation.reason
    # the certificate survives a JSON round trip and still validates
    revived = loads(dumps(result.certificate))
    assert validate_certificate(system, revived).ok


def test_forged_trivial_invariant_fails():
    system = get_benchmark("huffman_dec").load()
    forged = InductiveCertificate(system.properties[0].name, "oracle", TRUE)
    validation = validate_certificate(system, forged)
    assert not validation.ok
    failed = {o.name for o in validation.failed_obligations()}
    assert "property" in failed  # TRUE does not exclude the unreachable bad states


def test_non_inductive_invariant_fails_consecution():
    system = get_benchmark("huffman_dec").load()
    # node == 0 holds initially and implies the property but is not inductive
    bogus = InductiveCertificate(
        system.properties[0].name,
        "test",
        bv_var("node", 3).eq(bv_const(0, 3)),
    )
    validation = validate_certificate(system, bogus)
    assert not validation.ok
    assert {o.name for o in validation.failed_obligations()} == {"consecution"}


def test_invariant_over_non_state_signals_rejected():
    system = get_benchmark("huffman_dec").load()
    bogus = InductiveCertificate(
        system.properties[0].name, "test", bv_var("bit", 1)
    )
    validation = validate_certificate(system, bogus)
    assert not validation.ok
    assert "non-state signal" in validation.reason


def test_k_inductive_with_bogus_aux_invariant_fails():
    from repro.exprs import bv_ne, evaluate

    system, result = _verify("k-induction", "buffalloc")
    genuine = result.certificate
    # an auxiliary invariant that is false in the initial state can never
    # be admitted by the validator
    flat = system.flattened()
    name, width = next(iter(flat.state_vars.items()))
    init_value = evaluate(flat.init[name], {})
    bogus = KInductiveCertificate(
        genuine.property_name,
        genuine.engine,
        genuine.k,
        genuine.simple_path,
        invariants=(bv_ne(bv_var(name, width), bv_const(init_value, width)),),
    )
    validation = validate_certificate(system, bogus)
    assert not validation.ok
    assert "aux-init" in {o.name for o in validation.failed_obligations()}


def test_certificate_kind_must_match_status():
    system, result = _verify("pdr", "huffman_dec")
    result.status = Status.UNSAFE  # claim flipped, certificate kept
    validation = validate_result(system, result)
    assert not validation.ok
    assert "cannot justify" in validation.reason


def _mac16_with_unsafe_property():
    system = get_benchmark("mac16").load()
    system.add_property("cnt_below_5", bv_ult(system.var("cnt"), bv_const(5, 4)))
    system.validate()
    return system


@pytest.mark.parametrize("kind", ["witness", "inductive", "k-inductive"])
def test_certificate_for_another_property_fails_validation(kind):
    """A verdict is only validated by a certificate for the property it claims."""
    system = _mac16_with_unsafe_property()
    if kind == "witness":
        # cnt_below_5's genuine witness offered for the safe cnt_in_range
        result = make_engine("bmc", system, max_bound=10).verify("cnt_below_5", timeout=30)
        claimed = "cnt_in_range"
    elif kind == "inductive":
        # a lying engine backs its SAFE claim for the unsafe cnt_below_5 with
        # a genuine invariant of cnt_le_9
        result = VerificationResult(
            Status.SAFE,
            "liar",
            "cnt_le_9",
            certificate=InductiveCertificate(
                "cnt_le_9", "liar", bv_ule(bv_var("cnt", 4), bv_const(9, 4))
            ),
        )
        claimed = "cnt_below_5"
    else:
        # cnt_le_9's genuine k-inductive claim offered for cnt_in_range
        result = make_engine("k-induction", system).verify("cnt_le_9", timeout=30)
        claimed = "cnt_in_range"
    assert result.certificate.kind == kind
    assert validate_certificate(system, result.certificate).ok
    result.property_name = claimed
    validation = validate_result(system, result)
    assert not validation.ok
    assert validation.property_name == claimed
    assert [(o.name, o.outcome) for o in validation.obligations] == [
        ("property-matches", "failed")
    ]


def test_missing_certificate_fails_validation():
    system, result = _verify("pdr", "huffman_dec")
    result.certificate = None
    validation = validate_result(system, result)
    assert not validation.ok
    assert "no certificate" in validation.reason


# ---------------------------------------------------------------------------
# the fault-injection oracle
# ---------------------------------------------------------------------------


def test_oracle_forged_certificates_fail_validation():
    system = get_benchmark("daio").load()
    safe_claim = make_engine("oracle", system, claim=Status.SAFE).verify(timeout=10)
    assert safe_claim.status == Status.SAFE
    assert not validate_result(system, safe_claim).ok
    unsafe_claim = make_engine("oracle", system, claim=Status.UNSAFE).verify(timeout=10)
    assert unsafe_claim.status == Status.UNSAFE
    assert not validate_result(system, unsafe_claim).ok


def test_witness_helper_defaults_missing_inputs_to_zero():
    from repro.engines.result import Counterexample

    system = get_benchmark("daio").load()
    cex = Counterexample(system.properties[0].name, [{}, {}])
    witness = witness_from_counterexample(system, "test", cex)
    assert witness.length == 2
    for cycle in witness.inputs:
        assert set(cycle) == set(system.inputs)
        assert all(value == 0 for value in cycle.values())


# ---------------------------------------------------------------------------
# CLI exit codes (CI-gateable contract)
# ---------------------------------------------------------------------------


def test_cli_exit_codes(capsys):
    from repro.tools.verify_cli import main

    # 0: validated expected verdict
    assert main(["daio", "--engine", "bmc", "--bound", "80", "--certify"]) == 0
    # 2: wrong verdict against known ground truth
    assert main(["daio", "--engine", "oracle", "--timeout", "10"]) == 2
    # 3: inconclusive (bmc cannot refute within a tiny bound)
    assert main(["huffman_dec", "--engine", "bmc", "--bound", "3"]) == 3
    # no mode flag: the in-process ladder
    assert main(["daio", "--certify"]) == 0
    assert main(["huffman_dec", "--certify"]) == 0
    capsys.readouterr()
    # 3: the budget expires before any rung decides.  A fresh process, as
    # the CLI runs: this one may hold mac16's blast warm from other tests,
    # and warm k-induction proves it within the budget
    expired = _fresh_python("-m", "repro.tools.verify_cli", "mac16", "--timeout", "0.01")
    assert expired.returncode == 3, expired.stdout + expired.stderr


def _fresh_python(*args):
    """Run ``python *args`` in a fresh interpreter over this checkout's src."""
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_cli_import_loads_no_frontend_or_serving_code():
    """Start-up and a bare query pay only for the verdict path.

    A bare ``repro-verify D --certify`` loads the ladder, the engines it
    runs and the validator: not the dormant clusters, not the process
    race, supervisor or pool, and not the engines no rung reaches.  rsim decides daio,
    absint huffman_dec and k-induction mac16.
    """
    unwanted = (
        "repro.verilog", "repro.sva", "repro.tools.catalog", "repro.serve",
        "repro.kernels",
        "multiprocessing", "pickle", "socket", "subprocess", "hashlib",
        "repro.engines.portfolio", "repro.engines.supervision",
        "repro.engines.batch", "repro.engines.interpolation",
        "repro.engines.pdr", "repro.engines.impact", "repro.engines.predabs",
        "repro.engines.oracle", "repro.sat.interpolate", "repro.aig",
        "repro.obs.export", "repro.cache",
    )
    probe = (
        "import contextlib, io, sys\n"
        "from repro.tools.verify_cli import main\n"
        f"unwanted = {unwanted!r}\n"
        "prefixes = tuple(name + '.' for name in unwanted)\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m in unwanted or m.startswith(prefixes))\n"
        "print(loaded())\n"
        "for design in ('daio', 'huffman_dec', 'mac16'):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main([design, '--certify'])\n"
        "    print(design, code, out.getvalue().splitlines()[2].split()[0])\n"
        "print(loaded())\n"
    )
    completed = _fresh_python("-c", probe)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines() == [
        "[]",
        "daio 0 rsim",
        "huffman_dec 0 abstract-interpretation",
        "mac16 0 k-induction",
        "[]",
    ]


def test_cli_certify_demotes_unvalidated_verdict(capsys):
    from repro.tools.verify_cli import main

    # the oracle's SAFE claim on a safe design matches the ground truth but
    # its forged certificate cannot be validated -> WRONG under --certify
    assert main(["huffman_dec", "--engine", "oracle", "--timeout", "10"]) == 0
    assert main(["huffman_dec", "--engine", "oracle", "--certify", "--timeout", "10"]) == 2
    out = capsys.readouterr().out
    assert "NOT VALIDATED" in out


def test_cli_saves_certificate_and_stimulus(tmp_path, capsys):
    from repro.tools.verify_cli import main

    path = tmp_path / "daio.cert.json"
    code = main(
        ["daio", "--engine", "bmc", "--bound", "80",
         "--save-certificate", str(path)]
    )
    capsys.readouterr()
    assert code == 0
    document = json.loads(path.read_text())
    assert document["format"] == "repro-cert-v1"
    assert document["kind"] == "witness"
    cex = tmp_path / "daio.cert.cex"
    assert cex.exists()
    assert len(cex.read_text().strip().split("\n")) == 65
