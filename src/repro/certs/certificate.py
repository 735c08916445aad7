"""Checkable certificates accompanying definitive engine verdicts.

Every definitive answer of the engine zoo is only as trustworthy as the
engine that produced it — the motivation behind exchangeable verification
witnesses in the software-verification world (CPAchecker-style violation and
correctness witnesses).  This module defines the certificate objects the
engines attach to their :class:`repro.engines.result.VerificationResult`:

* :class:`Witness` — an UNSAFE verdict ships the input trace that drives the
  design from reset into the violation; it is replayed *concretely* through
  :meth:`repro.netlist.simulate.Simulator.advance`.
* :class:`InductiveCertificate` — a SAFE verdict ships a one-step inductive
  invariant ``Inv`` (PDR frame clauses, the interpolation fixpoint ``R``,
  IMPACT's covered labels, predicate-abstraction's reachable abstract states,
  the interval box of abstract interpretation); the validator discharges
  ``Init ⊆ Inv``, ``Inv ∧ T ⊆ Inv′`` and ``Inv ⊆ P`` as SAT queries.
* :class:`KInductiveCertificate` — k-induction and kIkI instead certify that
  the property (optionally strengthened with auxiliary inductive invariants)
  is ``k``-inductive; the validator discharges the base case, the step case
  and the inductiveness of the auxiliary invariants.

All three serialize to a JSON document (``format: repro-cert-v1``) and the
witness additionally exports an AIGER-style ``.cex`` stimulus file (one line
of input bits per cycle, in AIG input order) so bit-level traces can be fed
to external AIGER simulators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.certs.exprjson import ExprJsonError, expr_from_json, expr_to_json
from repro.exprs import Expr

FORMAT = "repro-cert-v1"

#: certificate kinds
WITNESS = "witness"
INDUCTIVE = "inductive"
K_INDUCTIVE = "k-inductive"


class CertificateError(ValueError):
    """Raised when a certificate document is malformed."""


@dataclass(frozen=True)
class Witness:
    """An input-trace witness for an UNSAFE verdict.

    ``inputs[i]`` fully valuates every primary input at cycle ``i`` (the
    producer defaults unconstrained inputs to 0, so the replay is
    deterministic); the violated property is expected to fail at cycle
    ``len(inputs) - 1``, counting from reset.
    """

    property_name: str
    engine: str
    inputs: Tuple[Mapping[str, int], ...]

    kind = WITNESS

    @property
    def length(self) -> int:
        return len(self.inputs)

    @property
    def violation_cycle(self) -> int:
        return len(self.inputs) - 1

    def input_sequence(self) -> List[Dict[str, int]]:
        """The per-cycle input valuations as plain dicts (simulator food)."""
        return [dict(step) for step in self.inputs]

    def to_json(self) -> Dict[str, object]:
        return {
            "format": FORMAT,
            "kind": self.kind,
            "property": self.property_name,
            "engine": self.engine,
            "inputs": [dict(step) for step in self.inputs],
        }

    def to_aiger_stimulus(self, aig) -> str:
        """Render the witness as an AIGER stimulus (one '01...' line per cycle).

        Bits follow the AIG's primary-input order; input names are expected
        in the ``name[bit]`` convention of
        :func:`repro.aig.bitblast.aig_from_transition_system`.  Missing
        inputs read as 0, matching the witness semantics.
        """
        lines = []
        for step in self.inputs:
            bits = []
            for literal in aig.inputs:
                name = aig.input_names.get(literal, "")
                base, _, index = name.rpartition("[")
                if base and index.endswith("]"):
                    value = int(step.get(base, 0))
                    bits.append("1" if (value >> int(index[:-1])) & 1 else "0")
                else:
                    bits.append("1" if int(step.get(name, 0)) & 1 else "0")
            lines.append("".join(bits))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class InductiveCertificate:
    """A one-step inductive invariant certifying a SAFE verdict."""

    property_name: str
    engine: str
    invariant: Expr

    kind = INDUCTIVE

    def to_json(self) -> Dict[str, object]:
        return {
            "format": FORMAT,
            "kind": self.kind,
            "property": self.property_name,
            "engine": self.engine,
            "invariant": expr_to_json(self.invariant),
        }


@dataclass(frozen=True)
class KInductiveCertificate:
    """A k-induction certificate for a SAFE verdict.

    The claim: with the auxiliary ``invariants`` (each jointly inductive,
    checked separately by the validator) assumed in every frame, the property
    holds in the first ``k`` frames from reset and ``k`` consecutive
    property-satisfying frames force the property in the next frame —
    optionally under the simple-path side condition (all states of the
    induction window pairwise distinct).
    """

    property_name: str
    engine: str
    k: int
    simple_path: bool = False
    invariants: Tuple[Expr, ...] = ()

    kind = K_INDUCTIVE

    def to_json(self) -> Dict[str, object]:
        return {
            "format": FORMAT,
            "kind": self.kind,
            "property": self.property_name,
            "engine": self.engine,
            "k": self.k,
            "simple_path": self.simple_path,
            "invariants": [expr_to_json(inv) for inv in self.invariants],
        }


#: any certificate
Certificate = object  # Witness | InductiveCertificate | KInductiveCertificate


def certificate_to_json(certificate) -> Dict[str, object]:
    """Serialize any certificate kind to its JSON document."""
    return certificate.to_json()


def dumps(certificate, indent: Optional[int] = 2) -> str:
    """Serialize a certificate to a JSON string."""
    return json.dumps(certificate_to_json(certificate), indent=indent) + "\n"


def certificate_from_json(document: Mapping[str, object]):
    """Rebuild a certificate from its JSON document."""
    if not isinstance(document, Mapping):
        raise CertificateError("certificate document must be a JSON object")
    if document.get("format") != FORMAT:
        raise CertificateError(
            f"unsupported certificate format {document.get('format')!r}"
        )
    kind = document.get("kind")
    property_name = document.get("property")
    engine = document.get("engine", "")
    if not isinstance(property_name, str) or not isinstance(engine, str):
        raise CertificateError("certificate property/engine must be strings")
    try:
        if kind == WITNESS:
            inputs = document.get("inputs")
            if not isinstance(inputs, Sequence) or not all(
                isinstance(step, Mapping) for step in inputs
            ):
                raise CertificateError("witness inputs must be a list of objects")
            return Witness(
                property_name,
                engine,
                tuple({str(k): int(v) for k, v in step.items()} for step in inputs),
            )
        if kind == INDUCTIVE:
            return InductiveCertificate(
                property_name, engine, expr_from_json(document.get("invariant"))
            )
        if kind == K_INDUCTIVE:
            k = document.get("k")
            if not isinstance(k, int) or k < 1:
                raise CertificateError("k-inductive certificate needs k >= 1")
            invariants = document.get("invariants", [])
            if not isinstance(invariants, Sequence):
                raise CertificateError("invariants must be a list")
            return KInductiveCertificate(
                property_name,
                engine,
                k,
                bool(document.get("simple_path", False)),
                tuple(expr_from_json(inv) for inv in invariants),
            )
    except ExprJsonError as error:
        raise CertificateError(str(error)) from error
    raise CertificateError(f"unknown certificate kind {kind!r}")


def loads(text: str):
    """Parse a certificate from a JSON string."""
    return certificate_from_json(json.loads(text))


# ---------------------------------------------------------------------------
# construction helpers used by the engines
# ---------------------------------------------------------------------------


def witness_from_counterexample(system, engine: str, counterexample) -> Optional[Witness]:
    """Build a witness from an engine counterexample trace.

    Every declared primary input is valuated at every cycle — values the
    trace does not pin are defaulted to 0 and everything is truncated to the
    declared width, so the replay through the simulator is deterministic.
    """
    if counterexample is None:
        return None
    inputs = counterexample.input_sequence(dict(system.inputs))
    return Witness(counterexample.property_name, engine, tuple(inputs))
