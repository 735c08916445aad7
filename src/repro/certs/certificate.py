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

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.certs.exprjson import ExprJsonError, expr_from_json, expr_to_json
from repro.exprs import Expr
from repro.records import Frozen

FORMAT = "repro-cert-v1"

#: certificate kinds
WITNESS = "witness"
INDUCTIVE = "inductive"
K_INDUCTIVE = "k-inductive"


class CertificateError(ValueError):
    """Raised when a certificate document is malformed."""


class Witness(Frozen):
    """An input-trace witness for an UNSAFE verdict.

    ``inputs[i]`` fully valuates every primary input at cycle ``i`` (the
    producer defaults unconstrained inputs to 0, so the replay is
    deterministic); the violated property is expected to fail at cycle
    ``len(inputs) - 1``, counting from reset.
    """

    kind = WITNESS

    def __init__(
        self, property_name: str, engine: str, inputs: Tuple[Mapping[str, int], ...]
    ) -> None:
        object.__setattr__(self, "property_name", property_name)
        object.__setattr__(self, "engine", engine)
        object.__setattr__(self, "inputs", inputs)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Witness:
            return NotImplemented
        return (self.property_name, self.engine, self.inputs) == (
            other.property_name, other.engine, other.inputs,
        )

    def replace(self, **changes) -> "Witness":
        """A copy with the given fields changed."""
        return Witness(
            changes.pop("property_name", self.property_name),
            changes.pop("engine", self.engine),
            changes.pop("inputs", self.inputs),
            **changes,
        )

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


class InductiveCertificate(Frozen):
    """A one-step inductive invariant certifying a SAFE verdict."""

    kind = INDUCTIVE

    def __init__(self, property_name: str, engine: str, invariant: Expr) -> None:
        object.__setattr__(self, "property_name", property_name)
        object.__setattr__(self, "engine", engine)
        object.__setattr__(self, "invariant", invariant)

    def __eq__(self, other: object) -> bool:
        if type(other) is not InductiveCertificate:
            return NotImplemented
        return (self.property_name, self.engine, self.invariant) == (
            other.property_name, other.engine, other.invariant,
        )

    def replace(self, **changes) -> "InductiveCertificate":
        """A copy with the given fields changed."""
        return InductiveCertificate(
            changes.pop("property_name", self.property_name),
            changes.pop("engine", self.engine),
            changes.pop("invariant", self.invariant),
            **changes,
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "format": FORMAT,
            "kind": self.kind,
            "property": self.property_name,
            "engine": self.engine,
            "invariant": expr_to_json(self.invariant),
        }


class KInductiveCertificate(Frozen):
    """A k-induction certificate for a SAFE verdict.

    The claim: with the auxiliary ``invariants`` (each jointly inductive,
    checked separately by the validator) assumed in every frame, the property
    holds in the first ``k`` frames from reset and ``k`` consecutive
    property-satisfying frames force the property in the next frame —
    optionally under the simple-path side condition (all states of the
    induction window pairwise distinct).
    """

    kind = K_INDUCTIVE

    def __init__(
        self,
        property_name: str,
        engine: str,
        k: int,
        simple_path: bool = False,
        invariants: Tuple[Expr, ...] = (),
    ) -> None:
        object.__setattr__(self, "property_name", property_name)
        object.__setattr__(self, "engine", engine)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "simple_path", simple_path)
        object.__setattr__(self, "invariants", invariants)

    def __eq__(self, other: object) -> bool:
        if type(other) is not KInductiveCertificate:
            return NotImplemented
        return (self.property_name, self.engine, self.k, self.simple_path, self.invariants) == (
            other.property_name, other.engine, other.k, other.simple_path, other.invariants,
        )

    def replace(self, **changes) -> "KInductiveCertificate":
        """A copy with the given fields changed."""
        return KInductiveCertificate(
            changes.pop("property_name", self.property_name),
            changes.pop("engine", self.engine),
            changes.pop("k", self.k),
            changes.pop("simple_path", self.simple_path),
            changes.pop("invariants", self.invariants),
            **changes,
        )

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
    import json  # only saving or caching a certificate needs it, not a verdict

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
    import json

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
