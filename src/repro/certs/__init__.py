"""Checkable certificates: witnesses, safety certificates and their validator.

UNSAFE verdicts carry an input-trace :class:`Witness` replayed concretely
through the reference simulator; SAFE verdicts carry an
:class:`InductiveCertificate` (one-step inductive invariant) or a
:class:`KInductiveCertificate` (k-induction claim with auxiliary invariants)
discharged by the independent :class:`CertificateValidator` with SAT
queries on a warm per-design validation session that shares no code with
the producing engine.  Certificates serialize to JSON (and witnesses to
AIGER ``.cex`` stimuli) so verdicts can be archived, exchanged and
re-validated.
"""

from repro.certs.certificate import (
    FORMAT,
    INDUCTIVE,
    K_INDUCTIVE,
    WITNESS,
    CertificateError,
    InductiveCertificate,
    KInductiveCertificate,
    Witness,
    certificate_from_json,
    certificate_to_json,
    dumps,
    loads,
    witness_from_counterexample,
)
from repro.certs.exprjson import ExprJsonError, expr_from_json, expr_to_json
from repro.certs.validate import (
    KINDS_FOR_STATUS,
    CertificateValidator,
    Obligation,
    ValidationResult,
    validate_certificate,
    validate_result,
)

__all__ = [
    "FORMAT",
    "WITNESS",
    "INDUCTIVE",
    "K_INDUCTIVE",
    "CertificateError",
    "Witness",
    "InductiveCertificate",
    "KInductiveCertificate",
    "certificate_from_json",
    "certificate_to_json",
    "dumps",
    "loads",
    "witness_from_counterexample",
    "ExprJsonError",
    "expr_from_json",
    "expr_to_json",
    "KINDS_FOR_STATUS",
    "CertificateValidator",
    "Obligation",
    "ValidationResult",
    "validate_certificate",
    "validate_result",
]
