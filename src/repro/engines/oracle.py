"""Fault-injection engine: claims a configured verdict with a forged certificate.

The certification layer must be exercised against engines that *lie* — the
"wrong result" category of the paper's figures.  ``OracleEngine`` claims
whatever verdict it is configured with, backed by a deliberately weak
certificate (the trivial ``TRUE`` invariant for SAFE, one all-zero input cycle
for UNSAFE).  On designs where the claim is wrong the certificate fails
independent validation, which is exactly what the portfolio's cross-check
adjudication and the certification tests rely on to tell the liar from the
honest engines.  The engine is registered but excluded from the default
portfolio.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.certs import InductiveCertificate, Witness
from repro.engines.base import Engine
from repro.engines.result import Counterexample, Status, VerificationResult
from repro.exprs import TRUE
from repro.netlist import TransitionSystem


class OracleEngine(Engine):
    """Returns a fixed verdict — for certification and cross-check testing."""

    name = "oracle"

    def __init__(
        self,
        system: TransitionSystem,
        claim: str = Status.SAFE,
        representation: str = "word",
    ) -> None:
        super().__init__(system)
        if claim not in Status.DEFINITIVE:
            raise ValueError(f"claim must be 'safe' or 'unsafe', got {claim!r}")
        self.claim = claim
        self.representation = representation

    def verify(
        self, property_name: Optional[str] = None, timeout: Optional[float] = None
    ) -> VerificationResult:
        start = time.monotonic()
        property_name = self.default_property(property_name)
        if self.claim == Status.SAFE:
            certificate = InductiveCertificate(property_name, self.name, TRUE)
            counterexample = None
        else:
            inputs = ({name: 0 for name in self.system.inputs},)
            certificate = Witness(property_name, self.name, inputs)
            counterexample = Counterexample(
                property_name, [dict(step) for step in inputs]
            )
        return VerificationResult(
            self.claim,
            self.name,
            property_name,
            runtime=time.monotonic() - start,
            counterexample=counterexample,
            reason=f"oracle claims {self.claim!r} unconditionally",
            certificate=certificate,
        )
