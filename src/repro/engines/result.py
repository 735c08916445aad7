"""Common result and counterexample types shared by all engines."""

from __future__ import annotations

import time
from typing import Dict, List, Optional


class Status:
    """Verification outcome constants.

    ``SAFE``/``UNSAFE`` are definitive answers, the others mirror the failure
    categories plotted on the right-hand side of Figures 3–5 of the paper
    (timeout, memory-out, inconclusive, error).  ``WRONG`` is never returned
    by an engine itself; the harness assigns it when an answer contradicts the
    known status of a benchmark, reproducing the paper's "wrong result"
    category.
    """

    SAFE = "safe"
    UNSAFE = "unsafe"
    UNKNOWN = "unknown"
    TIMEOUT = "timeout"
    MEMOUT = "memout"
    ERROR = "error"
    WRONG = "wrong"

    DEFINITIVE = (SAFE, UNSAFE)


class Counterexample:
    """A finite input/state trace demonstrating a property violation.

    ``steps[i]`` holds the signal valuation of cycle ``i``; the violated
    property evaluates to false in the last step.
    """

    __slots__ = ("property_name", "steps")

    def __init__(self, property_name: str, steps: Optional[List[Dict[str, int]]] = None) -> None:
        self.property_name = property_name
        self.steps = [] if steps is None else steps

    def __eq__(self, other: object) -> bool:
        if type(other) is not Counterexample:
            return NotImplemented
        return (self.property_name, self.steps) == (other.property_name, other.steps)

    @property
    def length(self) -> int:
        return len(self.steps)

    def value(self, cycle: int, name: str) -> int:
        return self.steps[cycle][name]

    def input_sequence(self, input_widths: Dict[str, int]) -> List[Dict[str, int]]:
        """Per-cycle input valuations covering *every* declared input.

        Inputs the trace does not pin default to 0 (and values are truncated
        to the declared width), so replaying the sequence through
        :func:`repro.netlist.simulate.replay` is deterministic.
        """
        sequence = []
        for step in self.steps:
            cycle = {}
            for name, width in input_widths.items():
                cycle[name] = int(step.get(name, 0)) & ((1 << width) - 1)
            sequence.append(cycle)
        return sequence


class VerificationResult:
    """The outcome of running one engine on one verification task."""

    __slots__ = (
        "status", "engine", "property_name", "runtime", "cpu_time", "counterexample",
        "detail", "reason", "certificate", "telemetry",
    )

    def __init__(
        self,
        status: str,
        engine: str,
        property_name: str = "",
        runtime: float = 0.0,
        cpu_time: float = 0.0,
        counterexample: Optional[Counterexample] = None,
        detail: Optional[Dict[str, object]] = None,
        reason: str = "",
        certificate: Optional[object] = None,
        telemetry: Optional[Dict[str, object]] = None,
    ) -> None:
        self.status = status
        self.engine = engine
        self.property_name = property_name
        self.runtime = runtime
        #: CPU seconds consumed by the verify call (``time.process_time``
        #: delta taken by the engine base-class wrapper; 0.0 for hand-built
        #: results)
        self.cpu_time = cpu_time
        self.counterexample = counterexample
        #: engine-specific detail: k for k-induction, frame count for PDR, ...
        self.detail = {} if detail is None else detail
        self.reason = reason
        #: checkable certificate backing a definitive verdict: a
        #: :class:`repro.certs.Witness` for UNSAFE, an inductive or
        #: k-inductive certificate for SAFE (see :mod:`repro.certs`)
        self.certificate = certificate
        #: telemetry attached when recording is on: counter deltas for this
        #: verify call, and — on supervised/portfolio results — the worker's
        #: exported span subtree under the ``"trace"`` key
        self.telemetry = telemetry

    def __eq__(self, other: object) -> bool:
        if type(other) is not VerificationResult:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    @property
    def is_definitive(self) -> bool:
        return self.status in Status.DEFINITIVE

    def __repr__(self) -> str:
        extra = f", cex_len={self.counterexample.length}" if self.counterexample else ""
        return (
            f"VerificationResult({self.status}, engine={self.engine!r}, "
            f"property={self.property_name!r}, {self.runtime:.3f}s{extra})"
        )


class Budget:
    """Wall-clock budget shared by an engine run.

    Engines poll :meth:`expired` in their outer loops and pass the deadline to
    the SAT layer, which aborts long-running solver calls.  This reproduces
    the per-benchmark resource limit of the paper's experiments (5 h there,
    seconds-scale here).
    """

    def __init__(self, seconds: Optional[float]) -> None:
        self.seconds = seconds
        self.start = time.monotonic()

    @property
    def deadline(self) -> Optional[float]:
        if self.seconds is None:
            return None
        return self.start + self.seconds

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def expired(self) -> bool:
        return self.seconds is not None and self.elapsed() >= self.seconds

    def remaining(self) -> Optional[float]:
        if self.seconds is None:
            return None
        return max(0.0, self.seconds - self.elapsed())
