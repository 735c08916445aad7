"""Independent validation of witnesses and safety certificates.

The validator deliberately shares no code with the producing engines: it
never touches :class:`repro.engines.encoding.FrameEncoder`, the frame
templates or any engine module.  Witnesses are replayed *concretely* through
the reference simulator (:func:`repro.netlist.simulate.replay`), and a
witness must keep the design's environment constraints at every cycle up to
its violation (a path that breaks an assumption is no counterexample); safety
certificates are discharged as SAT queries over expressions the validator
stamps itself (``name#frame``):

* inductive invariant ``Inv`` — ``Init ∧ C ⊆ Inv``, ``Inv ∧ C ∧ T ⊆ Inv′``
  and ``Inv ∧ C ⊆ P`` (``C`` are the design's environment constraints, which
  scope reachability),
* k-inductive claim — the auxiliary invariants are jointly inductive, the
  property holds in the first ``k`` frames from reset, and ``k`` consecutive
  property frames (under the auxiliary invariants and optionally the
  simple-path side condition) force the property in frame ``k``.

Each obligation is recorded separately so a failed validation names exactly
which proof step broke.

The SAT queries run on one long-lived validation session per design
(:class:`_Session`): a :class:`~repro.smt.BVSolver` plus the design-side
formulas, memoized per frame — the flattened design, ``Init@0``,
``T(i→i+1) ∧ C(i)``, ``C(i)`` and ``P(i)``.  Design formulas and each
certificate's formulas are only ever *blasted* to literals (Tseitin gate
definitions), never asserted, and an obligation is decided as
``check(assumptions=literals)``: it holds iff the check is UNSAT.  A warm
session decides exactly what a fresh solver would:

* the clause database only ever holds gate definitions and the
  constant-true unit;
* so every learned clause follows from the definitions alone;
* so a check under assumptions is UNSAT iff the definitions plus the
  assumed literals are — the question a fresh solver with the obligation
  asserted answers — while the re-blast is skipped and learned lemmas are
  reused.

Two guards keep a long-lived session honest.  The definitions are always
satisfiable, so an UNSAT with an empty assumption core means the session
itself is inconsistent: that obligation is reported undecided, never
holding, and the session is dropped.  A session that grows past
:data:`_SESSION_GROWTH_LIMIT` times its size after its first validation is
dropped too, so failed minimizer candidates or a forged entry with a huge
``k`` cannot bloat a long-lived server; the next validation rebuilds it.

Sessions are kept per live :class:`~repro.netlist.TransitionSystem` (weak
keys, checked against :meth:`~repro.netlist.TransitionSystem.fingerprint`,
so a mutated design gets a new session).  A module lock guards the memo,
each session has its own lock, and forked children start without sessions.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.certs.certificate import (
    INDUCTIVE,
    K_INDUCTIVE,
    WITNESS,
    InductiveCertificate,
    KInductiveCertificate,
    Witness,
)
from repro.exprs import (
    Expr,
    bool_and,
    bool_or,
    bv_eq,
    bv_ne,
    bv_var,
    collect_vars,
    evaluate,
)
from repro.exprs.substitute import rename
from repro.netlist import TransitionSystem
from repro.netlist.simulate import replay
from repro.obs import telemetry as _telemetry
from repro.smt import BVResult, BVSolver

#: validation outcome of one obligation
HOLDS = "holds"
FAILED = "failed"
UNDECIDED = "undecided"  # solver gave up (deadline) or the session broke

#: a session is dropped once its variables plus clauses exceed this multiple
#: of what it held after its first validation
_SESSION_GROWTH_LIMIT = 8


@dataclass
class Obligation:
    """One discharged (or failed) proof obligation."""

    name: str
    outcome: str
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.outcome == HOLDS


@dataclass
class ValidationResult:
    """The outcome of validating one certificate against one design."""

    ok: bool
    kind: str
    property_name: str
    engine: str = ""
    obligations: List[Obligation] = field(default_factory=list)
    reason: str = ""
    runtime: float = 0.0

    def failed_obligations(self) -> List[Obligation]:
        return [o for o in self.obligations if not o.holds]

    def to_json(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "kind": self.kind,
            "property": self.property_name,
            "engine": self.engine,
            "obligations": {o.name: o.outcome for o in self.obligations},
            "reason": self.reason,
            "runtime_s": round(self.runtime, 6),
        }


#: witness replay backends: the scalar reference interpreter, or the
#: bit-parallel packed simulator cross-checked against it
REPLAY_BACKENDS = ("scalar", "packed")

#: how many leading cycles of a packed replay are re-run scalar by default
DEFAULT_CROSSCHECK_CYCLES = 8


# ---------------------------------------------------------------------------
# validation sessions (independent of the engines' frame encoder)
# ---------------------------------------------------------------------------


def _at(expr: Expr, frame: int) -> Expr:
    return rename(expr, lambda name: f"{name}#{frame}")


class _Session:
    """The warm SAT side of validation for one design.

    Holds the flattened design, one :class:`BVSolver` whose clause database
    only ever receives gate definitions, and the literals of the design-side
    formulas memoized per frame.  Callers hold :attr:`lock` while using it.
    """

    def __init__(self, system: TransitionSystem, fingerprint: int) -> None:
        self.fingerprint = fingerprint
        self.flat = system.flattened()
        self.flat.validate()
        self.lock = threading.Lock()
        self.solver = BVSolver()
        #: variables plus clauses after the first validation that blasted
        self.baseline = 0
        #: set when a check refuted the definitions themselves
        self.inconsistent = False
        self._init: Optional[int] = None
        self._trans: Dict[int, int] = {}
        self._constraints: Dict[int, int] = {}
        self._props: Dict[Tuple[str, int], int] = {}
        self._distinct: Dict[Tuple[int, int], int] = {}

    # -- formulas as literals ------------------------------------------------
    def literal(self, expr: Expr, frame: int) -> int:
        """The literal of ``expr`` stamped at ``frame`` (definitions only)."""
        return self.solver.literal_for(_at(expr, frame))

    def all_of(self, literals: Sequence[int]) -> int:
        """A literal for the conjunction of ``literals``."""
        return self.solver.blaster.encoder.and_gate(literals)

    def init(self) -> int:
        """``Init@0``."""
        if self._init is None:
            self._init = self.literal(
                bool_and(
                    *[
                        bv_eq(bv_var(name, width), self.flat.init[name])
                        for name, width in self.flat.state_vars.items()
                    ]
                ),
                0,
            )
        return self._init

    def trans(self, frame: int) -> int:
        """``T(frame → frame+1) ∧ C(frame)``."""
        literal = self._trans.get(frame)
        if literal is None:
            exprs = [
                bv_eq(
                    bv_var(f"{name}#{frame + 1}", self.flat.state_vars[name]),
                    _at(next_expr, frame),
                )
                for name, next_expr in self.flat.next.items()
            ]
            exprs.extend(_at(c, frame) for c in self.flat.constraints)
            literal = self._trans[frame] = self.solver.literal_for(bool_and(*exprs))
        return literal

    def constraints(self, frame: int) -> int:
        """``C(frame)``."""
        literal = self._constraints.get(frame)
        if literal is None:
            literal = self._constraints[frame] = self.literal(
                bool_and(*self.flat.constraints), frame
            )
        return literal

    def prop(self, name: str, frame: int) -> int:
        """``P(frame)`` of the named property."""
        literal = self._props.get((name, frame))
        if literal is None:
            expr = self.flat.property_by_name(name).expr
            literal = self._props[(name, frame)] = self.literal(expr, frame)
        return literal

    def distinct(self, i: int, j: int) -> int:
        """The states of frames ``i`` and ``j`` differ (simple-path condition)."""
        literal = self._distinct.get((i, j))
        if literal is None:
            literal = self._distinct[(i, j)] = self.solver.literal_for(
                bool_or(
                    *[
                        bv_ne(bv_var(f"{name}#{i}", width), bv_var(f"{name}#{j}", width))
                        for name, width in self.flat.state_vars.items()
                    ]
                )
            )
        return literal

    # -- deciding --------------------------------------------------------------
    def decide(self, literals: List[int]) -> Tuple[str, str]:
        """Check the conjunction of ``literals``; HOLDS iff unsatisfiable."""
        outcome = self.solver.check(assumptions=literals)
        if outcome == BVResult.SAT:
            return FAILED, ""
        if outcome != BVResult.UNSAT:
            return UNDECIDED, "solver gave up"
        if not self.solver.failed_assumptions:
            # the definitions alone were refuted: nothing this session
            # answers can be trusted any more
            self.inconsistent = True
            return UNDECIDED, "validation session is inconsistent"
        return HOLDS, ""

    def should_drop(self) -> bool:
        """Whether the session must be dropped (inconsistent or bloated).

        Called after every safety validation; the first call that finds
        anything blasted records the size the growth limit is measured from.
        """
        size = self.solver.solver.num_vars + self.solver.solver.num_clauses
        if not self.baseline:
            self.baseline = size
        return self.inconsistent or size > _SESSION_GROWTH_LIMIT * self.baseline


#: system -> its validation session; weak keys so designs built on the fly
#: do not accumulate, and the session holds no reference to its system
_SESSIONS: "weakref.WeakKeyDictionary[TransitionSystem, _Session]" = (
    weakref.WeakKeyDictionary()
)
_SESSIONS_LOCK = threading.Lock()


def _session_for(system: TransitionSystem) -> _Session:
    """Return (building if needed) the validation session of a design."""
    fingerprint = system.fingerprint()
    with _SESSIONS_LOCK:
        session = _SESSIONS.get(system)
        if session is None or session.fingerprint != fingerprint:
            session = _SESSIONS[system] = _Session(system, fingerprint)
            _telemetry.counter("certs.sessions.built")
        return session


def _drop_session(system: TransitionSystem, session: _Session) -> None:
    with _SESSIONS_LOCK:
        if _SESSIONS.get(system) is session:
            del _SESSIONS[system]
            _telemetry.counter("certs.sessions.dropped")


def _forget_sessions() -> None:
    """A forked child starts afresh: a parent thread may hold any lock."""
    global _SESSIONS, _SESSIONS_LOCK
    _SESSIONS = weakref.WeakKeyDictionary()
    _SESSIONS_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_sessions)


class CertificateValidator:
    """Discharges certificate obligations against one transition system.

    ``replay_backend`` selects how witnesses are replayed: ``"scalar"``
    (default) uses the reference interpreter; ``"packed"`` uses the
    bit-parallel simulator and adds a ``replay-crosscheck`` obligation that
    re-runs the first ``crosscheck_cycles`` cycles through the scalar
    interpreter and fails on any per-cycle divergence — the packed verdict
    is never trusted without scalar agreement on the checked prefix.
    """

    def __init__(
        self,
        system: TransitionSystem,
        timeout: Optional[float] = None,
        replay_backend: str = "scalar",
        crosscheck_cycles: int = DEFAULT_CROSSCHECK_CYCLES,
    ) -> None:
        if replay_backend not in REPLAY_BACKENDS:
            raise ValueError(
                f"unknown replay backend {replay_backend!r}; "
                f"expected one of {REPLAY_BACKENDS}"
            )
        self.system = system
        self.flat = _session_for(system).flat
        self.timeout = timeout
        self.replay_backend = replay_backend
        self.crosscheck_cycles = crosscheck_cycles
        self._deadline: Optional[float] = None

    # ------------------------------------------------------------------
    def validate(self, certificate) -> ValidationResult:
        """Validate any certificate kind; never raises on bad certificates."""
        start = time.monotonic()
        self._deadline = None if self.timeout is None else start + self.timeout
        kind = getattr(certificate, "kind", None)
        with _telemetry.span(
            "certs.validate",
            kind=str(kind),
            property=getattr(certificate, "property_name", ""),
        ) as validate_span:
            try:
                if kind == WITNESS:
                    result = self._validate_witness(certificate)
                elif kind in (INDUCTIVE, K_INDUCTIVE):
                    result = self._validate_safety(certificate)
                else:
                    result = ValidationResult(
                        False, str(kind), "", reason=f"unknown certificate kind {kind!r}"
                    )
            except Exception as error:  # noqa: BLE001 - malformed certificates
                result = ValidationResult(
                    False,
                    str(kind),
                    getattr(certificate, "property_name", ""),
                    engine=getattr(certificate, "engine", ""),
                    reason=f"{type(error).__name__}: {error}",
                )
            result.runtime = time.monotonic() - start
            validate_span.set_outcome("ok" if result.ok else "failed")
            validate_span.annotate(obligations=len(result.obligations))
            _telemetry.counter(
                "certs.validations.ok" if result.ok else "certs.validations.failed"
            )
        return result

    # ------------------------------------------------------------------
    # witness replay
    # ------------------------------------------------------------------
    def _validate_witness(self, witness: Witness) -> ValidationResult:
        result = ValidationResult(
            False, WITNESS, witness.property_name, engine=witness.engine
        )
        try:
            prop = self.system.property_by_name(witness.property_name)
        except KeyError:
            result.reason = f"design declares no property {witness.property_name!r}"
            result.obligations.append(Obligation("property-exists", FAILED))
            return result
        result.obligations.append(Obligation("property-exists", HOLDS))
        if not witness.inputs:
            result.reason = "witness has no cycles"
            result.obligations.append(Obligation("violation-reached", FAILED))
            return result

        # replay the full trace and evaluate the *claimed* property per cycle
        # (another property failing earlier must not mask the violation)
        if self.replay_backend == "packed":
            broken_cycle, observed_cycle = self._packed_replay(
                result, witness, prop.name
            )
            if result.failed_obligations():
                return result
        else:
            broken_cycle, observed_cycle = self._scalar_replay(witness, prop.expr)
        if broken_cycle is not None:
            result.reason = (
                f"the witness breaks an environment constraint at cycle "
                f"{broken_cycle}, before {witness.property_name!r} is violated"
            )
            result.obligations.append(
                Obligation("constraints-hold", FAILED, result.reason)
            )
            return result
        if observed_cycle is None:
            result.reason = (
                f"replay never violates {witness.property_name!r} "
                f"within {witness.length} cycles"
            )
            result.obligations.append(Obligation("violation-reached", FAILED, result.reason))
            return result
        result.obligations.append(Obligation("constraints-hold", HOLDS))
        note = f"violated at cycle {observed_cycle} (claimed {witness.violation_cycle})"
        result.obligations.append(Obligation("violation-reached", HOLDS, note))
        result.ok = True
        result.reason = note
        return result

    def _scalar_replay(
        self, witness: Witness, prop: Expr
    ) -> Tuple[Optional[int], Optional[int]]:
        """Replay the witness through the reference interpreter.

        Returns ``(broken, violated)``: ``broken`` is the first cycle at
        which an environment constraint fails and ``violated`` the first at
        which ``prop`` evaluates to 0.  Only the earlier of the two is set
        (a constraint failing in the violating cycle counts as earlier);
        the other, or both if neither happens, is ``None``.
        """
        constraints = self.system.constraints
        for step in replay(self.system, witness.input_sequence()).steps:
            env = {**step.state, **step.inputs, **step.wires}
            if constraints and not all(evaluate(c, env) for c in constraints):
                return step.cycle, None
            if evaluate(prop, env) == 0:
                return None, step.cycle
        return None, None

    def _packed_replay(
        self, result: ValidationResult, witness: Witness, property_name: str
    ) -> Tuple[Optional[int], Optional[int]]:
        """Replay the witness bit-parallel; cross-check a prefix scalar.

        Appends the ``replay-crosscheck`` obligation to ``result`` and
        returns ``(broken, violated)`` like :meth:`_scalar_replay`, read off
        the run's constraint-alive mask and the claimed property's truth
        plane.
        """
        from repro.netlist.bitsim import (
            PackedSimulator,
            SimulationMismatch,
            crosscheck_lane,
        )

        simulator = PackedSimulator(self.system, lanes=1)
        run = simulator.replay(witness.input_sequence())
        try:
            compared = crosscheck_lane(
                self.system, run, lane=0, cycles=self.crosscheck_cycles
            )
        except SimulationMismatch as mismatch:
            result.reason = f"packed/scalar replay divergence: {mismatch}"
            result.obligations.append(
                Obligation("replay-crosscheck", FAILED, str(mismatch))
            )
            return None, None
        result.obligations.append(
            Obligation(
                "replay-crosscheck",
                HOLDS,
                f"first {compared} cycles agree with the scalar interpreter",
            )
        )
        for cycle in range(run.cycles):
            if (run.alive[cycle] & 1) == 0:
                return cycle, None
            if (run.prop_values[cycle][property_name] & 1) == 0:
                return None, cycle
        return None, None

    # ------------------------------------------------------------------
    # safety certificates, on the design's warm session
    # ------------------------------------------------------------------
    def _validate_safety(self, certificate) -> ValidationResult:
        session = _session_for(self.system)
        with session.lock:
            session.solver.set_deadline(self._deadline)
            try:
                if certificate.kind == INDUCTIVE:
                    return self._validate_inductive(session, certificate)
                return self._validate_k_inductive(session, certificate)
            finally:
                if session.should_drop():
                    _drop_session(self.system, session)

    @staticmethod
    def _check_state_expr(flat: TransitionSystem, expr: Expr, label: str) -> Optional[str]:
        """Reject invariants mentioning signals that are not state variables."""
        for var in collect_vars(expr):
            if var.name not in flat.state_vars:
                return f"{label} mentions non-state signal {var.name!r}"
            if var.width != flat.state_vars[var.name]:
                return (
                    f"{label} uses {var.name!r} with width {var.width}, "
                    f"declared {flat.state_vars[var.name]}"
                )
        return None

    # ------------------------------------------------------------------
    # inductive invariants
    # ------------------------------------------------------------------
    def _validate_inductive(
        self, session: _Session, certificate: InductiveCertificate
    ) -> ValidationResult:
        result = ValidationResult(
            False, INDUCTIVE, certificate.property_name, engine=certificate.engine
        )
        try:
            prop = session.flat.property_by_name(certificate.property_name)
        except KeyError:
            result.reason = f"design declares no property {certificate.property_name!r}"
            result.obligations.append(Obligation("property-exists", FAILED))
            return result
        invariant = certificate.invariant
        if invariant.width != 1:
            result.reason = "invariant is not a 1-bit expression"
            result.obligations.append(Obligation("well-formed", FAILED, result.reason))
            return result
        complaint = self._check_state_expr(session.flat, invariant, "invariant")
        if complaint is not None:
            result.reason = complaint
            result.obligations.append(Obligation("well-formed", FAILED, complaint))
            return result
        result.obligations.append(Obligation("well-formed", HOLDS))

        inv = session.literal(invariant, 0)
        checks = [
            # Init ∧ C ⊆ Inv
            ("init", [session.init(), session.constraints(0), -inv]),
            # Inv ∧ C ∧ T ⊆ Inv′
            ("consecution", [inv, session.trans(0), -session.literal(invariant, 1)]),
            # Inv ∧ C ⊆ P
            ("property", [inv, session.constraints(0), -session.prop(prop.name, 0)]),
        ]
        return self._discharge(session, result, checks)

    # ------------------------------------------------------------------
    # k-induction
    # ------------------------------------------------------------------
    def _validate_k_inductive(
        self, session: _Session, certificate: KInductiveCertificate
    ) -> ValidationResult:
        result = ValidationResult(
            False, K_INDUCTIVE, certificate.property_name, engine=certificate.engine
        )
        try:
            prop = session.flat.property_by_name(certificate.property_name)
        except KeyError:
            result.reason = f"design declares no property {certificate.property_name!r}"
            result.obligations.append(Obligation("property-exists", FAILED))
            return result
        if certificate.k < 1:
            result.reason = f"k must be >= 1, got {certificate.k}"
            result.obligations.append(Obligation("well-formed", FAILED, result.reason))
            return result
        for invariant in certificate.invariants:
            complaint = (
                "auxiliary invariant is not a 1-bit expression"
                if invariant.width != 1
                else self._check_state_expr(session.flat, invariant, "auxiliary invariant")
            )
            if complaint is not None:
                result.reason = complaint
                result.obligations.append(Obligation("well-formed", FAILED, complaint))
                return result
        result.obligations.append(Obligation("well-formed", HOLDS))

        k = certificate.k
        aux_expr = bool_and(*certificate.invariants)

        def aux(frame: int) -> List[int]:
            if not certificate.invariants:
                return []
            return [session.literal(aux_expr, frame)]

        checks = []
        if certificate.invariants:
            # Init ∧ C ⊆ A
            checks.append(
                ("aux-init", [session.init(), session.constraints(0), -aux(0)[0]])
            )
            # A ∧ C ∧ T ⊆ A′
            checks.append(
                ("aux-consecution", aux(0) + [session.trans(0), -aux(1)[0]])
            )

        # base: from reset, P holds in frames 0 .. k-1
        base = [session.init()]
        base.extend(session.trans(frame) for frame in range(k - 1))
        base.append(session.constraints(k - 1))
        base.append(-session.all_of([session.prop(prop.name, f) for f in range(k)]))
        checks.append(("base", base))

        # step: k consecutive (P ∧ A)-frames force P in frame k
        step: List[int] = []
        for frame in range(k):
            step.append(session.prop(prop.name, frame))
            step.extend(aux(frame))
            step.append(session.trans(frame))
        step.extend(aux(k))
        step.append(session.constraints(k))
        if certificate.simple_path:
            step.extend(
                session.distinct(i, j)
                for i in range(k + 1)
                for j in range(i + 1, k + 1)
            )
        step.append(-session.prop(prop.name, k))
        checks.append(("step", step))
        return self._discharge(session, result, checks)

    # ------------------------------------------------------------------
    def _discharge(
        self,
        session: _Session,
        result: ValidationResult,
        checks: List[Tuple[str, List[int]]],
    ) -> ValidationResult:
        all_hold = True
        for name, literals in checks:
            outcome, note = session.decide(literals)
            result.obligations.append(Obligation(name, outcome, note))
            if outcome != HOLDS:
                all_hold = False
                if not result.reason:
                    result.reason = (
                        f"obligation {name!r} "
                        f"{'is violated' if outcome == FAILED else 'could not be decided'}"
                    )
        result.ok = all_hold
        if all_hold:
            result.reason = "all obligations discharged"
        return result


# ---------------------------------------------------------------------------
# result-level entry points
# ---------------------------------------------------------------------------

#: which certificate kinds can justify which verdict (a witness can never be
#: served for SAFE, an invariant never for UNSAFE)
KINDS_FOR_STATUS = {
    "unsafe": (WITNESS,),
    "safe": (INDUCTIVE, K_INDUCTIVE),
}


def validate_certificate(
    system: TransitionSystem,
    certificate,
    timeout: Optional[float] = None,
    replay_backend: str = "scalar",
    crosscheck_cycles: int = DEFAULT_CROSSCHECK_CYCLES,
) -> ValidationResult:
    """Validate one certificate against a design."""
    validator = CertificateValidator(
        system,
        timeout=timeout,
        replay_backend=replay_backend,
        crosscheck_cycles=crosscheck_cycles,
    )
    return validator.validate(certificate)


def validate_result(
    system: TransitionSystem,
    result,
    timeout: Optional[float] = None,
    replay_backend: str = "scalar",
    crosscheck_cycles: int = DEFAULT_CROSSCHECK_CYCLES,
) -> ValidationResult:
    """Validate the certificate attached to a :class:`VerificationResult`.

    A definitive verdict without a certificate, with a certificate kind that
    cannot justify the claimed status (a witness for SAFE, an invariant for
    UNSAFE), or with a certificate for another property than the verdict
    claims, fails validation outright.
    """
    status = getattr(result, "status", None)
    certificate = getattr(result, "certificate", None)
    claimed = getattr(result, "property_name", "")
    engine = getattr(result, "engine", "")
    allowed = KINDS_FOR_STATUS.get(status)
    if allowed is None:
        return ValidationResult(
            False,
            "",
            claimed,
            engine=engine,
            reason=f"status {status!r} is not a certifiable definitive verdict",
        )
    if certificate is None:
        return ValidationResult(
            False,
            "",
            claimed,
            engine=engine,
            reason=f"no certificate attached to the {status} verdict",
        )
    kind = getattr(certificate, "kind", None)
    if kind not in allowed:
        return ValidationResult(
            False,
            str(kind),
            claimed,
            engine=engine,
            reason=f"certificate kind {kind!r} cannot justify a {status} verdict",
        )
    proven = getattr(certificate, "property_name", None)
    if proven != claimed:
        reason = f"the certificate is for {proven!r}, the verdict claims {claimed!r}"
        return ValidationResult(
            False,
            str(kind),
            claimed,
            engine=engine,
            obligations=[Obligation("property-matches", FAILED, reason)],
            reason=reason,
        )
    return validate_certificate(
        system,
        certificate,
        timeout=timeout,
        replay_backend=replay_backend,
        crosscheck_cycles=crosscheck_cycles,
    )
