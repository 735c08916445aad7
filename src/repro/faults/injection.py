"""Process-wide fault-plan installation and the injection points themselves.

The active plan is a module global: :func:`install` arms it in the driver
process and the default ``fork`` start method carries it into every worker,
so one installation chaos-tests the whole execution tree.  Workers that are
*retries* of a supervised unit report their attempt number via
:func:`set_attempt`, which is how ``first_attempt_only`` plans let retried
attempts run clean.

Each injection point is a cheap no-op (one global read) without a plan, so
the production hot path pays nothing for the harness.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Optional

from repro.faults.plan import (
    CACHE_CORRUPT,
    CACHE_TRUNCATE,
    CERT_FORGE,
    CLIENT_DISCONNECT,
    CRASH,
    HANG,
    HANG_HARD,
    JOURNAL_TORN,
    QUEUE_FLOOD,
    SLOW_START,
    SPAWN_FAIL,
    WORKER_KILL,
    FaultPlan,
    InjectedFault,
)
from repro.sat.solver import Solver

_PLAN: Optional[FaultPlan] = None
_ATTEMPT: int = 0


# ---------------------------------------------------------------------------
# plan lifecycle
# ---------------------------------------------------------------------------


def install(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide (inherited by forked workers)."""
    global _PLAN, _ATTEMPT
    if plan.protected_pid is None:
        plan.protected_pid = os.getpid()
    _PLAN = plan
    _ATTEMPT = 0
    return plan


def clear() -> None:
    """Remove the active plan and any solver wedge it installed."""
    global _PLAN, _ATTEMPT
    _PLAN = None
    _ATTEMPT = 0
    Solver.fault_hook = None


def current() -> Optional[FaultPlan]:
    return _PLAN


@contextlib.contextmanager
def plan_installed(plan: FaultPlan):
    """Context manager: install ``plan`` for the duration of a block."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


def set_attempt(attempt: int) -> None:
    """Record the supervised attempt number of this process's current unit."""
    global _ATTEMPT
    _ATTEMPT = attempt


# ---------------------------------------------------------------------------
# injection points
# ---------------------------------------------------------------------------


def _engine_key(engine, property_name: Optional[str]) -> str:
    design = getattr(getattr(engine, "system", None), "name", "?")
    return f"{design}:{engine.name}:{property_name or ''}"


def on_engine_start(engine, property_name: Optional[str]) -> None:
    """Fire start-of-verify faults: slow-start, crash, kill, wedge.

    Called by the :class:`repro.engines.base.Engine` verify wrapper.  A
    ``hang``/``hang-hard`` draw installs the solver wedge hook; the caller
    must pair this with :func:`on_engine_finish`.
    """
    plan = _PLAN
    if plan is None:
        return
    key = _engine_key(engine, property_name)
    if plan.decide(SLOW_START, key, _ATTEMPT):
        time.sleep(plan.slow_start_s)
    if plan.decide(CRASH, key, _ATTEMPT):
        raise InjectedFault(f"injected crash in {key}")
    if plan.decide(WORKER_KILL, key, _ATTEMPT) and os.getpid() != plan.protected_pid:
        import signal  # only a chaos run kills; a verdict process never loads it

        os.kill(os.getpid(), signal.SIGKILL)
    hard = plan.decide(HANG_HARD, key, _ATTEMPT)
    if hard or plan.decide(HANG, key, _ATTEMPT):
        # never wedge the protected (driver) process unconditionally: in
        # degraded in-process execution the cooperative deadline must win
        _install_wedge(hard and os.getpid() != plan.protected_pid)


def on_engine_finish() -> None:
    """Remove a solver wedge installed for the finished verify call."""
    if _PLAN is not None:
        Solver.fault_hook = None


def _install_wedge(hard: bool) -> None:
    """Arm the solver fault hook: the next search checkpoint stops progressing.

    The cooperative (``hang``) wedge spins until the solver's armed deadline
    passes and then returns — the very next deadline check raises
    :class:`repro.sat.solver.SolverInterrupted`, which is the acceptance
    path "a hang inside a SAT solve is interrupted without killing the
    process".  With no armed deadline, or in ``hard`` mode, the wedge never
    returns and the supervisor's terminate→SIGKILL escalation must reap the
    worker.
    """
    state = {"fired": False}

    def wedge(solver: Solver) -> None:
        if state["fired"]:
            return
        state["fired"] = True
        while True:
            deadline = solver._deadline
            if not hard and deadline is not None and time.monotonic() >= deadline:
                return
            time.sleep(0.01)

    Solver.fault_hook = wedge


def maybe_forge(engine, property_name: Optional[str], result):
    """Replace ``result`` with a lying verdict backed by a forged certificate.

    Mirrors :class:`repro.engines.oracle.OracleEngine`: a definitive verdict
    is flipped, an inconclusive one is upgraded to a confident SAFE — in both
    cases backed by a certificate (trivial TRUE invariant, all-zero trace)
    that independent validation must reject.  Returns ``None`` when no forge
    fault fires.
    """
    plan = _PLAN
    if plan is None or result is None:
        return None
    key = _engine_key(engine, property_name)
    if not plan.decide(CERT_FORGE, key, _ATTEMPT):
        return None

    from repro.certs import InductiveCertificate, Witness
    from repro.engines.result import Counterexample, Status, VerificationResult
    from repro.exprs import TRUE

    resolved = result.property_name or engine.default_property(property_name)
    claim = Status.SAFE if result.status != Status.SAFE else Status.UNSAFE
    if claim == Status.SAFE:
        certificate = InductiveCertificate(resolved, engine.name, TRUE)
        counterexample = None
    else:
        inputs = ({name: 0 for name in engine.system.inputs},)
        certificate = Witness(resolved, engine.name, inputs)
        counterexample = Counterexample(resolved, [dict(step) for step in inputs])
    return VerificationResult(
        claim,
        engine.name,
        resolved,
        runtime=result.runtime,
        counterexample=counterexample,
        reason=f"forged certificate injected by fault plan (was {result.status!r})",
        certificate=certificate,
    )


def fail_spawn(key: str) -> bool:
    """Whether a supervised process spawn should fail at site ``key``."""
    plan = _PLAN
    return plan is not None and plan.decide(SPAWN_FAIL, key, _ATTEMPT)


def client_disconnect(key: str) -> bool:
    """Whether a soak client should hang up mid-request at site ``key``.

    Consulted by the serve-soak harness (the *client* side of the chaos):
    a fired fault sends the request and closes the connection without
    reading the reply, so the server must detect the disconnect and cancel
    or complete the computation without wedging or leaking.
    """
    plan = _PLAN
    return plan is not None and plan.decide(CLIENT_DISCONNECT, key, _ATTEMPT)


def queue_flood(key: str) -> bool:
    """Whether the soak harness should fire an extra flood burst at ``key``."""
    plan = _PLAN
    return plan is not None and plan.decide(QUEUE_FLOOD, key, _ATTEMPT)


def torn_journal_append(path: str, key: str) -> bool:
    """Tear the tail off the journal write just appended to ``path``.

    Consulted by :meth:`repro.serve.journal.RequestJournal._append` after the
    write hits the file: a fired fault truncates the file mid-line, exactly
    what a crash between ``write`` and completing the record leaves behind.
    Recovery must tolerate the torn tail (skip it, count it).  A torn accept
    reads as never-accepted, which is safe: the client never got an accept
    reply either.  A torn close (the last record of an accept-and-close
    write) leaves its accept open, which a restart NACKs: at least once,
    never silently lost.
    """
    plan = _PLAN
    if plan is None or not plan.decide(JOURNAL_TORN, key, _ATTEMPT):
        return False
    try:
        size = os.path.getsize(path)
        with open(path, "rb+") as handle:
            handle.truncate(max(0, size - 7))
    except OSError:  # pragma: no cover - journal raced away
        return False
    return True


def tamper_saved_entry(path: str, key: str, payload: str) -> Optional[str]:
    """Corrupt or truncate a cache entry that was just written to ``path``.

    ``cache-truncate`` leaves an undecodable half-document (exercises the
    store's quarantine path); ``cache-corrupt`` rewrites the document with
    its verdict flipped, so it decodes but cannot justify itself and is
    demoted on lookup.  Returns the tamper applied, or ``None``.
    """
    plan = _PLAN
    if plan is None:
        return None
    if plan.decide(CACHE_TRUNCATE, key, _ATTEMPT):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload[: max(1, len(payload) // 2)])
        return CACHE_TRUNCATE
    if plan.decide(CACHE_CORRUPT, key, _ATTEMPT):
        import json

        try:
            document = json.loads(payload)
            from repro.engines.result import Status

            status = document.get("status")
            document["status"] = (
                Status.UNSAFE if status == Status.SAFE else Status.SAFE
            )
            tampered = json.dumps(document, indent=2) + "\n"
        except ValueError:  # pragma: no cover - payload is our own JSON
            tampered = payload[::-1]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(tampered)
        return CACHE_CORRUPT
    return None
