"""The seeded fault plan: a pure function from (seed, kind, site) to faults.

A :class:`FaultPlan` carries no mutable state besides bookkeeping, pickles
cleanly (it crosses the fork boundary into worker processes), and draws every
injection decision from a SHA-256 hash of ``(seed, kind, key, attempt)`` —
the same plan replayed over the same work always injects the same faults,
which is what makes a chaos sweep debuggable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: raise an exception inside ``engine.verify`` (the ERROR outcome category)
CRASH = "crash"
#: sleep before the engine starts searching (stragglers / cancellation races)
SLOW_START = "slow-start"
#: SIGKILL the worker process mid-run (the ``crashed`` outcome category)
WORKER_KILL = "worker-kill"
#: wedge the SAT search; the armed cooperative deadline must interrupt it
HANG = "hang"
#: wedge the SAT search unconditionally; supervision must kill the process
HANG_HARD = "hang-hard"
#: make process spawning fail (exercises pool-health degradation)
SPAWN_FAIL = "spawn-fail"
#: garble a just-written cache entry (decodable but unable to justify itself)
CACHE_CORRUPT = "cache-corrupt"
#: truncate a just-written cache entry (undecodable: the quarantine path)
CACHE_TRUNCATE = "cache-truncate"
#: flip the engine's verdict and attach a forged certificate (the liar)
CERT_FORGE = "cert-forge"
#: corrupt a compiled kernel's replay output (the scalar cross-check must
#: catch it and demote the query to the pure-Python tier, never change it)
KERNEL_MISCOMPILE = "kernel-miscompile"
#: serve: the client hangs up mid-request (the server must cancel cleanly)
CLIENT_DISCONNECT = "client-disconnect"
#: serve: a burst of extra requests beyond the admission cap (the server
#: must answer with explicit ``overloaded`` rejections, never queue unbounded)
QUEUE_FLOOD = "queue-flood"
#: serve: tear the tail off a just-appended journal record (simulates a
#: crash mid-append; recovery must skip the torn line, never refuse to start)
JOURNAL_TORN = "journal-torn"
#: fleet: sever a primary->standby replication stream mid-flight (the
#: standby must resubscribe and resync from a fresh snapshot, never wedge)
REPL_LINK_DROP = "repl-link-drop"
#: fleet: a standby acks a replicated record without persisting it, then
#: takes over with a stale journal tail (the router's resubmit path must
#: still get every client answered)
STALE_STANDBY = "stale-standby"
#: fleet: the router loses a member's connection and cannot reconnect for a
#: window (a network partition; routing must fail over and then heal)
ROUTER_PARTITION = "router-partition"
#: fleet: a member silently drops heartbeat requests (the router must mark
#: it down on misses and recover it when heartbeats resume)
HEARTBEAT_BLACKOUT = "heartbeat-blackout"

FAULT_KINDS = (
    CRASH,
    SLOW_START,
    WORKER_KILL,
    HANG,
    HANG_HARD,
    SPAWN_FAIL,
    CACHE_CORRUPT,
    CACHE_TRUNCATE,
    CERT_FORGE,
    KERNEL_MISCOMPILE,
    CLIENT_DISCONNECT,
    QUEUE_FLOOD,
    JOURNAL_TORN,
    REPL_LINK_DROP,
    STALE_STANDBY,
    ROUTER_PARTITION,
    HEARTBEAT_BLACKOUT,
)


class InjectedFault(RuntimeError):
    """An exception crash deliberately raised by the fault plan."""


@dataclass
class FaultPlan:
    """Deterministic, seeded decisions about which faults fire where.

    Parameters
    ----------
    seed:
        Root of every draw; two sweeps with the same seed over the same work
        inject identically.
    rates:
        Per-kind firing probability in ``[0, 1]`` (missing kinds never fire).
    slow_start_s:
        Sleep duration of a ``slow-start`` fault.
    first_attempt_only:
        When True (the default for chaos sweeps that must still converge),
        faults fire only on a unit's first attempt — supervised retries of a
        killed or wedged attempt then run clean, so every query still ends
        with a definitive, validated verdict.
    protected_pid:
        PID that destructive faults (``worker-kill``, unbounded wedges) skip;
        :func:`repro.faults.injection.install` records the installing process
        here so in-process (degraded) execution can never kill or wedge the
        driver itself.
    """

    seed: int = 0
    rates: Dict[str, float] = field(default_factory=dict)
    slow_start_s: float = 0.2
    first_attempt_only: bool = True
    protected_pid: Optional[int] = None
    #: faults this plan instance has fired, for reporting ("kind@key" tags);
    #: per-process — a worker's log dies with the worker, the observable
    #: effect must come back through the outcome taxonomy instead
    fired: List[str] = field(default_factory=list)

    def rate(self, kind: str) -> float:
        return float(self.rates.get(kind, 0.0))

    def decide(self, kind: str, key: str, attempt: int = 0) -> bool:
        """Deterministically decide whether ``kind`` fires at site ``key``."""
        rate = self.rate(kind)
        if rate <= 0.0:
            return False
        if self.first_attempt_only and attempt > 0:
            return False
        if rate < 1.0:
            import hashlib  # only a draw needs it, not every process

            digest = hashlib.sha256(
                f"{self.seed}|{kind}|{key}|{attempt}".encode("utf-8")
            ).digest()
            draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
            if draw >= rate:
                return False
        self.fired.append(f"{kind}@{key}#{attempt}")
        return True
