"""Deterministic fault injection: the chaos harness of the execution layer.

The paper's portfolio thesis only holds up operationally if a wedged, killed
or lying engine can never wedge or corrupt a whole query.  This package makes
those failures *reproducible*: a seeded :class:`FaultPlan` decides — purely
from ``(seed, fault kind, site key)`` — where to inject worker kills, engine
hangs, slow starts, exception crashes, spawn failures, cache-entry corruption
and forged certificates.  The plan is installed process-wide
(:func:`install`) and consulted from thin injection points threaded through
:mod:`repro.engines.base` (engine start/finish), the
:class:`repro.engines.supervision.WorkerSupervisor` (spawns) and
:class:`repro.cache.store.CertificateStore` (entry writes).  With no plan
installed every injection point is a no-op.

Every injected fault must surface in the normal outcome taxonomy — a crashed
worker as ``crashed``, a wedge as ``timed-out`` or a cooperative
``TIMEOUT``, a forged certificate as a rejected/adjudicated claim — never as
a silent skip.  The chaos sweeps of ``tests/test_faults.py`` run seeded
plans through certified batch sweeps and gate on exactly that, and
``tests/test_serve_soak.py`` runs one inside a live server.
"""

from repro.faults.plan import (
    CACHE_CORRUPT,
    CACHE_TRUNCATE,
    CERT_FORGE,
    CRASH,
    FAULT_KINDS,
    HANG,
    HANG_HARD,
    SLOW_START,
    SPAWN_FAIL,
    WORKER_KILL,
    FaultPlan,
    InjectedFault,
)
from repro.faults.injection import (
    clear,
    current,
    fail_spawn,
    install,
    maybe_forge,
    on_engine_finish,
    on_engine_start,
    plan_installed,
    set_attempt,
    tamper_saved_entry,
)

__all__ = [
    "CACHE_CORRUPT",
    "CACHE_TRUNCATE",
    "CERT_FORGE",
    "CRASH",
    "FAULT_KINDS",
    "HANG",
    "HANG_HARD",
    "SLOW_START",
    "SPAWN_FAIL",
    "WORKER_KILL",
    "FaultPlan",
    "InjectedFault",
    "clear",
    "current",
    "fail_spawn",
    "install",
    "maybe_forge",
    "on_engine_finish",
    "on_engine_start",
    "plan_installed",
    "set_attempt",
    "tamper_saved_entry",
]
