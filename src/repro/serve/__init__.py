"""Verification-as-a-service: a long-lived server over the batch machinery.

The batch runner amortizes warm state (blasted frame templates, the
certificate store) over one sweep; :mod:`repro.serve` amortizes
it over *a process lifetime*.  A :class:`repro.serve.server.VerifyServer`
listens on a unix socket (or TCP), admits requests through a bounded
priority queue, coalesces identical in-flight queries by cache key, runs
each computation through the supervised single-unit pipeline
(:func:`repro.engines.batch.run_supervised_unit`) with the request deadline
threaded all the way into the solver's cooperative interrupt, and journals
every accepted request so a crash can never silently swallow one.

Fleet mode: a primary streams its journal to hot standbys
(:mod:`repro.serve.replica`) so a SIGKILL becomes a takeover instead of a
restart, and a :class:`repro.serve.router.VerifyRouter` front process
health-checks members, shards requests by certificate-store key prefix and
fails clients over transparently.

Wire protocol: ``repro-serve-v1`` (length-prefixed JSON lines, see
:mod:`repro.serve.protocol`).  Clients: :class:`repro.serve.client.ServeClient`
or ``repro-verify --server``.
"""

from repro.serve.client import ConnectionClosed, ServeClient, ServeError
from repro.serve.journal import RequestJournal
from repro.serve.protocol import PROTOCOL, ProtocolError, format_addr, parse_addr
from repro.serve.queues import PRIORITIES, BoundedPriorityQueue
from repro.serve.replica import ReplicationManager, StandbyReplica
from repro.serve.router import MemberSpec, RouterConfig, VerifyRouter
from repro.serve.server import ServerConfig, VerifyServer
from repro.serve.throttle import AdaptiveThrottle, AutoThrottle

__all__ = [
    "PROTOCOL",
    "PRIORITIES",
    "AdaptiveThrottle",
    "AutoThrottle",
    "BoundedPriorityQueue",
    "ConnectionClosed",
    "MemberSpec",
    "ProtocolError",
    "ReplicationManager",
    "RequestJournal",
    "RouterConfig",
    "ServeClient",
    "ServeError",
    "ServerConfig",
    "StandbyReplica",
    "VerifyRouter",
    "VerifyServer",
    "format_addr",
    "parse_addr",
]
