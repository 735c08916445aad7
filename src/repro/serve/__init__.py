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

Wire protocol: ``repro-serve-v1`` (length-prefixed JSON lines, see
:mod:`repro.serve.protocol`).  Clients: :class:`repro.serve.client.ServeClient`
or ``repro-verify --server``.
"""

from repro.serve.client import ConnectionClosed, ServeClient, ServeError
from repro.serve.journal import RequestJournal
from repro.serve.protocol import PROTOCOL, ProtocolError, parse_addr
from repro.serve.queues import PRIORITIES, BoundedPriorityQueue
from repro.serve.server import ServerConfig, VerifyServer
from repro.serve.throttle import AdaptiveThrottle

__all__ = [
    "PROTOCOL",
    "PRIORITIES",
    "AdaptiveThrottle",
    "BoundedPriorityQueue",
    "ConnectionClosed",
    "ProtocolError",
    "RequestJournal",
    "ServeClient",
    "ServeError",
    "ServerConfig",
    "VerifyServer",
    "parse_addr",
]
