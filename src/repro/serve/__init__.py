"""Verification-as-a-service: a long-lived server over the batch machinery.

The batch runner amortizes warm state (blasted frame templates, the
certificate store) over one sweep; :mod:`repro.serve` amortizes
it over *a process lifetime*.  A :class:`repro.serve.server.VerifyServer`
listens on a unix socket (or TCP) and answers a cache hit at admission.
A miss coalesces with an identical in-flight query by cache key or waits
in one FIFO line of at most ``max_queue`` misses for one of at most
``max_workers`` computation slots; each computation runs through the
supervised single-unit pipeline
(:func:`repro.engines.batch.run_supervised_unit`) with the request deadline
threaded all the way into the solver's cooperative interrupt.  Its waiting
clients get a ``progress`` frame for each worker attempt, retry and
degraded run, and a keepalive at least every 2 s.  Every
accepted request is journaled, and a restarted server NACKs the ones a
crash left unanswered, so a crash can never silently swallow one.

Wire protocol: ``repro-serve-v1`` (length-prefixed JSON lines, see
:mod:`repro.serve.protocol`).  Clients: :class:`repro.serve.client.ServeClient`
or ``repro-verify --server``.
"""

from repro.serve.client import ConnectionClosed, ServeClient, ServeError
from repro.serve.journal import RequestJournal
from repro.serve.protocol import PROTOCOL, ProtocolError, parse_addr
from repro.serve.server import ServerConfig, VerifyServer

__all__ = [
    "PROTOCOL",
    "ConnectionClosed",
    "ProtocolError",
    "RequestJournal",
    "ServeClient",
    "ServeError",
    "ServerConfig",
    "VerifyServer",
    "parse_addr",
]
