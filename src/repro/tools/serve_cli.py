"""The ``repro-serve`` command-line front end: run a verify server.

Start a long-lived verification server on a unix socket (or TCP port) and
keep warm state — frame-template blasts and the certificate cache — alive
across requests::

    repro-serve --socket /tmp/repro.sock --cache-dir .repro-cache \\
        --journal .repro-serve/journal.jsonl
    repro-serve --tcp 127.0.0.1:7411 --workers 4
    repro-serve --tcp 7411          # no host: 127.0.0.1, as clients assume

Clients speak ``repro-serve-v1`` (:mod:`repro.serve.protocol`):
``repro-verify daio --server /tmp/repro.sock`` for one-shot queries, or
:class:`repro.serve.client.ServeClient` programmatically.  The server runs
until SIGTERM/SIGINT or a client ``drain`` request, then drains gracefully:
admissions close (``rejected: draining``), every accepted request is
answered, the journal is compacted and the telemetry trace (``--trace``)
is written.

A computation's attempt is killed at its attempt deadline — its share of
the request's budget, capped by ``--attempt-timeout``, plus a grace — and
retried once; that deadline is the one wedge kill.

``--chaos SEED`` installs a seeded fault plan (see :mod:`repro.faults`) in
the server process — soak-harness only; the rates come from
``--chaos-rates kind=rate,...`` and cover both the classic execution faults
(worker kills, hangs, cache tampering) and the server-site ``journal-torn``.
A kind outside :data:`repro.faults.plan.FAULT_KINDS` or a rate outside
[0, 1] is a usage error.

``repro-serve --status TARGET`` prints a one-shot health report of a running
server, read from its ``stats`` op, instead of starting anything.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro.faults.plan import FAULT_KINDS, FaultPlan
from repro.obs import log as _log
from repro.obs import telemetry as _telemetry
from repro.serve.server import ServerConfig, VerifyServer
from repro.tools import freeze_heap_at_exit


def _parse_rates(spec: str) -> dict:
    """An argparse type: ``"kind=rate,..."`` to ``{kind: rate}``.

    Every kind must be one of :data:`repro.faults.plan.FAULT_KINDS` and every
    rate a number in [0, 1]; a misspelled kind would otherwise be installed
    and never fire.
    """
    rates = {}
    for item in spec.split(","):
        kind, _, text = item.partition("=")
        kind = kind.strip()
        if kind not in FAULT_KINDS:
            raise argparse.ArgumentTypeError(
                f"unknown fault kind {kind!r} (known: {', '.join(FAULT_KINDS)})"
            )
        try:
            rate = float(text)
        except ValueError:
            rate = -1.0
        if not 0.0 <= rate <= 1.0:
            raise argparse.ArgumentTypeError(
                f"rate of {kind!r} must be a number in [0, 1], got {text!r}"
            )
        rates[kind] = rate
    return rates


def _print_status(target: str) -> int:
    """One-shot health report of a running server."""
    from repro.serve.client import ServeClient
    from repro.serve.protocol import parse_addr

    socket_path, host, port = parse_addr(target)
    try:
        with ServeClient(
            socket_path=socket_path, host=host, port=port,
            timeout=5.0, reconnect=False,
        ) as client:
            status = client.stats()
    except Exception as error:  # noqa: BLE001 - report, don't trace
        print(f"{target}: unreachable ({error})", file=sys.stderr)
        return 1

    print(f"{target}: uptime={status.get('uptime_s', 0):.1f}s")
    counters = status.get("counters", {})
    if counters:
        lifetime = " ".join(
            f"{name}={counters[name]}"
            for name in ("accepted", "answered", "cancelled")
            if name in counters
        )
        print(f"  lifetime: {lifetime}")
    print(
        f"  queue={status.get('queue_depth', '?')}"
        f" active={status.get('active', '?')}"
    )
    telemetry = status.get("telemetry") or {}
    if telemetry:
        print(
            f"  telemetry: {telemetry.get('spans', 0)} span(s),"
            f" {len(telemetry.get('counters', {}))} counter(s)"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    freeze_heap_at_exit()
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="run a long-lived verification server (repro-serve-v1)",
    )
    where = parser.add_mutually_exclusive_group(required=True)
    where.add_argument(
        "--socket", metavar="PATH", help="listen on a unix socket at PATH"
    )
    where.add_argument(
        "--tcp", metavar="HOST:PORT", help="listen on a TCP host:port"
    )
    where.add_argument(
        "--status", metavar="TARGET", default=None,
        help="print the status of a running server at TARGET "
             "(unix:PATH or HOST:PORT) and exit",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="certificate-keyed result cache root (hits are re-validated, "
             "definitive verdicts are stored)",
    )
    parser.add_argument(
        "--journal", metavar="FILE", default=None,
        help="write-ahead request journal; on restart, accepted-but-"
             "unanswered requests are NACKed",
    )
    parser.add_argument(
        "--max-queue", type=int, default=16, metavar="N",
        help="admission-queue capacity; beyond it requests are rejected "
             "with reason 'overloaded' (default 16)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="run at most N computations at once; queued misses wait in "
             "arrival order (default 2)",
    )
    parser.add_argument(
        "--default-deadline", type=float, default=120.0, metavar="S",
        help="deadline for requests that set none (default 120); the "
             "deadline propagates into engine and solver budgets",
    )
    parser.add_argument(
        "--attempt-timeout", type=float, default=None, metavar="S",
        help="per-attempt cap inside a request's budget: a wedged "
             "attempt is killed at it (plus a grace) and retried once",
    )
    parser.add_argument(
        "--certify", action="store_true",
        help="accept only attempt verdicts whose certificate passes "
             "independent validation inside the worker ladder",
    )
    parser.add_argument(
        "--fsync-journal", action="store_true",
        help="fsync every journal append (power-loss durability; process-"
             "crash durability needs no fsync)",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a repro-trace-v1 JSONL of the server's whole life on "
             "drain; lint it with repro-trace lint --expect-clean",
    )
    parser.add_argument(
        "--chaos", type=int, default=None, metavar="SEED",
        help="install a seeded fault plan in the server process "
             "(soak/test harness only)",
    )
    parser.add_argument(
        "--chaos-rates", type=_parse_rates, default={}, metavar="KIND=RATE,...",
        help="per-kind fault rates for --chaos, e.g. "
             "'worker-kill=0.2,journal-torn=0.1'",
    )
    _log.add_verbosity_flags(parser)
    args = parser.parse_args(argv)
    _log.configure_from_args(args)

    if args.status:
        return _print_status(args.status)

    host, port = None, 0
    if args.tcp:
        host, _, port_text = args.tcp.rpartition(":")
        # a spec with no host listens where clients look by default
        host = host or "127.0.0.1"
        try:
            port = int(port_text)
        except ValueError:
            parser.error(f"bad --tcp spec {args.tcp!r} (want HOST:PORT)")
    if args.workers < 1:
        parser.error(f"--workers must be 1 or more, not {args.workers}")
    if args.max_queue < 1:
        parser.error(f"--max-queue must be 1 or more, not {args.max_queue}")

    config = ServerConfig(
        socket_path=args.socket,
        host=host,
        port=port,
        cache_dir=args.cache_dir,
        journal_path=args.journal,
        max_queue=args.max_queue,
        max_workers=args.workers,
        default_deadline_s=args.default_deadline,
        attempt_timeout_s=args.attempt_timeout,
        certify=args.certify,
        trace_path=args.trace,
        fsync_journal=args.fsync_journal,
    )

    if args.chaos is not None:
        from repro.faults import injection

        injection.install(
            FaultPlan(seed=args.chaos, rates=args.chaos_rates)
        )
        _log.info(f"chaos plan installed (seed {args.chaos})")

    if args.trace:
        _telemetry.enable()
    server = VerifyServer(config)
    try:
        asyncio.run(server.serve_forever())
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
