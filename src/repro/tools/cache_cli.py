"""``repro-cache``: inspect, fsck, and shrink the certificate result cache.

Subcommands
-----------

``fsck``
    Re-validate every entry with the independent certificate validator
    (:func:`repro.certs.validate_certificate`), prune entries that fail,
    quarantine entries that no longer decode, and report.  With
    ``--expect-clean`` the exit code gates on a healthy store — the CI
    chaos-smoke job tampers a store on purpose and asserts that one fsck
    finds everything and a second one comes back clean.

``stats``
    Print the store's entry count, byte size, caps, quarantine backlog, and
    the lifetime serving counters (hits, misses, stores, demotions,
    revalidation outcomes) of every process that used the cache: the sum of
    ``counters.json`` and the unfolded ``counters.log`` at the cache root.

``evict``
    Apply ``--max-entries``/``--max-bytes`` LRU caps once, printing the
    evicted keys.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import List, Optional

from repro.cache import ResultCache
from repro.cache.store import QUARANTINE_DIR
from repro.obs import log as _log


def _print_json(document: object) -> None:
    print(json.dumps(document, indent=2, default=str))


def _cmd_fsck(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir, validation_timeout=args.timeout)
    report = cache.fsck(prune=not args.no_prune)
    if args.json:
        _print_json(report)
    else:
        print(
            f"checked {report['checked']} entries: {report['ok']} ok, "
            f"{len(report['pruned'])} pruned, "
            f"{len(report['quarantined'])} quarantined, "
            f"{len(report['unresolved'])} unresolved"
        )
        for row in report["pruned"]:
            print(f"  pruned {row['key'][:16]}…: {row['reason']}")
        for key in report["quarantined"]:
            print(f"  quarantined {key[:16]}…")
        print(
            f"store: {report['entries']} entries, {report['bytes']} bytes, "
            f"quarantine backlog {report['quarantine_backlog']}"
        )
    if args.expect_clean and not report["clean"]:
        return 1
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    backend = cache.store_backend
    lifetime = cache.persistent.as_dict()
    document = {
        "root": backend.root,
        "entries": len(backend),
        "bytes": backend.total_bytes(),
        "max_entries": backend.max_entries,
        "max_bytes": backend.max_bytes,
        "quarantine_backlog": len(backend.quarantine_keys()),
        "lifetime": lifetime,
    }
    if args.json:
        _print_json(document)
    else:
        for name, value in document.items():
            if name == "lifetime":
                continue
            print(f"{name}: {value}")
        served = lifetime.get("hits", 0) + lifetime.get("misses", 0)
        print(
            f"lifetime: {lifetime.get('hits', 0)} hit(s) / "
            f"{lifetime.get('misses', 0)} miss(es) over {served} lookup(s), "
            f"{lifetime.get('stores', 0)} store(s), "
            f"{lifetime.get('demotions', 0)} demotion(s), "
            f"revalidations {lifetime.get('revalidations_ok', 0)} ok / "
            f"{lifetime.get('revalidations_failed', 0)} failed"
        )
    return 0


def _cmd_evict(args: argparse.Namespace) -> int:
    if args.max_entries is None and args.max_bytes is None:
        print("evict needs --max-entries and/or --max-bytes")
        return 2
    cache = ResultCache(args.cache_dir)
    evicted = cache.store_backend.evict(
        max_entries=args.max_entries, max_bytes=args.max_bytes
    )
    backend = cache.store_backend
    document = {
        "evicted": evicted,
        "entries": len(backend),
        "bytes": backend.total_bytes(),
    }
    if args.json:
        _print_json(document)
    else:
        print(
            f"evicted {len(evicted)} entries; "
            f"{document['entries']} entries / {document['bytes']} bytes remain"
        )
    return 0


def _cmd_purge_quarantine(args: argparse.Namespace) -> int:
    shard = os.path.join(args.cache_dir, QUARANTINE_DIR)
    removed = 0
    try:
        names = os.listdir(shard)
    except OSError:
        names = []
    for name in names:
        try:
            os.unlink(os.path.join(shard, name))
            removed += 1
        except OSError:
            pass
    print(f"purged {removed} quarantined files")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-cache",
        description="inspect, fsck, and shrink the certificate result cache",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", required=True,
        help="root directory of the certificate store",
    )
    _log.add_verbosity_flags(parser)
    commands = parser.add_subparsers(dest="command", required=True)

    def add_json_flag(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--json", action="store_true", help="machine-readable output"
        )

    fsck = commands.add_parser(
        "fsck", help="re-validate every entry, prune failures, report"
    )
    add_json_flag(fsck)
    fsck.add_argument("--timeout", type=float, default=None,
                      help="per-entry validation budget in seconds")
    fsck.add_argument("--no-prune", action="store_true",
                      help="report failing entries without deleting them")
    fsck.add_argument("--expect-clean", action="store_true",
                      help="exit 1 if anything had to be pruned or quarantined")
    fsck.set_defaults(run=_cmd_fsck)

    stats = commands.add_parser("stats", help="print store size and backlog")
    add_json_flag(stats)
    stats.set_defaults(run=_cmd_stats)

    evict = commands.add_parser("evict", help="apply LRU caps once")
    add_json_flag(evict)
    evict.add_argument("--max-entries", type=int, default=None)
    evict.add_argument("--max-bytes", type=int, default=None)
    evict.set_defaults(run=_cmd_evict)

    purge = commands.add_parser(
        "purge-quarantine", help="delete quarantined files"
    )
    purge.set_defaults(run=_cmd_purge_quarantine)

    args = parser.parse_args(argv)
    _log.configure_from_args(args)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
