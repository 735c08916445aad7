"""On-disk store of validated certificates, one JSON document per key.

The store is deliberately dumb: it maps cache keys to ``repro-cert-v1``
certificate documents (plus provenance metadata) laid out as
``<root>/<key[:2]>/<key>.json``, with atomic writes (temp file + rename) so
a concurrent reader never sees a torn entry.  *It is not trusted*: every
entry is re-validated against the queried design by
:class:`repro.cache.result_cache.ResultCache` before being served, so a
corrupted, tampered or simply wrong entry costs a cache miss, never a wrong
verdict.  Accordingly, any parse failure here degrades to "absent".

Self-healing: an entry that no longer *decodes* (truncated write, bit rot,
tampering) is moved into ``<root>/quarantine/`` instead of being read over
and over — the store never crashes on garbage and keeps the evidence for
``repro-cache fsck``.  Optional ``max_entries``/``max_bytes`` caps turn the
store into an LRU: loads touch the entry file's mtime and :meth:`evict`
drops the least-recently-used entries over the caps.

Parse memo: every look-up reads the entry file, but the store parses a
given byte content once.  It keeps the last parse of each key (up to
:data:`PARSED_ENTRIES_KEPT` keys, oldest out) with the exact bytes it came
from, and reuses it only while the file still holds those bytes, so any
rewrite, whatever its mtime or size, is parsed afresh.  Nothing mutates a
loaded entry, so the kept one is shared.

Concurrency: the atomic per-entry writes already make single mutations safe,
but *compound* mutations — LRU eviction scanning then deleting, quarantine
moves — can race when several server workers and batch runs share one store
root.  Every mutating operation therefore runs under an advisory
inter-process file lock (``<root>/.lock``, ``fcntl.flock``); readers stay
lock-free, so a hot lookup path never serializes on a writer.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.certs import CertificateError, certificate_from_json, certificate_to_json
from repro.faults import injection as _fault_injection

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: degrade to process-local
    fcntl = None

#: format tag of a store entry document
ENTRY_FORMAT = "repro-cache-entry-v1"

#: shard directory quarantined (undecodable) entries are moved into
QUARANTINE_DIR = "quarantine"

#: name of the advisory inter-process lock file at the store root
LOCK_FILENAME = ".lock"

#: how many keys' last parse a store keeps (see "Parse memo" above)
PARSED_ENTRIES_KEPT = 1024


class StoreLock:
    """Advisory inter-process lock on a store root (reentrant per thread).

    ``flock`` locks belong to the open file description, so every
    acquisition opens its own descriptor — two threads of one process
    exclude each other exactly like two processes do.  Reentrancy (``save``
    runs ``evict`` while already holding the lock) is tracked per thread.
    Without :mod:`fcntl` (non-POSIX) the lock degrades to a per-process
    :class:`threading.Lock`, which still serializes server worker threads.
    """

    def __init__(self, root: str) -> None:
        self.path = os.path.join(root, LOCK_FILENAME)
        self._local = threading.local()
        self._fallback = threading.RLock()

    def __enter__(self) -> "StoreLock":
        depth = getattr(self._local, "depth", 0)
        if depth == 0:
            if fcntl is None:
                self._fallback.acquire()
            else:
                fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                except OSError:  # pragma: no cover - exotic filesystem
                    os.close(fd)
                    raise
                self._local.fd = fd
        self._local.depth = depth + 1
        return self

    def __exit__(self, *exc_info) -> bool:
        depth = getattr(self._local, "depth", 1) - 1
        self._local.depth = depth
        if depth == 0:
            if fcntl is None:
                self._fallback.release()
            else:
                fd = self._local.fd
                self._local.fd = None
                try:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                finally:
                    os.close(fd)
        return False


@dataclass
class CacheEntry:
    """One stored verdict: a validated certificate plus provenance."""

    key: str
    status: str
    property_name: str
    engine: str
    representation: str
    certificate: object
    design: str = ""
    created_s: float = 0.0
    #: invariant-minimization provenance (conjunct counts, see minimize.py)
    minimized: bool = False
    original_size: Optional[int] = None
    size: Optional[int] = None
    extra: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {
            "format": ENTRY_FORMAT,
            "key": self.key,
            "status": self.status,
            "property": self.property_name,
            "engine": self.engine,
            "representation": self.representation,
            "design": self.design,
            "created_s": self.created_s,
            "minimized": self.minimized,
            "original_size": self.original_size,
            "size": self.size,
            "extra": self.extra,
            "certificate": certificate_to_json(self.certificate),
        }

    @staticmethod
    def from_json(document: object) -> "CacheEntry":
        if not isinstance(document, dict):
            raise CertificateError("cache entry must be a JSON object")
        if document.get("format") != ENTRY_FORMAT:
            raise CertificateError(
                f"unsupported cache entry format {document.get('format')!r}"
            )
        certificate = certificate_from_json(document.get("certificate"))
        status = document.get("status")
        property_name = document.get("property")
        if not isinstance(status, str) or not isinstance(property_name, str):
            raise CertificateError("cache entry status/property must be strings")
        return CacheEntry(
            key=str(document.get("key", "")),
            status=status,
            property_name=property_name,
            engine=str(document.get("engine", "")),
            representation=str(document.get("representation", "word")),
            certificate=certificate,
            design=str(document.get("design", "")),
            created_s=float(document.get("created_s", 0.0)),
            minimized=bool(document.get("minimized", False)),
            original_size=document.get("original_size"),
            size=document.get("size"),
            extra=dict(document.get("extra", {})),
        )


class CertificateStore:
    """The file-system layer of the result cache.

    ``max_entries``/``max_bytes`` (``None`` = unbounded) cap the store;
    :meth:`save` enforces them by LRU eviction, with entry-file mtimes
    (touched on every successful load) as the recency clock.
    """

    def __init__(
        self,
        root: str,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.root = root
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.evictions = 0
        self.quarantined = 0
        os.makedirs(root, exist_ok=True)
        self.lock = StoreLock(root)
        #: key -> (the entry file's bytes, the entry parsed from them)
        self._parsed: "OrderedDict[str, Tuple[bytes, CacheEntry]]" = OrderedDict()

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def quarantine_path_for(self, key: str) -> str:
        return os.path.join(self.root, QUARANTINE_DIR, f"{key}.json")

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path_for(key))

    def load_strict(self, key: str) -> Tuple[Optional[CacheEntry], str]:
        """Read one entry, reporting *why* it is unreadable.

        Returns ``(entry, "ok")``, or ``(None, reason)`` with reason
        ``"absent"`` (no file), ``"undecodable"`` (torn/tampered document)
        or ``"key-mismatch"`` (a moved/renamed file must not impersonate
        another query).  Never raises on store garbage.  The file is read on
        every call; it is parsed only when its bytes differ from those of
        the key's kept parse.
        """
        try:
            with open(self.path_for(key), "rb") as handle:
                data = handle.read()
        except OSError:
            return None, "absent"
        kept = self._parsed.get(key)
        if kept is not None and kept[0] == data:
            return kept[1], "ok"
        try:
            entry = CacheEntry.from_json(json.loads(data.decode("utf-8")))
        except (ValueError, TypeError, KeyError):
            return None, "undecodable"
        if entry.key != key:
            return None, "key-mismatch"
        self._parsed[key] = (data, entry)
        if len(self._parsed) > PARSED_ENTRIES_KEPT:
            self._parsed.popitem(last=False)
        return entry, "ok"

    def load(self, key: str) -> Optional[CacheEntry]:
        """Read one entry; any failure reads as absent, garbage is quarantined.

        A successful load touches the entry file (its mtime is the LRU
        recency clock used by :meth:`evict`).
        """
        entry, reason = self.load_strict(key)
        if entry is None:
            if reason in ("undecodable", "key-mismatch"):
                self.quarantine(key, reason)
            return None
        try:
            os.utime(self.path_for(key), None)
        except OSError:  # pragma: no cover - entry raced away
            pass
        return entry

    def quarantine(self, key: str, reason: str = "") -> Optional[str]:
        """Move a broken entry into the quarantine shard instead of crashing.

        The file stops being a cache entry (``keys`` skips the quarantine
        shard) but remains on disk as evidence for ``repro-cache fsck``.
        """
        self._parsed.pop(key, None)
        source = self.path_for(key)
        target = self.quarantine_path_for(key)
        with self.lock:
            try:
                os.makedirs(os.path.dirname(target), exist_ok=True)
                os.replace(source, target)
            except OSError:
                return None
        self.quarantined += 1
        return target

    def quarantine_keys(self) -> List[str]:
        shard_path = os.path.join(self.root, QUARANTINE_DIR)
        try:
            names = sorted(os.listdir(shard_path))
        except OSError:
            return []
        return [name[: -len(".json")] for name in names if name.endswith(".json")]

    def save(self, entry: CacheEntry) -> str:
        """Atomically write one entry; returns its path."""
        path = self.path_for(entry.key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if not entry.created_s:
            entry.created_s = time.time()
        payload = json.dumps(entry.to_json(), indent=2) + "\n"
        with self.lock:
            fd, temp_path = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(payload)
                os.replace(temp_path, path)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
            _fault_injection.tamper_saved_entry(path, entry.key, payload)
            self.evict()
        return path

    def delete(self, key: str) -> bool:
        """Drop one entry (used to demote an entry that failed revalidation)."""
        self._parsed.pop(key, None)
        with self.lock:
            try:
                os.unlink(self.path_for(key))
                return True
            except OSError:
                return False

    # ------------------------------------------------------------------
    def _entry_files(self) -> List[Tuple[float, int, str, str]]:
        """``(mtime, size, key, path)`` of every entry file, oldest first."""
        rows: List[Tuple[float, int, str, str]] = []
        for key in self.keys():
            path = self.path_for(key)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            rows.append((stat.st_mtime, stat.st_size, key, path))
        rows.sort()
        return rows

    def total_bytes(self) -> int:
        return sum(size for _, size, _, _ in self._entry_files())

    def evict(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> List[str]:
        """Drop least-recently-used entries until the store fits the caps.

        Defaults to the store's configured caps; explicit arguments allow a
        one-off shrink (``repro-cache evict``).  Returns the evicted keys.
        """
        max_entries = self.max_entries if max_entries is None else max_entries
        max_bytes = self.max_bytes if max_bytes is None else max_bytes
        if max_entries is None and max_bytes is None:
            return []
        with self.lock:
            rows = self._entry_files()
            total = sum(size for _, size, _, _ in rows)
            evicted: List[str] = []
            while rows and (
                (max_entries is not None and len(rows) > max_entries)
                or (max_bytes is not None and total > max_bytes)
            ):
                _, size, key, _ = rows.pop(0)
                if self.delete(key):
                    self.evictions += 1
                    evicted.append(key)
                total -= size
        return evicted

    # ------------------------------------------------------------------
    def keys(self) -> Iterator[str]:
        for shard in sorted(os.listdir(self.root)):
            shard_path = os.path.join(self.root, shard)
            # entry shards are two hex characters; anything else (the
            # quarantine shard, stray directories) is not entry space
            if len(shard) != 2 or not os.path.isdir(shard_path):
                continue
            for name in sorted(os.listdir(shard_path)):
                if name.endswith(".json"):
                    yield name[: -len(".json")]

    def entries(self) -> List[CacheEntry]:
        return [
            entry for entry in (self.load(key) for key in self.keys()) if entry
        ]

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())
