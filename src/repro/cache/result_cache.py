"""The certificate-keyed result cache: re-validate instead of re-verify.

:class:`ResultCache` serves repeated verification queries from a store of
validated certificates.  The contract:

* the key is a content hash of ``(design, property, representation)``
  (:func:`repro.cache.key.cache_key`), so any semantic mutation of the query
  misses;
* a lookup *never* trusts the store: the entry's certificate is re-validated
  against the queried design by the independent
  :class:`repro.certs.CertificateValidator` before the verdict is served.  A
  hit is a validated certificate; an entry that fails re-validation (corrupt,
  tampered, or wrong) is deleted and reported as a miss, while one whose
  re-validation is undecided (out of time) is a plain miss and stays;
* only definitive verdicts carrying certificates that the validator accepts
  are stored, and SAFE certificates are shrunk first
  (:mod:`repro.cache.minimize`) so the re-validation on future hits stays
  fast;
* lifetime hit/miss/store counters of every process sharing the root live in
  ``counters.json`` plus an append-only ``counters.log``
  (:class:`PersistentCounters`).

Re-validating is much cheaper than re-verifying: the engine searched for the
invariant or trace, the validator only checks it (a handful of SAT queries
respectively one concrete replay).
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.cache.key import cache_key
from repro.cache.minimize import MinimizationResult, minimize_certificate
from repro.cache.store import CacheEntry, CertificateStore
from repro.certs import KINDS_FOR_STATUS, ValidationResult, validate_certificate
from repro.engines.result import Status, VerificationResult
from repro.jsonio import write_json_atomic
from repro.netlist import TransitionSystem
from repro.obs import telemetry as _telemetry

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: appends go unlocked
    fcntl = None

#: validation checks one SAFE certificate's minimization may spend before
#: it keeps what it has
MINIMIZE_MAX_CHECKS = 64


@dataclass
class CacheLookup:
    """Outcome of one cache lookup."""

    hit: bool
    key: str
    reason: str
    result: Optional[VerificationResult] = None
    entry: Optional[CacheEntry] = None
    validation: Optional[ValidationResult] = None
    #: an entry existed but failed re-validation and was dropped
    demoted: bool = False
    runtime_s: float = 0.0


@dataclass
class CacheStoreOutcome:
    """Outcome of offering one result to the cache."""

    stored: bool
    key: str
    reason: str
    path: Optional[str] = None
    minimization: Optional[MinimizationResult] = None
    validate_original_s: Optional[float] = None
    validate_minimized_s: Optional[float] = None


#: once ``counters.log`` grows past this many bytes (about a hundred bumps)
#: the bumping process folds it into ``counters.json``
COUNTERS_FOLD_BYTES = 4096


def _lock(fd: int, exclusive: bool = False) -> None:
    """``flock`` one descriptor; closing it releases the lock."""
    if fcntl is not None:
        fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)


@functools.lru_cache(maxsize=64)
def _log_line(deltas: tuple) -> bytes:
    """One ``counters.log`` line, encoded once per set of ``(name, delta)`` pairs."""
    return (json.dumps(dict(deltas), separators=(",", ":")) + "\n").encode("ascii")


class PersistentCounters:
    """Lifetime cache counters shared by every process using one cache root.

    The in-memory counters on :class:`ResultCache` reset with every process;
    these survive on disk so ``repro-cache stats`` can report hit/miss/
    re-validation totals across the cache's whole life.  The totals are
    ``<root>/counters.json`` plus ``<root>/counters.log``:

    * :meth:`bump` appends one line of deltas to the log, a single
      ``O_APPEND`` write under a shared ``flock``, so processes sharing the
      root never overwrite each other's counts;
    * once the log passes :data:`COUNTERS_FOLD_BYTES`, the bumping process
      folds it into ``counters.json`` under an exclusive lock;
    * :meth:`as_dict` sums the two under a shared lock.

    A missing or corrupt ``counters.json`` and a torn log line read as zero.
    """

    FILENAME = "counters.json"
    LOG_FILENAME = "counters.log"
    FIELDS = (
        "hits",
        "misses",
        "stores",
        "demotions",
        "revalidations_ok",
        "revalidations_failed",
    )

    def __init__(self, root: str) -> None:
        self.path = os.path.join(root, self.FILENAME)
        self.log_path = os.path.join(root, self.LOG_FILENAME)

    def bump(self, **deltas: int) -> None:
        """Add ``deltas`` to the lifetime totals: one appended log line."""
        changed = tuple((name, delta) for name, delta in deltas.items() if delta)
        if not changed:
            return
        line = _log_line(changed)
        try:
            fd = os.open(self.log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                _lock(fd)
                os.write(fd, line)
                size = os.fstat(fd).st_size
            finally:
                os.close(fd)
            if size > COUNTERS_FOLD_BYTES:
                self._fold()
        except OSError:  # pragma: no cover - read-only cache directory
            pass

    def _fold(self) -> None:
        with open(self.log_path, "r+b") as log:
            _lock(log.fileno(), exclusive=True)
            if os.fstat(log.fileno()).st_size <= COUNTERS_FOLD_BYTES:
                return  # another process folded it while we waited
            write_json_atomic(self.path, self._totals(log.read()))
            # a crash between the rename above and this truncate counts the
            # folded lines twice: an over-count, never a lost update
            log.truncate(0)

    def _totals(self, log: bytes) -> Dict[str, int]:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                rows = [json.load(handle)]
        except (OSError, ValueError):
            rows = []  # fresh cache or corrupt counter file: start from zero
        # the piece after the last newline is empty or a torn append; the
        # whole lines are one parse unless a torn line among them fails it
        lines = log.split(b"\n")[:-1]
        try:
            parsed = json.loads(b"[%s]" % b",".join(lines))
        except ValueError:
            parsed = []
        if len(parsed) == len(lines):
            rows += parsed
        else:  # parse each line on its own and skip the torn ones
            for line in lines:
                try:
                    rows.append(json.loads(line))
                except ValueError:
                    continue
        values = {name: 0 for name in self.FIELDS}
        for row in rows:
            if not isinstance(row, dict):
                continue
            for name in self.FIELDS:
                value = row.get(name)
                if isinstance(value, int) and value >= 0:
                    values[name] += value
        return values

    def as_dict(self) -> Dict[str, int]:
        """The lifetime totals: ``counters.json`` plus the unfolded log."""
        try:
            log = open(self.log_path, "rb")
        except OSError:
            return self._totals(b"")  # no log yet: the base is the total
        with log:
            _lock(log.fileno())
            return self._totals(log.read())


class ResultCache:
    """An on-disk, certificate-keyed verification result cache."""

    def __init__(
        self,
        root: str,
        validation_timeout: Optional[float] = None,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.store_backend = CertificateStore(
            root, max_entries=max_entries, max_bytes=max_bytes
        )
        self.validation_timeout = validation_timeout
        # observability counters (per ResultCache instance)
        self.hits = 0
        self.misses = 0
        self.demotions = 0
        self.stores = 0
        # lifetime counters shared by every process using this cache root
        self.persistent = PersistentCounters(self.store_backend.root)

    # ------------------------------------------------------------------
    @property
    def root(self) -> str:
        return self.store_backend.root

    def key_for(
        self, system: TransitionSystem, property_name: str, representation: str = "word"
    ) -> str:
        return cache_key(system, property_name, representation)

    # ------------------------------------------------------------------
    def lookup(
        self,
        system: TransitionSystem,
        property_name: str,
        representation: str = "word",
        timeout: Optional[float] = None,
    ) -> CacheLookup:
        """Look one query up; a hit is served only after re-validation.

        ``timeout`` bounds this call's re-validation in place of the cache's
        ``validation_timeout``; a re-validation it stops is a plain miss
        that keeps the entry.
        """
        start = time.monotonic()
        key = self.key_for(system, property_name, representation)
        with _telemetry.span(
            "cache.lookup", key=key, property=property_name
        ) as lookup_span:

            def miss(
                reason: str,
                demoted: bool = False,
                revalidate_failed: bool = False,
                **extra,
            ) -> CacheLookup:
                self.misses += 1
                if demoted:
                    self.demotions += 1
                self.persistent.bump(
                    misses=1,
                    demotions=1 if demoted else 0,
                    revalidations_failed=1 if revalidate_failed else 0,
                )
                _telemetry.counter("cache.miss")
                if demoted:
                    _telemetry.counter("cache.demotion")
                if revalidate_failed:
                    _telemetry.counter("cache.revalidate_fail")
                lookup_span.set_outcome("demoted" if demoted else "miss")
                return CacheLookup(
                    False,
                    key,
                    reason,
                    demoted=demoted,
                    runtime_s=time.monotonic() - start,
                    **extra,
                )

            entry = self.store_backend.load(key)
            if entry is None:
                return miss("absent")
            allowed = KINDS_FOR_STATUS.get(entry.status)
            certificate_kind = getattr(entry.certificate, "kind", None)
            if (
                allowed is None
                or certificate_kind not in allowed
                or entry.property_name != property_name
                or getattr(entry.certificate, "property_name", None) != property_name
            ):
                # malformed provenance: the certificate cannot justify the claim
                self.store_backend.delete(key)
                return miss(
                    "entry cannot justify its verdict", demoted=True, entry=entry
                )

            validation = validate_certificate(
                system,
                entry.certificate,
                timeout=self.validation_timeout if timeout is None else timeout,
            )
            if validation.undecided:
                # the deadline, not the certificate, stopped the check
                return miss(
                    f"re-validation undecided: {validation.reason}",
                    entry=entry,
                    validation=validation,
                )
            if not validation.ok:
                self.store_backend.delete(key)
                return miss(
                    f"re-validation failed: {validation.reason}",
                    demoted=True,
                    revalidate_failed=True,
                    entry=entry,
                    validation=validation,
                )

            self.hits += 1
            self.persistent.bump(hits=1, revalidations_ok=1)
            _telemetry.counter("cache.hit")
            lookup_span.set_outcome("hit")
            runtime = time.monotonic() - start
            result = VerificationResult(
                entry.status,
                f"cache:{entry.engine}" if entry.engine else "cache",
                property_name,
                runtime=runtime,
                detail={
                    "cache": {
                        "key": key,
                        "design": entry.design,
                        "engine": entry.engine,
                        "representation": entry.representation,
                        "minimized": entry.minimized,
                        "invariant_size": entry.size,
                    },
                    "validation": validation.to_json(),
                },
                reason="served from the certificate cache after re-validation",
                certificate=entry.certificate,
            )
            return CacheLookup(
                True,
                key,
                "hit (re-validated)",
                result=result,
                entry=entry,
                validation=validation,
                runtime_s=runtime,
            )

    # ------------------------------------------------------------------
    def store(
        self,
        system: TransitionSystem,
        property_name: str,
        representation: str,
        result: VerificationResult,
        design: str = "",
    ) -> CacheStoreOutcome:
        """Offer one engine result to the cache.

        Only definitive verdicts whose certificate the independent validator
        accepts enter the store; SAFE certificates are minimized first.  The
        timing of the original-vs-minimized validator passes is recorded so
        harnesses can report the hit-latency effect of minimization.
        """
        key = self.key_for(system, property_name, representation)
        with _telemetry.span(
            "cache.store", key=key, property=property_name
        ) as store_span:
            certificate = getattr(result, "certificate", None)
            allowed = KINDS_FOR_STATUS.get(result.status)
            if allowed is None:
                store_span.set_outcome("rejected")
                return CacheStoreOutcome(False, key, "verdict is not definitive")
            if certificate is None:
                store_span.set_outcome("rejected")
                return CacheStoreOutcome(False, key, "result carries no certificate")
            if getattr(certificate, "kind", None) not in allowed:
                store_span.set_outcome("rejected")
                return CacheStoreOutcome(
                    False, key, "certificate kind cannot justify the verdict"
                )

            t0 = time.monotonic()
            validation = validate_certificate(
                system, certificate, timeout=self.validation_timeout
            )
            validate_original_s = time.monotonic() - t0
            if not validation.ok:
                _telemetry.counter("cache.store_rejected")
                store_span.set_outcome("rejected")
                return CacheStoreOutcome(
                    False,
                    key,
                    f"certificate failed validation: {validation.reason}",
                    validate_original_s=validate_original_s,
                )

            minimization: Optional[MinimizationResult] = None
            validate_minimized_s = validate_original_s
            if result.status == Status.SAFE:
                with _telemetry.span("cache.minimize", key=key) as minimize_span:
                    minimization = minimize_certificate(
                        system,
                        certificate,
                        timeout=self.validation_timeout,
                        max_checks=MINIMIZE_MAX_CHECKS,
                    )
                    minimize_span.annotate(dropped=minimization.dropped)
                certificate = minimization.certificate
                if minimization.dropped:
                    t1 = time.monotonic()
                    final = validate_certificate(
                        system, certificate, timeout=self.validation_timeout
                    )
                    validate_minimized_s = time.monotonic() - t1
                    if not final.ok:  # pragma: no cover - minimizer re-checks drops
                        certificate = getattr(result, "certificate")
                        minimization = None
                        validate_minimized_s = validate_original_s

            # both single-engine VerificationResults and aggregated
            # PortfolioResults (winner_engine) are storable
            engine = (
                getattr(result, "engine", None)
                or getattr(result, "winner_engine", None)
                or ""
            )
            entry = CacheEntry(
                key=key,
                status=result.status,
                property_name=property_name,
                engine=engine,
                representation=representation,
                certificate=certificate,
                design=design or getattr(system, "name", ""),
                minimized=bool(minimization and minimization.dropped),
                original_size=minimization.original_size if minimization else None,
                size=minimization.size if minimization else None,
                extra={
                    "validate_original_s": round(validate_original_s, 6),
                    "validate_minimized_s": round(validate_minimized_s, 6),
                },
            )
            path = self.store_backend.save(entry)
            self.stores += 1
            self.persistent.bump(stores=1)
            _telemetry.counter("cache.store")
            store_span.set_outcome("stored")
            return CacheStoreOutcome(
                True,
                key,
                "stored",
                path=path,
                minimization=minimization,
                validate_original_s=validate_original_s,
                validate_minimized_s=validate_minimized_s,
            )

    # ------------------------------------------------------------------
    def fsck(
        self,
        resolve: Optional[Callable[[CacheEntry], Optional[TransitionSystem]]] = None,
        prune: bool = True,
    ) -> Dict[str, object]:
        """Re-validate every store entry and heal what fails.

        For each key: an undecodable document is quarantined (by the load
        path), an entry whose certificate cannot justify its verdict or
        fails independent re-validation against its design is pruned
        (``prune=False`` only reports), and an entry whose re-validation is
        undecided (out of time) is kept and listed as ``undecided``; any of
        the three makes the store not clean.  ``resolve`` maps an entry to its
        :class:`~repro.netlist.TransitionSystem`; the default resolver
        loads suite benchmarks by the recorded design name — entries whose
        design it cannot resolve get the structural checks only and are
        reported as ``unresolved``.
        """
        if resolve is None:
            resolve = _resolve_benchmark_design

        report: Dict[str, object] = {
            "checked": 0,
            "ok": 0,
            "pruned": [],
            "quarantined": [],
            "undecided": [],
            "unresolved": [],
        }
        for key in list(self.store_backend.keys()):
            report["checked"] += 1
            quarantined_before = self.store_backend.quarantined
            entry = self.store_backend.load(key)
            if entry is None:
                if self.store_backend.quarantined > quarantined_before:
                    report["quarantined"].append(key)
                continue

            def fail(reason: str) -> None:
                if prune:
                    self.store_backend.delete(key)
                report["pruned"].append({"key": key, "reason": reason})

            allowed = KINDS_FOR_STATUS.get(entry.status)
            kind = getattr(entry.certificate, "kind", None)
            if allowed is None or kind not in allowed:
                fail("certificate kind cannot justify the verdict")
                continue
            if getattr(entry.certificate, "property_name", None) != entry.property_name:
                fail("certificate/property provenance mismatch")
                continue
            system = resolve(entry)
            if system is None:
                report["unresolved"].append(key)
                report["ok"] += 1  # structurally sound; design not at hand
                continue
            validation = validate_certificate(
                system, entry.certificate, timeout=self.validation_timeout
            )
            if validation.undecided:
                report["undecided"].append({"key": key, "reason": validation.reason})
                continue
            if not validation.ok:
                fail(f"re-validation failed: {validation.reason}")
                continue
            report["ok"] += 1

        report["entries"] = len(self.store_backend)
        report["bytes"] = self.store_backend.total_bytes()
        report["quarantine_backlog"] = len(self.store_backend.quarantine_keys())
        report["clean"] = not (
            report["pruned"] or report["quarantined"] or report["undecided"]
        )
        return report

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "demotions": self.demotions,
            "stores": self.stores,
            "entries": len(self.store_backend),
            "evictions": self.store_backend.evictions,
            "quarantined": self.store_backend.quarantined,
            "lifetime": self.persistent.as_dict(),
        }


def _resolve_benchmark_design(entry: CacheEntry) -> Optional[TransitionSystem]:
    """Default fsck resolver: look the recorded design name up in the suite."""
    if not entry.design:
        return None
    try:
        from repro.benchmarks import load_system_cached

        return load_system_cached(entry.design)
    except Exception:  # noqa: BLE001 - unknown design name
        return None
