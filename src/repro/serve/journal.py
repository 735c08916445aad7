"""Crash-safe write-ahead journal of accepted verification requests.

The server's durability contract is *no silent loss*: every request it has
told a client "accepted" is either answered, cancelled because its client
left, or — after a crash — discovered by the restarted server and NACKed.
The journal is the whole mechanism: an append-only JSONL file with one
``accept`` record per admitted request and one ``close`` record per final
outcome.  An id with an ``accept`` but no ``close`` is exactly the set of
requests a crash may have swallowed.

Each append is a single ``write()`` of whole lines plus a flush, so the
only possible corruption is a torn *tail* (the crash happened mid append).
A request answered at admission writes its ``accept`` and ``close`` lines
in one append.  Recovery parses line by line and tolerates garbage
anywhere: a torn or undecodable line is counted and skipped, never fatal —
a journal must not be able to wedge the server it exists to protect.
Compaction (dropping closed pairs) rewrites the file atomically via
:func:`repro.jsonio.write_text_atomic`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.faults import injection as _fault_injection
from repro.jsonio import write_text_atomic
from repro.serve.protocol import encode_json

#: format tag carried by every record
JOURNAL_FORMAT = "repro-serve-journal-v1"

#: close outcomes
ANSWERED = "answered"
CANCELLED = "cancelled"
NACKED = "nacked"


@dataclass
class RecoveryReport:
    """What a journal replay found: open requests and damage."""

    total_records: int = 0
    open_requests: Dict[str, dict] = field(default_factory=dict)
    closed: int = 0
    torn_lines: int = 0

    def to_json(self) -> dict:
        return {
            "total_records": self.total_records,
            "open": sorted(self.open_requests),
            "closed": self.closed,
            "torn_lines": self.torn_lines,
        }


def _accept_record(request_id: str, request: dict) -> dict:
    return {"op": "accept", "id": request_id, "request": request}


def _close_record(request_id: str, outcome: str, status: Optional[str]) -> dict:
    record = {"op": "close", "id": request_id, "outcome": outcome}
    if status is not None:
        record["status"] = status
    return record


class RequestJournal:
    """Append-only accept/close journal at ``path``.

    ``fsync`` (default off) adds an ``os.fsync`` per append: the soak and
    tests don't need power-loss durability, only crash (process-death)
    durability, which flush alone provides — the data is in the page cache
    the moment ``write`` returns, and a SIGKILL cannot claw it back.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        self._handle = None
        self.appends = 0
        self.torn_injected = 0
        #: appends and compaction rewrite the same file; the lock makes an
        #: in-flight append atomic with respect to the replay-then-rename,
        #: so compaction can never drop a record landing concurrently
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def _open(self):
        if self._handle is None or self._handle.closed:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def close(self) -> None:
        with self._lock:
            if self._handle is not None and not self._handle.closed:
                self._handle.close()

    def _append(self, records: List[dict], key: str) -> None:
        """Append ``records``, one line each, in one ``write()`` and one flush.

        :attr:`appends` counts records, not writes.  ``key`` names the
        fault site: a ``journal-torn`` fault tears the tail of this write,
        that is, its last record.
        """
        now = time.time()
        for record in records:
            record["format"] = JOURNAL_FORMAT
            record["t"] = now
        text = "".join(encode_json(record) + "\n" for record in records)
        with self._lock:
            handle = self._open()
            handle.write(text)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
            self.appends += len(records)
            if _fault_injection.torn_journal_append(self.path, key):
                self.torn_injected += 1
                # the tear truncated the file under our append handle; reopen
                # so the next append lands at the (new) end, not in a hole
                self.close()

    def accept(self, request_id: str, request: dict) -> None:
        """Journal one admitted request *before* the accept reply is sent."""
        self._append([_accept_record(request_id, request)], request_id)

    def finish(
        self, request_id: str, outcome: str, status: Optional[str] = None
    ) -> None:
        """Journal one request's final outcome (answered/cancelled/nacked)."""
        self._append([_close_record(request_id, outcome, status)], request_id)

    def accept_and_finish(
        self,
        request_id: str,
        request: dict,
        outcome: str,
        status: Optional[str] = None,
    ) -> None:
        """Journal a request decided at admission: accept and close in one append."""
        self._append(
            [
                _accept_record(request_id, request),
                _close_record(request_id, outcome, status),
            ],
            request_id,
        )

    # ------------------------------------------------------------------
    def replay(self) -> RecoveryReport:
        """Parse the journal, tolerant of a torn tail and embedded garbage."""
        report = RecoveryReport()
        try:
            with self._lock:
                with open(self.path, "r", encoding="utf-8") as handle:
                    lines = handle.readlines()
        except OSError:
            return report
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                report.torn_lines += 1
                continue
            if not isinstance(record, dict):
                report.torn_lines += 1
                continue
            report.total_records += 1
            op = record.get("op")
            request_id = str(record.get("id", ""))
            if op == "accept" and request_id:
                report.open_requests[request_id] = record.get("request") or {}
            elif op == "close" and request_id:
                # a close without an accept is legal: its accept line may be
                # the one the tear destroyed
                if report.open_requests.pop(request_id, None) is not None:
                    report.closed += 1
        return report

    def compact(self, keep_open: bool = True) -> RecoveryReport:
        """Atomically rewrite the journal keeping only open requests.

        Closed accept/close pairs are history — dropping them bounds the
        file and the next replay.  Returns the pre-compaction report.
        """
        with self._lock:
            report = self.replay()
            self.close()
            lines: List[str] = []
            if keep_open:
                for request_id, request in report.open_requests.items():
                    lines.append(
                        encode_json(
                            {
                                "format": JOURNAL_FORMAT,
                                "op": "accept",
                                "id": request_id,
                                "t": time.time(),
                                "request": request,
                            }
                        )
                    )
            write_text_atomic(self.path, "".join(line + "\n" for line in lines))
        return report
