"""Structured spans, counters and gauges: the in-process telemetry core.

Design contract (mirrors :mod:`repro.faults.injection`):

* the active :class:`Recorder` is a **module global**; every instrumentation
  point starts with one global read and returns immediately when no recorder
  is installed, so the production hot path pays ~nothing when telemetry is
  off (the default);
* **spans** are hierarchical timed regions — ``with span("engine.verify",
  engine="bmc"):`` — carrying monotonic wall *and* CPU durations, free-form
  JSON attributes and an outcome tag; nesting is tracked per thread, and
  spans that must outlive a lexical scope (a supervisor attempt racing many
  workers) use the explicit :meth:`Recorder.start_span` / :meth:`Span.finish`
  API with an explicit parent;
* **counters** are monotonic sums (``counter("solver.conflicts", delta)``)
  and **gauges** last-written values; both live on the recorder, and a
  child process's counters are merged into the parent's when its trace is
  stitched (:meth:`Recorder.attach`);
* finished spans land in a bounded **ring buffer** (oldest dropped first,
  drop count kept) so a runaway instrumentation site cannot exhaust memory;
* **cross-process assembly**: a forked worker calls :func:`child_begin` to
  replace the recorder it inherited with a fresh one, ships
  :func:`child_export` back inside the one result message of its attempt
  (nothing streams while it runs), and the parent stitches the subtree
  under the spawning span with
  :meth:`Recorder.attach` — span ids are remapped into the parent's id
  space, so one run yields one coherent, cycle-free trace.

Wall durations use ``time.perf_counter``, CPU durations
``time.process_time``; the absolute timestamp of a span start is
``time.time`` so spans from different processes of one run share a time
base (forked children inherit the same clock).
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from collections import deque
from typing import Dict, Iterator, List, Optional

#: trace document format tag (JSONL header and subtree payloads)
TRACE_FORMAT = "repro-trace-v1"

#: default ring-buffer capacity (finished spans kept per process)
DEFAULT_CAPACITY = 100_000

#: outcome tag of spans still open when the recorder was exported
UNFINISHED = "unfinished"


class Span:
    """One timed region of the trace tree.

    Obtain spans through :func:`span` (scoped, stacked per thread) or
    :meth:`Recorder.start_span` (explicit parent, finished by hand).  A span
    is recorded into the ring buffer when it finishes; its ``outcome``
    defaults to ``"ok"`` and is overridden by :meth:`set_outcome` or by the
    scoped form when the body raises (``"error:<ExceptionName>"``).
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "pid",
        "start",
        "attrs",
        "outcome",
        "wall_s",
        "cpu_s",
        "_recorder",
        "_t0",
        "_c0",
        "_finished",
    )

    def __init__(
        self,
        recorder: "Recorder",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        attrs: Dict[str, object],
    ) -> None:
        self._recorder = recorder
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.pid = recorder.pid
        self.attrs = attrs
        self.outcome = "ok"
        self.start = time.time()
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        self._finished = False

    # ------------------------------------------------------------------
    def annotate(self, **attrs) -> "Span":
        """Merge attributes into the span (last write wins)."""
        self.attrs.update(attrs)
        return self

    def set_outcome(self, outcome: str) -> "Span":
        """Tag the span's outcome (e.g. a verdict, ``"hit"``, ``"crashed"``)."""
        self.outcome = str(outcome)
        return self

    def finish(self, outcome: Optional[str] = None) -> "Span":
        """Stop the clocks and record the span; idempotent."""
        if self._finished:
            return self
        self._finished = True
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = time.process_time() - self._c0
        if outcome is not None:
            self.outcome = str(outcome)
        self._recorder._record(self)
        return self

    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "pid": self.pid,
            "start": round(self.start, 6),
            "wall_s": round(self.wall_s, 9),
            "cpu_s": round(self.cpu_s, 9),
            "outcome": self.outcome,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"outcome={self.outcome!r}, wall={self.wall_s:.6f}s)"
        )


class _NoopSpan:
    """The disabled-mode stand-in: every method is a no-op returning self."""

    __slots__ = ()

    def annotate(self, **attrs) -> "_NoopSpan":
        return self

    def set_outcome(self, outcome: str) -> "_NoopSpan":
        return self

    def finish(self, outcome: Optional[str] = None) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _ScopedSpan:
    """Context-manager wrapper pushing a span onto the thread's stack."""

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "Recorder", span: Span) -> None:
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        self._recorder.push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._recorder.pop(self._span)
        if exc_type is not None and self._span.outcome == "ok":
            self._span.set_outcome(f"error:{exc_type.__name__}")
        self._span.finish()
        return False


class Recorder:
    """Per-process telemetry sink: span ring buffer + counters + gauges."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self.pid = os.getpid()
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.dropped = 0
        self._spans: "deque[Span]" = deque(maxlen=capacity)
        self._open: Dict[int, Span] = {}
        self._next_id = 1
        self._lock = threading.Lock()
        self._stacks = threading.local()

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def start_span(
        self,
        name: str,
        parent: Optional[Span] = None,
        **attrs,
    ) -> Span:
        """Start a span with an explicit parent (default: the current span).

        The span is *not* pushed onto the thread stack; finish it with
        :meth:`Span.finish`.  Use :func:`span` for the scoped form.
        """
        if parent is None:
            parent = self.current_span()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        created = Span(
            self, span_id, parent.span_id if parent else None, name, dict(attrs)
        )
        with self._lock:
            self._open[span_id] = created
        return created

    def push(self, span: Span) -> None:
        self._stack().append(span)

    def pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - unbalanced nesting
            stack.remove(span)

    @contextlib.contextmanager
    def under(self, span: Span) -> Iterator[Span]:
        """Run a block with ``span`` as the current parent (not finishing it)."""
        self.push(span)
        try:
            yield span
        finally:
            self.pop(span)

    def _record(self, span: Span) -> None:
        with self._lock:
            self._open.pop(span.span_id, None)
            if len(self._spans) == self._spans.maxlen:
                self.dropped += 1
            self._spans.append(span)

    # ------------------------------------------------------------------
    # counters and gauges
    # ------------------------------------------------------------------
    def counter(self, name: str, delta: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = value

    def snapshot(self) -> Dict[str, object]:
        """A point-in-time metrics view (counters copied, not live)."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "spans": len(self._spans),
                "open_spans": len(self._open),
                "dropped_spans": self.dropped,
            }

    # ------------------------------------------------------------------
    # export and cross-process assembly
    # ------------------------------------------------------------------
    def export(self, close_open: bool = True) -> Dict[str, object]:
        """Serialize the recorder: every finished span + counters/gauges.

        ``close_open`` force-finishes spans still open (tagged
        ``"unfinished"``) so an export never strands finished children under
        an absent parent.
        """
        if close_open:
            with self._lock:
                still_open = list(self._open.values())
            # deepest (newest) first so children finish before parents
            for span in sorted(still_open, key=lambda s: -s.span_id):
                span.finish(outcome=UNFINISHED)
        with self._lock:
            spans = [span.to_json() for span in self._spans]
            return {
                "format": TRACE_FORMAT,
                "pid": self.pid,
                "spans": spans,
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "dropped_spans": self.dropped,
            }

    def attach(self, payload: Dict[str, object], parent: Optional[Span]) -> int:
        """Stitch an exported child-process subtree under ``parent``.

        Child span ids are remapped into this recorder's id space (tree
        structure preserved); child roots hang off ``parent``.  Child
        counters are summed into this recorder's counters so parent-side
        snapshots cover the whole execution tree.  Returns the number of
        spans attached; malformed payloads attach nothing.
        """
        if not isinstance(payload, dict):
            return 0
        spans = payload.get("spans")
        if not isinstance(spans, list):
            return 0
        remap: Dict[int, int] = {}
        attached = 0
        with self._lock:
            for row in spans:
                if not isinstance(row, dict) or "id" not in row:
                    continue
                remap[row["id"]] = self._next_id
                self._next_id += 1
        parent_id = parent.span_id if parent is not None else None
        for row in spans:
            if not isinstance(row, dict) or "id" not in row:
                continue
            copied = Span(
                self,
                remap[row["id"]],
                remap.get(row.get("parent"), parent_id),
                str(row.get("name", "?")),
                dict(row.get("attrs") or {}),
            )
            copied.pid = int(row.get("pid", self.pid))
            copied.start = float(row.get("start", copied.start))
            copied.wall_s = float(row.get("wall_s", 0.0))
            copied.cpu_s = float(row.get("cpu_s", 0.0))
            copied.outcome = str(row.get("outcome", "ok"))
            copied._finished = True
            with self._lock:
                if len(self._spans) == self._spans.maxlen:
                    self.dropped += 1
                self._spans.append(copied)
            attached += 1
        for name, value in (payload.get("counters") or {}).items():
            if isinstance(value, (int, float)):
                self.counter(str(name), value)
        for name, value in (payload.get("gauges") or {}).items():
            if isinstance(value, (int, float)):
                self.gauge(str(name), value)
        return attached

    def __len__(self) -> int:
        return len(self._spans)


# ---------------------------------------------------------------------------
# the module-global recorder (one global read on every instrumentation point)
# ---------------------------------------------------------------------------

_RECORDER: Optional[Recorder] = None

def get_recorder() -> Optional[Recorder]:
    return _RECORDER


def enable(capacity: int = DEFAULT_CAPACITY) -> Recorder:
    """Install a fresh recorder process-wide and return it."""
    global _RECORDER
    _RECORDER = Recorder(capacity=capacity)
    return _RECORDER


def disable() -> Optional[Recorder]:
    """Stop recording; returns the recorder (export it afterwards if needed)."""
    global _RECORDER
    recorder = _RECORDER
    _RECORDER = None
    return recorder


@contextlib.contextmanager
def recording(capacity: int = DEFAULT_CAPACITY) -> Iterator[Recorder]:
    """Scoped recording: enable on entry, disable on exit."""
    recorder = enable(capacity=capacity)
    try:
        yield recorder
    finally:
        if _RECORDER is recorder:
            disable()


def span(name: str, **attrs):
    """Scoped span: ``with span("cache.lookup", key=key) as sp: ...``.

    One global read and an immediate no-op singleton when telemetry is
    disabled — safe in warm loops.  The span joins the current thread's
    stack, so nested ``span()`` calls build the tree automatically.
    """
    recorder = _RECORDER
    if recorder is None:
        return NOOP_SPAN
    return _ScopedSpan(recorder, recorder.start_span(name, **attrs))


def counter(name: str, delta: float = 1) -> None:
    """Bump a monotonic counter (no-op when disabled)."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.counter(name, delta)


def gauge(name: str, value: float) -> None:
    """Record a last-value gauge (no-op when disabled)."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.gauge(name, value)


def add_counters(values: Dict[str, float], prefix: str = "") -> None:
    """Bulk-add a dict of numeric deltas (no-op when disabled)."""
    recorder = _RECORDER
    if recorder is None:
        return
    for name, delta in values.items():
        if isinstance(delta, (int, float)) and delta:
            recorder.counter(f"{prefix}{name}", delta)


def snapshot() -> Optional[Dict[str, object]]:
    """The active recorder's metrics snapshot, or ``None`` when disabled."""
    recorder = _RECORDER
    return recorder.snapshot() if recorder is not None else None


# ---------------------------------------------------------------------------
# cross-process helpers (worker side)
# ---------------------------------------------------------------------------


def child_begin(capacity: Optional[int] = None) -> Optional[Recorder]:
    """Start a fresh recorder in a forked worker, if the parent was recording.

    A forked child inherits the parent's recorder object — including every
    span the parent already finished.  Re-exporting those would duplicate
    the parent's history under every attempt, so the worker swaps in a
    fresh recorder for its own spans; the parent stitches the export under
    the spawning span.  Returns ``None`` (and stays disabled) when the
    parent was not recording.
    """
    global _RECORDER
    inherited = _RECORDER
    if inherited is None:
        return None
    _RECORDER = Recorder(
        capacity=capacity if capacity is not None else inherited.capacity
    )
    return _RECORDER


def child_export() -> Optional[Dict[str, object]]:
    """Export the worker's recorder for shipping back to the parent."""
    recorder = _RECORDER
    if recorder is None:
        return None
    return recorder.export(close_open=True)
