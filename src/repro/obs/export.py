"""Trace sinks and analysis: JSONL export, Chrome trace_event, lint, rollups.

The on-disk trace format is **JSON Lines** (``repro-trace-v1``): a header
object, one object per span, and a trailing metrics object::

    {"type": "header", "format": "repro-trace-v1", "created": ..., ...}
    {"type": "span", "id": 1, "parent": null, "name": "cli.verify", ...}
    {"type": "span", "id": 2, "parent": 1, "name": "engine.verify", ...}
    {"type": "metrics", "counters": {...}, "gauges": {...}}

Writes go through :func:`repro.jsonio.write_text_atomic` so a killed run
never leaves a torn half-trace behind.  :func:`chrome_trace` converts a
loaded trace into the Chrome ``trace_event`` array (open in
``chrome://tracing`` / Perfetto for a flamegraph); :func:`lint_trace`
validates schema and tree shape (unique ids, resolvable parents, no
cycles, sane durations); :func:`summarize_trace` aggregates per-name
wall/CPU/self-time rollups for the CLI and benchmark reports.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.jsonio import write_text_atomic
from repro.obs.telemetry import TRACE_FORMAT, Recorder

#: span fields every trace line must carry, with the accepted types
_SPAN_SCHEMA = {
    "id": (int,),
    "parent": (int, type(None)),
    "name": (str,),
    "pid": (int,),
    "start": (int, float),
    "wall_s": (int, float),
    "cpu_s": (int, float),
    "outcome": (str,),
    "attrs": (dict,),
}


@dataclass
class Trace:
    """A loaded trace document."""

    header: Dict[str, object] = field(default_factory=dict)
    spans: List[Dict[str, object]] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)

    def roots(self) -> List[Dict[str, object]]:
        return [span for span in self.spans if span.get("parent") is None]

# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


def trace_lines(recorder: Recorder, meta: Optional[Dict[str, object]] = None) -> str:
    """Serialize a recorder into the JSONL trace document."""
    payload = recorder.export(close_open=True)
    header = {
        "type": "header",
        "format": TRACE_FORMAT,
        "created": round(time.time(), 3),
        "pid": payload["pid"],
        "dropped_spans": payload["dropped_spans"],
        **(meta or {}),
    }
    lines = [json.dumps(header, default=str)]
    for span in payload["spans"]:
        lines.append(json.dumps({"type": "span", **span}, default=str))
    lines.append(
        json.dumps(
            {
                "type": "metrics",
                "counters": payload["counters"],
                "gauges": payload["gauges"],
            },
            default=str,
        )
    )
    return "\n".join(lines) + "\n"


def write_trace(
    recorder: Recorder, path: str, meta: Optional[Dict[str, object]] = None
) -> str:
    """Atomically write the recorder's trace to ``path`` (JSONL)."""
    return write_text_atomic(path, trace_lines(recorder, meta))


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def load_trace(path: str) -> Trace:
    """Parse a ``repro-trace-v1`` JSONL file (raises ``ValueError`` if torn)."""
    trace = Trace()
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError as error:
                raise ValueError(f"{path}:{line_no}: not JSON: {error}") from None
            kind = row.get("type") if isinstance(row, dict) else None
            if kind == "header":
                trace.header = row
            elif kind == "span":
                trace.spans.append(row)
            elif kind == "metrics":
                trace.counters = dict(row.get("counters") or {})
                trace.gauges = dict(row.get("gauges") or {})
            else:
                raise ValueError(
                    f"{path}:{line_no}: unknown line type {kind!r}"
                )
    return trace


# ---------------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------------


def lint_trace(trace: Trace, allow_unfinished: bool = True) -> List[str]:
    """Validate a trace; returns a list of problems (empty = clean).

    Checks: header format tag, span schema (fields and types), unique span
    ids, **orphan spans** (a parent reference that resolves to no span in
    the trace), parent cycles, non-negative durations, numeric metrics.
    ``allow_unfinished=False`` additionally flags spans force-closed at
    export time.
    """
    problems: List[str] = []
    if trace.header.get("format") != TRACE_FORMAT:
        problems.append(
            f"header: format {trace.header.get('format')!r} is not {TRACE_FORMAT!r}"
        )
    if not trace.spans:
        problems.append("trace contains no spans")

    by_id: Dict[int, Dict[str, object]] = {}
    for index, span in enumerate(trace.spans):
        label = f"span[{index}] ({span.get('name', '?')!r})"
        for field_name, types in _SPAN_SCHEMA.items():
            if field_name not in span:
                problems.append(f"{label}: missing field {field_name!r}")
                continue
            if not isinstance(span[field_name], types):
                problems.append(
                    f"{label}: field {field_name!r} has type "
                    f"{type(span[field_name]).__name__}"
                )
        span_id = span.get("id")
        if isinstance(span_id, int):
            if span_id in by_id:
                problems.append(f"{label}: duplicate span id {span_id}")
            else:
                by_id[span_id] = span
        for duration in ("wall_s", "cpu_s"):
            value = span.get(duration)
            if isinstance(value, (int, float)) and value < 0:
                problems.append(f"{label}: negative {duration} ({value})")
        if not allow_unfinished and span.get("outcome") == "unfinished":
            problems.append(f"{label}: span was never finished")

    for span in trace.spans:
        parent = span.get("parent")
        if parent is not None and parent not in by_id:
            problems.append(
                f"orphan span {span.get('id')} ({span.get('name', '?')!r}): "
                f"parent {parent} is not in the trace"
            )

    # cycle check: walk each span to a root, bounded by the trace size
    for span in trace.spans:
        seen = set()
        cursor = span
        while cursor is not None:
            cursor_id = cursor.get("id")
            if cursor_id in seen:
                problems.append(
                    f"span {span.get('id')}: parent chain contains a cycle"
                )
                break
            seen.add(cursor_id)
            parent = cursor.get("parent")
            cursor = by_id.get(parent) if parent is not None else None

    for name, value in list(trace.counters.items()) + list(trace.gauges.items()):
        if not isinstance(value, (int, float)):
            problems.append(f"metric {name!r}: non-numeric value {value!r}")
    return problems


# ---------------------------------------------------------------------------
# rollups
# ---------------------------------------------------------------------------


def summarize_trace(trace: Trace, top: int = 0) -> Dict[str, object]:
    """Per-name rollups: count, total/self wall, total CPU, outcome mix.

    ``self`` wall is a span's wall minus its direct children's wall (floored
    at zero), so the summary answers "where did the time actually go" even
    though parents subsume children.
    """
    child_wall: Dict[int, float] = {}
    for span in trace.spans:
        parent = span.get("parent")
        if parent is not None:
            child_wall[parent] = child_wall.get(parent, 0.0) + float(
                span.get("wall_s", 0.0) or 0.0
            )

    phases: Dict[str, Dict[str, object]] = {}
    for span in trace.spans:
        name = str(span.get("name", "?"))
        row = phases.setdefault(
            name,
            {"count": 0, "wall_s": 0.0, "self_wall_s": 0.0, "cpu_s": 0.0, "outcomes": {}},
        )
        wall = float(span.get("wall_s", 0.0) or 0.0)
        row["count"] += 1
        row["wall_s"] += wall
        row["self_wall_s"] += max(0.0, wall - child_wall.get(span.get("id"), 0.0))
        row["cpu_s"] += float(span.get("cpu_s", 0.0) or 0.0)
        outcome = str(span.get("outcome", "ok"))
        row["outcomes"][outcome] = row["outcomes"].get(outcome, 0) + 1

    for row in phases.values():
        for key in ("wall_s", "self_wall_s", "cpu_s"):
            row[key] = round(row[key], 6)

    ordered = dict(
        sorted(phases.items(), key=lambda item: -item[1]["self_wall_s"])
    )
    if top:
        ordered = dict(list(ordered.items())[:top])
    roots = trace.roots()
    # CPU totals must not double-count nesting: sum each process's outermost
    # spans only (a span whose parent is absent or lives in another process)
    by_id = {span.get("id"): span for span in trace.spans}
    pid_roots = [
        span
        for span in trace.spans
        if span.get("parent") not in by_id
        or by_id[span.get("parent")].get("pid") != span.get("pid")
    ]
    return {
        "spans": len(trace.spans),
        "roots": len(roots),
        "processes": len({span.get("pid") for span in trace.spans}),
        "total_wall_s": round(
            sum(float(span.get("wall_s", 0.0) or 0.0) for span in roots), 6
        ),
        "total_cpu_s": round(
            sum(float(span.get("cpu_s", 0.0) or 0.0) for span in pid_roots), 6
        ),
        "phases": ordered,
        "counters": trace.counters,
    }


# ---------------------------------------------------------------------------
# Chrome trace_event export
# ---------------------------------------------------------------------------


def chrome_trace(trace: Trace) -> List[Dict[str, object]]:
    """Convert to Chrome ``trace_event`` complete events (``"ph": "X"``).

    Timestamps are microseconds relative to the earliest span start, so the
    flamegraph opens at t=0 regardless of wall-clock epoch.  Span pids map
    onto trace-viewer processes, which lines worker attempts up under their
    own rows next to the driver.
    """
    if not trace.spans:
        return []
    t0 = min(float(span.get("start", 0.0) or 0.0) for span in trace.spans)
    events: List[Dict[str, object]] = []
    for span in trace.spans:
        events.append(
            {
                "name": str(span.get("name", "?")),
                "cat": str(span.get("name", "?")).split(".", 1)[0],
                "ph": "X",
                "ts": round((float(span.get("start", 0.0) or 0.0) - t0) * 1e6, 3),
                "dur": max(0.0, round(float(span.get("wall_s", 0.0) or 0.0) * 1e6, 3)),
                "pid": int(span.get("pid", 0) or 0),
                "tid": 0,
                "args": {
                    "outcome": span.get("outcome", "ok"),
                    "cpu_s": span.get("cpu_s", 0.0),
                    **(span.get("attrs") or {}),
                },
            }
        )
    return events


def write_chrome_trace(trace: Trace, path: str) -> str:
    """Write the Chrome trace_event JSON for ``trace`` to ``path``."""
    return write_text_atomic(
        path, json.dumps({"traceEvents": chrome_trace(trace)}, indent=1) + "\n"
    )
