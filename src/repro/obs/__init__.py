"""Zero-dependency observability: spans, counters, traces, leveled logging.

Public surface:

* :func:`span` / :func:`counter` / :func:`gauge` — instrumentation points
  (one global read, no-op when disabled);
* :func:`enable` / :func:`disable` / :func:`recording` /
  :func:`get_recorder` — recorder lifecycle;
* :func:`child_begin` / :func:`child_export` — worker-side cross-process
  trace assembly (parent side: :meth:`Recorder.attach`);
* :mod:`repro.obs.export` — JSONL / Chrome sinks, lint, rollups;
* :mod:`repro.obs.log` — shared CLI verbosity layer.
"""

from repro.obs.telemetry import (
    DEFAULT_CAPACITY,
    NOOP_SPAN,
    TRACE_FORMAT,
    Recorder,
    Span,
    add_counters,
    child_begin,
    child_export,
    counter,
    disable,
    enable,
    gauge,
    get_recorder,
    recording,
    snapshot,
    span,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "NOOP_SPAN",
    "TRACE_FORMAT",
    "Recorder",
    "Span",
    "add_counters",
    "child_begin",
    "child_export",
    "counter",
    "disable",
    "enable",
    "gauge",
    "get_recorder",
    "recording",
    "snapshot",
    "span",
]
