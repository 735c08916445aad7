"""``repro-trace`` — inspect, validate and convert ``repro-trace-v1`` files.

Subcommands:

* ``summarize FILE`` — per-phase rollup (count, wall, self-wall, CPU,
  outcome mix) plus counters; ``--json`` for machine-readable output.
* ``lint FILE [FILE ...]`` — schema / orphan-span / cycle validation;
  ``--expect-clean`` exits non-zero on any problem (the CI gate).
* ``flame FILE -o OUT.json`` — Chrome ``trace_event`` export for
  ``chrome://tracing`` / Perfetto flamegraph viewing.
* ``tree FILE`` — indented span tree on stdout (quick terminal look).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

from repro.obs import log
from repro.obs.export import (
    Trace,
    lint_trace,
    load_trace,
    summarize_trace,
    write_chrome_trace,
)
from repro.tools import freeze_heap_at_exit


def _load(path: str) -> Trace:
    try:
        return load_trace(path)
    except (OSError, ValueError) as error:
        log.error(f"repro-trace: cannot load {path}: {error}")
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------


def _cmd_summarize(args: argparse.Namespace) -> int:
    trace = _load(args.trace)
    summary = summarize_trace(trace, top=args.top)
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(
        f"trace: {args.trace}  spans={summary['spans']} roots={summary['roots']} "
        f"processes={summary['processes']} wall={summary['total_wall_s']:.3f}s "
        f"cpu={summary['total_cpu_s']:.3f}s"
    )
    print(f"{'phase':<40} {'count':>6} {'wall_s':>10} {'self_s':>10} {'cpu_s':>10}  outcomes")
    for name, row in summary["phases"].items():
        outcomes = ",".join(
            f"{tag}:{count}" for tag, count in sorted(row["outcomes"].items())
        )
        print(
            f"{name:<40} {row['count']:>6} {row['wall_s']:>10.4f} "
            f"{row['self_wall_s']:>10.4f} {row['cpu_s']:>10.4f}  {outcomes}"
        )
    if summary["counters"]:
        print("counters:")
        for name in sorted(summary["counters"]):
            print(f"  {name} = {summary['counters'][name]}")
    return 0


# ---------------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------------


def _cmd_lint(args: argparse.Namespace) -> int:
    total_problems = 0
    for path in args.traces:
        trace = _load(path)
        problems = lint_trace(trace, allow_unfinished=not args.strict)
        if problems:
            total_problems += len(problems)
            print(f"{path}: {len(problems)} problem(s)")
            for problem in problems:
                print(f"  - {problem}")
        else:
            log.info(f"{path}: clean ({len(trace.spans)} spans)")
    if total_problems and args.expect_clean:
        log.error(f"repro-trace lint: {total_problems} problem(s) across "
                  f"{len(args.traces)} trace(s)")
        return 1
    return 0


# ---------------------------------------------------------------------------
# flame
# ---------------------------------------------------------------------------


def _cmd_flame(args: argparse.Namespace) -> int:
    trace = _load(args.trace)
    out = args.out or (args.trace + ".chrome.json")
    write_chrome_trace(trace, out)
    log.info(f"wrote {len(trace.spans)} events to {out} "
             f"(open in chrome://tracing or Perfetto)")
    print(out)
    return 0


# ---------------------------------------------------------------------------
# tree
# ---------------------------------------------------------------------------


def _cmd_tree(args: argparse.Namespace) -> int:
    trace = _load(args.trace)
    children: Dict[object, List[dict]] = {}
    for span in trace.spans:
        children.setdefault(span.get("parent"), []).append(span)
    for rows in children.values():
        rows.sort(key=lambda row: row.get("start", 0.0))

    def walk(parent, depth: int) -> None:
        for span in children.get(parent, []):
            attrs = span.get("attrs") or {}
            attr_text = (
                " " + " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
                if attrs
                else ""
            )
            print(
                f"{'  ' * depth}{span.get('name')} "
                f"[{span.get('outcome')}] wall={span.get('wall_s', 0.0):.4f}s "
                f"pid={span.get('pid')}{attr_text}"
            )
            walk(span.get("id"), depth + 1)

    walk(None, 0)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="inspect, validate and convert repro-trace-v1 files",
    )
    log.add_verbosity_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="per-phase time breakdown")
    p_sum.add_argument("trace", help="trace file (JSONL)")
    p_sum.add_argument("--json", action="store_true", help="JSON output")
    p_sum.add_argument("--top", type=int, default=0,
                       help="only the N hottest phases by self time")
    p_sum.set_defaults(func=_cmd_summarize)

    p_lint = sub.add_parser("lint", help="schema / orphan-span validation")
    p_lint.add_argument("traces", nargs="+", help="trace file(s) to validate")
    p_lint.add_argument("--expect-clean", action="store_true",
                        help="exit 1 if any trace has problems (CI gate)")
    p_lint.add_argument("--strict", action="store_true",
                        help="also flag spans force-closed at export")
    p_lint.set_defaults(func=_cmd_lint)

    p_flame = sub.add_parser("flame", help="Chrome trace_event export")
    p_flame.add_argument("trace", help="trace file (JSONL)")
    p_flame.add_argument("-o", "--out", default=None,
                        help="output path (default: TRACE.chrome.json)")
    p_flame.set_defaults(func=_cmd_flame)

    p_tree = sub.add_parser("tree", help="indented span tree")
    p_tree.add_argument("trace", help="trace file (JSONL)")
    p_tree.set_defaults(func=_cmd_tree)
    return parser


def main(argv=None) -> int:
    freeze_heap_at_exit()
    args = build_parser().parse_args(argv)
    log.configure_from_args(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
