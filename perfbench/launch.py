"""Start one of the program's entry points inside a benchmark run.

Usage::

    python3 perfbench/launch.py verify -- ARGS...
    python3 perfbench/launch.py serve -- ARGS...
    python3 perfbench/launch.py bmc --out FILE [--trace FILE]

``verify`` and ``serve`` install the per-layer timers of ``layers.py`` and
then call ``main(ARGS)`` of ``repro-verify`` and ``repro-serve``; pass the
program's own ``--trace FILE`` so it records and writes them.  ``bmc`` runs
``make_engine("bmc", load_system(d), max_bound=BMC_BOUND).verify(p)`` on
every suite property in suite order, in this one interpreter, and writes
every check's verdict, wall and CPU time to ``FILE`` as JSON; with
``--trace`` it records the checks under the per-layer timers and writes
the program's trace there.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _bmc(args) -> int:
    from repro.benchmarks import load_system
    from repro.engines import make_engine
    from workloads import BMC_BOUND, suite_queries

    recorder = None
    if args.trace:
        import layers
        from repro.obs import telemetry

        layers.install()
        recorder = telemetry.enable()
    checks = []
    started = time.perf_counter()
    for query in suite_queries():
        t0, c0 = time.perf_counter(), time.process_time()
        result = make_engine("bmc", load_system(query.design), max_bound=BMC_BOUND).verify(
            query.prop
        )
        checks.append(
            {
                "design": query.design,
                "property": query.prop,
                "status": result.status,
                "bound": result.detail.get("bound"),
                "bound_reached": result.detail.get("bound_reached"),
                "wall_s": time.perf_counter() - t0,
                "cpu_s": time.process_time() - c0,
            }
        )
    wall = time.perf_counter() - started
    if recorder is not None:
        from repro.obs import telemetry
        from repro.obs.export import write_trace

        telemetry.disable()
        write_trace(recorder, args.trace, meta={"tool": "perfbench-bmc"})
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"wall_s": wall, "checks": checks}, handle)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    program_args = []
    if "--" in argv:
        split = argv.index("--")
        argv, program_args = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("entry", choices=("verify", "serve", "bmc"))
    parser.add_argument("--out", default=None)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    if args.entry == "bmc":
        return _bmc(args)
    import layers

    layers.install()
    if args.entry == "verify":
        from repro.tools.verify_cli import main as entry
    else:
        from repro.tools.serve_cli import main as entry
    return entry(program_args)


if __name__ == "__main__":
    sys.exit(main())
