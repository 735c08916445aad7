"""The ``repro-verify`` command-line front end.

One entry point over the whole engine zoo: point it at one or more suite
designs (by name) or Verilog/AIGER files and read the verdicts off a result
table.  With no mode flag one query runs the cheap-first budget ladder
in-process, one engine at a time; ``--engine`` runs a single engine,
``--portfolio`` races engines in worker processes, and ``--batch`` sweeps
many queries::

    repro-verify daio --certify --save-certificate daio.cert.json
    repro-verify daio --portfolio --timeout 60
    repro-verify designs/fifo.v --engine pdr --bound 32
    repro-verify counter.aag --engine k-induction
    repro-verify --batch --cache-dir .repro-cache --timeout 60
    repro-verify daio tlc rcu --batch --cache-dir .repro-cache
    repro-verify --list-engines
    repro-verify --list-designs

With no mode flag the CLI walks the ladder of
:func:`repro.engines.ladder.default_budget_ladder` —
``[absint, rsim] -> [k-induction, kiki, bmc] -> [interpolation, pdr]`` —
in the CLI process and stops at the first definitive answer: random
simulation refutes the shallow bugs and interval analysis or k-induction
proves most safe designs in milliseconds, so a query starts no worker
process and pays for no race.  It imports no more than it runs: the
ladder, the engines the ladder reaches and the certificate validator —
the portfolio race, the process supervisor and the batch pool load only
under ``--portfolio`` and ``--batch``.  Engines and the SAT solver check the
deadline cooperatively, as under ``--engine``.  ``--portfolio`` races every
portfolio engine at once, one supervised worker process each, and cancels
the losers at the first definitive answer (``--cross-check`` lets them all
finish and adjudicates disagreements by certificate).  ``--batch``
verifies many designs × properties through one warm process pool (one
worker per *property*, each running the same ladder), serving and filling
the certificate-keyed result cache when ``--cache-dir`` is given.
``--cache-dir`` also works for single queries: a cached verdict is served
after independent re-validation of its certificate, and new definitive
verdicts are validated, minimized and stored.

With ``--certify`` the final verdict's certificate (UNSAFE witness or SAFE
invariant, see :mod:`repro.certs`) is validated by the independent checker
and the per-obligation outcomes are printed; a definitive verdict whose
certificate fails validation is demoted to WRONG.  Under ``--portfolio``
every definitive claim is also validated as it arrives, so a forged
certificate cannot end the race.  ``--save-certificate`` writes the
certificate JSON (witnesses additionally get an AIGER ``.cex`` stimulus
next to it).

Exit codes (CI-gateable): 0 for a (validated, under ``--certify``) definitive
answer consistent with the known ground truth, 2 for a WRONG result, 3 for
ERROR/UNKNOWN/TIMEOUT, 1 for usage or configuration errors (an unknown or
conflicting flag, a malformed number or address, or a ``--property`` the
design does not declare included).  ``--batch`` applies the same contract per
item: any WRONG — and, with ``--cache-dir``, any definitive item whose
certificate was not independently validated — exits 2, any inconclusive
item exits 3.

``--server`` turns the CLI into a thin client of a running ``repro-serve``
instance (same exit codes; admission rejections exit 1).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.benchmarks import BENCHMARKS, get_benchmark
from repro.certs import Witness, dumps as certificate_dumps, validate_result
from repro.engines import (
    EngineOptionError,
    Status,
    VerificationResult,
    VerificationTask,
    default_budget_ladder,
    default_portfolio_configs,
    get_registration,
    list_engines,
    make_engine,
)
from repro.engines.ladder import bound_options, run_sequential_ladder
from repro.jsonio import write_text_atomic
from repro.obs import log as _log
from repro.obs import telemetry as _telemetry
from repro.tools import freeze_heap_at_exit

if TYPE_CHECKING:  # the race is imported under --portfolio only
    from repro.engines.portfolio import PortfolioResult

#: exit codes by final status (0 = validated expected verdict, 2 = WRONG,
#: 3 = inconclusive/error), so CI scripts can gate on the result category
_EXIT_CODES = {
    Status.SAFE: 0,
    Status.UNSAFE: 0,
    Status.UNKNOWN: 3,
    Status.TIMEOUT: 3,
    Status.MEMOUT: 3,
    Status.ERROR: 3,
    Status.WRONG: 2,
}


def _resolve_task(target: str) -> VerificationTask:
    """Map the positional target onto a loader: suite name or HDL file."""
    lowered = target.lower()
    if lowered.endswith((".v", ".sv")):
        return VerificationTask.verilog(target)
    if lowered.endswith(".aag"):
        return VerificationTask.aiger(target)
    if lowered.endswith(".aig"):
        raise SystemExit(
            "error: binary AIGER (.aig) is not supported; convert to ASCII "
            "AIGER (.aag) first (aigtoaig design.aig design.aag)"
        )
    if target in BENCHMARKS:
        return VerificationTask.benchmark(target)
    raise SystemExit(
        f"error: {target!r} is neither a suite design nor a .v/.sv/.aag file; "
        f"suite designs: {', '.join(BENCHMARKS)}"
    )


def _check_property(parser, task: VerificationTask, system, property_name) -> None:
    """Reject a ``--property`` the design does not declare: a usage error."""
    names = [prop.name for prop in system.properties]
    if property_name is not None and property_name not in names:
        parser.error(
            f"design {task.name!r} has no property {property_name!r}; "
            f"its properties: {', '.join(names) or '(none)'}"
        )


def _print_engine_table() -> None:
    print(f"{'engine':16s} {'aliases':28s} {'capabilities':22s} summary")
    print("-" * 100)
    for registration in list_engines():
        aliases = ", ".join(registration.aliases) or "-"
        capabilities = registration.capabilities.describe()
        portfolio = " [portfolio]" if registration.portfolio else ""
        print(
            f"{registration.name:16s} {aliases:28s} {capabilities:22s} "
            f"{registration.summary}{portfolio}"
        )


def _print_design_table() -> None:
    print(f"{'design':14s} {'expected':9s} {'bug@':5s} {'category':9s} description")
    print("-" * 90)
    for benchmark in BENCHMARKS.values():
        bug = str(benchmark.bug_cycle) if benchmark.bug_cycle is not None else "-"
        print(
            f"{benchmark.name:14s} {benchmark.expected:9s} {bug:5s} "
            f"{benchmark.category:9s} {benchmark.description}"
        )


def _row(label: str, status: str, runtime: float, note: str = "") -> str:
    return f"{label:24s} {status:10s} {runtime:9.3f}s  {note}"


def _print_header(label: str) -> None:
    print(f"{label:24s} {'status':10s} {'time':>10s}")
    print("-" * 64)


def _format_detail(detail: Dict[str, object]) -> str:
    interesting = {
        key: value
        for key, value in detail.items()
        if key in ("bound", "k", "depth", "frames", "iterations", "bound_reached", "k_reached")
    }
    return ", ".join(f"{key}={value}" for key, value in interesting.items())


def _print_solver_stats(stats: Optional[Dict[str, object]], label: str = "solver") -> None:
    """One line of SAT-solver counters (the ``-v`` view)."""
    if not stats:
        return
    print(
        f"{label}: conflicts={stats.get('conflicts', 0)} "
        f"propagations={stats.get('propagations', 0)} "
        f"decisions={stats.get('decisions', 0)} "
        f"restarts={stats.get('restarts', 0)} "
        f"learned={stats.get('learned_clauses', 0)} "
        f"reduce_db={stats.get('reduce_db', 0)} "
        f"deleted={stats.get('deleted_clauses', 0)} "
        f"minimized={stats.get('minimized_literals', 0)} "
        f"retired_activations={stats.get('retired_activations', 0)} "
        f"retired_clauses={stats.get('retired_clauses', 0)}"
    )


def _print_single(result: VerificationResult, verbose: bool = False) -> None:
    _print_header("engine")
    note = _format_detail(result.detail) or result.reason
    print(_row(result.engine, result.status, result.runtime, note))
    if verbose:
        _print_solver_stats(result.detail.get("solver_stats"))
    attempts = result.detail.get("ladder_attempts")
    if attempts is not None:
        rung = result.detail.get("ladder_rung")
        tried = ", ".join(f"{a['config']} {a['status']}" for a in attempts)
        decided = f"decided at rung {rung}" if rung is not None else "no rung decided"
        print(f"ladder: {decided} ({tried})")
    if result.counterexample is not None:
        print(
            f"\ncounterexample: {result.counterexample.length} cycles "
            f"(property {result.property_name!r} violated in the last step)"
        )


def _print_portfolio(result: PortfolioResult, verbose: bool = False) -> None:
    _print_header("configuration")
    for outcome in result.workers:
        if outcome.result is not None:
            note = _format_detail(outcome.result.detail) or outcome.result.reason
            status = outcome.result.status
        else:
            note = ""
            status = outcome.state
        marker = " <- winner" if outcome.label == result.winner else ""
        print(_row(outcome.label, status, outcome.runtime, f"{note}{marker}"))
    print("-" * 64)
    print(_row("portfolio", result.status, result.runtime, result.reason))
    if verbose:
        for outcome in result.workers:
            if outcome.result is not None:
                _print_solver_stats(
                    outcome.result.detail.get("solver_stats"),
                    label=f"solver[{outcome.label}]",
                )
    if result.counterexample is not None:
        print(
            f"\ncounterexample: {result.counterexample.length} cycles "
            f"(property {result.property_name!r} violated in the last step)"
        )


def _classify(status: str, expected: Optional[str]) -> str:
    """Apply the harness-side WRONG classification against known ground truth."""
    if expected is not None and status in Status.DEFINITIVE and status != expected:
        return Status.WRONG
    return status


def _certify(task: VerificationTask, result, status: str, timeout: float) -> str:
    """Validate the final certificate; demote an unvalidated definitive verdict.

    ``result`` is the engine or portfolio result carrying ``certificate``;
    returns the (possibly demoted) final status.
    """
    if status not in Status.DEFINITIVE:
        print("\ncertification: skipped (no definitive verdict)")
        return status
    try:
        system = task.load()
    except Exception as error:  # noqa: BLE001 - loader failures
        print(f"\ncertification: cannot reload {task.name!r}: {error}")
        return Status.WRONG
    validation = validate_result(system, result, timeout=timeout)
    print("\ncertification:")
    for obligation in validation.obligations:
        note = f"  ({obligation.note})" if obligation.note else ""
        print(f"  {obligation.name:20s} {obligation.outcome}{note}")
    verdict = "VALIDATED" if validation.ok else "NOT VALIDATED"
    print(f"  -> {verdict} [{validation.kind}] in {validation.runtime:.3f}s: {validation.reason}")
    return status if validation.ok else Status.WRONG


def _save_certificate(path: str, task: VerificationTask, result) -> None:
    """Write the certificate JSON (and a .cex stimulus for witnesses)."""
    certificate = getattr(result, "certificate", None)
    if certificate is None:
        print(f"no certificate to save for {task.name!r}")
        return
    write_text_atomic(path, certificate_dumps(certificate))
    print(f"wrote certificate {path}")
    if isinstance(certificate, Witness):
        from repro.aig import aig_from_transition_system

        cex_path = f"{path.removesuffix('.json')}.cex"
        try:
            aig = aig_from_transition_system(task.load())
        except Exception as error:  # noqa: BLE001 - AIG lowering failures
            print(f"cannot export AIGER stimulus: {error}")
            return
        write_text_atomic(cex_path, certificate.to_aiger_stimulus(aig))
        print(f"wrote AIGER stimulus {cex_path}")


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with the documented usage-error exit code: 1, not 2.

    Exit code 2 means a WRONG verdict, so an unknown or conflicting flag
    must not read as one.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Stdout:
    """``sys.stdout`` while the CLI runs.  Once the reader of a piped stdout
    has gone (``repro-verify D | head -2``), the rest of the output is
    discarded and the run still ends with its verdict's exit code."""

    def __init__(self, stream) -> None:
        self._stream = stream

    def __getattr__(self, name: str):
        return getattr(self._stream, name)

    def write(self, text: str) -> int:
        try:
            return self._stream.write(text)
        except BrokenPipeError:
            self._discard()
            return len(text)

    def flush(self) -> None:
        try:
            self._stream.flush()
        except BrokenPipeError:
            self._discard()

    def _discard(self) -> None:
        # point the descriptor itself at devnull, so the buffered tail the
        # interpreter flushes at exit is discarded too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, self._stream.fileno())
        os.close(devnull)


def main(argv: Optional[List[str]] = None) -> int:
    freeze_heap_at_exit()
    stdout = sys.stdout
    sys.stdout = _Stdout(stdout)
    try:
        return _main(argv)
    finally:
        sys.stdout.flush()
        sys.stdout = stdout


def _main(argv: Optional[List[str]]) -> int:
    parser = _ArgumentParser(
        prog="repro-verify",
        description="verify a hardware design: the cheap-first budget ladder "
                    "in-process by default, or one engine, the parallel "
                    "portfolio or a batch sweep",
    )
    parser.add_argument(
        "target", nargs="*",
        help="suite design name(s), or path(s) to Verilog (.v/.sv) or ASCII "
             "AIGER (.aag) files; --batch accepts several (default: the "
             "whole suite)",
    )
    parser.add_argument("--engine", help="run a single engine (see --list-engines)")
    parser.add_argument(
        "--portfolio", action="store_true",
        help="race the portfolio engines in parallel worker processes",
    )
    parser.add_argument(
        "--batch", action="store_true",
        help="verify several designs x properties through one warm process "
             "pool (one worker per property), reusing shared template "
             "libraries and the result cache across the whole batch",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="certificate-keyed result cache: serve repeated queries from "
             "validated certificates (re-validated on every hit) and store "
             "new definitive verdicts, minimized",
    )
    parser.add_argument("--property", dest="property_name", default=None,
                        help="property to check (default: the design's first)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="wall-clock budget in seconds (default 300)")
    parser.add_argument("--bound", type=int, default=None,
                        help="search-depth cap routed to each engine "
                             "(max_bound/max_k/max_depth/max_frames)")
    parser.add_argument("--representation", nargs="+", default=None,
                        choices=["word", "bit"], metavar="REP",
                        help="frame encoding(s) the ladder runs and the "
                             "portfolio races (default word); --engine, "
                             "--batch and --server take exactly one")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker-process cap of --portfolio (default: one "
                             "per configuration) and --batch (default: one "
                             "per CPU)")
    parser.add_argument("--cross-check", action="store_true",
                        help="portfolio mode: let all workers finish and flag "
                             "disagreeing definitive answers as WRONG")
    parser.add_argument("--expected", choices=["safe", "unsafe"], default=None,
                        help="override the known verdict used for the WRONG classification")
    parser.add_argument("--certify", action="store_true",
                        help="validate the verdict's certificate with the independent "
                             "checker; unvalidated definitive verdicts become WRONG")
    parser.add_argument("--save-certificate", metavar="PATH", default=None,
                        help="write the certificate JSON to PATH (witnesses also "
                             "get an AIGER .cex stimulus next to it)")
    parser.add_argument(
        "--server", metavar="SOCK|HOST:PORT", default=None,
        help="client mode: send the query to a running repro-serve server "
             "(unix socket path, or host:port) instead of verifying locally; "
             "multiple targets are pipelined over one connection",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record structured telemetry (spans + counters) for the whole "
             "run and write a repro-trace-v1 JSONL file; inspect it with "
             "repro-trace summarize/lint/flame",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="print per-engine SAT solver statistics (conflicts, "
                             "propagations, decisions, restarts, clause-DB "
                             "reductions, minimized literals, retired activations); "
                             "implies -v")
    parser.add_argument("--quiet", action="store_true",
                        help="legacy spelling of -q: suppress progress events")
    _log.add_verbosity_flags(parser)
    parser.add_argument("--list-engines", action="store_true",
                        help="list registered engines with aliases and capabilities")
    parser.add_argument("--list-designs", action="store_true",
                        help="list the built-in benchmark designs")
    args = parser.parse_args(argv)
    _log.configure_from_args(args)
    # --verbose historically also meant the solver-stats view; keep both
    # spellings pointing at the same dial
    args.verbose = args.verbose or _log.is_verbose()

    if args.list_engines:
        _print_engine_table()
        return 0
    if args.list_designs:
        _print_design_table()
        return 0
    modes = [
        name
        for name, chosen in (
            ("--engine", bool(args.engine)),
            ("--portfolio", args.portfolio),
            ("--batch", args.batch),
        )
        if chosen
    ]
    if len(modes) > 1:
        parser.error(f"{' and '.join(modes)} are mutually exclusive")
    if args.cross_check and not args.portfolio:
        # every other mode stops at the first definitive answer;
        # cross-check adjudication needs the all-at-once fan-out
        parser.error("--cross-check requires the all-at-once --portfolio")
    if args.jobs is not None and not (args.portfolio or args.batch):
        parser.error(
            "--jobs caps the worker processes of --portfolio or --batch; "
            "without a mode flag, and with --engine, a query runs in-process"
        )
    if args.batch and (args.certify or args.save_certificate):
        parser.error(
            "--certify/--save-certificate are per-query; --batch validates "
            "through the result cache (--cache-dir) instead"
        )
    if args.server and (modes or args.certify or args.save_certificate):
        parser.error(
            "--server is a thin client: the server picks the driver and "
            "handles certificates (run it with --cache-dir/--certify)"
        )
    if not args.timeout > 0:
        parser.error(f"--timeout must be positive, not {args.timeout:g}")
    if args.bound is not None and args.bound < 0:
        parser.error(f"--bound must be 0 or more, not {args.bound}")
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be 1 or more, not {args.jobs}")
    # the ladder and the portfolio run several representations; a single
    # engine, a batch sweep and a server query each key exactly one
    single = [flag for flag in modes if flag != "--portfolio"]
    if args.server:
        single.append("--server")
    if single and args.representation and len(args.representation) > 1:
        parser.error(
            f"{single[0]} takes exactly one --representation, not "
            f"{' '.join(args.representation)}"
        )
    if (
        args.server
        and ":" in args.server
        and not os.path.exists(args.server)
        and not args.server.rpartition(":")[2].isdigit()
    ):
        parser.error(
            f"--server {args.server!r} is neither an existing unix socket "
            "path nor HOST:PORT with a numeric port"
        )

    if args.trace:
        from repro.obs.export import write_trace

        with _telemetry.recording() as recorder:
            try:
                with _telemetry.span(
                    "cli.verify", mode=(modes[0] if modes else "sequential-ladder")
                ):
                    return _run_driver(parser, args)
            finally:
                write_trace(recorder, args.trace, meta={"tool": "repro-verify"})
                _log.info(f"wrote trace {args.trace}")
    return _run_driver(parser, args)


def _run_driver(parser: argparse.ArgumentParser, args) -> int:
    """Run the selected driver; factored out so --trace can wrap it."""
    if args.server:
        if not args.target:
            parser.error("--server needs at least one target design")
        return _run_server_client(args)

    cache = None
    if args.cache_dir:
        from repro.cache import ResultCache

        cache = ResultCache(args.cache_dir, validation_timeout=args.timeout)

    if args.batch:
        return _run_batch(parser, args, cache)

    if not args.target:
        parser.error("a target design is required (or --list-engines/--list-designs)")
    if len(args.target) > 1:
        parser.error("multiple targets need --batch")

    task = _resolve_task(args.target[0])
    expected = args.expected
    if expected is None and task.kind == "benchmark":
        expected = get_benchmark(task.spec).expected
    try:
        system = task.load()
    except Exception as error:  # noqa: BLE001 - loader/parse failures
        _log.error(f"error: cannot load {task.name!r}: {error}")
        return 1
    # checked once, before any engine runs or any worker forks
    _check_property(parser, task, system, args.property_name)

    # the first representation is the cache identity of the query: lookup
    # and store must agree or repeated queries would never hit
    representations = args.representation or ["word"]
    representation = representations[0]
    if cache is not None:
        property_name = args.property_name or (
            system.properties[0].name if system.properties else None
        )
        if property_name is not None:
            lookup = cache.lookup(system, property_name, representation)
            if lookup.hit:
                _log.info(
                    f"cache hit for {task.name!r} (key {lookup.key[:12]}..., "
                    f"certificate re-validated in {lookup.runtime_s:.3f}s)"
                )
                # --certify promises the per-obligation report and its
                # demotion semantics on every run, hit or miss
                return _report_single(args, task, lookup.result, expected)
            note = ""
            if lookup.demoted:
                note = " (stale entry dropped)"
            elif lookup.entry is not None:
                note = f" ({lookup.reason}; entry kept)"
            _log.info(f"cache miss for {task.name!r}{note}; verifying")

    if args.engine:
        try:
            registration = get_registration(args.engine)
        except KeyError as error:
            _log.error(f"error: {error}")
            return 1
        # the shared depth cap is *routed* (each engine keeps the key it
        # understands); explicitly passed options are validated strictly
        options: Dict[str, object] = {}
        if args.bound is not None:
            options.update(
                registration.engine_class.validate_options(
                    bound_options(args.bound), ignore_unknown=True
                )
            )
        if args.representation:
            options["representation"] = representation
        # the engine runs on the property's cone of influence; certification,
        # the saved certificate and the cache see the whole design
        from repro.engines.encoding import cone_of_influence, widen_witness

        cone = cone_of_influence(system, args.property_name)
        try:
            engine = make_engine(args.engine, cone, **options)
        except EngineOptionError as error:
            _log.error(f"error: {error}")
            return 1
        _log.info(
            f"verifying {task.name!r} with engine {args.engine} "
            f"(timeout {args.timeout:g}s)"
        )
        result = widen_witness(
            engine.verify(args.property_name, timeout=args.timeout), system
        )
        return _report_single(args, task, result, expected, cache, representation)

    if not args.portfolio:
        # no mode flag: the ladder in this process, one engine at a
        # time, so a query starts no worker process and stops at the first
        # definitive answer of the cheapest rung that has one
        ladder = default_budget_ladder(
            representations=representations,
            bound=args.bound,
            timeout=args.timeout,
        )
        _log.info(
            f"budget ladder in-process on {task.name!r} "
            f"(timeout {args.timeout:g}s): {_schedule(ladder)}"
        )
        result = run_sequential_ladder(
            system, args.property_name, ladder, timeout=args.timeout
        )
        return _report_single(args, task, result, expected, cache, representation)

    def on_event(event: Dict[str, object]) -> None:
        kind = event.pop("event")
        label = event.pop("label", "")
        extras = ", ".join(f"{key}={value}" for key, value in event.items() if value)
        _log.verbose(
            f"  [{time.strftime('%H:%M:%S')}] {kind:9s} {label:24s} {extras}"
        )

    from repro.engines.portfolio import PortfolioRunner

    configs = default_portfolio_configs(
        representations=representations, bound=args.bound
    )
    runner = PortfolioRunner(
        configs=configs,
        timeout=args.timeout,
        max_workers=args.jobs,
        cross_check=args.cross_check,
        expected=expected,
        on_event=on_event,
        certify=args.certify,
    )
    _log.info(
        f"racing {len(configs)} configurations on {task.name!r} "
        f"(timeout {args.timeout:g}s{', cross-check' if args.cross_check else ''})"
    )
    result = runner.run(task, args.property_name)
    _print_portfolio(result, verbose=args.verbose)
    final_status = result.status
    if args.certify:
        final_status = _certify(task, result, final_status, args.timeout)
    if args.save_certificate:
        _save_certificate(args.save_certificate, task, result)
    _store_in_cache(cache, task, result, representation)
    return _EXIT_CODES.get(final_status, 1)


def _schedule(ladder) -> str:
    """One line naming each rung's configurations, cheapest rung first."""
    return " -> ".join(f"[{', '.join(rung.labels)}]" for rung in ladder)


def _report_single(
    args, task: VerificationTask, result: VerificationResult, expected,
    cache=None, representation: str = "word",
) -> int:
    """Classify, print, certify, save and cache one in-process verdict.

    Shared by ``--engine``, the in-process ladder and cache hits (which pass no
    cache, so a served verdict is not stored again); returns the exit code.
    """
    result.status = _classify(result.status, expected)
    _print_single(result, verbose=args.verbose)
    if args.certify:
        result.status = _certify(task, result, result.status, args.timeout)
    if args.save_certificate:
        _save_certificate(args.save_certificate, task, result)
    _store_in_cache(cache, task, result, representation)
    return _EXIT_CODES.get(result.status, 1)


def _store_in_cache(cache, task, result, representation: str) -> None:
    """Offer a fresh definitive verdict to the result cache (if one is on)."""
    if cache is None or result.status not in Status.DEFINITIVE:
        return
    try:
        system = task.load()
    except Exception:  # noqa: BLE001 - loader failures already reported
        return
    outcome = cache.store(
        system, result.property_name, representation, result, design=task.name
    )
    if outcome.stored:
        note = ""
        if outcome.minimization is not None and outcome.minimization.dropped:
            note = (
                f" (invariant minimized {outcome.minimization.original_size}"
                f" -> {outcome.minimization.size} conjuncts)"
            )
        print(f"cached under key {outcome.key[:12]}...{note}")
    else:
        print(f"not cached: {outcome.reason}")


def _run_server_client(args) -> int:
    """The ``--server`` driver: pipeline queries over one repro-serve conn.

    All targets are submitted before any result is read, so the server's
    queue (and its coalescing) sees the whole set at once.  Exit codes
    mirror the local drivers: 2 for any WRONG (definitive verdict against
    known ground truth), 3 for any inconclusive item, 1 for rejections.
    """
    from repro.serve.client import ServeClient, ServeError

    def request_for(target: str) -> Dict[str, object]:
        task = _resolve_task(target)
        request: Dict[str, object] = {"deadline_s": args.timeout}
        if task.kind == "benchmark":
            request["design"] = task.spec
        elif task.kind == "verilog":
            path, top = task.spec
            request["verilog"] = path
            if top:
                request["top"] = top
        else:
            request["aiger"] = task.spec
        if args.property_name:
            request["property"] = args.property_name
        if args.representation:
            request["representation"] = args.representation[0]
        if args.bound is not None:
            request["bound"] = args.bound
        return request

    if ":" in args.server and not os.path.exists(args.server):
        host, _, port = args.server.rpartition(":")
        client = ServeClient(host=host, port=int(port))
    else:
        client = ServeClient(socket_path=args.server)
    # liveness: the server sends a progress frame for each worker attempt,
    # retry and degraded run, and a keepalive while a proof runs
    client.on_progress = lambda frame: _log.info(
        "progress "
        + " ".join(
            f"{name}={frame[name]}"
            for name in ("id", "kind", "attempt", "state", "elapsed_s")
            if name in frame
        )
    )
    _log.info(
        f"connected to {args.server} ({client.hello.get('protocol')}, "
        f"server pid {client.hello.get('pid')})"
    )
    wrong = False
    inconclusive = False
    rejected = False
    with client:
        pending: List[Tuple[str, Optional[str]]] = []
        for target in args.target:
            try:
                accepted = client.submit(request_for(target))
            except ServeError as error:
                print(f"{target}: rejected ({error})")
                rejected = True
                continue
            pending.append((target, accepted["id"]))
        _print_header("design")
        for target, request_id in pending:
            reply = client.result(request_id)
            status = reply.get("status", Status.ERROR)
            expected = args.expected
            if expected is None and target in BENCHMARKS:
                expected = get_benchmark(target).expected
            status = _classify(status, expected)
            if status == Status.WRONG:
                wrong = True
            elif status not in Status.DEFINITIVE:
                inconclusive = True
            note = str(reply.get("source", ""))
            if reply.get("coalesced_with", 0) > 1:
                note += f" x{reply['coalesced_with']}"
            if reply.get("validated"):
                note += " validated"
            print(
                _row(target, status, float(reply.get("runtime_s", 0.0)), note)
            )
    if wrong:
        return 2
    if rejected:
        return 1
    return 3 if inconclusive else 0


def _run_batch(parser, args, cache) -> int:
    """The ``--batch`` driver: a warm-pool sweep over many designs."""
    from repro.engines.batch import BatchItem, BatchRunner

    targets = args.target or list(BENCHMARKS)
    items = [
        BatchItem(
            _resolve_task(target),
            property_name=args.property_name,
            expected=args.expected,
        )
        for target in targets
    ]
    if args.property_name is not None:
        for item in items:
            try:
                system = item.task.load()
            except Exception:  # noqa: BLE001 - reported as the item's ERROR
                continue
            _check_property(parser, item.task, system, args.property_name)
    representation = args.representation[0] if args.representation else "word"

    def on_event(event: Dict[str, object]) -> None:
        kind = event.pop("event")
        label = f"{event.pop('design', '')}:{event.pop('property', '')}"
        extras = ", ".join(
            f"{key}={value}" for key, value in event.items()
            if value is not None and value != ""
        )
        _log.info(f"  [{time.strftime('%H:%M:%S')}] {kind:9s} {label:28s} {extras}")

    runner = BatchRunner(
        cache=cache,
        jobs=args.jobs,
        timeout=args.timeout,
        bound=args.bound,
        representation=representation,
        on_event=on_event,
    )
    print(
        f"batch sweep over {len(items)} design(s) "
        f"({'cache ' + args.cache_dir if cache else 'no cache'}, "
        f"timeout {args.timeout:g}s per item)"
    )
    report = runner.run(items)
    _print_header("design:property")
    wrong = False
    inconclusive = False
    unvalidated = False
    for item in report.items:
        status = item.status
        if item.correct is False:
            status = Status.WRONG
            wrong = True
        if status not in Status.DEFINITIVE and status != Status.WRONG:
            inconclusive = True
        note = item.source
        if (
            cache is not None
            and status in Status.DEFINITIVE
            and not item.validated
        ):
            # with a cache attached every definitive verdict must be backed
            # by an independently validated certificate; one that is not is
            # indistinguishable from a lying engine and must gate CI
            unvalidated = True
            note += " NOT VALIDATED"
        if item.rung is not None:
            note += f" rung {item.rung}"
        if item.minimization and item.minimization.get("minimized"):
            note += (
                f" minimized {item.minimization['original_size']}"
                f"->{item.minimization['size']}"
            )
        print(_row(f"{item.design}:{item.property_name}", status, item.runtime_s, note))
    print("-" * 64)
    print(
        f"{len(report.items)} items in {report.wall_s:.3f}s: "
        f"{report.cache_hits} cache hit(s), {report.cache_misses} miss(es), "
        f"{report.demotions} demotion(s), {report.workers} worker(s)"
    )
    if wrong or unvalidated:
        return 2
    return 0 if not inconclusive else 3


if __name__ == "__main__":
    raise SystemExit(main())
