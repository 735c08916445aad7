"""Correctness gates and measurements over the benchmark suite.

Run with ``python -m repro.tools.bench MODE`` (or the ``repro-bench``
console script).  Every run selects exactly one mode; each mode writes its
``BENCH_*.json`` report and exits non-zero unless its gates hold.

``--portfolio`` times the portfolio: every default portfolio configuration
is first timed *individually* on each design, then the process-parallel :class:`repro.engines.portfolio.PortfolioRunner` races
them, and ``BENCH_portfolio.json`` records the portfolio wall-clock against
the fastest and slowest *winning* single engine per design.

``--certify`` is the certification mode: every engine of the zoo runs on
every suite design, each definitive verdict's certificate (UNSAFE witness
/ SAFE invariant, see :mod:`repro.certs`) is validated by the independent
checker, and a cross-check portfolio with an injected wrong-verdict engine
demonstrates certificate-based adjudication.  ``BENCH_certify.json`` records
the per-design validation statistics; the run fails unless every definitive
verdict is correct *and* independently validated.

``--serve`` measures the query-serving hot path: the whole suite is swept
twice through the :class:`repro.engines.batch.BatchRunner` against one
certificate cache — the cold pass runs the budget ladder per item and fills
the cache, the warm pass must be answered entirely by re-validated cache
hits — then the in-process budget ladder is compared with the all-at-once
portfolio race (wall and CPU), and SAFE certificates are minimized with
before/after validation timings.  ``BENCH_serve.json`` gates
on: 100 % cold/warm verdict agreement, an all-hit warm sweep at >= 3x the
cold wall clock, ladder CPU <= fan-out CPU wherever a cheap rung decides,
and minimized certificates validating no slower than their originals.

``--faults`` runs the chaos harness: seeded :class:`repro.faults.FaultPlan`
sweeps inject worker kills, exception crashes, SAT-search wedges, spawn
failures, forged certificates and cache tampering into certified batch runs
(``--seeds`` controls how many).  ``BENCH_faults.json`` gates on: every
sweep ends with a definitive, independently validated verdict per item
(zero WRONGs), no leaked worker processes, ``fsck`` heals every tampered
cache, and a hang wedged into an in-process SAT solve is broken by the
cooperative deadline without killing the process.

``--serve-soak`` soaks a *live* ``repro-serve`` server (a subprocess in its
own process group) with the chaos plan installed server-side: K identical
concurrent queries must coalesce to exactly one computation, warm hits are
latency-sampled (p50 recorded), an over-capacity flood must draw explicit
``overloaded`` rejections, seeded client disconnects and a too-tight
deadline must resolve cleanly, and a graceful drain must leave the journal
empty, the trace lint-clean and the process group extinct.  The server is
then SIGKILLed mid-flight and restarted on the same journal, which must
NACK every accepted-but-unanswered request.  ``BENCH_server.json`` gates on
all of it: every accept answered-or-cleanly-rejected, zero WRONG verdicts,
zero leaked processes, zero orphan spans, full journal recovery.

``--kernels`` measures the raw-speed replay tiers: per design, one random
workload (``--lanes`` sequences x ``--cycles`` cycles) is replayed through
the scalar reference interpreter, the bit-parallel packed simulator
(:mod:`repro.netlist.bitsim`) and the compiled C kernel
(:mod:`repro.kernels`), with input marshalling excluded from the timed
region so the numbers compare steady-state stepping throughput.
``BENCH_kernels.json`` gates on: packed >= ``--packed-gate`` x scalar on at
least 3 designs, compiled >= ``--kernel-gate`` x packed on at least 3
designs (waived when no C compiler is available), 100 % verdict agreement
between :func:`repro.kernels.checked_replay` and the scalar reference, and
the rsim falsifier finding and packed-validating a witness on every unsafe
suite design.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from typing import Dict, List, Optional, Tuple

from repro.benchmarks import benchmark_names, get_benchmark
from repro.certs import validate_result
from repro.engines.ladder import (
    PortfolioConfig,
    VerificationTask,
    bound_options,
    default_portfolio_configs,
)
from repro.engines.portfolio import PortfolioRunner
from repro.engines.registry import list_engines, make_engine
from repro.engines.result import Status
from repro.jsonio import write_json_atomic
from repro.obs import log as _log
from repro.obs import telemetry as _telemetry

#: default designs for the portfolio-vs-single comparison: a mix where the
#: fastest winner differs (BMC refutes daio/tlc, the provers win the rest)
DEFAULT_PORTFOLIO_BENCHMARKS = ["daio", "tlc", "buffalloc", "huffman_dec"]


def run_portfolio_section(
    names: List[str],
    bound: int,
    timeout: float,
    jobs: Optional[int] = None,
) -> List[Dict]:
    """Portfolio wall-clock vs. individually-timed single engines per design."""
    configs = default_portfolio_configs(bound=bound)
    rows = []
    for name in names:
        benchmark = get_benchmark(name)
        expected = benchmark.expected

        singles: Dict[str, Dict[str, object]] = {}
        for config in configs:
            system = benchmark.load()
            t0 = time.monotonic()
            result = make_engine(
                config.engine,
                system,
                ignore_unknown_options=True,
                **config.options_dict,
            ).verify(timeout=timeout)
            singles[config.label] = {
                "status": result.status,
                "runtime_s": round(time.monotonic() - t0, 6),
                "correct": result.status == expected,
                "solver_stats": result.detail.get("solver_stats"),
            }

        runner = PortfolioRunner(
            configs=configs, timeout=timeout, max_workers=jobs, expected=expected
        )
        portfolio = runner.run(VerificationTask.benchmark(name))

        winners = {
            label: row for label, row in singles.items() if row["correct"]
        }
        best_single = min(
            (row["runtime_s"] for row in winners.values()), default=None
        )
        slowest_winning = max(
            (row["runtime_s"] for row in winners.values()), default=None
        )
        within_slowest = (
            slowest_winning is not None and portfolio.runtime <= slowest_winning
        )
        row = {
            "benchmark": name,
            "expected": expected,
            "portfolio": {
                "status": portfolio.status,
                "winner": portfolio.winner,
                "wall_s": round(portfolio.runtime, 6),
                "workers": {
                    outcome.label: outcome.status for outcome in portfolio.workers
                },
                "correct": portfolio.status == expected,
                "winner_solver_stats": portfolio.detail.get("winner_solver_stats"),
            },
            "singles": singles,
            "best_single_s": best_single,
            "slowest_winning_single_s": slowest_winning,
            "portfolio_within_slowest_winning": within_slowest,
            "portfolio_vs_best_single": (
                round(portfolio.runtime / best_single, 2)
                if best_single
                else None
            ),
        }
        rows.append(row)
        _log.info(
            f"pfl {name:12s} portfolio={portfolio.runtime:.3f}s/{portfolio.status} "
            f"winner={portfolio.winner} best_single={best_single} "
            f"slowest_winning={slowest_winning} "
            f"{'OK' if row['portfolio']['correct'] else 'WRONG'}"
        )
    return rows


def write_portfolio_report(rows: List[Dict], out: str, depth: int, timeout: float) -> bool:
    """Write ``BENCH_portfolio.json``; returns True when all verdicts are correct."""
    all_correct = all(row["portfolio"]["correct"] for row in rows)
    report = {
        "meta": {
            "tool": "repro.tools.bench --portfolio",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "depth": depth,
            "timeout_s": timeout,
        },
        "portfolio": rows,
        "summary": {
            "designs": len(rows),
            "all_verdicts_correct": all_correct,
            "designs_within_slowest_winning_single": sum(
                1 for row in rows if row["portfolio_within_slowest_winning"]
            ),
            "portfolio_vs_best_single": {
                row["benchmark"]: row["portfolio_vs_best_single"] for row in rows
            },
        },
    }
    write_json_atomic(out, report)
    print(
        f"\nwrote {out}: "
        f"{report['summary']['designs_within_slowest_winning_single']}/{len(rows)} designs "
        f"with portfolio <= slowest winning single, verdicts "
        f"{'all correct' if all_correct else 'WRONG'}"
    )
    return all_correct


def run_certify_section(
    names: List[str], bound: int, timeout: float
) -> List[Dict]:
    """Run every paper engine on every design and validate each certificate."""
    engines = [
        registration.name
        for registration in list_engines()
        if registration.name != "oracle"  # fault injection is not a paper engine
    ]
    rows = []
    for name in names:
        benchmark = get_benchmark(name)
        expected = benchmark.expected
        engine_rows: Dict[str, Dict[str, object]] = {}
        for engine_name in engines:
            system = benchmark.load()
            t0 = time.monotonic()
            try:
                result = make_engine(
                    engine_name,
                    system,
                    ignore_unknown_options=True,
                    **bound_options(bound),
                ).verify(timeout=timeout)
            except Exception as error:  # noqa: BLE001 - crash category
                engine_rows[engine_name] = {
                    "status": Status.ERROR,
                    "runtime_s": round(time.monotonic() - t0, 6),
                    "reason": f"{type(error).__name__}: {error}",
                }
                continue
            row: Dict[str, object] = {
                "status": result.status,
                "runtime_s": round(time.monotonic() - t0, 6),
                "solver_stats": result.detail.get("solver_stats"),
            }
            if result.is_definitive:
                row["correct"] = result.status == expected
                validation = validate_result(system, result, timeout=timeout)
                row["certificate"] = getattr(result.certificate, "kind", None)
                row["certified"] = validation.ok
                row["validate_s"] = round(validation.runtime, 6)
                if not validation.ok:
                    row["validation_reason"] = validation.reason
            engine_rows[engine_name] = row
        definitive = {
            engine: row for engine, row in engine_rows.items() if "certified" in row
        }
        certified = sum(1 for row in definitive.values() if row["certified"])
        correct = sum(1 for row in definitive.values() if row["correct"])
        rows.append(
            {
                "benchmark": name,
                "expected": expected,
                "engines": engine_rows,
                "definitive": len(definitive),
                "correct": correct,
                "certified": certified,
            }
        )
        _log.info(
            f"cert {name:12s} definitive={len(definitive)}/{len(engines)} "
            f"correct={correct} certified={certified} "
            f"{'OK' if certified == len(definitive) == correct else 'FAIL'}"
        )
    return rows


def run_adjudication_demo(design: str, bound: int, timeout: float) -> Dict[str, object]:
    """Cross-check portfolio with an injected wrong-verdict engine.

    The oracle claims the opposite of the known verdict with a forged
    certificate; adjudication must side with the honest engines.
    """
    benchmark = get_benchmark(design)
    expected = benchmark.expected
    wrong_claim = Status.SAFE if expected == Status.UNSAFE else Status.UNSAFE
    configs = default_portfolio_configs(bound=bound) + [
        PortfolioConfig.of("oracle", claim=wrong_claim)
    ]
    runner = PortfolioRunner(
        configs=configs, timeout=timeout, cross_check=True, expected=expected
    )
    result = runner.run(VerificationTask.benchmark(design))
    adjudicated = result.status == expected and "adjudication" in result.detail
    _log.info(
        f"adj  {design:12s} injected={wrong_claim} portfolio={result.status} "
        f"winner={result.winner} {'OK' if adjudicated else 'FAIL'}"
    )
    return {
        "benchmark": design,
        "expected": expected,
        "injected_claim": wrong_claim,
        "status": result.status,
        "winner": result.winner,
        "adjudication": result.detail.get("adjudication"),
        "adjudicated_correctly": adjudicated,
    }


def write_certify_report(
    rows: List[Dict],
    adjudication: Dict[str, object],
    out: str,
    bound: int,
    timeout: float,
) -> bool:
    """Write ``BENCH_certify.json``; True when every definitive verdict validated."""
    total_definitive = sum(row["definitive"] for row in rows)
    total_certified = sum(row["certified"] for row in rows)
    total_correct = sum(row["correct"] for row in rows)
    all_validated = (
        total_definitive == total_certified == total_correct
        and bool(adjudication.get("adjudicated_correctly"))
    )
    report = {
        "meta": {
            "tool": "repro.tools.bench --certify",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "bound": bound,
            "timeout_s": timeout,
        },
        "certification": rows,
        "adjudication": adjudication,
        "summary": {
            "designs": len(rows),
            "definitive_verdicts": total_definitive,
            "correct_verdicts": total_correct,
            "validated_certificates": total_certified,
            "validation_rate": (
                round(total_certified / total_definitive, 4) if total_definitive else None
            ),
            "all_definitive_validated": all_validated,
        },
    }
    write_json_atomic(out, report)
    print(
        f"\nwrote {out}: {total_certified}/{total_definitive} definitive verdicts "
        f"validated ({total_correct} correct), adjudication "
        f"{'OK' if adjudication.get('adjudicated_correctly') else 'FAIL'}"
    )
    return all_validated


# ---------------------------------------------------------------------------
# serve mode (--serve): cache sweeps, ladder vs fan-out, minimization
# ---------------------------------------------------------------------------

#: designs of the ladder-vs-fanout comparison (a mix where different rungs
#: decide: rsim refutes daio/tlc in the cheap rung, absint proves
#: huffman_dec there, buffalloc needs the k-induction-family rung)
DEFAULT_LADDER_BENCHMARKS = ["daio", "tlc", "huffman_dec", "buffalloc"]

#: (design, engine) pairs whose SAFE certificates carry droppable conjuncts
#: (kIkI's strengthening invariants usually all drop once k is found, PDR's
#: frame clauses sometimes do); the minimization subsection shrinks them and
#: times validation before/after
DEFAULT_MINIMIZE_CASES = [
    ("huffman_dec", "kiki"),
    ("rcu", "kiki"),
    ("arbiter", "kiki"),
    ("proc3", "pdr"),
]


def run_serve_sweeps(
    names: List[str],
    bound: int,
    timeout: float,
    jobs: Optional[int],
    cache_dir: str,
) -> Dict[str, object]:
    """Sweep the suite twice against one cache: cold fills, warm must hit."""
    from repro.cache import ResultCache
    from repro.engines.batch import BatchItem, BatchRunner

    items = [BatchItem.benchmark(name) for name in names]
    sweeps: Dict[str, Dict[str, object]] = {}
    for label in ("cold", "warm"):
        cache = ResultCache(cache_dir, validation_timeout=timeout)
        runner = BatchRunner(
            cache=cache, jobs=jobs, timeout=timeout, bound=bound
        )
        report = runner.run(items)
        sweeps[label] = {**report.to_json(), "cache_stats": cache.stats()}
        _log.info(
            f"serve {label:5s} {len(report.items)} items in {report.wall_s:.3f}s: "
            f"{report.cache_hits} hits / {report.cache_misses} misses, "
            f"verdicts {'OK' if report.all_correct else 'WRONG'}"
        )

    cold, warm = sweeps["cold"], sweeps["warm"]
    cold_verdicts = {
        (row["design"], row["property"]): row["status"] for row in cold["items"]
    }
    warm_verdicts = {
        (row["design"], row["property"]): row["status"] for row in warm["items"]
    }
    verdicts_agree = cold_verdicts == warm_verdicts
    warm_all_hits = all(row["source"] == "cache" for row in warm["items"])
    hits_revalidated = all(row["validated"] for row in warm["items"])
    speedup = cold["wall_s"] / max(1e-9, warm["wall_s"])
    summary = {
        "items": len(cold["items"]),
        "cold_wall_s": cold["wall_s"],
        "warm_wall_s": warm["wall_s"],
        "warm_speedup": round(speedup, 2),
        "verdicts_agree": verdicts_agree,
        "warm_all_hits": warm_all_hits,
        "all_hits_revalidated": hits_revalidated,
        "all_verdicts_correct": bool(
            cold["all_correct"] and warm["all_correct"]
        ),
    }
    print(
        f"serve sweep: warm {summary['warm_speedup']}x faster, "
        f"all hits {'OK' if warm_all_hits else 'FAIL'}, "
        f"agreement {'OK' if verdicts_agree else 'FAIL'}"
    )
    return {"sweeps": sweeps, "summary": summary}


def run_ladder_section(
    names: List[str], bound: int, timeout: float, jobs: Optional[int]
) -> List[Dict]:
    """The in-process budget ladder against the all-at-once race, per design.

    The ladder runs as a bare ``repro-verify`` query runs it
    (:func:`repro.engines.ladder.run_sequential_ladder`, one engine at a time
    in this process), so its CPU is this process's CPU time across the call;
    the race's CPU is its workers' summed process time.
    """
    from repro.engines.ladder import default_budget_ladder, run_sequential_ladder

    rows = []
    for name in names:
        benchmark = get_benchmark(name)
        task = VerificationTask.benchmark(name)
        fanout = PortfolioRunner(
            configs=default_portfolio_configs(bound=bound),
            timeout=timeout,
            max_workers=jobs,
            expected=benchmark.expected,
        ).run(task)
        rungs = default_budget_ladder(bound=bound, timeout=timeout)
        system = task.load()
        wall0, cpu0 = time.monotonic(), time.process_time()
        ladder = run_sequential_ladder(system, None, rungs, timeout=timeout)
        ladder_wall = time.monotonic() - wall0
        ladder_cpu = time.process_time() - cpu0
        attempts = ladder.detail.get("ladder_attempts", [])
        decided_rung = ladder.detail.get("ladder_rung")
        decided_tier = rungs[decided_rung].tier if decided_rung is not None else None
        # the CPU gate only applies where the *cheap* tier decided: a design
        # escalated to the provers pays the cheap rung's probe as overhead
        cheap_decided = decided_tier == "cheap"
        row = {
            "benchmark": name,
            "expected": benchmark.expected,
            "fanout": {
                "status": fanout.status,
                "winner": fanout.winner,
                "wall_s": round(fanout.runtime, 6),
                "cpu_s": fanout.detail.get("cpu_s"),
            },
            "ladder": {
                "status": ladder.status,
                "winner": attempts[-1]["config"] if ladder.is_definitive else None,
                "wall_s": round(ladder_wall, 6),
                "cpu_s": round(ladder_cpu, 6),
                "decided_rung": decided_rung,
                "decided_tier": decided_tier,
                "attempts": attempts,
            },
            "verdicts_match": fanout.status == ladder.status,
            "cheap_rung_decided": cheap_decided,
            "ladder_cpu_within_fanout": (
                ladder_cpu <= fanout.detail.get("cpu_s", 0.0)
            ),
        }
        rows.append(row)
        _log.info(
            f"ldr  {name:12s} ladder={row['ladder']['wall_s']:.3f}s/"
            f"cpu {row['ladder']['cpu_s']}s rung={decided_rung} "
            f"fanout={row['fanout']['wall_s']:.3f}s/cpu {row['fanout']['cpu_s']}s "
            f"{'OK' if row['verdicts_match'] else 'MISMATCH'}"
        )
    return rows


def run_minimization_section(
    cases: List[Tuple[str, str]], timeout: float, repeats: int = 3
) -> List[Dict]:
    """Shrink SAFE certificates and time validation before/after.

    Validation is timed as the fastest of ``repeats`` passes — a single
    validator run is a few milliseconds, so one-shot timings are noise.
    """
    from repro.cache import minimize_certificate
    from repro.certs import validate_certificate

    def timed_validation(system, certificate):
        best = float("inf")
        validation = None
        for _ in range(max(1, repeats)):
            t0 = time.monotonic()
            validation = validate_certificate(system, certificate)
            best = min(best, time.monotonic() - t0)
        return validation, best

    rows = []
    for name, engine_name in cases:
        benchmark = get_benchmark(name)
        system = benchmark.load()
        result = make_engine(engine_name, system).verify(timeout=timeout)
        if result.status != Status.SAFE or result.certificate is None:
            rows.append(
                {"benchmark": name, "engine": engine_name, "status": result.status}
            )
            continue
        original_validation, validate_original_s = timed_validation(
            system, result.certificate
        )
        minimization = minimize_certificate(system, result.certificate)
        minimized_validation, validate_minimized_s = timed_validation(
            system, minimization.certificate
        )
        row = {
            "benchmark": name,
            "engine": engine_name,
            "status": result.status,
            "certificate_kind": getattr(result.certificate, "kind", None),
            "original_conjuncts": minimization.original_size,
            "minimized_conjuncts": minimization.size,
            "minimize_checks": minimization.checks,
            "validate_original_s": round(validate_original_s, 6),
            "validate_minimized_s": round(validate_minimized_s, 6),
            "both_validate": bool(
                original_validation.ok and minimized_validation.ok
            ),
            "validation_speedup": round(
                validate_original_s / max(1e-9, validate_minimized_s), 2
            ),
        }
        rows.append(row)
        _log.info(
            f"min  {name:12s} {engine_name:5s} {minimization.original_size} -> "
            f"{minimization.size} conjuncts, validate "
            f"{validate_original_s * 1e3:.1f}ms -> {validate_minimized_s * 1e3:.1f}ms "
            f"{'OK' if row['both_validate'] else 'FAIL'}"
        )
    return rows


def write_serve_report(
    sweep_data: Dict[str, object],
    ladder_rows: List[Dict],
    minimize_rows: List[Dict],
    out: str,
    bound: int,
    timeout: float,
) -> bool:
    """Write ``BENCH_serve.json``; True when every serving target is met."""
    sweep_summary = dict(sweep_data["summary"])
    cheap_rows = [row for row in ladder_rows if row.get("cheap_rung_decided")]
    ladder_ok = all(
        row["ladder_cpu_within_fanout"] for row in cheap_rows
    ) and all(row["verdicts_match"] for row in ladder_rows)
    minimized = [
        row
        for row in minimize_rows
        if row.get("minimized_conjuncts") is not None
        and row["minimized_conjuncts"] < row["original_conjuncts"]
    ]
    minimize_ok = all(row["both_validate"] for row in minimized) and (
        not minimized
        or sum(row["validate_minimized_s"] for row in minimized)
        <= sum(row["validate_original_s"] for row in minimized)
    )
    ok = bool(
        sweep_summary["verdicts_agree"]
        and sweep_summary["warm_all_hits"]
        and sweep_summary["all_hits_revalidated"]
        and sweep_summary["all_verdicts_correct"]
        and sweep_summary["warm_speedup"] >= 3.0
        and ladder_ok
        and minimize_ok
    )
    report = {
        "meta": {
            "tool": "repro.tools.bench --serve",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "bound": bound,
            "timeout_s": timeout,
        },
        "sweeps": sweep_data["sweeps"],
        "ladder_vs_fanout": ladder_rows,
        "minimization": minimize_rows,
        "summary": {
            **sweep_summary,
            "ladder_designs": len(ladder_rows),
            "cheap_rung_decided": len(cheap_rows),
            "ladder_cpu_within_fanout_on_cheap_decides": ladder_ok,
            "certificates_minimized": len(minimized),
            "minimized_validate_faster": minimize_ok,
            "serving_targets_met": ok,
        },
    }
    write_json_atomic(out, report)
    print(
        f"\nwrote {out}: warm sweep {sweep_summary['warm_speedup']}x "
        f"({'all hits' if sweep_summary['warm_all_hits'] else 'MISSES'}), "
        f"ladder CPU {'OK' if ladder_ok else 'FAIL'} on "
        f"{len(cheap_rows)} cheap-decided design(s), "
        f"minimization {'OK' if minimize_ok else 'FAIL'} "
        f"({len(minimized)} certificate(s) shrunk) -> "
        f"{'OK' if ok else 'FAIL'}"
    )
    return ok


# ---------------------------------------------------------------------------
# --faults: seeded chaos sweeps through the supervised batch runner
# ---------------------------------------------------------------------------

#: designs for the chaos sweeps: one fast refutation, one fast proof — small
#: enough that a sweep with kills, hangs and retries still finishes quickly
DEFAULT_FAULTS_BENCHMARKS = ["daio", "buffalloc"]

#: per-kind firing rates of a chaos sweep; destructive kinds are frequent
#: enough that every sweep exercises them, but ``first_attempt_only`` plans
#: let supervised retries run clean so the sweep still converges
CHAOS_RATES = {
    "crash": 0.35,
    "slow-start": 0.5,
    "worker-kill": 0.35,
    "hang": 0.25,
    "hang-hard": 0.25,
    "spawn-fail": 0.15,
    "cert-forge": 0.3,
    "cache-corrupt": 0.5,
    "cache-truncate": 0.5,
}


def _reap_leaked_children(grace_s: float = 5.0) -> List[int]:
    """Join any still-registered child processes; return leaked PIDs."""
    import multiprocessing

    deadline = time.monotonic() + grace_s
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
    return [
        child.pid
        for child in multiprocessing.active_children()
        if child.is_alive()
    ]


def run_chaos_sweep(
    seed: int,
    names: List[str],
    bound: int,
    timeout: float,
    jobs: Optional[int],
    cache_dir: str,
) -> Dict[str, object]:
    """One seeded fault-injection sweep through the certified batch runner.

    The sweep must end with a definitive, independently validated verdict
    for every item despite injected kills, crashes, wedges, spawn failures,
    forged certificates and cache tampering — and must leak no processes.
    After the sweep, ``fsck`` heals whatever the tamper faults left in the
    cache; a second ``fsck`` must come back clean.
    """
    from repro.cache import ResultCache
    from repro.engines.batch import BatchItem, BatchRunner
    from repro.faults.injection import plan_installed
    from repro.faults.plan import FaultPlan

    items = [BatchItem.benchmark(name) for name in names]
    plan = FaultPlan(seed=seed, rates=dict(CHAOS_RATES))
    start = time.perf_counter()
    with plan_installed(plan):
        cache = ResultCache(cache_dir, validation_timeout=timeout)
        runner = BatchRunner(
            cache=cache,
            jobs=jobs,
            timeout=timeout,
            bound=bound,
            certify=True,
            attempt_timeout=max(3.0, timeout / 4.0),
        )
        report = runner.run(items)
    wall = time.perf_counter() - start
    leaked = _reap_leaked_children()

    rows = report.to_json()["items"]
    all_definitive = all(row["status"] in Status.DEFINITIVE for row in rows)

    # heal the cache the tamper faults mangled, then prove it stays healed
    heal = ResultCache(cache_dir, validation_timeout=timeout)
    fsck_first = heal.fsck()
    fsck_second = heal.fsck()

    ok = (
        report.all_correct
        and all_definitive
        and not leaked
        and bool(fsck_second["clean"])
    )
    row = {
        "seed": seed,
        "wall_s": round(wall, 6),
        "items": [
            {
                "design": item["design"],
                "property": item["property"],
                "status": item["status"],
                "source": item["source"],
                "attempts": len((item.get("supervision") or {}).get("attempts", [])) or 1,
            }
            for item in rows
        ],
        "driver_faults_fired": list(plan.fired),
        "retries": report.retries,
        "degraded": report.degraded,
        "all_correct": report.all_correct,
        "all_definitive": all_definitive,
        "leaked_pids": leaked,
        "fsck": {
            "first": {
                "checked": fsck_first["checked"],
                "pruned": len(fsck_first["pruned"]),
                "quarantined": len(fsck_first["quarantined"]),
            },
            "second_clean": bool(fsck_second["clean"]),
        },
        "ok": ok,
    }
    _log.info(
        f"chaos seed {seed}: {len(rows)} items in {wall:.3f}s, "
        f"{report.retries} retries, {report.degraded} degraded, "
        f"verdicts {'OK' if report.all_correct else 'WRONG'}"
        f"{'' if all_definitive else ' (non-definitive!)'}, "
        f"fsck pruned {row['fsck']['first']['pruned']} / quarantined "
        f"{row['fsck']['first']['quarantined']}, "
        f"leaked {leaked or 'none'}"
    )
    return row


def run_hang_interrupt_demo(timeout: float) -> Dict[str, object]:
    """Wedge a SAT solve in-process; the cooperative deadline must break it.

    A ``hang``-only plan arms the solver wedge inside a driver-process
    ``verify`` call.  The wedge spins until the engine's armed deadline
    passes, the next checkpoint raises ``SolverInterrupted``, and the engine
    returns a TIMEOUT verdict — the process itself must survive (same PID,
    no exception), which is the acceptance path for hangs injected into
    in-process (degraded) execution.
    """
    from repro.faults.injection import plan_installed
    from repro.faults.plan import HANG, FaultPlan

    system = get_benchmark("buffalloc").load()
    budget = min(2.0, timeout)
    pid = os.getpid()
    start = time.perf_counter()
    with plan_installed(FaultPlan(seed=0, rates={HANG: 1.0})):
        engine = make_engine("k-induction", system, max_k=16)
        result = engine.verify(timeout=budget)
    wall = time.perf_counter() - start
    row = {
        "design": "buffalloc",
        "engine": "k-induction",
        "budget_s": budget,
        "wall_s": round(wall, 6),
        "status": str(result.status),
        "pid_preserved": os.getpid() == pid,
        "interrupted_within_budget": wall < budget + 2.0,
        "ok": (
            os.getpid() == pid
            and wall < budget + 2.0
            and result.status not in (Status.SAFE, Status.UNSAFE)
        ),
    }
    _log.info(
        f"hang demo: wedged k-induction on buffalloc interrupted after "
        f"{wall:.3f}s (budget {budget:.1f}s), verdict {result.status}, "
        f"process survived: {row['pid_preserved']}"
    )
    return row


def write_faults_report(
    sweeps: List[Dict],
    hang_demo: Dict[str, object],
    out: str,
    bound: int,
    timeout: float,
) -> bool:
    all_ok = all(row["ok"] for row in sweeps) and bool(hang_demo["ok"])
    report = {
        "config": {
            "mode": "faults",
            "cpus": os.cpu_count(),
            "bound": bound,
            "timeout_s": timeout,
            "rates": CHAOS_RATES,
        },
        # "chaos_sweeps", not "sweeps": the serve report uses "sweeps" for a
        # mapping and learn_priors reads that key from every report it gets
        "chaos_sweeps": sweeps,
        "hang_interrupt_demo": hang_demo,
        "summary": {
            "sweeps": len(sweeps),
            "sweeps_ok": sum(1 for row in sweeps if row["ok"]),
            "total_retries": sum(row["retries"] for row in sweeps),
            "total_degraded": sum(row["degraded"] for row in sweeps),
            "zero_wrong_verdicts": all(row["all_correct"] for row in sweeps),
            "all_verdicts_definitive": all(
                row["all_definitive"] for row in sweeps
            ),
            "zero_leaked_processes": all(
                not row["leaked_pids"] for row in sweeps
            ),
            "caches_healed": all(
                row["fsck"]["second_clean"] for row in sweeps
            ),
            "hang_interrupted_in_process": bool(hang_demo["ok"]),
            "all_ok": all_ok,
        },
    }
    write_json_atomic(out, report)
    summary = report["summary"]
    print(
        f"\nwrote {out}: {summary['sweeps_ok']}/{summary['sweeps']} chaos "
        f"sweeps clean ({summary['total_retries']} retries, "
        f"{summary['total_degraded']} degraded), verdicts "
        f"{'all correct+definitive' if summary['zero_wrong_verdicts'] and summary['all_verdicts_definitive'] else 'NOT CLEAN'}, "
        f"leaks {'none' if summary['zero_leaked_processes'] else 'LEAKED'}, "
        f"hang demo {'ok' if summary['hang_interrupted_in_process'] else 'FAILED'}"
    )
    return all_ok


# ---------------------------------------------------------------------------
# --serve-soak: chaos soak against a live repro-serve server
# ---------------------------------------------------------------------------

#: chaos rates installed *in the soaked server* (engine-site faults retried
#: under supervision plus the journal-tear); the client-disconnect draws run
#: in the harness process against distinct per-design sites
SOAK_SERVER_RATES = (
    "crash=0.25,slow-start=0.3,worker-kill=0.25,cert-forge=0.25,"
    "journal-torn=0.2"
)
SOAK_COALESCE_DESIGN = "mac16"
SOAK_COALESCE_CLIENTS = 8
SOAK_DISCONNECT_DESIGNS = ["proc3", "rcu", "fifo", "iqueue", "arbiter", "barrel16"]


def _start_soak_server(args_list: List[str]) -> "subprocess.Popen":
    """Launch one server subprocess in its own session (= process group).

    The fresh session is the leak oracle: after a drain or a kill, every
    process the server ever forked must be gone, which
    :func:`_soak_group_gone` checks by signalling the whole group.
    """
    import subprocess
    import sys

    return subprocess.Popen(
        [sys.executable, "-m", "repro.tools.serve_cli", *args_list],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )


def _soak_group_gone(pgid: int, grace_s: float = 20.0) -> bool:
    """True when no process of the server's group survives within the grace."""
    import signal as signal_module

    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        except PermissionError:  # pragma: no cover - zombie group
            pass
        time.sleep(0.1)
    try:
        os.killpg(pgid, signal_module.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return True
    return False


def _soak_wait_socket(path: str, timeout_s: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return True
        time.sleep(0.05)
    return False


def _soak_classify(design: str, reply: Dict[str, object]) -> str:
    """Apply the WRONG classification to a server reply (suite ground truth)."""
    status = str(reply.get("status", Status.ERROR))
    expected = get_benchmark(design).expected
    if status in Status.DEFINITIVE and status != expected:
        return Status.WRONG
    return status


def run_serve_soak(
    seed: int, timeout: float, workdir: str
) -> Dict[str, object]:
    """The full soak: graceful chaos run, SIGKILL mid-flight, recovery run.

    Run A starts a chaos-seeded server and drives it through the acceptance
    scenarios — K-client coalescing, a warm-hit latency sample, an
    over-capacity flood, seeded client disconnects, a too-tight deadline —
    then drains it gracefully.  Run B accepts slow requests and SIGKILLs
    the whole server group mid-flight, leaving the journal with open
    entries.  Run C restarts on that journal and must NACK every one.
    Every gate lands in the returned row; :func:`write_server_report`
    aggregates them.
    """
    import statistics
    import signal as signal_module

    from repro.faults.injection import client_disconnect, plan_installed
    from repro.faults.plan import CLIENT_DISCONNECT, FaultPlan
    from repro.obs.export import lint_trace, load_trace
    from repro.serve.client import ServeClient, ServeError
    from repro.serve.journal import RequestJournal

    sock = os.path.join(workdir, "serve.sock")
    cache_dir = os.path.join(workdir, "cache")
    journal_a = os.path.join(workdir, "journal_a.jsonl")
    trace_a = os.path.join(workdir, "trace_a.jsonl")
    row: Dict[str, object] = {"seed": seed}

    # ----- run A: chaos-seeded serving until graceful drain --------------
    server = _start_soak_server([
        "--socket", sock, "--cache-dir", cache_dir,
        "--journal", journal_a, "--trace", trace_a,
        "--max-queue", "4", "--workers", "1:2",
        "--target-latency", "5",
        "--default-deadline", str(timeout),
        "--attempt-timeout", str(max(3.0, timeout / 4.0)),
        "--certify",
        "--chaos", str(seed), "--chaos-rates", SOAK_SERVER_RATES,
        "-q",
    ])
    pgid_a = server.pid
    if not _soak_wait_socket(sock):
        server.kill()
        row["error"] = "run A server never opened its socket"
        row["ok"] = False
        return row

    wrong: List[str] = []

    _log.verbose(f"soak seed {seed}: run A up (pid {server.pid})")

    # A.1 coalescing: K concurrent identical cold queries, one computation
    import threading

    barrier = threading.Barrier(SOAK_COALESCE_CLIENTS)
    coalesce_replies: List[Dict[str, object]] = []
    coalesce_accepts: List[Dict[str, object]] = []
    lock = threading.Lock()

    def coalesce_client() -> None:
        with ServeClient(socket_path=sock) as client:
            barrier.wait()
            accepted = client.submit(
                {"design": SOAK_COALESCE_DESIGN, "bound": 96,
                 "deadline_s": max(60.0, timeout)}
            )
            reply = client.result(accepted["id"])
            with lock:
                coalesce_accepts.append(accepted)
                coalesce_replies.append(reply)

    threads = [
        threading.Thread(target=coalesce_client)
        for _ in range(SOAK_COALESCE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=max(120.0, timeout * 3))
    with ServeClient(socket_path=sock) as client:
        stats_after_k = client.stats()
    computations_k = stats_after_k["counters"]["computations"]
    coalesced_k = sum(1 for a in coalesce_accepts if a.get("coalesced"))
    for reply in coalesce_replies:
        if _soak_classify(SOAK_COALESCE_DESIGN, reply) == Status.WRONG:
            wrong.append(f"{SOAK_COALESCE_DESIGN}: {reply.get('status')}")
    coalesce_ok = (
        len(coalesce_replies) == SOAK_COALESCE_CLIENTS
        and computations_k == 1
        and coalesced_k == SOAK_COALESCE_CLIENTS - 1
    )
    row["coalesce"] = {
        "clients": SOAK_COALESCE_CLIENTS,
        "computations": computations_k,
        "coalesced": coalesced_k,
        "ratio": round(coalesced_k / SOAK_COALESCE_CLIENTS, 3),
        "ok": coalesce_ok,
    }

    _log.verbose("soak: coalesce phase done")

    # A.2 warm path: repeated hits served from the validated-cert cache
    warm_latencies: List[float] = []
    warm_sources: List[str] = []
    with ServeClient(socket_path=sock) as client:
        for _ in range(20):
            t0 = time.perf_counter()
            reply = client.verify(
                design=SOAK_COALESCE_DESIGN, bound=96,
                deadline_s=max(60.0, timeout),
            )
            warm_latencies.append(time.perf_counter() - t0)
            warm_sources.append(str(reply.get("source")))
            if _soak_classify(SOAK_COALESCE_DESIGN, reply) == Status.WRONG:
                wrong.append(f"warm {SOAK_COALESCE_DESIGN}: {reply.get('status')}")
    warm_p50 = statistics.median(warm_latencies)
    row["warm"] = {
        "queries": len(warm_latencies),
        "all_cache_hits": all(s == "cache" for s in warm_sources),
        "p50_s": round(warm_p50, 6),
        "max_s": round(max(warm_latencies), 6),
        "ok": all(s == "cache" for s in warm_sources) and warm_p50 <= 2.0,
    }

    _log.verbose("soak: warm phase done")

    # A.3 flood: distinct keys past the queue cap; overload must be explicit
    flood_targets = [
        (name, rep)
        for rep in ("word", "bit")
        for name in benchmark_names()
    ]
    flood_accepted: List[Tuple[str, str]] = []
    flood_rejected = 0
    with ServeClient(socket_path=sock) as client:
        for name, rep in flood_targets:
            try:
                accepted = client.submit(
                    {"design": name, "representation": rep, "bound": 64,
                     "deadline_s": min(20.0, timeout), "priority": "bulk"}
                )
                flood_accepted.append((name, accepted["id"]))
            except ServeError:
                flood_rejected += 1
        for name, request_id in flood_accepted:
            reply = client.result(request_id)
            if _soak_classify(name, reply) == Status.WRONG:
                wrong.append(f"flood {name}: {reply.get('status')}")
    row["flood"] = {
        "submitted": len(flood_targets),
        "accepted": len(flood_accepted),
        "rejected_overloaded": flood_rejected,
        "ok": flood_rejected >= 1 and len(flood_accepted) >= 1,
    }

    _log.verbose("soak: flood phase done")

    # A.4 seeded client disconnects: hang up mid-request, server must not
    disconnects = 0
    with plan_installed(FaultPlan(seed=seed, rates={CLIENT_DISCONNECT: 0.5})):
        for name in SOAK_DISCONNECT_DESIGNS:
            client = ServeClient(socket_path=sock)
            try:
                accepted = client.submit(
                    {"design": name, "bound": 64,
                     "deadline_s": min(30.0, timeout)}
                )
            except ServeError:
                client.close()
                continue
            if client_disconnect(name):
                disconnects += 1
                client.close()  # vanish without reading the result
            else:
                reply = client.result(accepted["id"])
                if _soak_classify(name, reply) == Status.WRONG:
                    wrong.append(f"disconnect {name}: {reply.get('status')}")
                client.close()
    row["disconnects"] = {"fired": disconnects}

    _log.verbose("soak: disconnect phase done")

    # A.5 deadline: a too-tight budget must come back, on time, not wedge
    t0 = time.perf_counter()
    with ServeClient(socket_path=sock) as client:
        reply = client.verify(
            design="huffman_dec", representation="bit", bound=128,
            deadline_s=0.2,
        )
    deadline_wall = time.perf_counter() - t0
    row["deadline"] = {
        "status": reply.get("status"),
        "wall_s": round(deadline_wall, 6),
        "ok": (
            deadline_wall <= 0.2 + 15.0
            and _soak_classify("huffman_dec", reply) != Status.WRONG
        ),
    }

    _log.verbose("soak: deadline phase done")

    # A.6 graceful drain: everything accepted was answered or cancelled
    with ServeClient(socket_path=sock) as client:
        final_stats = client.stats()
        client.drain()
    drain_rc = server.wait(timeout=max(120.0, timeout * 3))
    counters = final_stats["counters"]
    accounting_ok = (
        counters["accepted"] == counters["answered"] + counters["cancelled"]
    )
    group_a_gone = _soak_group_gone(pgid_a)
    trace_problems: List[str] = []
    try:
        trace_problems = lint_trace(load_trace(trace_a))
    except (OSError, ValueError) as error:
        trace_problems = [str(error)]
    row["run_a"] = {
        "counters": counters,
        "throttle": final_stats["throttle"],
        "accounting_ok": accounting_ok,
        "drain_exit_code": drain_rc,
        "journal_torn_injected": final_stats.get("journal", {}).get(
            "torn_injected", 0
        ),
        "no_leaked_processes": group_a_gone,
        "trace_problems": trace_problems,
        "trace_clean": not trace_problems,
    }
    journal_a_open = len(RequestJournal(journal_a).replay().open_requests)
    torn_injected = int(row["run_a"]["journal_torn_injected"])
    # under journal-torn chaos a drained journal may legitimately keep open
    # accepts: a tear eats the tail of the record just written AND merges the
    # following append onto the same garbage line, so each tear can destroy up
    # to two records — a destroyed *close* orphans its accept.  That is the
    # at-least-once contract (a restart would NACK, never silently lose), so
    # the gate is "opens explainable by tears", and exactly zero when no tear
    # fired.
    journal_a_ok = journal_a_open <= 2 * torn_injected
    row["run_a"]["journal_open_after_drain"] = journal_a_open
    row["run_a"]["journal_open_explained_by_tears"] = journal_a_ok

    _log.verbose("soak: run A drained")

    # ----- run B: SIGKILL mid-flight leaves the journal open -------------
    journal_b = os.path.join(workdir, "journal_b.jsonl")
    cache_b = os.path.join(workdir, "cache_b")
    if os.path.exists(sock):
        os.unlink(sock)
    server_b = _start_soak_server([
        "--socket", sock, "--cache-dir", cache_b,
        "--journal", journal_b,
        "--max-queue", "8", "--workers", "1:2",
        "--default-deadline", "120", "-q",
    ])
    pgid_b = server_b.pid
    kill_row: Dict[str, object] = {}
    if not _soak_wait_socket(sock):
        server_b.kill()
        kill_row["error"] = "run B server never opened its socket"
    else:
        client = ServeClient(socket_path=sock)
        # slow requests: rsim is word-level only, so on the bit encoding
        # k-induction must unroll to daio's and tlc's deep bugs, which takes
        # seconds; the ladder settles the suite's other queries before the
        # kill below, leaving nothing in flight to journal
        client.submit({"design": "daio", "representation": "bit",
                       "bound": 120, "deadline_s": 120})
        client.submit({"design": "tlc", "representation": "bit",
                       "bound": 120, "deadline_s": 120})
        time.sleep(0.5)
        try:
            os.killpg(pgid_b, signal_module.SIGKILL)
        except ProcessLookupError:
            pass
        client.close()
        server_b.wait(timeout=30)
    kill_row["no_survivors"] = _soak_group_gone(pgid_b)
    open_after_kill = RequestJournal(journal_b).replay().open_requests
    kill_row["journal_open_after_kill"] = len(open_after_kill)
    kill_row["ok"] = (
        kill_row.get("error") is None
        and kill_row["no_survivors"]
        and len(open_after_kill) >= 1
    )
    row["run_b"] = kill_row

    _log.verbose("soak: run B killed")

    # ----- run C: restart on the killed journal, NACK the orphans --------
    trace_c = os.path.join(workdir, "trace_c.jsonl")
    # a SIGKILLed server cannot unlink its socket; clear the stale file so
    # the bind (and our readiness poll) see a fresh one
    if os.path.exists(sock):
        os.unlink(sock)
    server_c = _start_soak_server([
        "--socket", sock, "--cache-dir", cache_b,
        "--journal", journal_b, "--recover", "nack",
        "--trace", trace_c,
        "--max-queue", "8", "--workers", "1:2", "-q",
    ])
    pgid_c = server_c.pid
    restart_row: Dict[str, object] = {}
    if not _soak_wait_socket(sock):
        server_c.kill()
        restart_row["error"] = "run C server never opened its socket"
        restart_row["ok"] = False
    else:
        with ServeClient(socket_path=sock) as client:
            stats_c = client.stats()
            reply = client.verify(design="daio", deadline_s=max(60.0, timeout))
            if _soak_classify("daio", reply) == Status.WRONG:
                wrong.append(f"post-restart daio: {reply.get('status')}")
            client.drain()
        rc_c = server_c.wait(timeout=max(120.0, timeout * 3))
        restart_row["recovered_nacked"] = stats_c["counters"]["recovered_nacked"]
        restart_row["recovery"] = stats_c["recovery"]
        restart_row["post_restart_status"] = reply.get("status")
        restart_row["drain_exit_code"] = rc_c
        restart_row["no_leaked_processes"] = _soak_group_gone(pgid_c)
        try:
            problems_c = lint_trace(load_trace(trace_c))
        except (OSError, ValueError) as error:
            problems_c = [str(error)]
        restart_row["trace_problems"] = problems_c
        restart_row["journal_open_after_drain"] = len(
            RequestJournal(journal_b).replay().open_requests
        )
        restart_row["ok"] = (
            restart_row["recovered_nacked"] == len(open_after_kill)
            and rc_c == 0
            and restart_row["no_leaked_processes"]
            and not problems_c
            and restart_row["journal_open_after_drain"] == 0
        )
    row["run_c"] = restart_row

    row["_trace_a_path"] = trace_a
    row["wrong_verdicts"] = wrong
    row["ok"] = (
        coalesce_ok
        and row["warm"]["ok"]
        and row["flood"]["ok"]
        and row["deadline"]["ok"]
        and accounting_ok
        and drain_rc == 0
        and group_a_gone
        and not trace_problems
        and journal_a_ok
        and not wrong
        and bool(kill_row.get("ok"))
        and bool(restart_row.get("ok"))
    )
    _log.info(
        f"serve soak seed {seed}: coalesce {coalesced_k}/{SOAK_COALESCE_CLIENTS} "
        f"({computations_k} computation), warm p50 {warm_p50*1000:.1f}ms, "
        f"{flood_rejected} overload rejection(s), {disconnects} disconnect(s), "
        f"accounting {'ok' if accounting_ok else 'BROKEN'}, "
        f"kill left {len(open_after_kill)} journaled, "
        f"recovery nacked {restart_row.get('recovered_nacked', '?')}, "
        f"{'OK' if row['ok'] else 'FAILED'}"
    )
    return row


def write_server_report(
    soak: Dict[str, object], out: str, timeout: float, trace_out: Optional[str]
) -> bool:
    """Write ``BENCH_server.json``; True when every soak gate held."""
    trace_a_path = soak.pop("_trace_a_path", None)
    all_ok = bool(soak.get("ok"))
    report = {
        "config": {
            "mode": "serve-soak",
            "cpus": os.cpu_count(),
            "timeout_s": timeout,
            "seed": soak.get("seed"),
            "chaos_rates": SOAK_SERVER_RATES,
            "python": platform.python_version(),
        },
        "tool": "repro.tools.bench --serve-soak",
        "soak": soak,
        "summary": {
            "every_accept_resolved": bool(
                soak.get("run_a", {}).get("accounting_ok")
            ),
            "coalescing_ratio": soak.get("coalesce", {}).get("ratio"),
            "warm_p50_s": soak.get("warm", {}).get("p50_s"),
            "overload_rejections": soak.get("flood", {}).get(
                "rejected_overloaded"
            ),
            "zero_wrong_verdicts": not soak.get("wrong_verdicts"),
            "zero_leaked_processes": bool(
                soak.get("run_a", {}).get("no_leaked_processes")
            )
            and bool(soak.get("run_b", {}).get("no_survivors"))
            and bool(soak.get("run_c", {}).get("no_leaked_processes")),
            "traces_clean": bool(soak.get("run_a", {}).get("trace_clean"))
            and not soak.get("run_c", {}).get("trace_problems"),
            "journal_recovery_ok": bool(soak.get("run_b", {}).get("ok"))
            and bool(soak.get("run_c", {}).get("ok")),
            "all_ok": all_ok,
        },
    }
    write_json_atomic(out, report)
    if trace_out and isinstance(trace_a_path, str) and os.path.exists(trace_a_path):
        import shutil

        shutil.copyfile(trace_a_path, trace_out)
        print(f"server trace (run A) copied to {trace_out}")
    summary = report["summary"]
    print(
        f"\nwrote {out}: accept accounting "
        f"{'ok' if summary['every_accept_resolved'] else 'BROKEN'}, "
        f"coalescing {summary['coalescing_ratio']}, warm p50 "
        f"{summary['warm_p50_s']}s, {summary['overload_rejections']} overload "
        f"rejection(s), wrong verdicts "
        f"{'none' if summary['zero_wrong_verdicts'] else 'PRESENT'}, leaks "
        f"{'none' if summary['zero_leaked_processes'] else 'LEAKED'}, traces "
        f"{'clean' if summary['traces_clean'] else 'DIRTY'}, journal recovery "
        f"{'ok' if summary['journal_recovery_ok'] else 'FAILED'}"
    )
    return all_ok


# ---------------------------------------------------------------------------
# --fleet-soak: failover soak over a primary + hot standby + router fleet
# ---------------------------------------------------------------------------

#: chaos installed in each *member*: replication-link drops and heartbeat
#: blackouts must be absorbed, not amplified
FLEET_MEMBER_RATES = "repl-link-drop=0.25,heartbeat-blackout=0.15"
#: chaos installed in the *router*: reconnect attempts sporadically refused
FLEET_ROUTER_RATES = "router-partition=0.2"
#: phase-1 sanity sweep through the router (fast, definitive designs)
FLEET_SANITY_DESIGNS = ["daio", "rcu", "fifo", "iqueue", "arbiter", "tlc"]
#: phase-2 slow queries in flight when the primary is SIGKILLed: rsim is
#: word-level only, so on the bit encoding k-induction must unroll to daio's
#: and tlc's deep bugs, which takes seconds (the ladder settles every other
#: suite query before the kill); the two keys shard to different members
FLEET_SLOW_QUERIES = [
    {"design": "daio", "representation": "bit", "bound": 96},
    {"design": "tlc", "representation": "bit", "bound": 96},
]


def _start_fleet_router(args_list: List[str]) -> "subprocess.Popen":
    import subprocess
    import sys

    return subprocess.Popen(
        [sys.executable, "-m", "repro.tools.router_cli", *args_list],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )


def _fleet_reply_gate(
    design: str, reply: Dict[str, object], wrong: List[str], unvalidated: List[str]
) -> None:
    """Classify one reply against ground truth + the certification gate."""
    if _soak_classify(design, reply) == Status.WRONG:
        wrong.append(f"{design}: {reply.get('status')}")
    if (
        str(reply.get("status")) in Status.DEFINITIVE
        and reply.get("validated") is not True
    ):
        unvalidated.append(f"{design}: validated={reply.get('validated')!r}")


def run_fleet_soak(
    seed: int, timeout: float, workdir: str
) -> Dict[str, object]:
    """Fleet failover soak: two shards, a hot standby, a router, one SIGKILL.

    Topology: member ``box-a`` (primary, ``--sync-level sync``) streams its
    journal to hot standby ``box-a2`` (same certificate cache dir); member
    ``box-b`` serves the other shard solo; a ``repro-serve-router`` fronts
    both, with ``box-a2`` registered as box-a's failover address.  All four
    run as subprocesses in their own sessions (the leak oracle) with
    member/router chaos rates installed.

    Phase 1 drives a sanity sweep and a cross-client coalescing pair
    through the router under replication-link, heartbeat-blackout and
    router-partition faults.  Phase 2 submits slow queries, waits for them
    to be accepted (sync level: the standby already holds their journal
    records), SIGKILLs the primary's whole process group mid-computation,
    and requires every accepted request to be answered exactly once by the
    promoted standby or by failover routing — zero lost, zero duplicates.
    After a graceful fleet drain the surviving members' counters must
    balance (``accepted == answered + cancelled``), every definitive
    verdict must have been certificate-validated, no process group may
    survive, and the stitched cross-box trace must lint clean.
    """
    import signal as signal_module
    import threading

    from repro.obs.export import (
        lint_trace, load_trace, stitch_traces, write_trace_document,
    )
    from repro.serve.client import ServeClient, ServeError

    sock_a = os.path.join(workdir, "a.sock")
    sock_a2 = os.path.join(workdir, "a2.sock")
    sock_b = os.path.join(workdir, "b.sock")
    sock_router = os.path.join(workdir, "router.sock")
    cache_a = os.path.join(workdir, "cache_a")
    cache_b = os.path.join(workdir, "cache_b")
    trace_a2 = os.path.join(workdir, "trace_a2.jsonl")
    trace_b = os.path.join(workdir, "trace_b.jsonl")
    trace_router = os.path.join(workdir, "trace_router.jsonl")
    stitched_path = os.path.join(workdir, "trace_fleet.jsonl")
    row: Dict[str, object] = {"seed": seed}
    deadline_s = max(120.0, timeout * 3)

    primary = _start_soak_server([
        "--socket", sock_a, "--cache-dir", cache_a,
        "--journal", os.path.join(workdir, "a.journal"),
        "--server-id", "box-a", "--sync-level", "sync",
        "--workers", "1:2", "--max-queue", "16", "--certify",
        "--default-deadline", str(deadline_s),
        "--progress-interval", "1.0",
        "--chaos", str(seed), "--chaos-rates", FLEET_MEMBER_RATES, "-q",
    ])
    standby = _start_soak_server([
        "--socket", sock_a2, "--cache-dir", cache_a,
        "--journal", os.path.join(workdir, "a2.journal"),
        "--server-id", "box-a2", "--standby-of", f"unix:{sock_a}",
        "--takeover-after", "1.5", "--trace", trace_a2,
        "--workers", "1:2", "--max-queue", "16", "--certify",
        "--default-deadline", str(deadline_s),
        "--progress-interval", "1.0", "-q",
    ])
    solo = _start_soak_server([
        "--socket", sock_b, "--cache-dir", cache_b,
        "--journal", os.path.join(workdir, "b.journal"),
        "--server-id", "box-b", "--trace", trace_b,
        "--workers", "1:2", "--max-queue", "16", "--certify",
        "--default-deadline", str(deadline_s),
        "--progress-interval", "1.0",
        "--chaos", str(seed + 1), "--chaos-rates", FLEET_MEMBER_RATES, "-q",
    ])
    pgids = {"box-a": primary.pid, "box-a2": standby.pid, "box-b": solo.pid}
    if not all(_soak_wait_socket(s) for s in (sock_a, sock_a2, sock_b)):
        for proc in (primary, standby, solo):
            proc.kill()
        row["error"] = "a fleet member never opened its socket"
        row["ok"] = False
        return row

    router = _start_fleet_router([
        "--socket", sock_router,
        "--member", f"box-a=unix:{sock_a},standby=unix:{sock_a2}",
        "--member", f"box-b=unix:{sock_b}",
        "--heartbeat-interval", "0.25", "--trace", trace_router,
        "--chaos", str(seed), "--chaos-rates", FLEET_ROUTER_RATES, "-q",
    ])
    pgids["router"] = router.pid
    if not _soak_wait_socket(sock_router):
        for proc in (primary, standby, solo, router):
            proc.kill()
        row["error"] = "router never opened its socket"
        row["ok"] = False
        return row
    time.sleep(1.0)  # let the standby subscribe and the heartbeats settle

    wrong: List[str] = []
    unvalidated: List[str] = []
    _log.verbose(f"fleet soak seed {seed}: fleet up (router pid {router.pid})")

    # ----- phase 1: sanity sweep + cross-client coalescing under chaos ---
    progress_frames: List[str] = []
    with ServeClient(socket_path=sock_router, timeout=deadline_s) as client:
        client.on_progress = lambda frame: progress_frames.append(
            str(frame.get("kind"))
        )
        for design in FLEET_SANITY_DESIGNS:
            reply = client.verify(
                design=design, representation="word", bound=64,
                deadline_s=deadline_s,
            )
            _fleet_reply_gate(design, reply, wrong, unvalidated)

    barrier = threading.Barrier(2)
    pair_replies: List[Dict[str, object]] = []
    pair_lock = threading.Lock()

    def pair_client() -> None:
        with ServeClient(socket_path=sock_router, timeout=deadline_s) as c:
            barrier.wait()
            accepted = c.submit(
                {"design": "barrel16", "representation": "word", "bound": 80,
                 "deadline_s": deadline_s}
            )
            reply = c.result(accepted["id"])
            with pair_lock:
                pair_replies.append(reply)

    pair_threads = [threading.Thread(target=pair_client) for _ in range(2)]
    for thread in pair_threads:
        thread.start()
    for thread in pair_threads:
        thread.join(timeout=deadline_s)
    for reply in pair_replies:
        _fleet_reply_gate("barrel16", reply, wrong, unvalidated)
    with ServeClient(socket_path=sock_router, timeout=30.0) as client:
        router_status_mid = client.status()
    row["phase1"] = {
        "sanity_queries": len(FLEET_SANITY_DESIGNS),
        "pair_replies": len(pair_replies),
        "router_coalesced": router_status_mid["counters"]["coalesced"],
        "progress_frames_seen": len(progress_frames),
        "progress_kinds": sorted(set(progress_frames)),
        "ok": (
            len(pair_replies) == 2
            and len(progress_frames) >= 1
        ),
    }
    _log.verbose("fleet soak: phase 1 done")

    # ----- phase 2: SIGKILL the primary mid-computation ------------------
    killed_row: Dict[str, object] = {}
    results: Dict[str, Dict[str, object]] = {}
    result_lock = threading.Lock()
    submit_client = ServeClient(socket_path=sock_router, timeout=deadline_s)
    submitted: List[Tuple[str, str]] = []  # (design, request id)
    accepted_members: List[str] = []
    for query in FLEET_SLOW_QUERIES:
        accepted = submit_client.submit(dict(query, deadline_s=deadline_s))
        submitted.append((str(query["design"]), accepted["id"]))
        accepted_members.append(str(accepted.get("member", "?")))
    time.sleep(0.6)  # let the computations start on the primary
    try:
        os.killpg(pgids["box-a"], signal_module.SIGKILL)
    except ProcessLookupError:
        pass
    primary.wait(timeout=30)  # reap: a zombie would fool the leak oracle
    kill_t0 = time.monotonic()

    def read_result(design: str, request_id: str) -> None:
        reply = submit_client.result(request_id)
        with result_lock:
            results[request_id] = dict(reply, _design=design)

    # results come back in completion order on the one connection; read
    # them sequentially (the client parks out-of-order frames by id)
    reader_errors: List[str] = []
    for design, request_id in submitted:
        try:
            read_result(design, request_id)
        except (ServeError, OSError) as error:
            reader_errors.append(f"{request_id}: {error}")
    failover_wall = time.monotonic() - kill_t0
    submit_client.close()
    for reply in results.values():
        _fleet_reply_gate(str(reply["_design"]), reply, wrong, unvalidated)
    killed_row["submitted"] = len(submitted)
    killed_row["answered"] = len(results)
    killed_row["routed_to"] = sorted(set(accepted_members))
    killed_row["reader_errors"] = reader_errors
    killed_row["failover_wall_s"] = round(failover_wall, 3)
    killed_row["client_reconnects"] = submit_client.reconnects
    killed_row["zero_lost"] = len(results) == len(submitted)
    killed_row["zero_duplicates"] = len(results) == len(
        {rid for _, rid in submitted}
    )
    killed_row["primary_group_gone"] = _soak_group_gone(pgids["box-a"])
    killed_row["ok"] = (
        killed_row["zero_lost"]
        and killed_row["zero_duplicates"]
        and not reader_errors
        and killed_row["primary_group_gone"]
    )
    row["phase2_kill"] = killed_row
    _log.verbose(
        f"fleet soak: phase 2 done ({len(results)}/{len(submitted)} answered "
        f"{failover_wall:.1f}s after SIGKILL)"
    )

    # ----- drain: accounting on the survivors, then shut the fleet down --
    member_counters: Dict[str, Dict[str, object]] = {}
    accounting_ok = True
    takeover_seen = False
    for name, sock in (("box-a2", sock_a2), ("box-b", sock_b)):
        try:
            with ServeClient(
                socket_path=sock, timeout=30.0, reconnect=False
            ) as client:
                status = client.status()
                client.drain()
        except (ServeError, OSError) as error:
            member_counters[name] = {"error": str(error)}
            accounting_ok = False
            continue
        counters = status["counters"]
        member_counters[name] = {
            "role": status.get("role"),
            "accepted": counters["accepted"],
            "answered": counters["answered"],
            "cancelled": counters["cancelled"],
            "takeovers": counters.get("takeovers", 0),
            "takeover_requeued": counters.get("takeover_requeued", 0),
            "wedged_kills": counters.get("wedged_kills", 0),
            "heartbeats": counters.get("heartbeats", 0),
            "heartbeats_blacked_out": counters.get("heartbeats_blacked_out", 0),
            "repl_link_drops": (status.get("replication") or {}).get(
                "link_drops", 0
            ),
            "balanced": counters["accepted"]
            == counters["answered"] + counters["cancelled"],
        }
        accounting_ok = accounting_ok and bool(
            member_counters[name]["balanced"]
        )
        if counters.get("takeovers"):
            takeover_seen = True
    row["members"] = member_counters
    row["accounting_ok"] = accounting_ok
    row["takeover_seen"] = takeover_seen

    try:
        with ServeClient(
            socket_path=sock_router, timeout=30.0, reconnect=False
        ) as client:
            router_final = client.status()
            client.drain()
        row["router"] = {
            "counters": router_final["counters"],
            "members": [
                {k: m[k] for k in ("name", "healthy", "connects", "partitions",
                                   "resubmitted")}
                for m in router_final["members"]
            ],
        }
    except (ServeError, OSError) as error:
        row["router"] = {"error": str(error)}

    exits = {}
    for name, proc in (("box-a2", standby), ("box-b", solo), ("router", router)):
        try:
            exits[name] = proc.wait(timeout=deadline_s)
        except Exception:  # noqa: BLE001 - timeout: count it as a leak
            proc.kill()
            exits[name] = None
    row["drain_exit_codes"] = exits
    leaks = {
        name: not _soak_group_gone(pgid) for name, pgid in pgids.items()
    }
    row["leaked_groups"] = {name: leaked for name, leaked in leaks.items() if leaked}
    zero_leaks = not row["leaked_groups"]

    # ----- stitch the surviving boxes' traces and lint the union ---------
    stitch_row: Dict[str, object] = {}
    try:
        traces = [load_trace(p) for p in (trace_a2, trace_b, trace_router)]
        stitched = stitch_traces(traces)
        write_trace_document(stitched, stitched_path)
        problems = lint_trace(stitched)
        fleet_roots = sum(
            1 for span in stitched.spans if span.get("name") == "fleet.request"
        )
        stitch_row = {
            "traces": 3,
            "spans": len(stitched.spans),
            "cross_box_requests": fleet_roots,
            "problems": problems,
            "ok": not problems and fleet_roots >= 1,
        }
    except (OSError, ValueError) as error:
        stitch_row = {"error": str(error), "ok": False}
    row["stitched_trace"] = stitch_row
    row["_stitched_path"] = stitched_path

    row["wrong_verdicts"] = wrong
    row["unvalidated_verdicts"] = unvalidated
    row["ok"] = (
        bool(row["phase1"]["ok"])
        and bool(killed_row.get("ok"))
        and accounting_ok
        and takeover_seen
        and zero_leaks
        and bool(stitch_row.get("ok"))
        and exits.get("box-a2") == 0
        and exits.get("box-b") == 0
        and exits.get("router") == 0
        and not wrong
        and not unvalidated
    )
    _log.info(
        f"fleet soak seed {seed}: "
        f"{killed_row.get('answered', 0)}/{killed_row.get('submitted', 0)} "
        f"answered after SIGKILL ({killed_row.get('failover_wall_s', '?')}s), "
        f"takeover {'seen' if takeover_seen else 'MISSING'}, "
        f"accounting {'ok' if accounting_ok else 'BROKEN'}, "
        f"leaks {'none' if zero_leaks else 'PRESENT'}, "
        f"stitched trace {'clean' if stitch_row.get('ok') else 'DIRTY'}, "
        f"{'OK' if row['ok'] else 'FAILED'}"
    )
    return row


def write_fleet_report(
    soak: Dict[str, object], out: str, timeout: float, trace_out: Optional[str]
) -> bool:
    """Write ``BENCH_fleet.json``; True when every fleet gate held."""
    stitched_path = soak.pop("_stitched_path", None)
    all_ok = bool(soak.get("ok"))
    report = {
        "config": {
            "mode": "fleet-soak",
            "cpus": os.cpu_count(),
            "timeout_s": timeout,
            "seed": soak.get("seed"),
            "member_chaos_rates": FLEET_MEMBER_RATES,
            "router_chaos_rates": FLEET_ROUTER_RATES,
            "python": platform.python_version(),
        },
        "tool": "repro.tools.bench --fleet-soak",
        "soak": soak,
        "summary": {
            "failover_zero_lost": bool(
                soak.get("phase2_kill", {}).get("zero_lost")
            ),
            "failover_zero_duplicates": bool(
                soak.get("phase2_kill", {}).get("zero_duplicates")
            ),
            "failover_wall_s": soak.get("phase2_kill", {}).get(
                "failover_wall_s"
            ),
            "takeover_seen": bool(soak.get("takeover_seen")),
            "fleet_accounting_ok": bool(soak.get("accounting_ok")),
            "zero_wrong_verdicts": not soak.get("wrong_verdicts"),
            "all_verdicts_certificate_validated": not soak.get(
                "unvalidated_verdicts"
            ),
            "zero_leaked_process_groups": not soak.get("leaked_groups"),
            "stitched_trace_clean": bool(
                soak.get("stitched_trace", {}).get("ok")
            ),
            "cross_box_requests_stitched": soak.get("stitched_trace", {}).get(
                "cross_box_requests"
            ),
            "all_ok": all_ok,
        },
    }
    write_json_atomic(out, report)
    if (
        trace_out
        and isinstance(stitched_path, str)
        and os.path.exists(stitched_path)
    ):
        import shutil

        shutil.copyfile(stitched_path, trace_out)
        print(f"stitched fleet trace copied to {trace_out}")
    summary = report["summary"]
    print(
        f"\nwrote {out}: failover "
        f"{'zero-lost' if summary['failover_zero_lost'] else 'LOST REQUESTS'}/"
        f"{'zero-dup' if summary['failover_zero_duplicates'] else 'DUPLICATES'} "
        f"in {summary['failover_wall_s']}s, takeover "
        f"{'seen' if summary['takeover_seen'] else 'MISSING'}, accounting "
        f"{'ok' if summary['fleet_accounting_ok'] else 'BROKEN'}, verdicts "
        f"{'validated' if summary['all_verdicts_certificate_validated'] else 'UNVALIDATED'}, "
        f"leaks {'none' if summary['zero_leaked_process_groups'] else 'LEAKED'}, "
        f"stitched trace "
        f"{'clean' if summary['stitched_trace_clean'] else 'DIRTY'}"
    )
    return all_ok


# ---------------------------------------------------------------------------
# --kernels: the raw-speed replay tiers (scalar / packed / compiled)
# ---------------------------------------------------------------------------


def _random_workload(system, cycles: int, lanes: int, seed: int = 2016):
    """``lanes`` independent random input sequences of ``cycles`` cycles."""
    import random as random_module

    rng = random_module.Random(seed)
    return [
        [
            {name: rng.getrandbits(width) for name, width in system.inputs.items()}
            for _ in range(cycles)
        ]
        for _ in range(lanes)
    ]


def run_kernels_section(
    names: List[str], cycles: int, lanes: int, repeats: int = 3
) -> List[Dict]:
    """Time the three replay tiers per design on one identical random workload.

    Methodology: the workload is ``lanes`` independent input sequences of
    ``cycles`` cycles each.  Input marshalling (packing bit planes, flattening
    the C input array) happens once *outside* the timed region, so the numbers
    compare steady-state stepping throughput — the regime that matters for the
    rsim falsifier and bulk witness replay, where one packing is amortized
    over many runs.  The scalar tier steps every sequence through the
    reference :class:`~repro.netlist.simulate.Simulator`; the packed tier runs
    all ``lanes`` sequences in one bit-parallel pass; the compiled tier runs
    the C replay loop once per sequence.  The scalar tier is timed once and
    the fast tiers keep their best of ``repeats`` runs, which only ever
    *understates* the reported speedups.

    Each row also records a verdict-agreement check: a sample of the
    sequences is replayed through :func:`repro.kernels.checked_replay` (the
    production tier ladder) and through the pure scalar reference, and the
    (first violation cycle, property) pairs must match exactly.
    """
    from repro.kernels import _scalar_replay, checked_replay, get_kernel
    from repro.kernels.build import KernelUnavailable, compiler_available
    from repro.netlist.bitsim import PackedSimulator, pack_values
    from repro.netlist.simulate import Simulator

    rows: List[Dict] = []
    for name in names:
        system = get_benchmark(name).load()
        sequences = _random_workload(system, cycles, lanes)

        start = time.perf_counter()
        for sequence in sequences:
            Simulator(system).run(sequence, stop_on_violation=False)
        scalar_s = time.perf_counter() - start

        packed = PackedSimulator(system, lanes=lanes)
        planes = [
            {
                input_name: pack_values(
                    [sequence[cycle][input_name] for sequence in sequences], width
                )
                for input_name, width in system.inputs.items()
            }
            for cycle in range(cycles)
        ]
        packed_s = min(
            _timed(lambda: packed.run(planes, stop_on_violation=False, record=False))
            for _ in range(repeats)
        )

        kernel_s = None
        kernel_error = ""
        if compiler_available():
            try:
                kernel = get_kernel(system)
                import ctypes

                n_regs = max(1, len(kernel.register_order))
                flats = [kernel._pack_inputs(sequence) for sequence in sequences]

                def _kernel_pass():
                    state = (ctypes.c_uint64 * n_regs)()
                    for flat in flats:
                        kernel._kinit(state)
                        kernel._kreplay(state, flat, cycles, 0, None)

                kernel_s = min(_timed(_kernel_pass) for _ in range(repeats))
            except KernelUnavailable as error:
                kernel_error = str(error)

        backend = None
        verdicts_agree = True
        demotions: List[str] = []
        for sequence in sequences[: min(4, lanes)]:
            reference = _scalar_replay(system, sequence)
            outcome = checked_replay(system, sequence)
            backend = outcome.backend
            demotions.extend(outcome.demotions)
            if (outcome.first_violation, outcome.violated_property) != (
                reference.first_violation,
                reference.violated_property,
            ):
                verdicts_agree = False

        row = {
            "design": name,
            "cycles": cycles,
            "lanes": lanes,
            "scalar_s": round(scalar_s, 6),
            "packed_s": round(packed_s, 6),
            "kernel_s": round(kernel_s, 6) if kernel_s is not None else None,
            "packed_speedup": round(scalar_s / packed_s, 2) if packed_s else None,
            "kernel_speedup_vs_packed": (
                round(packed_s / kernel_s, 2) if kernel_s else None
            ),
            "checked_replay_backend": backend,
            "demotions": demotions,
            "verdicts_agree": verdicts_agree,
        }
        if kernel_error:
            row["kernel_error"] = kernel_error
        rows.append(row)
        kernel_note = (
            f"kernel {row['kernel_speedup_vs_packed']}x packed"
            if kernel_s
            else "kernel unavailable"
        )
        _log.info(
            f"kernels {name:14s} scalar {scalar_s:8.3f}s  packed "
            f"{packed_s:8.4f}s ({row['packed_speedup']}x)  {kernel_note}  "
            f"verdicts {'agree' if verdicts_agree else 'DIVERGE'}"
        )
    return rows


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def run_kernels_rsim_section(names: List[str], timeout: float) -> List[Dict]:
    """Run the rsim falsifier on the suite's unsafe designs, validating witnesses.

    The witness validation deliberately uses the packed replay backend so the
    bench also exercises the validator's ``replay-crosscheck`` obligation.
    """
    from repro.engines.rsim import RandomSimulationEngine

    rows: List[Dict] = []
    for name in names:
        benchmark = get_benchmark(name)
        if benchmark.expected != Status.UNSAFE:
            continue
        system = benchmark.load()
        start = time.perf_counter()
        result = RandomSimulationEngine(system).verify(timeout=timeout)
        wall = time.perf_counter() - start
        validated = False
        if result.status == Status.UNSAFE and result.certificate is not None:
            validation = validate_result(system, result, replay_backend="packed")
            validated = validation.ok
        row = {
            "design": name,
            "status": str(result.status),
            "wall_s": round(wall, 6),
            "violation_cycle": result.detail.get("violation_cycle"),
            "vectors": result.detail.get("vectors"),
            "witness_validated_packed": validated,
            "found_and_validated": result.status == Status.UNSAFE and validated,
        }
        rows.append(row)
        _log.info(
            f"rsim    {name:14s} {result.status:8s} in {wall:.3f}s "
            f"(cycle {row['violation_cycle']}, {row['vectors']} vectors), "
            f"witness {'validated' if validated else 'NOT VALIDATED'}"
        )
    return rows


def write_kernels_report(
    tier_rows: List[Dict],
    rsim_rows: List[Dict],
    out: str,
    cycles: int,
    lanes: int,
    packed_gate: float,
    kernel_gate: float,
) -> bool:
    from repro.kernels.build import find_compiler

    compiler = find_compiler()
    packed_hits = sum(
        1
        for row in tier_rows
        if row["packed_speedup"] is not None and row["packed_speedup"] >= packed_gate
    )
    kernel_hits = sum(
        1
        for row in tier_rows
        if row["kernel_speedup_vs_packed"] is not None
        and row["kernel_speedup_vs_packed"] >= kernel_gate
    )
    all_agree = all(row["verdicts_agree"] for row in tier_rows)
    rsim_ok = all(row["found_and_validated"] for row in rsim_rows) and bool(rsim_rows)
    # with no compiler the kernel tier is legitimately absent and its gate is
    # waived — the degradation itself is what the no-cc CI leg checks
    kernel_gate_waived = compiler is None
    gates = {
        "packed_gate": {
            "threshold": packed_gate,
            "designs_at_or_above": packed_hits,
            "required": 3,
            "ok": packed_hits >= 3,
        },
        "kernel_gate": {
            "threshold": kernel_gate,
            "designs_at_or_above": kernel_hits,
            "required": 3,
            "waived_no_compiler": kernel_gate_waived,
            "ok": kernel_gate_waived or kernel_hits >= 3,
        },
        "verdict_agreement": {"ok": all_agree},
        "rsim_falsification": {"ok": rsim_ok},
    }
    all_ok = all(gate["ok"] for gate in gates.values())
    report = {
        "config": {
            "mode": "kernels",
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cycles": cycles,
            "lanes": lanes,
            "compiler": " ".join(compiler) if compiler else None,
        },
        # "kernel_tiers", not "sweeps"/"portfolio"/...: learn_priors reads
        # those keys from every report it gets and these rows are not engine runs
        "kernel_tiers": tier_rows,
        "rsim_falsification": rsim_rows,
        "summary": {
            "designs": len(tier_rows),
            "packed_designs_at_gate": packed_hits,
            "kernel_designs_at_gate": kernel_hits if not kernel_gate_waived else None,
            "all_verdicts_agree": all_agree,
            "rsim_bugs_found": sum(
                1 for row in rsim_rows if row["status"] == Status.UNSAFE
            ),
            "rsim_all_validated": rsim_ok,
            "gates": gates,
            "all_ok": all_ok,
        },
    }
    write_json_atomic(out, report)
    summary = report["summary"]
    print(
        f"\nwrote {out}: packed >= {packed_gate:g}x on "
        f"{packed_hits}/{len(tier_rows)} designs, kernel >= {kernel_gate:g}x "
        f"packed on {kernel_hits}/{len(tier_rows)}"
        f"{' (gate waived: no compiler)' if kernel_gate_waived else ''}, "
        f"verdicts {'all agree' if all_agree else 'DIVERGE'}, rsim "
        f"{summary['rsim_bugs_found']} bug(s) "
        f"{'validated' if rsim_ok else 'NOT VALIDATED'} -> "
        f"{'OK' if all_ok else 'FAILED'}"
    )
    return all_ok


# ---------------------------------------------------------------------------
# observability mode: telemetry overhead gates (--obs)
# ---------------------------------------------------------------------------

#: designs for the enabled-vs-disabled overhead sweeps (small and fast, so
#: the telemetry fraction of the wall is as visible as it ever gets)
DEFAULT_OBS_BENCHMARKS = ["daio", "tlc", "proc3", "rcu", "buffalloc", "arbiter"]


def _obs_noop_costs(iterations: int = 200_000) -> Dict[str, float]:
    """Per-call cost (ns) of the disabled telemetry API: the no-op tax."""
    assert _telemetry.get_recorder() is None, "micro-benchmark needs telemetry off"
    t0 = time.perf_counter()
    for _ in range(iterations):
        with _telemetry.span("bench.noop"):
            pass
    span_ns = (time.perf_counter() - t0) / iterations * 1e9
    t0 = time.perf_counter()
    for _ in range(iterations):
        _telemetry.counter("bench.noop")
    counter_ns = (time.perf_counter() - t0) / iterations * 1e9
    return {
        "iterations": iterations,
        "span_ns": round(span_ns, 2),
        "counter_ns": round(counter_ns, 2),
    }


def run_obs_section(
    names: List[str],
    bound: int,
    timeout: float,
    jobs: Optional[int],
    trace_out: str,
) -> Dict[str, object]:
    """Sweep the suite with telemetry off and on; measure what tracing costs.

    The *same* batch sweep (sequential ladder per item, warm pool, no cache
    so every item really runs) is timed twice: once with the recorder
    disabled — the shipping default — and once recording, with the full
    cross-process trace assembled, exported to ``trace_out`` and linted.
    A micro-benchmark prices the disabled no-op calls so the report can
    bound the tax telemetry puts on users who never turn it on.
    """
    from repro.engines.batch import BatchItem, BatchRunner
    from repro.obs.export import lint_trace, load_trace, summarize_trace, write_trace

    noop = _obs_noop_costs()

    def sweep() -> Tuple[float, object]:
        runner = BatchRunner(jobs=jobs, timeout=timeout, bound=bound)
        t0 = time.monotonic()
        report = runner.run([BatchItem.benchmark(name) for name in names])
        return time.monotonic() - t0, report

    disabled_wall, disabled_report = sweep()
    _log.info(
        f"obs  disabled sweep: {len(disabled_report.items)} items "
        f"in {disabled_wall:.3f}s"
    )

    with _telemetry.recording() as recorder:
        enabled_wall, enabled_report = sweep()
        write_trace(
            recorder,
            trace_out,
            meta={"tool": "repro.tools.bench", "mode": "obs", "designs": names},
        )
    _log.info(
        f"obs  enabled sweep:  {len(enabled_report.items)} items "
        f"in {enabled_wall:.3f}s -> {trace_out}"
    )

    trace = load_trace(trace_out)
    problems = lint_trace(trace)
    rollup = summarize_trace(trace, top=10)
    # price the disabled mode: every span the enabled run recorded is one
    # no-op span call (plus its counter bumps) the disabled run paid for
    counter_bumps = len(trace.counters)
    estimated_noop_s = (
        len(trace.spans) * noop["span_ns"] + counter_bumps * noop["counter_ns"]
    ) / 1e9
    return {
        "designs": names,
        "noop_costs": noop,
        "disabled": {
            "wall_s": round(disabled_wall, 6),
            "verdicts": {
                f"{d}:{p}": status
                for (d, p), status in disabled_report.verdicts().items()
            },
        },
        "enabled": {
            "wall_s": round(enabled_wall, 6),
            "verdicts": {
                f"{d}:{p}": status
                for (d, p), status in enabled_report.verdicts().items()
            },
            "trace": trace_out,
            "spans": len(trace.spans),
            "processes": rollup["processes"],
            "dropped_spans": trace.header.get("dropped_spans", 0),
            "lint_problems": problems,
            "rollup": rollup,
        },
        "estimated_disabled_overhead_s": round(estimated_noop_s, 6),
    }


def write_obs_report(
    section: Dict[str, object], out: str, bound: int, timeout: float
) -> bool:
    disabled = section["disabled"]
    enabled = section["enabled"]
    disabled_wall = disabled["wall_s"]
    enabled_wall = enabled["wall_s"]
    # 0.5s absolute slack keeps the ratio gate meaningful on fast suites
    # where scheduler jitter alone exceeds 10% of the wall
    enabled_ok = enabled_wall <= disabled_wall * 1.10 + 0.5
    overhead = section["estimated_disabled_overhead_s"]
    disabled_ok = overhead <= max(disabled_wall, 1e-9) * 0.01
    lint_ok = not enabled["lint_problems"]
    verdicts_ok = disabled["verdicts"] == enabled["verdicts"]
    gates = {
        "enabled_overhead": {
            "enabled_wall_s": enabled_wall,
            "disabled_wall_s": disabled_wall,
            "max_ratio": 1.10,
            "ok": enabled_ok,
        },
        "disabled_overhead": {
            "estimated_s": overhead,
            "max_fraction": 0.01,
            "ok": disabled_ok,
        },
        "trace_lint": {"problems": enabled["lint_problems"], "ok": lint_ok},
        "verdict_agreement": {"ok": verdicts_ok},
    }
    all_ok = all(gate["ok"] for gate in gates.values())
    report = {
        "config": {
            "mode": "obs",
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "bound": bound,
            "timeout_s": timeout,
        },
        "obs": section,
        "summary": {
            "designs": len(section["designs"]),
            "spans_recorded": enabled["spans"],
            "processes": enabled["processes"],
            "enabled_vs_disabled": (
                round(enabled_wall / disabled_wall, 4) if disabled_wall else None
            ),
            "gates": gates,
            "all_ok": all_ok,
        },
    }
    write_json_atomic(out, report)
    ratio = report["summary"]["enabled_vs_disabled"]
    print(
        f"\nwrote {out}: enabled {enabled_wall:.3f}s vs disabled "
        f"{disabled_wall:.3f}s ({ratio}x), {enabled['spans']} spans across "
        f"{enabled['processes']} process(es), "
        f"lint {'clean' if lint_ok else 'PROBLEMS'}, "
        f"verdicts {'agree' if verdicts_ok else 'DIVERGE'}, "
        f"disabled tax ~{overhead * 1e3:.2f}ms -> "
        f"{'OK' if all_ok else 'FAILED'}"
    )
    return all_ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="run one correctness gate or measurement over the "
                    "benchmark suite (pick exactly one mode)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default: the mode's BENCH_*.json)",
    )
    parser.add_argument(
        "--depth", type=int, default=80,
        help="search-depth cap routed to each engine (default 80, so the "
             "cycle-64/65 bugs of the unsafe designs stay reachable)",
    )
    parser.add_argument(
        "--portfolio", action="store_true",
        help="portfolio mode: race the portfolio against individually timed engines",
    )
    parser.add_argument(
        "--certify", action="store_true",
        help="certification mode: validate every definitive verdict's certificate "
             "on the benchmark suite and demo cross-check adjudication",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="serving mode: cold/warm cache sweeps over the suite through the "
             "batch runner, the in-process budget ladder vs the all-at-once "
             "portfolio race, and SAFE-certificate minimization timings",
    )
    parser.add_argument(
        "--faults", action="store_true",
        help="chaos mode: seeded fault-injection sweeps through the "
             "supervised batch runner, gating on zero wrong verdicts, zero "
             "leaked processes, and self-healing caches",
    )
    parser.add_argument(
        "--serve-soak", action="store_true",
        help="server soak mode: drive a live chaos-seeded repro-serve "
             "through coalescing, flood, disconnect, deadline, SIGKILL and "
             "journal-recovery scenarios; gates on every accept being "
             "answered-or-cleanly-rejected with zero wrong verdicts, zero "
             "leaked processes and clean traces",
    )
    parser.add_argument(
        "--fleet-soak", action="store_true",
        help="fleet failover soak: primary + journal-replicated hot standby "
             "+ solo shard behind a repro-serve-router, SIGKILL the primary "
             "mid-computation; gates on zero lost / zero duplicate replies, "
             "fleet-wide accept accounting, certificate-validated verdicts, "
             "zero leaked process groups and a clean stitched cross-box "
             "trace",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="--serve-soak/--fleet-soak: chaos seed (default 0)",
    )
    parser.add_argument(
        "--seeds", type=int, default=3,
        help="--faults: number of seeded chaos sweeps (seeds 0..N-1)",
    )
    parser.add_argument(
        "--obs", action="store_true",
        help="observability mode: sweep the suite with telemetry disabled and "
             "enabled, lint the exported trace, and gate the recording "
             "overhead (enabled <= 1.10x disabled wall; disabled no-op tax "
             "<= 1%% of the sweep)",
    )
    parser.add_argument(
        "--trace-out", default=None,
        help="--obs: path for the exported trace "
             "(default BENCH_obs_trace.jsonl)",
    )
    parser.add_argument(
        "--kernels", action="store_true",
        help="raw-speed mode: time the scalar / bit-parallel packed / "
             "compiled-C replay tiers on identical random workloads, check "
             "tier verdict agreement, and run the rsim falsifier on the "
             "unsafe designs with packed-replay witness validation",
    )
    parser.add_argument(
        "--cycles", type=int, default=64,
        help="--kernels: cycles per replay sequence (default 64)",
    )
    parser.add_argument(
        "--lanes", type=int, default=64,
        help="--kernels: parallel sequences / packed lanes (default 64)",
    )
    parser.add_argument(
        "--packed-gate", type=float, default=20.0,
        help="--kernels: required packed-vs-scalar speedup on >= 3 designs "
             "(default 20)",
    )
    parser.add_argument(
        "--kernel-gate", type=float, default=5.0,
        help="--kernels: required compiled-vs-packed speedup on >= 3 designs "
             "(default 5; waived when no C compiler is available)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="portfolio worker-process cap (default: one per configuration)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="--serve: certificate cache directory (default: a fresh "
             "temporary directory, so the first sweep is genuinely cold)",
    )
    parser.add_argument(
        "--benchmarks", nargs="*", default=None,
        help="suite designs to run (default: the mode's own selection)",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0, help="per engine-run timeout (s)"
    )
    _log.add_verbosity_flags(parser)
    args = parser.parse_args(argv)
    _log.configure_from_args(args)

    modes = (
        args.portfolio, args.certify, args.serve, args.faults,
        args.serve_soak, args.fleet_soak, args.kernels, args.obs,
    )
    if sum(map(bool, modes)) != 1:
        parser.error(
            "pick exactly one mode: --portfolio, --certify, --serve, --faults, "
            "--serve-soak, --fleet-soak, --kernels or --obs"
        )

    if args.fleet_soak:
        import tempfile

        workdir = tempfile.mkdtemp(prefix="repro-fleet-", dir="/tmp")
        soak = run_fleet_soak(args.seed, args.timeout, workdir)
        out = args.out or "BENCH_fleet.json"
        trace_out = args.trace_out or "BENCH_fleet_trace.jsonl"
        return 0 if write_fleet_report(soak, out, args.timeout, trace_out) else 1

    if args.serve_soak:
        import tempfile

        workdir = tempfile.mkdtemp(prefix="repro-soak-", dir="/tmp")
        soak = run_serve_soak(args.seed, args.timeout, workdir)
        out = args.out or "BENCH_server.json"
        trace_out = args.trace_out or "BENCH_server_trace.jsonl"
        return 0 if write_server_report(soak, out, args.timeout, trace_out) else 1

    if args.obs:
        names = args.benchmarks if args.benchmarks else DEFAULT_OBS_BENCHMARKS
        unknown = [n for n in names if n not in benchmark_names()]
        if unknown:
            parser.error(f"unknown benchmarks: {', '.join(unknown)}")
        trace_out = args.trace_out or "BENCH_obs_trace.jsonl"
        section = run_obs_section(names, args.depth, args.timeout, args.jobs, trace_out)
        out = args.out or "BENCH_obs.json"
        return 0 if write_obs_report(section, out, args.depth, args.timeout) else 1

    if args.kernels:
        names = args.benchmarks if args.benchmarks else benchmark_names()
        unknown = [n for n in names if n not in benchmark_names()]
        if unknown:
            parser.error(f"unknown benchmarks: {', '.join(unknown)}")
        if args.cycles < 1 or args.lanes < 1:
            parser.error("--cycles and --lanes must be >= 1")
        tier_rows = run_kernels_section(names, args.cycles, args.lanes)
        rsim_rows = run_kernels_rsim_section(names, args.timeout)
        out = args.out or "BENCH_kernels.json"
        return (
            0
            if write_kernels_report(
                tier_rows, rsim_rows, out, args.cycles, args.lanes,
                args.packed_gate, args.kernel_gate,
            )
            else 1
        )

    if args.faults:
        names = args.benchmarks if args.benchmarks else DEFAULT_FAULTS_BENCHMARKS
        unknown = [n for n in names if n not in benchmark_names()]
        if unknown:
            parser.error(f"unknown benchmarks: {', '.join(unknown)}")
        if args.seeds < 1:
            parser.error("--seeds must be >= 1")
        import tempfile

        sweeps = []
        for seed in range(args.seeds):
            cache_dir = (
                os.path.join(args.cache_dir, f"seed{seed}")
                if args.cache_dir is not None
                else tempfile.mkdtemp(prefix=f"repro-chaos-cache-{seed}-")
            )
            sweeps.append(
                run_chaos_sweep(
                    seed, names, args.depth, args.timeout, args.jobs, cache_dir
                )
            )
        hang_demo = run_hang_interrupt_demo(args.timeout)
        out = args.out or "BENCH_faults.json"
        return (
            0
            if write_faults_report(sweeps, hang_demo, out, args.depth, args.timeout)
            else 1
        )

    if args.serve:
        names = args.benchmarks if args.benchmarks else benchmark_names()
        unknown = [n for n in names if n not in benchmark_names()]
        if unknown:
            parser.error(f"unknown benchmarks: {', '.join(unknown)}")
        if args.cache_dir is not None:
            cache_dir = args.cache_dir
        else:
            import tempfile

            cache_dir = tempfile.mkdtemp(prefix="repro-serve-cache-")
        sweep_data = run_serve_sweeps(
            names, args.depth, args.timeout, args.jobs, cache_dir
        )
        ladder_names = [
            n for n in DEFAULT_LADDER_BENCHMARKS if n in names
        ] or names[:4]
        ladder_rows = run_ladder_section(
            ladder_names, args.depth, args.timeout, args.jobs
        )
        minimize_cases = [
            (n, engine) for n, engine in DEFAULT_MINIMIZE_CASES if n in names
        ] or [(n, "pdr") for n in names[:4]]
        minimize_rows = run_minimization_section(minimize_cases, args.timeout)
        out = args.out or "BENCH_serve.json"
        return (
            0
            if write_serve_report(
                sweep_data, ladder_rows, minimize_rows, out, args.depth, args.timeout
            )
            else 1
        )

    if args.portfolio:
        names = args.benchmarks if args.benchmarks else DEFAULT_PORTFOLIO_BENCHMARKS
        unknown = [n for n in names if n not in benchmark_names()]
        if unknown:
            parser.error(f"unknown benchmarks: {', '.join(unknown)}")
        rows = run_portfolio_section(names, args.depth, args.timeout, jobs=args.jobs)
        out = args.out or "BENCH_portfolio.json"
        return 0 if write_portfolio_report(rows, out, args.depth, args.timeout) else 1

    # the one mode left: --certify
    names = args.benchmarks if args.benchmarks else benchmark_names()
    unknown = [n for n in names if n not in benchmark_names()]
    if unknown:
        parser.error(f"unknown benchmarks: {', '.join(unknown)}")
    rows = run_certify_section(names, args.depth, args.timeout)
    # inject the liar on the first unsafe design (fallback: the first)
    demo_design = next(
        (n for n in names if get_benchmark(n).expected == Status.UNSAFE), names[0]
    )
    adjudication = run_adjudication_demo(demo_design, args.depth, args.timeout)
    out = args.out or "BENCH_certify.json"
    return 0 if write_certify_report(rows, adjudication, out, args.depth, args.timeout) else 1


if __name__ == "__main__":
    raise SystemExit(main())
