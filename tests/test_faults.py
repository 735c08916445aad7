"""Fault injection, supervised retries, deadlines, and the self-healing cache."""

import json
import multiprocessing
import os
import time

import pytest

from repro.benchmarks import get_benchmark
from repro.cache import QUARANTINE_DIR, ResultCache
from repro.engines import Status, VerificationTask, make_engine
from repro.engines.batch import BatchItem, BatchRunner, _accept_definitive
from repro.engines.ladder import PortfolioConfig, learn_priors
from repro.engines.portfolio import PortfolioRunner
from repro.engines.result import VerificationResult
from repro.engines.supervision import WorkerSupervisor
from repro.faults import (
    CERT_FORGE,
    HANG,
    HANG_HARD,
    SPAWN_FAIL,
    WORKER_KILL,
    FaultPlan,
    plan_installed,
)
from repro.faults import injection
from repro.jsonio import write_json_atomic, write_text_atomic
from repro.sat.solver import Solver


# ---------------------------------------------------------------------------
# the fault plan: deterministic, seeded, attempt-gated
# ---------------------------------------------------------------------------


def test_fault_plan_draws_are_deterministic():
    keys = [f"design{i}:bmc:p" for i in range(200)]
    a = FaultPlan(seed=7, rates={"crash": 0.3})
    b = FaultPlan(seed=7, rates={"crash": 0.3})
    assert [a.decide("crash", k) for k in keys] == [b.decide("crash", k) for k in keys]
    fired = sum(1 for k in keys if FaultPlan(seed=7, rates={"crash": 0.3}).decide("crash", k))
    assert 20 <= fired <= 120  # ~30% of 200, loosely
    other = [FaultPlan(seed=8, rates={"crash": 0.3}).decide("crash", k) for k in keys]
    assert other != [a.decide("crash", k) for k in keys]


def test_fault_plan_rate_edges_and_attempt_gate():
    plan = FaultPlan(seed=0, rates={"crash": 1.0})
    assert plan.decide("crash", "x", attempt=0)
    # first_attempt_only (the default): retries run clean
    assert not plan.decide("crash", "x", attempt=1)
    always = FaultPlan(seed=0, rates={"crash": 1.0}, first_attempt_only=False)
    assert always.decide("crash", "x", attempt=3)
    assert not FaultPlan(seed=0, rates={}).decide("crash", "x")
    assert plan.fired  # fired draws are logged for reporting


def test_injection_points_are_noops_without_a_plan():
    assert injection.current() is None
    assert not injection.fail_spawn("spawn:0:0")
    assert injection.tamper_saved_entry("/nonexistent", "k", "{}") is None
    with plan_installed(FaultPlan(seed=1, rates={})):
        assert injection.current() is not None
    assert injection.current() is None
    assert Solver.fault_hook is None


# ---------------------------------------------------------------------------
# cooperative deadline: a wedged SAT solve is interrupted in-process
# ---------------------------------------------------------------------------


def test_hang_inside_sat_solve_is_interrupted_without_killing_the_process():
    system = get_benchmark("buffalloc").load()
    pid = os.getpid()
    start = time.monotonic()
    with plan_installed(FaultPlan(seed=0, rates={HANG: 1.0})):
        result = make_engine("k-induction", system, max_k=16).verify(timeout=1.0)
    wall = time.monotonic() - start
    assert os.getpid() == pid
    assert result.status not in Status.DEFINITIVE
    assert wall < 5.0  # the wedge released at the armed deadline
    assert Solver.fault_hook is None  # on_engine_finish cleaned up


# ---------------------------------------------------------------------------
# the supervisor itself (no engines: fast unit-level coverage)
# ---------------------------------------------------------------------------


def _ok_worker(payload):
    return payload * 2


def _always_crash(payload):
    raise RuntimeError("boom")


def _reject_me(payload):
    return "inconclusive"


def test_run_map_success_and_crash_taxonomy():
    supervisor = WorkerSupervisor()
    outcomes = supervisor.run_map([3, 4], _ok_worker, jobs=2, timeout=30)
    assert [o.state for o in outcomes] == ["done", "done"]
    assert [o.value for o in outcomes] == [6, 8]

    outcomes = supervisor.run_map([1], _always_crash, jobs=1, timeout=30)
    assert outcomes[0].state == "crashed"
    assert len(outcomes[0].attempts) == 2  # retried once, then gave up
    assert "boom" in outcomes[0].reason


def test_run_map_accept_rejects_and_keeps_fallback_value():
    supervisor = WorkerSupervisor()
    outcomes = supervisor.run_map(
        ["unit"],
        _reject_me,
        jobs=1,
        timeout=30,
        accept=lambda payload, value: f"not definitive: {value}",
    )
    assert outcomes[0].state == "timed-out"
    assert outcomes[0].value == "inconclusive"  # rejected answer kept as fallback
    assert len(outcomes[0].attempts) == 2
    assert all(a["state"] == "timed-out" for a in outcomes[0].attempts)


def test_spawn_failures_degrade_to_in_process_execution():
    supervisor = WorkerSupervisor()
    with plan_installed(FaultPlan(seed=0, rates={SPAWN_FAIL: 1.0})):
        outcomes = supervisor.run_map([5], _ok_worker, jobs=1, timeout=30)
    assert not supervisor.pool_healthy
    assert outcomes[0].state == "done"
    assert outcomes[0].value == 10
    assert outcomes[0].degraded
    assert outcomes[0].attempts[-1]["state"] == "degraded"


# ---------------------------------------------------------------------------
# the batch runner under chaos
# ---------------------------------------------------------------------------


def test_batch_worker_kill_is_retried_then_succeeds():
    with plan_installed(FaultPlan(seed=0, rates={WORKER_KILL: 1.0})):
        runner = BatchRunner(timeout=60, bound=80)
        report = runner.run([BatchItem.benchmark("daio")])
    row = report.items[0]
    assert row.status == Status.UNSAFE
    assert row.supervision["retried"]
    assert row.supervision["attempts"][0]["state"] == "crashed"
    assert row.supervision["state"] == "done"
    assert report.retries >= 1
    assert not multiprocessing.active_children()


def test_batch_hard_wedge_is_killed_at_the_attempt_deadline_then_retried():
    # the wedge sits at a SAT search checkpoint: k-induction reaches one on
    # buffalloc (the site of the in-process hang test too), while rsim
    # answers daio with no SAT search at all
    with plan_installed(FaultPlan(seed=0, rates={HANG_HARD: 1.0})):
        runner = BatchRunner(timeout=60, bound=80, attempt_timeout=3.0)
        report = runner.run([BatchItem.benchmark("buffalloc")])
    row = report.items[0]
    assert row.status == Status.SAFE
    states = [a["state"] for a in row.supervision["attempts"]]
    assert "timed-out" in states  # the wedged attempt was reaped externally
    assert row.supervision["state"] == "done"
    assert not multiprocessing.active_children()


def test_batch_spawn_failures_degrade_to_sequential_execution():
    with plan_installed(FaultPlan(seed=0, rates={SPAWN_FAIL: 1.0})):
        runner = BatchRunner(timeout=60, bound=80)
        report = runner.run([BatchItem.benchmark("daio")])
    row = report.items[0]
    assert row.status == Status.UNSAFE
    assert row.supervision["degraded"]
    assert report.degraded == 1


def test_batch_certify_rejects_forged_certificates_and_recovers():
    """Every first-attempt answer is forged; certification refuses them all
    and the supervised retry (which runs clean) still converges — a lying
    engine can surface as anything but a WRONG verdict."""
    with plan_installed(FaultPlan(seed=0, rates={CERT_FORGE: 1.0})):
        runner = BatchRunner(timeout=60, bound=80, certify=True, attempt_timeout=10.0)
        report = runner.run([BatchItem.benchmark("daio")])
    row = report.items[0]
    assert row.status == Status.UNSAFE  # retry converged on the truth
    assert row.correct is True
    assert row.supervision["retried"]


def test_batch_ladder_of_clean_unknowns_is_final():
    """Every engine ran cleanly to ``unknown`` (tlc's bug sits at cycle 65,
    far past bound 2, and the bit-level ladder has no rsim rung): a retry
    would repeat the same deterministic work, so the unit ends after one
    attempt.  A ladder with an engine that crashed, ran out of budget or
    lied still earns its retry."""
    report = BatchRunner(timeout=60, bound=2, representation="bit").run(
        [BatchItem.benchmark("tlc")]
    )
    row = report.items[0]
    assert row.status == Status.UNKNOWN
    assert [a["state"] for a in row.supervision["attempts"]] == ["done"]
    assert report.retries == 0
    for status in (Status.ERROR, Status.TIMEOUT, "uncertified"):
        result = VerificationResult(
            Status.UNKNOWN, "ladder", "p",
            detail={"ladder_attempts": [{"status": Status.UNKNOWN}, {"status": status}]},
        )
        assert _accept_definitive(None, (0, result)) is not None


#: per-kind firing rates of a chaos sweep: the destructive kinds fire often
#: enough that every sweep meets them, and the plan's first-attempt-only
#: draws let supervised retries run clean, so the sweep still converges
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chaos_sweep_converges_leaks_nothing_and_heals_its_cache(seed, tmp_path):
    """A seeded plan of every execution fault over a certified batch sweep
    of one refutation (daio) and one proof (buffalloc): each query still
    ends with a correct, definitive verdict, no worker process outlives the
    sweep, and ``fsck`` heals whatever the tamper faults left in the cache,
    so a second pass comes back clean."""
    before = {child.pid for child in multiprocessing.active_children()}
    with plan_installed(FaultPlan(seed=seed, rates=dict(CHAOS_RATES))):
        runner = BatchRunner(
            cache=ResultCache(str(tmp_path), validation_timeout=60),
            timeout=60,
            bound=80,
            certify=True,
            attempt_timeout=15.0,
        )
        report = runner.run([BatchItem.benchmark("daio"), BatchItem.benchmark("buffalloc")])
    assert report.all_correct, report.verdicts()
    assert report.all_definitive, report.verdicts()

    deadline = time.monotonic() + 5.0
    spawned = [
        child
        for child in multiprocessing.active_children()
        if child.pid not in before
    ]
    for child in spawned:
        child.join(max(0.0, deadline - time.monotonic()))
    assert [child.pid for child in spawned if child.is_alive()] == []

    heal = ResultCache(str(tmp_path), validation_timeout=60)
    heal.fsck()
    assert heal.fsck()["clean"]


# ---------------------------------------------------------------------------
# the portfolio runner under chaos
# ---------------------------------------------------------------------------


def test_portfolio_worker_kill_is_retried_then_wins():
    with plan_installed(FaultPlan(seed=0, rates={WORKER_KILL: 1.0})):
        runner = PortfolioRunner(
            configs=[PortfolioConfig.of("bmc", max_bound=80)], timeout=60
        )
        result = runner.run(VerificationTask.benchmark("daio"))
    assert result.status == Status.UNSAFE
    assert result.winner_engine == "bmc"
    assert result.workers[0].attempts == 2
    assert result.detail["supervision"]["retries"] >= 1
    assert not multiprocessing.active_children()


def test_portfolio_spawn_failures_degrade_and_still_answer():
    with plan_installed(FaultPlan(seed=0, rates={SPAWN_FAIL: 1.0})):
        runner = PortfolioRunner(
            configs=[PortfolioConfig.of("bmc", max_bound=80)], timeout=60
        )
        result = runner.run(VerificationTask.benchmark("daio"))
    assert result.status == Status.UNSAFE
    assert result.workers[0].degraded
    assert result.detail["supervision"]["degraded"]


def test_portfolio_certify_refuses_forged_certificate_without_going_wrong():
    with plan_installed(FaultPlan(seed=0, rates={CERT_FORGE: 1.0})):
        runner = PortfolioRunner(
            configs=[PortfolioConfig.of("bmc", max_bound=80)],
            timeout=20,
            certify=True,
        )
        result = runner.run(VerificationTask.benchmark("daio"))
    # the forged claim was rejected: no winner, and crucially not WRONG
    assert result.status not in Status.DEFINITIVE
    assert result.status != Status.WRONG
    assert result.winner is None
    certification = result.detail["certification"]
    assert any(not row["certified"] for row in certification.values())


def test_portfolio_certify_race_outlives_a_forged_claim():
    """An uncertified claim is recorded and the race goes on to a real winner."""
    runner = PortfolioRunner(
        configs=[
            PortfolioConfig.of("oracle", claim=Status.SAFE),
            PortfolioConfig.of("bmc", max_bound=80),
        ],
        timeout=60,
        certify=True,
    )
    result = runner.run(VerificationTask.benchmark("daio"))
    assert result.status == Status.UNSAFE
    assert result.winner == "bmc[word]"
    certification = result.detail["certification"]
    assert certification["oracle[word]"]["certified"] is False
    assert certification["bmc[word]"]["certified"] is True


def test_portfolio_spawn_failures_degrade_and_stop_at_the_winner():
    """In-process execution still ends the race at its first definitive answer."""
    with plan_installed(FaultPlan(seed=0, rates={SPAWN_FAIL: 1.0})):
        runner = PortfolioRunner(
            configs=[
                PortfolioConfig.of("bmc", max_bound=80),
                PortfolioConfig.of("pdr"),
            ],
            timeout=60,
        )
        result = runner.run(VerificationTask.benchmark("daio"))
    assert result.status == Status.UNSAFE
    assert result.winner == "bmc[word]"
    assert result.worker("bmc[word]").degraded
    assert result.worker("pdr[word]").state == "skipped"


def test_portfolio_slow_start_losers_are_cancelled():
    with plan_installed(FaultPlan(seed=0, rates={"slow-start": 1.0}, slow_start_s=5.0)):
        runner = PortfolioRunner(
            configs=[
                PortfolioConfig.of("bmc", max_bound=80),
                PortfolioConfig.of("pdr"),
            ],
            timeout=60,
            max_workers=2,
        )
        result = runner.run(VerificationTask.benchmark("daio"))
    assert result.status == Status.UNSAFE
    loser_states = {
        o.state for o in result.workers if o.label != result.winner
    }
    assert loser_states <= {"cancelled", "skipped"}


# ---------------------------------------------------------------------------
# the self-healing cache
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def safe_result():
    """One real SAFE verdict with a validated certificate (shared, ~1s)."""
    system = get_benchmark("buffalloc").load()
    result = make_engine("k-induction", system, max_k=16).verify(timeout=60)
    assert result.status == Status.SAFE and result.certificate is not None
    return system, result


def _fill(cache, safe_result):
    system, result = safe_result
    outcome = cache.store(system, "conservation", "word", result, design="buffalloc")
    assert outcome.stored
    return outcome.key


def test_truncated_entry_is_quarantined_not_crashing(tmp_path, safe_result):
    cache = ResultCache(str(tmp_path), validation_timeout=30)
    key = _fill(cache, safe_result)
    path = cache.store_backend.path_for(key)
    with open(path, "r+", encoding="utf-8") as handle:
        payload = handle.read()
        handle.seek(0)
        handle.truncate()
        handle.write(payload[: len(payload) // 2])
    system, _ = safe_result
    lookup = cache.lookup(system, "conservation", "word")
    assert not lookup.hit and lookup.reason == "absent"
    assert cache.store_backend.quarantined == 1
    assert key in cache.store_backend.quarantine_keys()
    assert os.path.isdir(os.path.join(str(tmp_path), QUARANTINE_DIR))


def test_corrupted_entry_is_demoted_on_lookup(tmp_path, safe_result):
    cache = ResultCache(str(tmp_path), validation_timeout=30)
    key = _fill(cache, safe_result)
    path = cache.store_backend.path_for(key)
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    document["status"] = Status.UNSAFE  # flip the verdict, keep it decodable
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    system, _ = safe_result
    lookup = cache.lookup(system, "conservation", "word")
    assert not lookup.hit and lookup.demoted
    assert cache.store_backend.load_strict(key)[1] == "absent"  # pruned


def test_fsck_heals_a_tampered_store(tmp_path, safe_result):
    cache = ResultCache(str(tmp_path), validation_timeout=30)
    key = _fill(cache, safe_result)
    path = cache.store_backend.path_for(key)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"half a docu')
    first = cache.fsck()
    assert key in first["quarantined"]
    assert not first["clean"]
    second = cache.fsck()
    assert second["clean"] and second["checked"] == 0


def test_fsck_validates_entries_against_their_design(tmp_path, safe_result):
    cache = ResultCache(str(tmp_path), validation_timeout=30)
    _fill(cache, safe_result)
    report = cache.fsck()
    assert report["clean"] and report["ok"] == 1 and not report["unresolved"]


def test_lru_eviction_honours_entry_cap(tmp_path, safe_result):
    cache = ResultCache(str(tmp_path), max_entries=1, validation_timeout=30)
    system, result = safe_result
    cache.store(system, "conservation", "word", result, design="buffalloc")
    cache.store(system, "conservation", "bit", result, design="buffalloc")
    assert len(cache.store_backend) == 1
    assert cache.store_backend.evictions == 1


def test_cache_tamper_fault_fires_on_save(tmp_path, safe_result):
    with plan_installed(FaultPlan(seed=0, rates={"cache-truncate": 1.0})):
        cache = ResultCache(str(tmp_path), validation_timeout=30)
        key = _fill(cache, safe_result)
    entry, reason = cache.store_backend.load_strict(key)
    assert entry is None and reason == "undecodable"


# ---------------------------------------------------------------------------
# satellites: prior learning hardening and atomic writes
# ---------------------------------------------------------------------------


def test_learn_priors_skips_malformed_reports_with_a_warning(tmp_path):
    good = tmp_path / "BENCH_good.json"
    good.write_text(json.dumps({
        "portfolio": [{"singles": {"bmc": {"runtime_s": 1.0, "status": "safe"}}}]
    }))
    (tmp_path / "BENCH_torn.json").write_text('{"portfolio": [')
    (tmp_path / "BENCH_shape.json").write_text(json.dumps({"portfolio": ["garbage"]}))
    paths = [str(good), str(tmp_path / "BENCH_torn.json"), str(tmp_path / "BENCH_shape.json")]
    with pytest.warns(UserWarning, match="skipping"):
        priors = learn_priors(paths)
    assert priors["bmc"]["runs"] == 1  # the good report still contributes


def test_atomic_json_write_leaves_no_temp_files(tmp_path):
    out = tmp_path / "BENCH_x.json"
    write_json_atomic(str(out), {"a": 1})
    assert json.loads(out.read_text()) == {"a": 1}
    assert out.read_text().endswith("\n")
    write_text_atomic(str(out), "replaced")
    assert out.read_text() == "replaced"
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_x.json"]
