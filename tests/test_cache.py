"""The certificate-keyed result cache, its store, and the serving paths.

The cache's safety contract is the subject here: a key must change whenever
the query's semantics change (no stale hits), a stored entry is never
trusted (every hit is re-validated, tampered entries are demoted to misses),
and invariant minimization must hand back certificates that still pass the
independent validator on every suite design.
"""

import json
import os
import time

import pytest

from repro.benchmarks import BENCHMARKS, get_benchmark, load_system
from repro.cache import ResultCache, cache_key, minimize_certificate
from repro.cache.store import CacheEntry, CertificateStore
from repro.certs import validate_certificate
from repro.engines import (
    BatchItem,
    BatchRunner,
    PortfolioRunner,
    Status,
    VerificationTask,
    default_budget_ladder,
    default_portfolio_configs,
    learn_priors,
    make_engine,
)
from repro.engines.ladder import run_sequential_ladder
from repro.exprs import TRUE, bv_const


def _verify(design, engine="pdr", **options):
    system = load_system(design)
    result = make_engine(engine, system, **options).verify(timeout=90)
    assert result.status in Status.DEFINITIVE
    assert result.certificate is not None
    return system, result


# ---------------------------------------------------------------------------
# keys: any semantic mutation of the query must miss
# ---------------------------------------------------------------------------


def test_key_is_deterministic_across_loads():
    first = load_system("huffman_dec")
    second = load_system("huffman_dec")
    prop = first.properties[0].name
    assert cache_key(first, prop) == cache_key(second, prop)


def test_key_changes_with_property_and_representation():
    system = load_system("mac16")
    names = [prop.name for prop in system.properties]
    assert len(names) >= 2  # the suite's multi-property design
    assert cache_key(system, names[0]) != cache_key(system, names[1])
    assert cache_key(system, names[0], "word") != cache_key(system, names[0], "bit")


def test_key_changes_when_design_mutates():
    base = load_system("huffman_dec")
    prop = base.properties[0].name
    reference = cache_key(base, prop)

    mutated = load_system("huffman_dec")
    name, expr = next(iter(mutated.next.items()))
    mutated.set_next(name, expr + bv_const(1, expr.width))
    assert cache_key(mutated, prop) != reference

    reinit = load_system("huffman_dec")
    name, expr = next(iter(reinit.init.items()))
    reinit.set_init(name, expr + bv_const(1, expr.width))
    assert cache_key(reinit, prop) != reference

    constrained = load_system("huffman_dec")
    constrained.add_constraint(TRUE)
    assert cache_key(constrained, prop) != reference


def test_key_memo_follows_in_place_mutation():
    """Keys are memoized per live design: mutating the same object after
    hashing it must still change its key."""
    system = load_system("huffman_dec")
    prop = system.properties[0].name
    reference = cache_key(system, prop)
    assert cache_key(system, prop) == reference
    system.add_constraint(TRUE)
    constrained = cache_key(system, prop)
    assert constrained != reference
    name, expr = next(iter(system.init.items()))
    system.set_init(name, expr + bv_const(1, expr.width))
    reset = cache_key(system, prop)
    assert reset not in (reference, constrained)
    system.name = "renamed"
    assert cache_key(system, prop) not in (reference, constrained, reset)


# ---------------------------------------------------------------------------
# the cache proper: store, hit after re-validation, stale-miss
# ---------------------------------------------------------------------------


def test_safe_roundtrip_hits_after_revalidation(tmp_path):
    system, result = _verify("huffman_dec")
    cache = ResultCache(str(tmp_path))
    outcome = cache.store(
        system, result.property_name, "word", result, design="huffman_dec"
    )
    assert outcome.stored

    lookup = cache.lookup(system, result.property_name, "word")
    assert lookup.hit
    assert lookup.result.status == Status.SAFE
    assert lookup.validation is not None and lookup.validation.ok
    assert lookup.result.detail["cache"]["design"] == "huffman_dec"
    assert cache.stats()["hits"] == 1 and cache.stats()["entries"] == 1


def test_unsafe_roundtrip_serves_witness(tmp_path):
    system, result = _verify("daio", engine="bmc", max_bound=70)
    cache = ResultCache(str(tmp_path))
    assert cache.store(system, result.property_name, "word", result).stored
    lookup = cache.lookup(system, result.property_name, "word")
    assert lookup.hit
    assert lookup.result.status == Status.UNSAFE
    assert lookup.result.certificate.kind == "witness"


def test_mutated_design_misses_no_stale_hit(tmp_path):
    system, result = _verify("huffman_dec")
    cache = ResultCache(str(tmp_path))
    cache.store(system, result.property_name, "word", result)

    mutated = load_system("huffman_dec")
    name, expr = next(iter(mutated.next.items()))
    mutated.set_next(name, expr + bv_const(1, expr.width))
    lookup = cache.lookup(mutated, result.property_name, "word")
    assert not lookup.hit
    assert lookup.reason == "absent"  # different key: the entry is invisible


def test_indefinitive_and_uncertified_results_are_not_stored(tmp_path):
    from repro.engines.result import VerificationResult

    system = load_system("huffman_dec")
    prop = system.properties[0].name
    cache = ResultCache(str(tmp_path))
    unknown = VerificationResult(Status.UNKNOWN, "bmc", prop)
    assert not cache.store(system, prop, "word", unknown).stored
    bare = VerificationResult(Status.SAFE, "bmc", prop)
    assert not cache.store(system, prop, "word", bare).stored
    assert cache.stats()["entries"] == 0


# ---------------------------------------------------------------------------
# tampered / corrupted entries: demoted to misses, never served
# ---------------------------------------------------------------------------


def _stored_entry_path(cache, system, property_name):
    key = cache.key_for(system, property_name, "word")
    return key, cache.store_backend.path_for(key)


def test_corrupted_entry_reads_as_absent(tmp_path):
    system, result = _verify("huffman_dec")
    cache = ResultCache(str(tmp_path))
    cache.store(system, result.property_name, "word", result)
    _, path = _stored_entry_path(cache, system, result.property_name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{not json")
    lookup = cache.lookup(system, result.property_name, "word")
    assert not lookup.hit and lookup.reason == "absent"


def test_flipped_status_cannot_justify_and_is_demoted(tmp_path):
    system, result = _verify("huffman_dec")
    cache = ResultCache(str(tmp_path))
    cache.store(system, result.property_name, "word", result)
    _, path = _stored_entry_path(cache, system, result.property_name)
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    document["status"] = Status.UNSAFE  # an invariant cannot prove UNSAFE
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    lookup = cache.lookup(system, result.property_name, "word")
    assert not lookup.hit and lookup.demoted
    assert not os.path.exists(path)  # the bad entry was dropped


def test_forged_invariant_fails_revalidation_and_is_demoted(tmp_path):
    """A syntactically fine but wrong certificate is caught by the validator."""
    system, result = _verify("huffman_dec")
    cache = ResultCache(str(tmp_path))
    key = cache.key_for(system, result.property_name, "word")
    forged = result.certificate.replace(invariant=TRUE)
    cache.store_backend.save(
        CacheEntry(
            key=key,
            status=Status.SAFE,
            property_name=result.property_name,
            engine="oracle",
            representation="word",
            certificate=forged,
        )
    )
    lookup = cache.lookup(system, result.property_name, "word")
    assert not lookup.hit and lookup.demoted
    assert "re-validation failed" in lookup.reason
    assert cache.stats()["demotions"] == 1
    # the demotion deleted the forgery: the next lookup is a plain miss
    assert cache.lookup(system, result.property_name, "word").reason == "absent"


def test_an_unchanged_entry_is_parsed_once(tmp_path):
    """Every look-up reads the entry file, but the same bytes are parsed
    once: a repeated hit shares the kept entry, and a rewrite is parsed
    afresh."""
    system, result = _verify("huffman_dec")
    cache = ResultCache(str(tmp_path))
    prop = result.property_name
    assert cache.store(system, prop, "word", result).stored
    first = cache.lookup(system, prop, "word")
    again = cache.lookup(system, prop, "word")
    assert first.hit and again.hit and again.entry is first.entry
    _, path = _stored_entry_path(cache, system, prop)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(" ")  # same document, other bytes
    rewritten = cache.lookup(system, prop, "word")
    assert rewritten.hit and rewritten.entry is not first.entry


def test_a_same_length_forgery_with_its_mtime_set_back_is_demoted(tmp_path):
    """One cache instance looks an entry up (keeping its parse), then the
    file is rewritten as a forged certificate of the same length with the
    old mtime: the next look-up must re-parse it and demote it, which a
    memo keyed by mtime and size would miss."""
    system, result = _verify("huffman_dec")
    cache = ResultCache(str(tmp_path))
    prop = result.property_name
    assert cache.store(system, prop, "word", result).stored
    assert cache.lookup(system, prop, "word").hit
    key, path = _stored_entry_path(cache, system, prop)
    with open(path, "rb") as handle:
        original = handle.read()
    before = os.stat(path)
    forged = CacheEntry(
        key=key,
        status=Status.SAFE,
        property_name=prop,
        engine="oracle",
        representation="word",
        certificate=result.certificate.replace(invariant=TRUE),
    )
    payload = json.dumps(forged.to_json()).encode("utf-8")
    assert len(payload) < len(original)
    payload += b" " * (len(original) - len(payload))
    with open(path, "wb") as handle:
        handle.write(payload)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    lookup = cache.lookup(system, prop, "word")
    assert not lookup.hit and lookup.demoted
    assert "re-validation failed" in lookup.reason
    assert not os.path.exists(path)


def test_undecided_revalidation_keeps_the_entry(tmp_path, monkeypatch):
    """A re-validation that runs out of time says nothing against the
    certificate: the lookup is a plain miss that keeps the entry, and fsck
    keeps it too, lists it as undecided and reports the store not clean."""
    from repro.certs import validate as validate_mod

    system, result = _verify("huffman_dec")
    cache = ResultCache(str(tmp_path))
    prop = result.property_name
    assert cache.store(system, prop, "word", result, design="huffman_dec").stored
    key, path = _stored_entry_path(cache, system, prop)
    with monkeypatch.context() as patch:
        patch.setattr(
            validate_mod._Session,
            "decide",
            lambda self, literals: (validate_mod.UNDECIDED, "solver gave up"),
        )
        lookup = cache.lookup(system, prop, "word")
        assert not lookup.hit and not lookup.demoted
        assert lookup.reason.startswith("re-validation undecided")
        assert os.path.exists(path)
        report = cache.fsck()
        assert [row["key"] for row in report["undecided"]] == [key]
        assert report["pruned"] == [] and report["ok"] == 0
        assert not report["clean"]
        assert os.path.exists(path)
    lifetime = cache.persistent.as_dict()
    assert (lifetime["misses"], lifetime["demotions"]) == (1, 0)
    assert lifetime["revalidations_failed"] == 0
    assert cache.lookup(system, prop, "word").hit


def test_lifetime_counters_add_up_across_instances(tmp_path):
    """Two caches on one root stand for two processes sharing a cache
    directory: they interleave a store and hits, one of them folds the
    counters log, and a third instance sees every count."""
    system, result = _verify("huffman_dec")
    prop = result.property_name
    first, second = ResultCache(str(tmp_path)), ResultCache(str(tmp_path))
    assert not first.lookup(system, prop).hit
    assert second.store(system, prop, "word", result).stored
    hits = 0
    while not os.path.exists(first.persistent.path):  # only a fold writes it
        for cache in (first, second):
            assert cache.lookup(system, prop).hit
            hits += 1
        assert hits < 1000  # every hit appends a line; a fold comes soon
    assert first.lookup(system, prop).hit  # into the emptied log
    hits += 1
    assert ResultCache(str(tmp_path)).persistent.as_dict() == {
        "hits": hits,
        "misses": 1,
        "stores": 1,
        "demotions": 0,
        "revalidations_ok": hits,
        "revalidations_failed": 0,
    }


def _bump_counters(root, rounds):
    from repro.cache.result_cache import PersistentCounters

    counters = PersistentCounters(root)
    for _ in range(rounds):
        counters.bump(hits=1, revalidations_ok=1)
    os._exit(0)


def test_lifetime_counters_lose_no_update_under_concurrent_processes(tmp_path):
    import multiprocessing

    from repro.cache.result_cache import PersistentCounters

    root = str(tmp_path)
    context = multiprocessing.get_context("fork")
    workers = [
        context.Process(target=_bump_counters, args=(root, 300)) for _ in range(4)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60.0)
        assert worker.exitcode == 0
    totals = PersistentCounters(root).as_dict()
    # 1,200 bumps are far past the fold size: folds raced the appends
    assert os.path.exists(os.path.join(root, PersistentCounters.FILENAME))
    assert totals["hits"] == totals["revalidations_ok"] == 1200


def test_torn_counter_lines_read_as_zero_and_a_fold_keeps_the_whole_ones(tmp_path):
    """A torn append leaves a line that is no JSON (a crash cut it, and the
    next append went on the same line) or a tail with no newline.  Reads
    and folds sum the whole lines only."""
    from repro.cache.result_cache import COUNTERS_FOLD_BYTES, PersistentCounters

    counters = PersistentCounters(str(tmp_path))
    hit = b'{"hits":1,"revalidations_ok":1}\n'
    store = b'{"misses":1,"stores":1}\n'
    counters.bump(hits=1, revalidations_ok=1, demotions=0)
    with open(counters.log_path, "rb") as handle:
        assert handle.read() == hit  # one line per bump, zero deltas left out
    log = hit * 100 + hit[:9] + store + store + hit * 40 + hit[:12]
    assert len(log) > COUNTERS_FOLD_BYTES
    with open(counters.log_path, "wb") as handle:
        handle.write(log)
    expected = {
        "hits": 140,
        "misses": 1,
        "stores": 1,
        "demotions": 0,
        "revalidations_ok": 140,
        "revalidations_failed": 0,
    }
    assert counters.as_dict() == expected
    counters._fold()
    assert os.path.getsize(counters.log_path) == 0
    with open(counters.path, "r", encoding="utf-8") as handle:
        assert json.load(handle) == expected
    assert counters.as_dict() == expected


def test_entry_under_wrong_key_does_not_impersonate(tmp_path):
    system, result = _verify("huffman_dec")
    cache = ResultCache(str(tmp_path))
    cache.store(system, result.property_name, "word", result)
    key, path = _stored_entry_path(cache, system, result.property_name)
    other = cache.key_for(system, result.property_name, "bit")
    other_path = cache.store_backend.path_for(other)
    os.makedirs(os.path.dirname(other_path), exist_ok=True)
    with open(path, "r", encoding="utf-8") as src, open(
        other_path, "w", encoding="utf-8"
    ) as dst:
        dst.write(src.read())
    assert cache.store_backend.load(other) is None  # key/file mismatch
    assert not cache.lookup(system, result.property_name, "bit").hit


# ---------------------------------------------------------------------------
# minimization: smaller, still validated by the independent checker
# ---------------------------------------------------------------------------


SAFE_DESIGNS = [
    name
    for name, benchmark in sorted(BENCHMARKS.items())
    if benchmark.expected == Status.SAFE
]

#: the ladder's certificate of every safe design, plus certificates that
#: carry droppable conjuncts: kIkI's strengthening invariants (which usually
#: all drop once k is found) and one of PDR's frame-clause invariants
MINIMIZATION_CASES = [pytest.param(name, None, id=name) for name in SAFE_DESIGNS] + [
    pytest.param(name, engine, id=f"{name}-{engine}")
    for name, engine in (
        ("huffman_dec", "kiki"),
        ("rcu", "kiki"),
        ("arbiter", "kiki"),
        ("proc3", "pdr"),
    )
]


@pytest.mark.parametrize("design, engine", MINIMIZATION_CASES)
def test_minimized_invariants_validate_on_every_safe_suite_design(design, engine):
    system = load_system(design)
    if engine is None:
        ladder = default_budget_ladder(bound=40, timeout=60)
        result = run_sequential_ladder(system, None, ladder, timeout=60)
    else:
        result = make_engine(engine, system).verify(timeout=60)
    assert result.status == Status.SAFE, (design, result.status)
    validation = validate_certificate(system, result.certificate)
    assert validation.ok, (design, validation.reason)
    minimization = minimize_certificate(system, result.certificate, timeout=60)
    assert minimization.size <= minimization.original_size
    validation = validate_certificate(system, minimization.certificate)
    assert validation.ok, (design, validation.reason)


def test_minimization_shrinks_a_padded_invariant():
    """Redundant conjuncts injected into a real invariant are dropped."""
    from repro.exprs import bool_and

    system, result = _verify("huffman_dec")
    certificate = result.certificate
    state = next(iter(system.state_vars))
    width = system.state_vars[state]
    # pad with tautological-but-droppable conjuncts over a real state var
    from repro.exprs import bv_ule, bv_var

    pad = bv_ule(bv_var(state, width), bv_const((1 << width) - 1, width))
    padded = certificate.replace(invariant=bool_and(certificate.invariant, pad, pad))
    assert validate_certificate(system, padded).ok
    minimization = minimize_certificate(system, padded)
    assert minimization.dropped >= 1
    assert validate_certificate(system, minimization.certificate).ok


# ---------------------------------------------------------------------------
# the batch runner: cold fills, warm is all re-validated hits
# ---------------------------------------------------------------------------


def test_batch_cold_then_warm_all_hits(tmp_path):
    """The whole suite, swept twice against one cache: 14 queries, since
    multi-property designs shard one unit per property."""
    items = [BatchItem.benchmark(name) for name in sorted(BENCHMARKS)]
    cache = ResultCache(str(tmp_path))
    cold = BatchRunner(cache=cache, timeout=90, bound=80, jobs=2).run(items)
    assert len(cold.items) == 14
    assert cold.cache_hits == 0 and cold.cache_misses == 14
    assert cold.all_definitive and cold.all_correct
    assert all(item.stored for item in cold.items)

    warm_cache = ResultCache(str(tmp_path))
    warm = BatchRunner(cache=warm_cache, timeout=90, bound=80, jobs=2).run(items)
    assert warm.cache_hits == 14 and warm.cache_misses == 0
    assert all(item.source == "cache" and item.validated for item in warm.items)
    assert warm.all_correct
    assert warm.verdicts() == cold.verdicts()


def test_batch_without_cache_still_sweeps():
    report = BatchRunner(timeout=90, bound=80, jobs=2).run(
        [BatchItem.benchmark("daio"), BatchItem.benchmark("huffman_dec")]
    )
    assert report.all_definitive and report.all_correct
    assert report.cache_hits == 0 and report.cache_misses == 0


# ---------------------------------------------------------------------------
# the budget ladder: cheap rungs first, priors order within a rung
# ---------------------------------------------------------------------------


def test_default_ladder_orders_cost_tiers():
    ladder = default_budget_ladder(bound=40, timeout=60)
    assert [rung.tier for rung in ladder] == ["cheap", "medium", "heavy"]
    cheap = {config.engine for config in ladder[0].configs}
    assert cheap == {"rsim", "absint"}
    # within a rung provers run before refute-only engines, otherwise in
    # registration order: BMC is k-induction's base case, so it goes last
    assert [[config.engine for config in rung.configs] for rung in ladder] == [
        ["absint", "rsim"],
        ["k-induction", "kiki", "bmc"],
        ["interpolation", "pdr"],
    ]
    # non-final rungs are budgeted, the last rung takes what remains
    assert all(rung.budget is not None for rung in ladder[:-1])
    assert ladder[-1].budget is None


def test_priors_reorder_a_rung(tmp_path):
    report = {
        "portfolio": [
            {
                "singles": {
                    "pdr[word]": {"runtime_s": 0.1, "status": "safe"},
                    "interpolation[word]": {"runtime_s": 9.0, "status": "safe"},
                }
            }
        ]
    }
    path = tmp_path / "BENCH_fake.json"
    path.write_text(json.dumps(report))
    priors = learn_priors([str(path)])
    assert priors["pdr"]["score"] < priors["interpolation"]["score"]
    ladder = default_budget_ladder(bound=40, timeout=60, priors=priors)
    heavy = [config.engine for config in ladder[-1].configs]
    assert heavy.index("pdr") < heavy.index("interpolation")


def test_ladder_does_not_depend_on_the_working_directory(tmp_path, monkeypatch):
    """A BENCH_*.json lying in the cwd must not reorder any entry point's ladder."""
    report = {
        "portfolio": [
            {
                "singles": {
                    "bmc[word]": {"runtime_s": 0.001, "status": "unsafe"},
                    "k-induction[word]": {"runtime_s": 9.0, "status": "safe"},
                }
            }
        ]
    }
    holding = tmp_path / "holding"
    empty = tmp_path / "empty"
    holding.mkdir()
    empty.mkdir()
    (holding / "BENCH_fake.json").write_text(json.dumps(report))

    def labels(ladder):
        return [list(rung.labels) for rung in ladder]

    built = {}
    for name, directory in (("holding", holding), ("empty", empty)):
        monkeypatch.chdir(directory)
        built[name] = (
            labels(default_budget_ladder(bound=40, timeout=60)),
            labels(BatchRunner(timeout=60, bound=40).ladder),
        )
    assert built["holding"] == built["empty"]
    # read explicitly, the same report does reorder the medium rung
    priors = learn_priors([str(holding / "BENCH_fake.json")])
    reordered = labels(default_budget_ladder(bound=40, timeout=60, priors=priors))
    assert reordered[1][0] == "bmc[word]" != built["empty"][0][1][0]
    with pytest.raises(TypeError):
        learn_priors()


def test_ladder_runner_decides_daio_in_cheap_rung():
    cpu0 = time.process_time()
    result = run_sequential_ladder(
        load_system("daio"),
        None,
        default_budget_ladder(bound=80, timeout=120),
        timeout=120,
    )
    ladder_cpu = time.process_time() - cpu0
    assert result.status == Status.UNSAFE
    assert result.detail["ladder_rung"] == 0
    # the cheap rung never ran the provers: the ladder's CPU stays below
    # what the all-at-once fan-out burns on its cancelled k-induction/pdr
    # workers
    fanout = PortfolioRunner(
        configs=default_portfolio_configs(bound=80),
        timeout=120,
        expected=Status.UNSAFE,
    ).run(VerificationTask.benchmark("daio"))
    assert fanout.status == Status.UNSAFE
    assert ladder_cpu <= fanout.detail["cpu_s"]


def test_sequential_ladder_reports_attempts():
    system = load_system("daio")
    result = run_sequential_ladder(
        system, None, default_budget_ladder(bound=80, timeout=90), timeout=90
    )
    assert result.status == Status.UNSAFE
    assert result.detail["ladder_rung"] == 0
    assert result.detail["ladder_attempts"][0]["rung"] == 0


# ---------------------------------------------------------------------------
# the CLI serving path: --cache-dir fills on miss, hits on repeat
# ---------------------------------------------------------------------------


def test_verify_cli_single_query_cache(tmp_path, capsys):
    from repro.tools.verify_cli import main

    cache_dir = str(tmp_path / "cache")
    argv = ["daio", "--engine", "bmc", "--bound", "70", "--cache-dir", cache_dir]
    assert main(argv) == 0
    first = capsys.readouterr()
    # progress narration goes to stderr; the result lines own stdout
    assert "cache miss" in first.err and "cached under key" in first.out
    assert main(argv) == 0
    second = capsys.readouterr().err
    assert "cache hit" in second and "re-validated" in second


def test_verify_cli_portfolio_representations_cache_roundtrip(tmp_path, capsys):
    """Lookup and store must key the same representation (--representation)."""
    from repro.tools.verify_cli import main

    cache_dir = str(tmp_path / "cache")
    argv = [
        "daio", "--portfolio", "--representation", "word",
        "--bound", "80", "--cache-dir", cache_dir,
    ]
    assert main(argv) == 0
    assert "cached under key" in capsys.readouterr().out
    assert main(argv) == 0
    assert "cache hit" in capsys.readouterr().err


def test_verify_cli_one_representation_flag(tmp_path, capsys):
    """One --representation flag: an empty list, the old plural spelling and
    a second representation for a one-representation mode are usage
    errors, and an --engine query is cached under the representation it ran."""
    from repro.tools.verify_cli import main

    for argv in (
        ["daio", "--representation"],
        ["daio", "--representations"],
        ["daio", "--portfolio", "--representations"],
        ["daio", "--batch", "--representations"],
        ["daio", "--engine", "rsim", "--representations", "bit"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1, argv
        assert "--representation" in capsys.readouterr().err, argv
    for mode in (["--engine", "bmc"], ["--batch"], ["--server", str(tmp_path / "sock")]):
        with pytest.raises(SystemExit) as excinfo:
            main(["daio", *mode, "--representation", "word", "bit"])
        assert excinfo.value.code == 1, mode
        assert "exactly one --representation" in capsys.readouterr().err, mode

    cache_dir = str(tmp_path / "cache")
    argv = [
        "rcu", "--engine", "k-induction", "--representation", "bit",
        "--cache-dir", cache_dir,
    ]
    assert main(argv) == 0
    assert "cached under key" in capsys.readouterr().out
    cache = ResultCache(cache_dir)
    system = load_system("rcu")
    prop = system.properties[0].name
    entry = cache.store_backend.load(cache.key_for(system, prop, "bit"))
    assert entry is not None and entry.representation == "bit"
    assert cache.store_backend.load(cache.key_for(system, prop, "word")) is None


def test_verify_cli_portfolio_certify_validates_claims_in_the_race(
    monkeypatch, capsys
):
    """--portfolio --certify certifies claims inside the race and still prints
    the obligation report."""
    from repro.engines import portfolio
    from repro.tools import verify_cli

    results = []

    class RecordingRunner(portfolio.PortfolioRunner):
        def run(self, task, property_name=None):
            results.append(super().run(task, property_name))
            return results[-1]

    # verify_cli imports the race under --portfolio only, from its module
    monkeypatch.setattr(portfolio, "PortfolioRunner", RecordingRunner)
    argv = ["daio", "--portfolio", "--bound", "80", "--timeout", "60", "--certify"]
    assert verify_cli.main(argv) == 0
    (result,) = results
    assert result.status == Status.UNSAFE
    assert result.detail["certification"][result.winner]["certified"] is True
    out = capsys.readouterr().out
    assert "certification:" in out and "VALIDATED" in out


def test_verify_cli_batch_respects_property_scope(tmp_path, capsys):
    from repro.tools.verify_cli import main

    argv = [
        "mac16", "--batch", "--quiet", "--property", "cnt_in_range",
        "--timeout", "90", "--bound", "80",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "cnt_in_range" in out and "cnt_le_9" not in out
    assert "1 items" in out


def test_verify_cli_batch_narrates_on_stderr(capsys):
    """Result rows and the summary own stdout; the narration goes to
    stderr, and each supervision event names its unit's design:property."""
    from repro.tools.verify_cli import main

    assert main(["daio", "huffman_dec", "--batch", "--timeout", "60"]) == 0
    captured = capsys.readouterr()
    assert "2 items" in captured.out
    assert not [line for line in captured.out.splitlines() if line.lstrip().startswith("[")]
    supervision = [line for line in captured.err.splitlines() if "supervision" in line]
    assert any("daio:no_overrun" in line for line in supervision)
    assert all(" :" not in line for line in supervision)
    assert any("unit=0" in line for line in supervision)


def test_verify_cli_rejects_cross_check_with_ladder_or_batch(capsys):
    from repro.tools.verify_cli import main

    # usage errors exit 1: exit code 2 is reserved for a WRONG verdict
    with pytest.raises(SystemExit) as excinfo:
        main(["daio", "--batch", "--cross-check"])
    assert excinfo.value.code == 1
    assert "--cross-check" in capsys.readouterr().err
    # with no mode flag a query runs in-process: nothing to cross-check or cap
    for flag in (["--cross-check"], ["--jobs", "2"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["daio", *flag])
        assert excinfo.value.code == 1
        assert flag[0] in capsys.readouterr().err
    # an unknown flag is a usage error, not a WRONG verdict
    with pytest.raises(SystemExit) as excinfo:
        main(["daio", "--ladder"])
    assert excinfo.value.code == 1
    assert "--ladder" in capsys.readouterr().err


def test_verify_cli_unknown_property_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """Every mode rejects an undeclared --property before any engine runs
    or any worker forks, and names the design's properties."""
    import multiprocessing

    from repro.engines.base import Engine
    from repro.tools.verify_cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("an unknown property reached an engine or a worker")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(Engine, "__init__", refuse)
    cache_dir = str(tmp_path / "cache")
    for argv, named in (
        (["daio", "--property", "nope"], "no_overrun"),
        (["daio", "--portfolio", "--property", "nope"], "no_overrun"),
        (["daio", "--engine", "bmc", "--property", "nope"], "no_overrun"),
        (["daio", "--cache-dir", cache_dir, "--property", "nope"], "no_overrun"),
        (["daio", "mac16", "--batch", "--property", "nope"], "no_overrun"),
        # --batch checks every target, not just the first
        (["mac16", "daio", "--batch", "--property", "cnt_le_9"], "no_overrun"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1, argv
        err = capsys.readouterr().err
        assert "has no property" in err and named in err, argv


def test_verify_cli_rejects_malformed_numbers_and_addresses(capsys):
    from repro.tools.verify_cli import main

    for argv, flag in (
        (["daio", "--timeout", "0"], "--timeout"),
        (["daio", "--timeout", "-1"], "--timeout"),
        (["daio", "--bound", "-3"], "--bound"),
        (["daio", "--portfolio", "--jobs", "0"], "--jobs"),
        (["daio", "--batch", "--jobs", "0"], "--jobs"),
        (["daio", "--server", "foo:bar"], "--server"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1, argv
        assert flag in capsys.readouterr().err, argv
    # a zero depth cap is a valid query: interval analysis needs no unrolling
    assert main(["huffman_dec", "--bound", "0"]) == 0
    capsys.readouterr()


def test_verify_cli_without_mode_flag_runs_in_process(tmp_path, monkeypatch, capsys):
    """No mode flag: the ladder runs in the CLI process and names its decider."""
    import multiprocessing

    from repro.obs.export import lint_trace, load_trace
    from repro.tools.verify_cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("a query with no mode flag started a child process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    trace_path = str(tmp_path / "daio.jsonl")
    assert main(["daio", "--certify", "--trace", trace_path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[2].split()[:2] == ["rsim", "unsafe"]
    assert "ladder: decided at rung 0" in out and "VALIDATED" in out
    assert main(["fifo", "--certify"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[2].split()[:2] == ["k-induction", "safe"]
    assert "ladder: decided at rung 1" in out
    assert not multiprocessing.active_children()

    trace = load_trace(trace_path)
    assert lint_trace(trace) == []
    assert {span["pid"] for span in trace.spans} == {os.getpid()}
    root = next(span for span in trace.spans if span["name"] == "cli.verify")
    assert root["attrs"]["mode"] == "sequential-ladder"
    attempts = [s["attrs"]["config"] for s in trace.spans if s["name"] == "ladder.attempt"]
    assert attempts == ["absint[word]", "rsim[word]"]


def test_file_task_memo_invalidates_on_edit(tmp_path):
    """A long-lived process must not serve a stale parse of an edited file."""
    from repro.aig import aig_from_transition_system, write_aiger

    path = tmp_path / "design.aag"
    path.write_text(write_aiger(aig_from_transition_system(load_system("daio"))))
    task = VerificationTask.aiger(str(path))
    first = task.load()
    assert task.load() is first  # memoized while the file is unchanged

    path.write_text(
        write_aiger(aig_from_transition_system(load_system("huffman_dec")))
    )
    os.utime(path, ns=(0, 0))  # force a stamp change even on coarse clocks
    second = task.load()
    assert second is not first
    assert len(second.state_vars) != len(first.state_vars)


def test_sequential_ladder_attributes_runtime_to_deciding_engine():
    """Escalation probes must not inflate the deciding engine's runtime."""
    system = load_system("buffalloc")  # cheap rung cannot decide this one
    result = run_sequential_ladder(
        system, None, default_budget_ladder(bound=40, timeout=60), timeout=60
    )
    assert result.status == Status.SAFE
    assert result.detail["ladder_rung"] >= 1
    probes = sum(
        attempt["runtime_s"]
        for attempt in result.detail["ladder_attempts"][:-1]
    )
    assert result.detail["ladder_wall_s"] >= result.runtime + probes * 0.5
    assert result.runtime < result.detail["ladder_wall_s"]


def test_batch_survives_unloadable_target(tmp_path):
    """One bad file yields one ERROR item, not an aborted sweep."""
    bad = BatchItem(VerificationTask.aiger(str(tmp_path / "missing.aag")))
    report = BatchRunner(timeout=90, bound=80, jobs=2).run(
        [bad, BatchItem.benchmark("daio")]
    )
    by_design = {item.design: item for item in report.items}
    assert by_design["missing.aag"].status == Status.ERROR
    assert by_design["daio"].status == Status.UNSAFE


def test_learn_priors_canonicalizes_engine_aliases(tmp_path):
    """Batch sweeps record class names; priors must land on registry names."""
    report = {
        "sweeps": {
            "cold": {
                "items": [
                    {
                        "source": "abstract-interpretation",
                        "runtime_s": 0.01,
                        "status": "safe",
                    }
                ]
            }
        }
    }
    path = tmp_path / "BENCH_fake.json"
    path.write_text(json.dumps(report))
    priors = learn_priors([str(path)])
    assert "absint" in priors and "abstract-interpretation" not in priors


def test_verify_cli_rejects_certify_with_batch(capsys):
    from repro.tools.verify_cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["daio", "--batch", "--certify"])
    assert excinfo.value.code == 1
    assert "--certify" in capsys.readouterr().err


def test_verify_cli_cache_hit_still_certifies(tmp_path, capsys):
    from repro.tools.verify_cli import main

    cache_dir = str(tmp_path / "cache")
    argv = [
        "daio", "--engine", "bmc", "--bound", "70",
        "--cache-dir", cache_dir, "--certify",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "cache hit" in captured.err
    assert "certification:" in captured.out and "VALIDATED" in captured.out


def test_verify_cli_batch_twice_all_hits(tmp_path, capsys):
    from repro.tools.verify_cli import main

    cache_dir = str(tmp_path / "cache")
    argv = [
        "daio", "huffman_dec", "--batch", "--quiet",
        "--cache-dir", cache_dir, "--timeout", "90", "--bound", "80",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "2 cache hit(s), 0 miss(es)" in out
