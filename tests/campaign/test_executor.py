"""Campaign executor: serial/parallel equivalence, caching, resumability."""

import json

import numpy as np
import pytest

from repro.campaign import (
    ResultCache,
    get_scenario,
    plan_grid,
    run_grid,
    run_jobs,
)
from repro.campaign.cache import DETERMINISTIC_FIELDS
from repro.campaign.executor import _seed_rngs

# Two scenarios, tiny grids: fast enough for CI, rich enough to exercise
# multi-axis expansion and cross-scenario cache sharing.
SWEEPS = (
    ("pingpong", {"size": (64, 512), "mode": ("rdma", "spin_store")}),
    ("accumulate", {"size": (64, 512), "mode": ("rdma", "spin")}),
)


def _det(record):
    return {k: record[k] for k in DETERMINISTIC_FIELDS}


def _run_sweeps(workers, cache_path):
    records = []
    for name, grid in SWEEPS:
        res = run_grid(name, grid, workers=workers, cache_path=cache_path)
        assert res.executed == len(res.jobs)
        assert res.cached == 0
        records.extend(res.records)
    return records


def test_serial_and_parallel_sweeps_produce_identical_cached_results(tmp_path):
    serial_cache = tmp_path / "serial.jsonl"
    parallel_cache = tmp_path / "parallel.jsonl"
    serial = _run_sweeps(workers=1, cache_path=serial_cache)
    parallel = _run_sweeps(workers=2, cache_path=parallel_cache)

    # In-memory records: identical up to wall-clock noise, in job order.
    assert [_det(r) for r in serial] == [_det(r) for r in parallel]

    # On-disk caches: same record set keyed identically (parallel completion
    # order may differ, so compare as key→record maps).
    on_disk_serial = ResultCache(serial_cache).load()
    on_disk_parallel = ResultCache(parallel_cache).load()
    assert set(on_disk_serial) == set(on_disk_parallel)
    for key in on_disk_serial:
        assert _det(on_disk_serial[key]) == _det(on_disk_parallel[key])


def test_rerun_hits_cache_and_executes_zero_jobs(tmp_path):
    cache = tmp_path / "results.jsonl"
    name, grid = SWEEPS[0]
    first = run_grid(name, grid, cache_path=cache)
    assert first.executed == 4 and first.cached == 0
    again = run_grid(name, grid, workers=2, cache_path=cache)
    assert again.executed == 0 and again.cached == 4
    assert [_det(r) for r in again.records] == [_det(r) for r in first.records]


def test_partial_cache_resumes_only_missing_jobs(tmp_path):
    """An interrupted sweep re-runs exactly the jobs that never finished."""
    cache = tmp_path / "results.jsonl"
    name, grid = SWEEPS[0]
    jobs = plan_grid(name, grid)
    # Simulate an interruption: only the first half made it to the cache.
    run_jobs(jobs[:2], cache_path=cache)
    resumed = run_jobs(jobs, cache_path=cache)
    assert resumed.cached == 2 and resumed.executed == 2
    # Full rerun from the now-complete cache is free.
    final = run_jobs(jobs, cache_path=cache)
    assert final.executed == 0 and final.cached == len(jobs)


def test_cache_key_binds_code_version(tmp_path, monkeypatch):
    cache = tmp_path / "results.jsonl"
    name, grid = SWEEPS[0]
    monkeypatch.setenv("REPRO_CODE_VERSION", "vA")
    run_grid(name, grid, cache_path=cache)
    # Same code: free.  Changed code: every job re-executes.
    assert run_grid(name, grid, cache_path=cache).executed == 0
    monkeypatch.setenv("REPRO_CODE_VERSION", "vB")
    assert run_grid(name, grid, cache_path=cache).executed == 4


def test_job_seeds_are_deterministic_and_distinct():
    jobs_a = plan_grid(*SWEEPS[0])
    jobs_b = plan_grid(*SWEEPS[0])
    assert [j.seed for j in jobs_a] == [j.seed for j in jobs_b]
    assert len({j.seed for j in jobs_a}) == len(jobs_a)
    # A different base seed reseeds every job but keeps cache keys stable.
    jobs_c = plan_grid(*SWEEPS[0], base_seed=1)
    assert all(a.seed != c.seed for a, c in zip(jobs_a, jobs_c))
    assert [j.key for j in jobs_a] == [j.key for j in jobs_c]


def test_records_are_json_round_trippable(tmp_path):
    cache = tmp_path / "results.jsonl"
    run_grid(*SWEEPS[1], cache_path=cache)
    lines = cache.read_text().strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        rec = json.loads(line)
        assert set(DETERMINISTIC_FIELDS) <= set(rec)
        assert isinstance(rec["result"], dict)


def test_cache_tolerates_torn_final_line(tmp_path):
    cache_path = tmp_path / "results.jsonl"
    res = run_grid(*SWEEPS[0], cache_path=cache_path)
    # Simulate a run killed mid-append.
    with cache_path.open("a") as fh:
        fh.write('{"key": "trunc')
    again = run_grid(*SWEEPS[0], cache_path=cache_path)
    assert again.executed == 0
    assert [_det(r) for r in again.records] == [_det(r) for r in res.records]


def test_scenario_param_validation():
    sc = get_scenario("pingpong")
    resolved = sc.resolve({"size": "128", "mode": "rdma"})
    assert resolved["size"] == 128  # CLI strings coerce to the typed space
    with pytest.raises(Exception):
        sc.resolve({"mode": "bogus"})
    with pytest.raises(Exception):
        sc.resolve({"nonexistent": 1})


def test_loaded_numpy_global_rng_is_reseeded_per_job():
    # numpy is loaded in this process, so every job seeds numpy.random.
    def draw(seed):
        _seed_rngs(seed)
        return np.random.random()

    first = draw(1234)
    np.random.random()  # a previous job's draws must not leak through
    assert draw(1234) == first
    assert draw(1235) != first
