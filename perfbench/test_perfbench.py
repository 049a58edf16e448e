"""Tests of the benchmark's own code: layer fold, metric names, checks."""

from __future__ import annotations

import cProfile
import json
import os
import re
import sys

import pytest

from perfbench import check, layers
from perfbench.run import ROOT, sweep

import repro

REPRO_ROOT = os.path.dirname(repro.__file__)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_fold_names_a_layer_for_every_kind_of_frame():
    fold = layers.LayerFold(REPRO_ROOT)
    frames = {
        "~": "stdlib",
        "<string>": "stdlib",
        "<frozen importlib._bootstrap>": "stdlib",
        os.__file__: "stdlib",
        __file__: "stdlib",
        os.path.join(REPRO_ROOT, "des", "engine.py"): "des",
        os.path.join(REPRO_ROOT, "handlers_library.py"): "core",
        os.path.join(REPRO_ROOT, "__init__.py"): "core",
    }
    for filename, layer in frames.items():
        assert fold.layer_of(filename) == layer, filename
    assert "stdlib" in fold.layers
    assert {"des", "network", "machine", "core", "portals", "sim",
            "traffic", "faults", "campaign"} <= set(fold.layers)


def test_fold_attributes_every_profiled_frame():
    from repro.campaign import run_one

    profiler = cProfile.Profile()
    profiler.enable()
    run_one("pingpong", {"size": 64, "mode": "spin_stream"})
    profiler.disable()
    profiler.create_stats()
    fold = layers.LayerFold(REPRO_ROOT)
    folded = fold.fold(profiler.stats)
    assert set(folded) == set(fold.layers)
    assert all(fold.layer_of(f) in fold.layers for f, _, _ in profiler.stats)
    assert sum(v["calls"] for v in folded.values()) == sum(
        entry[1] for entry in profiler.stats.values())
    assert folded["des"]["calls"] > 0 and folded["stdlib"]["calls"] > 0


def test_benchmark_json_names_and_units_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])


def test_accounting_check():
    assert check.accounting_error(
        {"offered": 10, "completed": 8, "lost": 2}) is None
    assert check.accounting_error(
        {"offered": 10, "completed": 8, "lost": 1}) is not None
    assert check.accounting_error(
        {"offered": 4, "completed": 4, "lost": 0, "timeouts": 3,
         "retransmits": 3}) is None
    assert check.accounting_error(
        {"offered": 4, "completed": 3, "lost": 1, "timeouts": 3,
         "retransmits": 1}) is not None
    assert check.accounting_error({"half_rtt_ns": 1.0}) is None


@pytest.fixture(scope="module")
def traced_smoke(tmp_path_factory):
    base = tmp_path_factory.mktemp("perfbench")
    return [sweep("smoke", 7, True, base / f"traced-{n}", 120.0)
            for n in range(2)]


def test_two_traced_runs_count_exactly_the_same(traced_smoke):
    first, second = traced_smoke
    assert first["error"] is None and second["error"] is None
    assert first["counters"]["des.events"] > 0
    assert first["counters"]["des.events"] == second["counters"]["des.events"]
    assert {k: v["calls"] for k, v in first["layers"].items()} == {
        k: v["calls"] for k, v in second["layers"].items()}


def test_traced_runs_pass_the_output_check(traced_smoke):
    planned = traced_smoke[0]["planned"]
    attempted, failed, reasons = check.check_sweeps(traced_smoke, planned,
                                                    None)
    assert (attempted, failed, reasons) == (2 * planned, 0, [])
    wrong = {check.job_id(j["scenario"], j["params"]): "0"
             for j in traced_smoke[0]["jobs"]}
    _, failed, _ = check.check_sweeps(traced_smoke, planned, wrong)
    assert failed == 2 * planned


def test_run_refuses_a_tree_without_sources(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
