"""Host-time benchmark of the simulator, end to end and layer by layer.

Usage::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each workload (see ``workloads.py``) is a
serial campaign sweep -- planner, ``run_jobs``, scenario, cold result
cache -- run in a fresh interpreter (``worker.py``) per sweep, again and
again for ``--seconds``.

``--trace 0`` reports the end-to-end metrics, medians over the sweeps:
``setup_s`` (interpreter start to the first job being ready),
``sweep_s`` and ``sweep_cpu_s`` (wall and CPU time of the sweep),
``job_p50_ms`` (median job, over every job of every sweep) and
``peak_rss_mib``.

``--trace 1`` alternates untraced and cProfile-traced sweeps and reports
``<layer>.self_s`` / ``<layer>.calls`` per ``repro`` subpackage plus
``stdlib`` (see ``layers.py``), kernel and session-pool counters, and
``trace_overhead`` (traced over untraced ``sweep_s``).

Every job's cache record goes through the output check (``check.py``).
A table with sample counts and run context is printed first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run context and one span per job are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = BENCH / ".work"
OUT = BENCH / "out"

#: Fewest untraced sweeps a timed run takes the median of.
MIN_SWEEPS = 3
#: No run measures for longer than this many seconds.
RUN_LIMIT_S = 150.0

#: Per-sweep totals summed from job results: metric -> result key.
RESULT_COUNTERS = {"sim.timeouts": "timeouts",
                   "sim.retransmits": "retransmits",
                   "network.link_drops": "link_drops"}


def sweep(workload: str, seed: int, trace: bool, workdir: Path,
          timeout_s: float) -> dict:
    """Spawn one worker sweep in ``workdir``; its report and spawn time."""
    out = workdir / "report.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
             "1" if trace else "0", str(workdir / "cache"), str(out)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=timeout_s)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise RuntimeError(
                f"worker for {workload} exited {proc.returncode}")
        report = json.loads(out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["spawned"] = spawned
    report["traced"] = trace
    return report


def run_sweeps(workload: str, seed: int, seconds: float,
               trace: bool) -> tuple[list[dict], list[dict]]:
    """Untraced (and, with ``trace``, traced) sweeps for ``seconds``.

    A round is one untraced sweep, followed by a traced one with
    ``trace``.  After the minimum, no round starts that would, at the
    length of the last one, end past ``seconds``.
    """
    start = time.monotonic()
    timed: list[dict] = []
    traced: list[dict] = []
    minimum = 1 if trace else MIN_SWEEPS
    last = 0.0
    while len(timed) < minimum or (
            time.monotonic() + last <= start + min(seconds, RUN_LIMIT_S)):
        t0 = time.monotonic()
        for kind, reports in ((False, timed), (True, traced)):
            if kind and not trace:
                continue
            workdir = WORK / f"{'traced' if kind else 'timed'}-{len(reports)}"
            left = start + RUN_LIMIT_S - time.monotonic()
            reports.append(sweep(workload, seed, kind, workdir,
                                 max(left, 1.0)))
        last = time.monotonic() - t0
    return timed, traced


def end_to_end(timed: list[dict]) -> dict:
    """``{name: (value, unit, samples)}`` over the untraced sweeps."""
    job_ms = [(job["end"] - job["start"]) * 1e3
              for report in timed for job in report["jobs"]]
    n = len(timed)
    return {
        "setup_s": (median([r["ready"] - r["spawned"] for r in timed]), "s", n),
        "sweep_s": (median([r["sweep_s"] for r in timed]), "s", n),
        "sweep_cpu_s": (median([r["sweep_cpu_s"] for r in timed]), "s", n),
        "job_p50_ms": (median(job_ms), "ms", len(job_ms)),
        "peak_rss_mib": (median([r["peak_rss_mib"] for r in timed]), "MiB", n),
    }


def per_layer(timed: list[dict], traced: list[dict]) -> dict:
    """``{name: (value, unit, samples)}`` over the traced sweeps."""
    n = len(traced)
    out: dict = {}
    for layer in traced[0]["layers"]:
        out[f"{layer}.self_s"] = (
            median([r["layers"][layer]["self_s"] for r in traced]), "s", n)
        out[f"{layer}.calls"] = (
            median([r["layers"][layer]["calls"] for r in traced]), "count", n)
    counters = {name: median([r["counters"][name] for r in traced])
                for name in traced[0]["counters"]}
    for name in ("des.events", "des.environments", "total.calls",
                 "sim.checkouts"):
        out[name] = (counters[name], "count", n)
    out["des.calls_per_event"] = (
        counters["total.calls"] / counters["des.events"], "calls/event", n)
    out["sim.pool_hit_ratio"] = (counters["sim.pool_hit_ratio"], "ratio", n)
    out["sim.zipf_build_s"] = (counters["sim.zipf_build_s"], "s", n)
    out["campaign.cache_append_s"] = (
        counters["campaign.cache_append_s"], "s", n)
    for name, key in RESULT_COUNTERS.items():
        out[name] = (sum(job["record"]["result"].get(key, 0)
                         for job in traced[0]["jobs"]), "count", 1)
    out["trace_overhead"] = (
        median([r["sweep_s"] for r in traced])
        / median([r["sweep_s"] for r in timed]), "ratio", n)
    return out


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def record_expected(workload: str) -> int:
    """Write the default-seed digest of every job to ``expected/``."""
    from perfbench import check

    report = sweep(workload, DEFAULT_SEED, False, WORK / "record", 600.0)
    if report["error"] or len(report["jobs"]) != report["planned"]:
        print(f"error: sweep failed: {report['error']}", file=sys.stderr)
        return 1
    digests = {check.job_id(job["scenario"], job["params"]):
               check.digest(job["record"]) for job in report["jobs"]}
    check.EXPECTED_DIR.mkdir(exist_ok=True)
    path = check.EXPECTED_DIR / f"{workload}.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {path.relative_to(ROOT)}")
    return 0


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
    """Measure and check one workload; print its table and JSON line."""
    from perfbench import check

    timed, traced = run_sweeps(workload, seed, seconds, trace)
    sweeps = timed + traced
    expected = check.load_expected(workload) if seed == DEFAULT_SEED else None
    attempted, failed, reasons = check.check_sweeps(
        sweeps, timed[0]["planned"], expected)
    metrics = per_layer(timed, traced) if trace else end_to_end(timed)
    metrics["jobs_failed_frac"] = (failed / attempted, "ratio", attempted)
    fig3 = check.fig3_err_pct(timed[0]["jobs"])
    if fig3 is not None:
        metrics["fig3_err_pct"] = (fig3, "%", 8)

    context = dict(timed[0]["context"], workload=workload, seed=seed,
                   trace=int(trace),
                   digests="checked" if expected else "not recorded")
    print(f"{workload}: seed {seed}, {len(timed)} timed + {len(traced)} "
          f"traced sweeps of {timed[0]['planned']} jobs")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:12s} n={samples}")
    print(f"  context: {json.dumps(context, sort_keys=True)}")
    for reason in reasons:
        print(f"  FAILED {reason}")

    origin = timed[0]["spawned"]
    spans = [
        {"workload": workload, "scenario": job["scenario"],
         "params": job["params"], "traced": report["traced"], "sweep": n,
         "start": job["start"] - origin, "end": job["end"] - origin}
        for n, report in enumerate(sweeps) for job in report["jobs"]
    ]
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"context": context, "failures": reasons,
                    "metrics": {k: v[0] for k, v in metrics.items()},
                    "spans": spans}, indent=1))
    # The JSON line carries exactly the metrics BENCHMARK.json declares.
    names = [m["name"] for m in
             benchmark_spec()["per_layer" if trace else "end_to_end"]]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names},
    }), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or 'all' for every one "
                             "BENCHMARK.json lists, in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record the default-seed result digests and exit")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = ([w["name"] for w in benchmark_spec()["workloads"]]
                 if args.workload == "all" else [args.workload])
    for workload in workloads:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            if args.record:
                if record_expected(workload):
                    return 1
            else:
                run_workload(workload, args.seed, args.seconds,
                             bool(args.trace))
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
