"""Run one workload sweep in a fresh interpreter and report it as JSON.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED TRACE WORKDIR OUT``

Set-up (import ``repro``, load the scenario registry, plan the sweep,
open a cold cache under ``WORKDIR``) ends at ``ready``; the sweep then
runs through ``run_jobs`` with one job at a time, as ``campaign sweep
-w 1`` does.  With ``TRACE=1`` the sweep runs under cProfile and a
``KernelMeter``.  ``run.py`` spawns this script and reads ``OUT``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

SWITCHES = ("REPRO_EVENT_QUEUE", "REPRO_SESSION_POOL",
            "REPRO_FABRIC_FAST_PATH", "REPRO_NIC_FAST_RX")


def main(argv: list[str]) -> int:
    workload, seed, trace, workdir, out = argv
    seed, trace = int(seed), trace == "1"
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root))
    from perfbench import workloads

    import repro
    from repro.campaign import ResultCache, code_version, run_jobs

    if Path(repro.__file__).resolve().parent != root / "src" / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {root / 'src'}")

    jobs = workloads.plan(workload, seed)
    cache_path = Path(workdir) / "results.jsonl"
    cache_path.parent.mkdir(parents=True, exist_ok=True)
    ready = time.monotonic()

    marks: list[float] = []  # one per job, after its cache record

    def progress(_msg: str) -> None:
        marks.append(time.monotonic())

    if trace:
        import cProfile

        from repro.perf import KernelMeter
        profiler, meter = cProfile.Profile(), KernelMeter()
        meter.__enter__()
        profiler.enable()
    error = None
    cpu0, t0 = time.process_time(), time.monotonic()
    try:
        run_jobs(jobs, workers=1, cache_path=cache_path, progress=progress)
    except Exception as exc:  # reported as failed jobs by run.py
        error = f"{type(exc).__name__}: {exc}"
    t1, cpu1 = time.monotonic(), time.process_time()
    if trace:
        profiler.disable()
        meter.__exit__(None, None, None)

    records = ResultCache(cache_path).load()
    report = {
        "ready": ready,
        "sweep_s": t1 - t0,
        "sweep_cpu_s": cpu1 - cpu0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error": error,
        "jobs": [
            {"scenario": job.scenario, "params": job.params_dict,
             "start": marks[i - 1] if i else t0, "end": marks[i],
             "record": records.get(job.key)}
            for i, job in enumerate(jobs[:len(marks)])
        ],
        "planned": len(jobs),
        "context": {
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "code_version": code_version(),
            "switches": {name: os.environ.get(name) for name in SWITCHES},
        },
    }
    if trace:
        from perfbench.layers import LayerFold, counters

        profiler.create_stats()
        fold = LayerFold(os.path.dirname(repro.__file__))
        report["layers"] = fold.fold(profiler.stats)
        report["counters"] = {
            **counters(profiler.stats),
            "des.events": meter.events,
            "des.environments": meter.environments,
        }
    Path(out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
