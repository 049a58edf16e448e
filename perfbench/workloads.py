"""Benchmark workloads: named serial campaign sweeps.

Each workload is a list of ``(scenario, grid, overrides)`` sweeps.  The
benchmark seed goes to the planner's ``base_seed`` and to every scenario
parameter in :data:`SEEDED_PARAMS`, so one seed fixes every input.  Grid
axes are planned in sorted order, as ``campaign sweep`` plans them.
"""

from __future__ import annotations

#: Seed the result digests in ``expected/`` were recorded with.
DEFAULT_SEED = 1

#: Scenario parameters that take the benchmark seed.
SEEDED_PARAMS = ("seed", "trace_seed")

WORKLOADS = {
    "paper-sweep": {
        "why": "many short figure jobs on the contention-free LogGP pipe: "
               "NIC chains, HPU handlers, portals matching, session pool "
               "and per-job campaign overhead do the work",
        "sweeps": [
            ("pingpong", {"size": [8, 512, 4096, 65536],
                          "mode": ["rdma", "p4", "spin_store", "spin_stream"],
                          "config": ["int", "dis"]}, {}),
            ("accumulate", None, {}),
            ("datatype_recv", {"blocksize": [1024, 4096, 32768],
                               "mode": ["rdma", "spin"]},
             {"message": 1 << 20}),
            ("broadcast", {"procs": [4, 16], "size": [8, 65536],
                           "mode": ["rdma", "p4", "spin"]}, {}),
            ("raid_update", None, {}),
            ("spc_replay", None, {}),
            ("apps_matching", None, {"nprocs": 8}),
        ],
    },
    "congestion-load": {
        "why": "open-loop load on the congestion fabric: per-hop link walk, "
               "tail-drop, materialised traffic schedules, retry timers and "
               "fault hooks do the work",
        "sweeps": [
            ("incast_load", {"fanin": [2, 4, 8, 16, 32, 64]}, {}),
            ("permutation_traffic", {"shift": [1, 4],
                                     "routing": ["ecmp", "dmodk"]}, {}),
            ("bursting_load", None, {}),
            ("burst_under_flap", None, {}),
            ("congested_tenants", None, {}),
        ],
    },
    "kv-serving": {
        "why": "few long serving jobs: fluid population arrivals, Zipf "
               "draws, streaming sketches and windowed SLO tracking over a "
               "deep DES queue",
        "sweeps": [
            ("kv_serving", {"theta": [0.0, 0.99], "nservers": [2, 4, 8]},
             {"requests": 2000}),
            ("tenant_overload", {"overload": [1.0, 4.0, 16.0]},
             {"tenants": 2, "requests": 600}),
        ],
    },
    # Not a benchmark workload: a sub-second sweep for the benchmark's
    # own tests.
    "smoke": {
        "why": "tiny sweep for the benchmark's own tests",
        "sweeps": [
            ("pingpong", {"size": [8, 4096], "mode": ["rdma", "spin_stream"]},
             {}),
            ("incast_load", {"fanin": [2]}, {"count": 8}),
            ("kv_serving", {"theta": [0.99]},
             {"requests": 200, "nkeys": 1000}),
        ],
    },
}


def plan(workload: str, seed: int) -> list:
    """The workload's jobs, in sweep order, for benchmark seed ``seed``."""
    from repro.campaign import get_scenario, plan_grid

    jobs = []
    for name, grid, overrides in WORKLOADS[workload]["sweeps"]:
        sc = get_scenario(name)
        grid = dict(sorted((grid or sc.sweep).items()))
        point = dict(overrides)
        for p in sc.params:
            if p.name in SEEDED_PARAMS and p.name not in grid:
                point[p.name] = seed
        jobs.extend(plan_grid(name, grid, base_seed=seed, overrides=point))
    if len({job.key for job in jobs}) != len(jobs):
        raise ValueError(f"workload {workload!r} plans one job twice")
    return jobs
