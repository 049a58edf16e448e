"""Output checks over the cache records of one workload's sweeps.

A job fails when it raised, when its result differs between two sweeps
of one run (timed or traced), when on the default seed it differs from
the digest recorded in ``expected/``, or when its request accounting
does not balance.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Fig. 3 inset protocol of each simulated ping-pong mode.
FIG3_PROTOCOL = {"rdma": "rdma", "p4": "p4",
                 "spin_store": "spin", "spin_stream": "spin"}


def job_id(scenario: str, params: dict) -> str:
    """Version-independent job name: scenario and canonical params."""
    return f"{scenario} {json.dumps(params, sort_keys=True, separators=(',', ':'))}"


def digest(record: dict) -> str:
    """Digest of the record's deterministic view, minus code identity.

    ``key`` and ``code_version`` hash the source tree, so they change
    with any edit; the scenario, params, job seed and result do not.
    """
    from repro.campaign import ResultCache

    view = ResultCache.deterministic_view(record)
    view.pop("key", None)
    view.pop("code_version", None)
    blob = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def accounting_error(result: dict) -> str | None:
    """Why the result's request counters do not balance, if they do not.

    Where the result carries ``offered``/``completed``/``lost``:
    offered = completed + lost + still outstanding (``in_flight``, zero
    when absent).  A request whose last retry timed out is lost, so where
    it carries ``timeouts``/``retransmits`` the final timeouts
    (timeouts - retransmits) must lie within ``lost``.
    """
    if {"offered", "completed", "lost"} <= result.keys():
        outstanding = result.get("in_flight", 0)
        if result["offered"] != result["completed"] + result["lost"] + outstanding:
            return (f"offered {result['offered']} != completed "
                    f"{result['completed']} + lost {result['lost']} "
                    f"+ in flight {outstanding}")
    if {"timeouts", "retransmits", "lost"} <= result.keys():
        final = result["timeouts"] - result["retransmits"]
        if not 0 <= final <= result["lost"]:
            return (f"final timeouts {final} outside [0, lost "
                    f"{result['lost']}]")
    return None


def load_expected(workload: str) -> dict | None:
    path = EXPECTED_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else None


def check_sweeps(sweeps: list[dict], planned: int,
                 expected: dict | None) -> tuple[int, int, list[str]]:
    """``(attempted, failed, reasons)`` over every job of every sweep."""
    attempted = planned * len(sweeps)
    failed = 0
    reasons: list[str] = []
    first: dict[str, str] = {}
    for n, sweep in enumerate(sweeps):
        done = [job for job in sweep["jobs"] if job["record"] is not None]
        if len(done) < planned:
            failed += planned - len(done)
            reasons.append(f"sweep {n}: {planned - len(done)} jobs missing"
                           f" ({sweep['error']})")
        for job in done:
            name = job_id(job["scenario"], job["params"])
            got = digest(job["record"])
            problem = accounting_error(job["record"]["result"])
            if name in first and got != first[name]:
                problem = "result differs between sweeps of one run"
            elif expected is not None and expected.get(name) != got:
                problem = "result differs from the recorded digest"
            first.setdefault(name, got)
            if problem:
                failed += 1
                reasons.append(f"sweep {n}: {name}: {problem}")
    return attempted, failed, reasons


def fig3_err_pct(jobs: list[dict]) -> float | None:
    """Mean |simulated - paper| / paper (%) of the 8 B half-RTT points.

    ``None`` unless all 8 points (4 protocols x int/dis) are present.
    """
    from repro.bench.paper_data import FIG3_SMALL_MSG_NS

    errs = []
    for job in jobs:
        params = job["params"]
        if job["scenario"] != "pingpong" or params["size"] != 8:
            continue
        paper = FIG3_SMALL_MSG_NS[params["config"]][FIG3_PROTOCOL[params["mode"]]]
        errs.append(abs(job["record"]["result"]["half_rtt_ns"] - paper) / paper)
    return 100.0 * sum(errs) / len(errs) if len(errs) == 8 else None
