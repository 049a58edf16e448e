"""Campaign processes import only what their jobs run.

``setup.py`` declares ``numpy`` as the only hard dependency; ``networkx``
ships in the ``[test]`` extra for the topology and graph cross-checks.
A plain install must still list and run scenarios, and a process that
never builds a networkx graph must not pay its import time or memory.
Likewise a process whose scenarios model messages without bytes must
not import numpy, nor the storage modules of scenarios it never runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.campaign.registry import BUILTIN_SCENARIOS

SRC = str(Path(repro.__file__).resolve().parents[1])

RUN_TINY_JOBS = """
import sys
{prelude}
import repro.campaign
from repro.campaign import registry

registry.load_builtins()
for name in ("pingpong", "kv_serving"):
    sc = registry.get_scenario(name)
    result = sc.run(sc.tiny)
    assert isinstance(result, dict) and result, name
print(sys.modules.get("networkx") is not None)
"""


RUN_BY_NAME = """
import sys
from repro.campaign import registry

for name in {names!r}:
    sc = registry.get_scenario(name)
    result = sc.run(sc.tiny)
    assert isinstance(result, dict) and result, name
print(sorted(m for m in ("numpy", "repro.storage.raid") if m in sys.modules))
"""


def _run_fresh(script: str) -> str:
    """Run ``script`` in a fresh interpreter; its stripped stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.strip()


def _run_tiny_jobs(prelude: str = "") -> str:
    return _run_fresh(RUN_TINY_JOBS.format(prelude=prelude))


def test_scenarios_run_without_networkx_installed():
    # A None entry in sys.modules makes ``import networkx`` raise
    # ModuleNotFoundError, as on an install without the [test] extra.
    assert _run_tiny_jobs('sys.modules["networkx"] = None') == "False"


def test_running_jobs_does_not_import_networkx():
    assert _run_tiny_jobs() == "False"


def test_byte_free_scenarios_import_neither_numpy_nor_storage():
    # get_scenario imports only the module that registers each name, and
    # none of these scenarios carries payload bytes or reads an HPU arena.
    names = ("kv_serving", "incast_load", "bursting_load")
    assert _run_fresh(RUN_BY_NAME.format(names=names)) == "[]"


def test_a_byte_modelling_scenario_still_loads_numpy():
    out = _run_fresh(RUN_BY_NAME.format(names=("pingpong",)))
    assert "'numpy'" in out


def test_job_seeding_does_not_import_numpy():
    script = """
import sys
from repro.campaign.executor import _seed_rngs

_seed_rngs(7)
assert "numpy" not in sys.modules
sys.modules["numpy"] = None  # as on an interpreter without numpy
_seed_rngs(7)
print("ok")
"""
    assert _run_fresh(script) == "ok"


def test_unknown_scenario_falls_back_to_every_builtin():
    # Without load_builtins(), the error must still list all 24 names.
    script = """
from repro.campaign import registry

try:
    registry.get_scenario("no_such_scenario")
except registry.ScenarioError as exc:
    print(exc)
"""
    out = _run_fresh(script)
    assert out.startswith("unknown scenario 'no_such_scenario'"), out
    known = out.split("known: ", 1)[1].split(", ")
    assert known == sorted(BUILTIN_SCENARIOS)
    assert len(known) == 24
