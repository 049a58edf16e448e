"""Campaign processes import only what their jobs run.

``setup.py`` declares ``numpy`` as the only hard dependency; ``networkx``
ships in the ``[test]`` extra for the topology and graph cross-checks.
A plain install must still list and run scenarios, and a process that
never builds a networkx graph must not pay its import time or memory.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

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


def _run_tiny_jobs(prelude: str = "") -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", RUN_TINY_JOBS.format(prelude=prelude)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.strip()


def test_scenarios_run_without_networkx_installed():
    # A None entry in sys.modules makes ``import networkx`` raise
    # ModuleNotFoundError, as on an install without the [test] extra.
    assert _run_tiny_jobs('sys.modules["networkx"] = None') == "False"


def test_running_jobs_does_not_import_networkx():
    assert _run_tiny_jobs() == "False"
