"""Host-time benchmark of the simulator: see ``perfbench/run.py``."""
