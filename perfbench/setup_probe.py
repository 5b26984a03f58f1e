"""Time one cold set-up: import hermite_tr, load a config, build its problem.

Usage: python3 perfbench/setup_probe.py CONFIG.yaml
Prints the seconds taken.  Runs in a fresh process so the import is cold.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import hermite_tr  # noqa: E402
from hermite_tr.harness import load_config  # noqa: E402
from hermite_tr.problems import make_problem  # noqa: E402

cfg = load_config(sys.argv[1])
make_problem(cfg.problem, grid_n=cfg.grid_n)
print(time.perf_counter() - start)
