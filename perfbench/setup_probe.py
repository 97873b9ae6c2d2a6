"""Time one benchmark set-up in a fresh interpreter; run.py starts it.

Set-up is everything a run does before its first timed pass: importing numpy
and fdrelay, reading the config, building the workload's inputs, and one
warm-up call.  Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``;
prints the seconds taken as its only line.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](ROOT, int(sys.argv[2])).setup()
print(time.perf_counter() - t0)
