"""Set-up probe, run in a fresh interpreter by ``run.py``.

Imports the program, registers the built-in experiments, builds the
workload's runner and its first spec, then prints ``ready``; ``run.py``
times the interpreter from its start to that line.

Usage: ``python3 perfbench/setup_probe.py <workload> <work-dir> <seed>``
"""

import sys
from pathlib import Path

import workloads

workloads.load_builtin_experiments()
workload = workloads.WORKLOADS[sys.argv[1]]
workload.runner(Path(sys.argv[2]))
workload.spec(int(sys.argv[3]))
print("ready", flush=True)
