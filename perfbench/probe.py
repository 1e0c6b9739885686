"""Set-up probe: import switchkit, run a workload's set-up, print "ready".

    python3 perfbench/probe.py WORKLOAD SEED

run.py times this from spawn to the "ready" line to measure set-up in a
fresh process.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).setup()
print("ready", flush=True)
