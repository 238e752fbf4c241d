"""Set-up probe: a fresh interpreter imports ``repro`` and prepares a workload.

run.py times it from spawn to the ``ready`` line, so ``setup_s`` includes
interpreter start-up and the import, as every user of the simulator pays them.

    python3 perfbench/probe.py <workload> <scratch dir>
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import harness

    harness.prepare(sys.argv[1], Path(sys.argv[2]))
    print("ready", flush=True)
