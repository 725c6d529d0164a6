"""Start a sweep the way ``repro sweep --state`` does, up to ready.

    python3 perfbench/sweep_setup.py WORKLOAD SEED JOB_DIR

Imports the program, builds the design and the space, and persists a
``pending`` job in ``JOB_DIR``: the set-up a sweep pays before its
engine starts.  ``sweeps.py`` times this process as ``setup_s``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.explore import JobStore  # noqa: E402

from sweeps import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    workload, seed, job_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    WORKLOADS[workload](seed).create(JobStore(Path(job_dir)))
