"""Compute the exact Pareto front of the ``sweep_1m`` space, once.

Every one of the 1,000,809 points is evaluated with the exact batch
evaluator (bit-identical to ``evaluate_power``) in two forked worker
processes, and the non-dominated set over (power, access_time) is
taken with the same rules as ``repro.explore.results.pareto_rows``.
The front's point indices are stored as a digest in ``reference.json``
beside this file, which the ``sweep_1m`` workload checks against.  The
check never depends on which engine produced the front.

    python3 perfbench/reference.py          # ~3 minutes on 2 CPUs
"""

import hashlib
import json
import math
import multiprocessing
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.designs.infopad import build_infopad  # noqa: E402
from repro.explore.batcheval import BatchEvaluator  # noqa: E402

from spaces import ACCESS_TIME, sweep_1m_space  # noqa: E402

REFERENCE = HERE / "reference.json"
CHUNK = 20_000

_STATE = {}


def _init() -> None:
    _STATE["space"] = sweep_1m_space()
    _STATE["evaluator"] = BatchEvaluator(build_infopad(), ("power",))


def _chunk(start: int, stop: int):
    space, evaluator = _STATE["space"], _STATE["evaluator"]
    out = []
    for index in range(start, stop):
        point = space.point(index)
        power = evaluator.evaluate(point["overrides"])["power"]
        env = dict(point["values"])
        env.update(point["overrides"])
        env["power"] = power
        out.append((power, ACCESS_TIME.value(env)))
    return start, out


def front_indices(vectors) -> list:
    """Indices not dominated under minimisation; exact ties all kept."""
    order = sorted(
        (v, i) for i, v in enumerate(vectors)
        if all(math.isfinite(x) for x in v)
    )
    front = []
    best = math.inf  # lowest access_time among strictly earlier vectors
    position = 0
    while position < len(order):
        vector = order[position][0]
        group_end = position
        while group_end < len(order) and order[group_end][0] == vector:
            group_end += 1
        if vector[1] < best:
            front.extend(i for _, i in order[position:group_end])
            best = vector[1]
        position = group_end
    return sorted(front)


def digest(indices) -> str:
    text = ",".join(str(int(i)) for i in sorted(indices))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def main() -> int:
    space = sweep_1m_space()
    total = len(space)
    began = time.perf_counter()
    vectors = [None] * total
    context = multiprocessing.get_context("fork")
    with context.Pool(2, initializer=_init) as pool:
        jobs = [
            pool.apply_async(_chunk, (start, min(start + CHUNK, total)))
            for start in range(0, total, CHUNK)
        ]
        for job in jobs:
            start, values = job.get()
            vectors[start:start + len(values)] = values
    front = front_indices(vectors)
    payload = {
        "space": "sweep_1m",
        "points": total,
        "objectives": ["power", "access_time"],
        "front_size": len(front),
        "front_sha256": digest(front),
        "exact_seconds": round(time.perf_counter() - began, 1),
    }
    REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
