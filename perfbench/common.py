"""Shared pieces: run directories, percentiles, machine record."""

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: everything a run writes stays under the checkout, in this directory
RUNS = ROOT / ".perfbench_runs"

VDDS = ("1.1", "1.3", "1.5", "2.5", "3.3")  # the paper's five supplies

LATENCIES = ("read_p50_ms", "read_p90_ms", "write_p50_ms", "write_p90_ms")


def fresh_dir(name: str) -> Path:
    path = RUNS / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


#: what a run leaves behind: the spans and the server's log
KEEP = ("trace.json", "server.log")


def tidy_runs(workload: str) -> None:
    """Delete the state directories ``workload``'s passes made; keep
    their traces and server logs."""
    for run_dir in RUNS.glob(f"{workload}*"):
        if run_dir.name != workload and \
                not run_dir.name.startswith(f"{workload}-"):
            continue
        for child in run_dir.iterdir():
            if child.name in KEEP:
                continue
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)
            else:
                child.unlink()
        if not any(run_dir.iterdir()):
            run_dir.rmdir()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a sample (``q`` in 0..1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered) - 1e-9)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Middle value; the mean of the two middle ones for an even count."""
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class Outcome:
    """What one workload pass produced."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, tuple] = {}  # name -> (value, unit)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def layer_self(out: Outcome, stats: dict, ops: int) -> None:
    """Every layer's self time per operation."""
    for layer, (_calls, _total, own) in tracing.layer_totals(stats).items():
        out.put(f"{layer}.self_ms_per_op", own / ops * 1e3, "ms/op")


def written_bytes(pid="self") -> int:
    """Bytes a process has sent to storage so far (``/proc/PID/io``)."""
    for line in Path(f"/proc/{pid}/io").read_text().splitlines():
        if line.startswith("write_bytes:"):
            return int(line.split()[1])
    raise OSError(f"no write_bytes for process {pid}")


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed."""
    times = []
    for _ in range(5):
        began = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append(time.perf_counter() - began)
    return median(times)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = ROOT / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else text
    return text


def machine_record(workload: str, seed: int, inputs_digest: str) -> dict:
    import numpy

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        affinity = []
    return {
        "workload": workload,
        "seed": seed,
        "inputs_sha256": inputs_digest,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "calibration_s": calibration_s(),
    }


def pressure() -> Dict[str, float]:
    """Cumulative stall time (µs) the kernel reports for CPU and I/O,
    and the CPU time (ticks) a virtual machine's host stole from it:
    how much other work on the machine held this one up."""
    totals = {"at": time.monotonic()}
    for resource in ("cpu", "io"):
        try:
            line = Path(f"/proc/pressure/{resource}").read_text().split("\n")[0]
        except OSError:  # no pressure stall information on this kernel
            continue
        totals[resource] = float(line.rsplit("total=", 1)[1])
    try:
        ticks = [int(n) for n in Path("/proc/stat").read_text().split()[1:9]]
        totals["steal"], totals["ticks"] = ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):  # not Linux
        pass
    return totals


def pressure_since(before: Dict[str, float]) -> Dict[str, float]:
    """Share of wall time since ``before`` that some task stalled on
    CPU and on I/O, and share of all CPU time stolen, in percent."""
    after = pressure()
    wall_us = (after["at"] - before["at"]) * 1e6
    shares = {f"{resource}_pressure_pct": 100.0 * (after[resource]
                                                   - before[resource]) / wall_us
              for resource in ("cpu", "io") if resource in before}
    if "steal" in before:
        shares["steal_pct"] = 100.0 * (after["steal"] - before["steal"]) \
            / max(1, after["ticks"] - before["ticks"])
    return shares


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def emit(line: dict) -> None:
    sys.stdout.write(json.dumps(line, sort_keys=True) + "\n")
    sys.stdout.flush()
