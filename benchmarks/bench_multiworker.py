"""L3 — multi-worker scale-out: throughput, correctness under load.

The paper's server is one process on one machine; the pre-fork front
(``serve --workers N``) is how the reproduction scales past the GIL
without giving up the serial-equivalence the loadgen oracle certifies.
This bench runs the identical seeded HTTP workload against a 1-worker
and a 4-worker front and measures the scale-out:

* on a machine with >= 4 CPUs (CI runners) the 4-worker front must be
  >= 2.5x the single-worker throughput — the gate that keeps the
  sharded forwarding path from quietly eating the win;
* on smaller machines the gate relaxes to a sanity bound (the front
  must not *collapse* under process overhead), and the CPU count is
  recorded in the artifact so the trajectory reader can tell which
  bound applied;
* both runs must finish with zero 5xx and clean worker exits.

Writes ``bench_multiworker.json`` (flat facts dict) for CI upload and
the benchmark trajectory.
"""

import json
import os
import pathlib

from conftest import banner

from repro.loadgen import HttpTarget, generate_workload, run_script
from repro.web.prefork import MultiWorkerFront

SEED = 1996
USERS = 8
OPS = 480
THREADS = 8

#: the CI gate; override per-runner without a code change
MIN_SPEEDUP = float(os.environ.get("POWERPLAY_BENCH_MIN_SPEEDUP", "2.5"))
#: below 4 CPUs extra workers cannot pay for their IPC; only demand
#: that the front does not collapse
MIN_SPEEDUP_SMALL = 0.3

RESULTS = {}


def _soak(tmp_path, workers):
    script = generate_workload(SEED + 9, users=USERS, ops=OPS)
    front = MultiWorkerFront(
        tmp_path / f"w{workers}", workers=workers, backend="file"
    )
    with front:
        result = run_script(
            script, HttpTarget(front.base_url), threads=THREADS
        )
    codes = front.exit_codes()
    assert codes == {index: 0 for index in range(workers)}, codes
    assert len(result.results) == len(script)
    assert not result.server_errors, (
        f"{len(result.server_errors)} 5xx/errors, first: "
        f"{[(r.index, r.kind, r.status, r.error) for r in result.server_errors[:3]]}"
    )
    return result


def test_bench_single_worker_baseline(tmp_path):
    banner(
        "L3a — single-worker HTTP baseline",
        "one process, one GIL: the throughput the front must beat",
    )
    result = _soak(tmp_path, workers=1)
    print(
        f"{len(result.results)} ops over HTTP in "
        f"{result.wall_seconds:.2f} s -> {result.throughput:.0f} ops/s "
        f"({os.cpu_count()} CPU(s))"
    )
    RESULTS["cpu_count"] = os.cpu_count() or 1
    RESULTS["ops"] = OPS
    RESULTS["single_worker_throughput_ops"] = result.throughput
    RESULTS["single_worker_wall_seconds"] = result.wall_seconds


def test_bench_four_worker_scaleout(tmp_path):
    banner(
        "L3b — 4-worker scale-out",
        ">= 2.5x single-worker throughput on a >= 4-CPU machine",
    )
    assert "single_worker_throughput_ops" in RESULTS, "baseline did not run"
    result = _soak(tmp_path, workers=4)
    baseline = RESULTS["single_worker_throughput_ops"]
    speedup = result.throughput / baseline if baseline > 0 else 0.0
    cpus = RESULTS["cpu_count"]
    gate = MIN_SPEEDUP if cpus >= 4 else MIN_SPEEDUP_SMALL
    print(
        f"{len(result.results)} ops over HTTP in "
        f"{result.wall_seconds:.2f} s -> {result.throughput:.0f} ops/s"
    )
    print(f"speedup vs single worker: {speedup:.2f}x")
    if cpus >= 4:
        print(f"scale-out gate: >= {MIN_SPEEDUP:g}x on {cpus} CPU(s)")
    else:
        print(
            f"scale-out gate NOT ARMED: the >= {MIN_SPEEDUP:g}x bound "
            f"needs >= 4 CPUs and this machine has {cpus}; only the "
            f"no-collapse bound (>= {MIN_SPEEDUP_SMALL:g}x) is checked"
        )
    RESULTS["four_worker_throughput_ops"] = result.throughput
    RESULTS["four_worker_wall_seconds"] = result.wall_seconds
    RESULTS["speedup_4_workers"] = speedup
    RESULTS["speedup_gate"] = gate
    RESULTS["speedup_gate_full"] = cpus >= 4
    assert speedup >= gate, (
        f"4-worker front only {speedup:.2f}x the single-worker "
        f"throughput (need >= {gate:g}x on {cpus} CPU(s))"
    )


def test_write_artifact():
    """Persist the facts the earlier tests measured (CI artifact)."""
    required = (
        "cpu_count",
        "single_worker_throughput_ops",
        "four_worker_throughput_ops",
        "speedup_4_workers",
    )
    missing = [key for key in required if key not in RESULTS]
    assert not missing, f"earlier bench tests did not run: {missing}"
    artifact = pathlib.Path(__file__).parent / "bench_multiworker.json"
    artifact.write_text(json.dumps(RESULTS, indent=1, sort_keys=True))
    banner(
        "Multi-worker front — bench_multiworker.json artifact",
        "one flat facts dict for CI upload and the benchmark trajectory",
    )
    print(artifact.read_text())
