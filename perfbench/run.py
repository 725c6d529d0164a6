"""PowerPlay benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload sheet_play --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10   # every workload

``--trace 0`` prints the end-to-end metrics, measured with nothing
wrapped.  ``--trace 1`` runs the same workload untraced and then traced
and prints the per-layer metrics, including the tracing overhead.  The
last line of standard output is the result object; the line before it
records the machine, the inputs and how much other load stalled the
run.  See README.md in this directory.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from common import emit, machine_record, pressure, pressure_since, tidy_runs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: workloads and metric name -> unit, as BENCHMARK.json lists them
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: wall-clock figures: printed with the machine record, not gated, because
#: on a shared virtual machine they follow the CPU time the host steals
WALL = ("ops_per_s", "read_p50_ms", "read_p90_ms", "write_p50_ms",
        "write_p90_ms", "wall_setup_s")


def run_pass(workload: str, seed: int, seconds: float, traced: bool,
             delays=None):
    """One measured pass of ``workload``; returns a common.Outcome."""
    if workload == "sheet_play":
        from web import sheet_pass
        return sheet_pass(seed, seconds, traced, delays)
    from sweeps import sweep_pass
    return sweep_pass(workload, seed, seconds, traced, delays)


def inputs_digest(workload: str, seed: int) -> str:
    if workload == "sheet_play":
        from web import sheet_inputs
        return sheet_inputs(seed)
    from sweeps import WORKLOADS as SWEEPS
    return SWEEPS[workload](seed).inputs()


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run, check and report one workload: ``(result object, the
    untraced pass's wall-clock figures)``."""
    untraced = run_pass(workload, seed, seconds, traced=False)
    outcomes = [untraced]
    if trace:
        traced = run_pass(workload, seed, seconds, traced=True)
        outcomes.append(traced)
        overhead = (traced.metrics["cpu_ms_per_op"][0]
                    / untraced.metrics["cpu_ms_per_op"][0] - 1.0) * 100.0
        traced.put("trace.overhead_pct", overhead, "%")
        wanted, source = PER_LAYER, traced
    else:
        wanted, source = END_TO_END, untraced
    metrics = {}
    for name, unit in wanted.items():
        # a layer this workload never calls reads 0; an end-to-end
        # metric must always have been measured
        value = (source.metrics[name][0] if not trace
                 else source.metrics.get(name, (0.0, unit))[0])
        metrics[name] = {"value": value, "unit": unit}
    problems = [p for outcome in outcomes for p in outcome.problems]
    failed = sum(outcome.failed for outcome in outcomes)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    wall = {name: {"value": untraced.metrics[name][0],
                   "unit": untraced.metrics[name][1]} for name in WALL}
    return {
        "correct": failed == 0,
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": failed,
        "metrics": metrics,
    }, wall


def run_all(args) -> int:
    """Each workload in its own process, so each reports its own peak
    memory; prints every metric with its unit and the check verdict."""
    results = {}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"== {workload}: exited {child.returncode}")
            results[workload] = None
            continue
        record = json.loads(lines[-2])
        result = results[workload] = json.loads(lines[-1])
        print(json.dumps(record["machine"], sort_keys=True))
        verdict = "PASS" if result["correct"] else "FAIL"
        print(f"== {workload}: output check {verdict} "
              f"({result['failed']} of {result['attempted']} failed)")
        shown = list(result["metrics"].items())
        shown += [(f"{name} (wall clock)", metric)
                  for name, metric in record["wall"].items()]
        for name, metric in shown:
            print(f"   {name:36s} {metric['value']:14.4f} {metric['unit']}")
    emit({"workloads": results})
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print each result")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload NAME or --all")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    workload = args.workload
    machine = machine_record(workload, args.seed,
                             inputs_digest(workload, args.seed))
    stalls = pressure()
    result, wall = measure(workload, args.seed, args.seconds,
                           bool(args.trace))
    machine.update(pressure_since(stalls))
    emit({"machine": machine, "wall": wall})
    tidy_runs(workload)
    emit(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
