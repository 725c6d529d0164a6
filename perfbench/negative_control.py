"""Negative controls: a delay injected into one layer must move the
end-to-end metrics that layer feeds, and only those.

    python3 perfbench/negative_control.py [--seconds 5]

Each control runs a workload pass with a fixed spin delay added to
every call into one layer (through the same wrappers the traced run
uses) and compares it with undelayed passes of the same seed.  The
delays exist only here; ``run.py`` never sets one.  Exits non-zero if
any control fails.

Each control checks the gated metric, ``cpu_ms_per_op`` (a move
larger than its bound in BENCHMARK.json counts as moved), and where the
claim is about what a user waits for, the wall-clock figure as well.

* ``core.expressions`` delay on ``sweep``: ``cpu_ms_per_op`` must rise
  and ``ops_per_s`` (points per second, wall clock) must drop.
  Expression evaluation is on the sweep's critical path in every pool
  worker.
* delay in the estimator's evaluations (``evaluate_power``, ``_area``,
  ``_timing``) on ``sweep``: predicted flat.  The exact sweep evaluates
  points with ``explore.batcheval``, which re-implements the estimator's
  row semantics and never calls ``core.estimator``.
* the same delay on ``sheet_play``: predicted flat, because the
  evaluation cache (warmed during set-up) answers every sheet and PLAY.
  (A delay on the whole ``core.estimator`` layer is not flat: every
  cache hit copies its report with ``PowerReport.copy``, a method of
  that module.)
* ``state`` delay on ``sheet_play``: ``cpu_ms_per_op`` and
  ``write_p50_ms`` (wall clock) must rise, because every PLAY saves the
  user's session through the state layer.
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import SPEC, run_pass  # noqa: E402

SEED = 7
EVALUATIONS = {f"core.estimator:evaluate_{kind}": 5e-3
               for kind in ("power", "area", "timing")}
BOUND = next(m["bound"] for m in SPEC["end_to_end"]
             if m["name"] == "cpu_ms_per_op")


def paired(workload: str, delays: dict, seconds: float):
    """Mean metrics of two baseline and two delayed passes, alternated:
    ``(baseline, delayed)``, each a dict of metric name -> value."""
    passes = {False: [], True: []}
    for _ in range(2):
        for delayed in (False, True):
            outcome = run_pass(workload, SEED, seconds, False,
                               delays if delayed else None)
            if outcome.failed:
                raise SystemExit(
                    f"output check failed: {outcome.problems[:3]}")
            passes[delayed].append(outcome.metrics)
    return tuple({name: sum(m[name][0] for m in runs) / len(runs)
                  for name in runs[0]}
                 for runs in (passes[False], passes[True]))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args()
    failures = 0

    def report(label: str, name: str, base: dict, delayed: dict,
               moves: str) -> None:
        """``moves``: "up", "down" or "flat" (within the bound)."""
        nonlocal failures
        change = delayed[name] / base[name] - 1
        ok = {"up": change > BOUND, "down": change < -BOUND,
              "flat": abs(change) < BOUND}[moves]
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {name} "
              f"{base[name]:.3f} -> {delayed[name]:.3f} ({change:+.1%}, "
              f"expected {moves})", flush=True)

    base, delayed = paired("sweep", {"core.expressions": 20e-6},
                           args.seconds)
    report("expressions delay on sweep", "cpu_ms_per_op", base, delayed,
           "up")
    report("expressions delay on sweep", "ops_per_s", base, delayed, "down")

    base, delayed = paired("sweep", EVALUATIONS, args.seconds)
    report("estimator delay on sweep", "cpu_ms_per_op", base, delayed,
           "flat")

    base, delayed = paired("sheet_play", EVALUATIONS, args.seconds)
    report("estimator delay on sheet_play", "cpu_ms_per_op", base, delayed,
           "flat")

    base, delayed = paired("sheet_play", {"state": 10e-3}, args.seconds)
    report("state delay on sheet_play", "cpu_ms_per_op", base, delayed, "up")
    report("state delay on sheet_play", "write_p50_ms", base, delayed, "up")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
