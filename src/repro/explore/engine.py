"""The exploration engine: chunked, parallel, resumable sweeps.

Execution model
---------------
A sweep is the parameter space sharded into ``[start, stop)`` chunks
(:meth:`ParameterSpace.chunks`).  Chunks are independent: each is a
pure function of (design payload, space payload, chunk range), so they
can run serially or on forked worker processes and the assembled
result is identical — rows are keyed by point index, not
by completion order, and every worker evaluates with its **own** design
replica (scope mutation during evaluation is not shareable).

Determinism is the load-bearing property: objective values are
bit-identical to serial :func:`repro.core.estimator.evaluate_power`
calls (see :mod:`repro.explore.batcheval`), so serial, multi-worker,
and killed-then-resumed runs all export byte-identical results.

``mode``:

* ``serial`` — one evaluator, in-process; the row-reuse baseline.
* ``process`` — forked workers, each with its own design replica and
  evaluator, for multi-core scaling.  With ``workers == 1`` it runs
  in-process exactly like ``serial``: one worker gains nothing from a
  fork.

Cancellation (``should_stop``) is polled between chunks: finished
chunks are already checkpointed via ``on_chunk``, in-flight chunks
drain, unstarted chunks are never submitted — exactly the state a
resume picks up from.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.design import Design
from ..errors import ExploreError, PowerPlayError
from ..library.designio import design_from_payload, design_to_payload
from ..obs import annotate, get_logger, get_registry, span
from .batcheval import BatchEvaluator
from .jobs import SweepJob
from .results import pareto_rows
from .space import DerivedObjective, ParameterSpace

_LOG = get_logger("explore")

#: per-chunk evaluation latency buckets — sweeps chunk at tens of
#: points, each point sub-millisecond to a few ms
_CHUNK_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0
)


def _metric_points():
    return get_registry().counter(
        "powerplay_explore_points_total",
        "Design points evaluated by the exploration engine.",
        ("status",),
    )


def _metric_memo():
    return get_registry().counter(
        "powerplay_explore_memo_total",
        "Batch-evaluator row memoization outcomes.",
        ("kind",),
    )


def _metric_chunk_seconds():
    return get_registry().histogram(
        "powerplay_explore_chunk_seconds",
        "Wall-clock seconds spent evaluating one sweep chunk.",
        buckets=_CHUNK_BUCKETS,
    )


@dataclass
class EngineReport:
    """What one engine run did (counts only, no rows)."""

    points: int = 0
    errors: int = 0
    chunks: int = 0
    hits: int = 0
    misses: int = 0
    seconds: float = 0.0
    mode: str = "serial"
    workers: int = 1

    def to_payload(self) -> dict:
        return {
            "points": self.points,
            "errors": self.errors,
            "chunks": self.chunks,
            "hits": self.hits,
            "misses": self.misses,
            "seconds": self.seconds,
            "mode": self.mode,
            "workers": self.workers,
        }


@dataclass
class SweepOutcome:
    """A finished (or pruned) sweep: rows in point order + the report."""

    rows: List[dict]
    report: EngineReport
    axis_names: List[str] = field(default_factory=list)
    objective_names: List[str] = field(default_factory=list)

    def pareto(self, objectives: Optional[Sequence[str]] = None) -> List[dict]:
        return pareto_rows(self.rows, objectives or self.objective_names)


def _point_row(
    evaluator: BatchEvaluator,
    space: ParameterSpace,
    derived: Sequence[DerivedObjective],
    index: int,
) -> dict:
    """Evaluate one point into its serializable result row.

    A :class:`PowerPlayError` (bad model input at this corner of the
    space, say a zero divisor) marks the row failed and the sweep goes
    on; anything else is an engine bug and propagates.
    """
    point = space.point(index)
    row = {
        "index": index,
        "values": point["values"],
        "overrides": point["overrides"],
    }
    try:
        objectives = evaluator.evaluate(point["overrides"])
        env: Dict[str, float] = dict(point["values"])
        env.update(point["overrides"])
        env.update(objectives)
        for obj in derived:
            value = obj.value(env)
            objectives[obj.name] = value
            env[obj.name] = value
        row["objectives"] = objectives
        row["error"] = ""
    except PowerPlayError as exc:
        row["objectives"] = {}
        row["error"] = str(exc)
    return row


def _evaluate_chunk(
    evaluator: BatchEvaluator,
    space: ParameterSpace,
    derived: Sequence[DerivedObjective],
    points: Sequence[int],
) -> Tuple[List[dict], float, int, int]:
    """One chunk's rows, its seconds and the evaluator's hit and miss
    counts over it."""
    hits0, misses0 = evaluator.hits, evaluator.misses
    began = time.perf_counter()
    rows = [_point_row(evaluator, space, derived, index) for index in points]
    return (rows, time.perf_counter() - began,
            evaluator.hits - hits0, evaluator.misses - misses0)


# -- process-mode workers ---------------------------------------------------

# one evaluator per worker process, built once by the pool initializer
_PROC_STATE: Optional[Tuple[BatchEvaluator, ParameterSpace,
                            Tuple[DerivedObjective, ...]]] = None


def _proc_init(design_payload, space_payload, objectives, derived_payloads):
    global _PROC_STATE
    design = design_from_payload(design_payload)
    space = ParameterSpace.from_payload(space_payload)
    derived = tuple(
        DerivedObjective.from_payload(d) for d in derived_payloads
    )
    _PROC_STATE = (BatchEvaluator(design, tuple(objectives)), space, derived)


def _proc_chunk(chunk: tuple, points: Sequence[int]):
    evaluator, space, derived = _PROC_STATE
    return (chunk,) + _evaluate_chunk(evaluator, space, derived, points)


#: the worker entry point under its second name: profilers that dump a
#: worker's totals after each chunk (``perfbench/tracing.py``) wrap
#: both names
_proc_index_chunk = _proc_chunk


# -- the engine -------------------------------------------------------------

def _observe_chunk(record: Mapping) -> None:
    rows = record["rows"]
    failed = sum(1 for row in rows if row["error"])
    if len(rows) - failed:
        _metric_points().inc(len(rows) - failed, status="ok")
    if failed:
        _metric_points().inc(failed, status="error")
    _metric_chunk_seconds().observe(record["seconds"])
    where = (
        {"range": f"{record['start']}:{record['stop']}"}
        if "start" in record else {"ordinal": record["ordinal"]}
    )
    annotate(
        "chunk",
        **where,
        points=len(rows),
        errors=failed,
        seconds=round(record["seconds"], 6),
    )


def _drive(
    design: Design,
    space: ParameterSpace,
    chunks: Sequence[tuple],
    points_of: Callable[[tuple], Sequence[int]],
    header: Callable[[tuple], dict],
    objectives: Sequence[str],
    derived: Sequence[DerivedObjective],
    workers: int,
    mode: str,
    should_stop: Optional[Callable[[], bool]],
    on_chunk: Optional[Callable[..., None]],
) -> Tuple[Dict[int, dict], EngineReport]:
    """Evaluate ``chunks`` in-process or on forked workers.

    A chunk is a pair whose first member keys its record;
    ``points_of(chunk)`` lists its point indices and ``header(chunk)``
    starts its record, to which ``rows`` and ``seconds`` are added.
    ``on_chunk(*chunk, rows, seconds)`` fires as each chunk finishes.
    """
    objectives = tuple(objectives)
    derived = tuple(derived)
    workers = max(1, int(workers))
    records: Dict[int, dict] = {}
    report = EngineReport(mode=mode, workers=workers)
    began = time.perf_counter()

    def _record(chunk, rows, seconds, hits, misses):
        record = header(chunk)
        record["rows"] = rows
        record["seconds"] = seconds
        records[int(chunk[0])] = record
        report.points += len(rows)
        report.errors += sum(1 for row in rows if row["error"])
        report.chunks += 1
        report.hits += hits
        report.misses += misses
        _observe_chunk(record)
        if on_chunk is not None:
            on_chunk(*chunk, rows, seconds)

    if mode not in ("serial", "process"):
        raise ExploreError(
            f"unknown engine mode {mode!r}; choose serial or process"
        )
    if mode == "serial" or workers == 1:
        evaluator = BatchEvaluator(design, objectives)
        for chunk in chunks:
            if should_stop is not None and should_stop():
                break
            with span("explore.chunk"):
                _record(chunk, *_evaluate_chunk(
                    evaluator, space, derived, points_of(chunk)))
    else:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platforms without fork
            context = multiprocessing.get_context()
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_proc_init,
            initargs=(
                design_to_payload(design),
                space.to_payload(),
                objectives,
                [d.to_payload() for d in derived],
            ),
        ) as pool:
            _pump(pool, _proc_chunk, chunks, points_of, workers,
                  should_stop, _record)

    report.seconds = time.perf_counter() - began
    _metric_memo().inc(report.hits, kind="hit")
    _metric_memo().inc(report.misses, kind="miss")
    return records, report


def run_chunks(
    design: Design,
    space: ParameterSpace,
    chunks: Sequence[Tuple[int, int]],
    objectives: Sequence[str] = ("power",),
    derived: Sequence[DerivedObjective] = (),
    workers: int = 1,
    mode: str = "serial",
    should_stop: Optional[Callable[[], bool]] = None,
    on_chunk: Optional[Callable[[int, int, List[dict], float], None]] = None,
) -> Tuple[Dict[int, dict], EngineReport]:
    """Evaluate ``chunks`` of ``space``, calling ``on_chunk`` as each
    finishes (that's the checkpoint hook).

    Returns ``(records, report)`` where ``records`` maps chunk start ->
    ``{"start", "stop", "rows", "seconds"}``.  ``should_stop`` is polled
    between chunks; unstarted chunks stay unevaluated, which is exactly
    the state :meth:`SweepJob.pending_chunks` resumes from.
    """
    records, report = _drive(
        design, space, chunks,
        lambda chunk: range(chunk[0], chunk[1]),
        lambda chunk: {"start": chunk[0], "stop": chunk[1]},
        objectives, derived, workers, mode, should_stop, on_chunk,
    )
    _LOG.info(
        "run", mode=report.mode, workers=report.workers,
        chunks=report.chunks, points=report.points, errors=report.errors,
        hits=report.hits, misses=report.misses,
        seconds=round(report.seconds, 4),
    )
    return records, report


def run_index_chunks(
    design: Design,
    space: ParameterSpace,
    index_chunks: Sequence[Tuple[int, Sequence[int]]],
    objectives: Sequence[str] = ("power",),
    derived: Sequence[DerivedObjective] = (),
    workers: int = 1,
    mode: str = "serial",
    should_stop: Optional[Callable[[], bool]] = None,
    on_chunk: Optional[Callable[[int, Sequence[int], List[dict], float],
                                None]] = None,
) -> Tuple[Dict[int, dict], EngineReport]:
    """Evaluate explicit point-index lists — the surrogate engine's
    exact phases (scattered training samples, the predicted front).

    ``index_chunks`` is ``[(ordinal, [indices...]), ...]``; each chunk
    checkpoints through ``on_chunk(ordinal, indices, rows, seconds)``
    exactly like :func:`run_chunks` does for contiguous ranges, with
    the same serial/process modes and cancellation contract.
    Records are ``{"ordinal", "indices", "rows", "seconds"}``.
    """
    return _drive(
        design, space, index_chunks,
        lambda chunk: chunk[1],
        lambda chunk: {"ordinal": int(chunk[0]), "indices": list(chunk[1])},
        objectives, derived, workers, mode, should_stop, on_chunk,
    )


def _pump(pool, chunk_fn, chunks, points_of, workers, should_stop, record):
    """Feed chunks to a pool keeping at most ``workers`` in flight.

    Bounded submission keeps memory flat on huge sweeps and makes
    ``should_stop`` prompt: in-flight chunks drain (and checkpoint),
    nothing new starts.
    """
    pending = {}
    queue = list(chunks)
    position = 0
    while position < len(queue) or pending:
        while (position < len(queue) and len(pending) < workers
               and not (should_stop is not None and should_stop())):
            chunk = queue[position]
            position += 1
            pending[pool.submit(chunk_fn, chunk, points_of(chunk))] = chunk
        if should_stop is not None and should_stop():
            position = len(queue)
        if not pending:
            break
        done, _ = concurrent.futures.wait(
            pending, return_when=concurrent.futures.FIRST_COMPLETED
        )
        for future in done:
            pending.pop(future)
            with span("explore.chunk"):
                record(*future.result())


def run_sweep(
    design: Design,
    space: ParameterSpace,
    objectives: Sequence[str] = ("power",),
    derived: Sequence[DerivedObjective] = (),
    workers: int = 1,
    mode: str = "serial",
    chunk_size: int = 64,
    prune: bool = False,
    should_stop: Optional[Callable[[], bool]] = None,
    on_chunk: Optional[Callable[[int, int, List[dict], float], None]] = None,
) -> SweepOutcome:
    """Evaluate the whole space and assemble rows in point order.

    ``prune=True`` keeps only the Pareto-optimal rows (dominated
    region dropped) — the report still counts every evaluated point.
    """
    with span("explore.sweep"):
        annotate(
            "sweep", design=design.name, points=len(space), mode=mode
        )
        records, report = run_chunks(
            design, space, space.chunks(chunk_size),
            objectives=objectives, derived=derived,
            workers=workers, mode=mode,
            should_stop=should_stop, on_chunk=on_chunk,
        )
    rows: List[dict] = []
    for start in sorted(records):
        rows.extend(records[start]["rows"])
    objective_names = list(objectives) + [d.name for d in derived]
    if prune:
        rows = pareto_rows(rows, objective_names)
    return SweepOutcome(
        rows=rows,
        report=report,
        axis_names=space.axis_names,
        objective_names=objective_names,
    )


def run_job(
    job: SweepJob,
    should_stop: Optional[Callable[[], bool]] = None,
) -> SweepJob:
    """Execute (or resume) a persisted sweep job to a terminal state.

    Only the chunks missing from the job's checkpoint run; each
    finished chunk checkpoints immediately, so killing this process at
    any instant loses at most one in-flight chunk.  Honors both the
    job's own :meth:`~SweepJob.request_cancel` flag and an external
    ``should_stop``.

    Surrogate jobs (``job.surrogate`` set) run the fit-predict-verify
    phases instead of the exhaustive chunk walk.
    """
    if getattr(job, "surrogate", None) is not None:
        from ..surrogate.runner import run_surrogate_job

        return run_surrogate_job(job, should_stop)
    job.set_state("running")
    design = job.design()

    def _stop() -> bool:
        return job.cancel_requested or bool(
            should_stop is not None and should_stop()
        )

    try:
        run_chunks(
            design, job.space, job.pending_chunks(),
            objectives=job.objectives, derived=job.derived,
            workers=job.workers, mode=job.mode,
            should_stop=_stop, on_chunk=job.record_chunk,
        )
    except PowerPlayError as exc:
        job.set_state("failed", str(exc))
        raise
    except BaseException as exc:
        job.set_state("failed", f"engine failure: {exc}")
        raise
    if job.pending_chunks():
        job.set_state("cancelled")
    else:
        job.set_state("done")
    return job
