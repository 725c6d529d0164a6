"""The in-process workloads: ``sweep`` and ``sweep_1m``.

Both go through the :class:`~repro.explore.jobs.JobStore` that ``repro
sweep --state`` and the web ``/sweep`` page share.  A run submits jobs
back to back until its time is up; each job is timed from submit to its
answer (the Pareto selection and CSV/JSON export for ``sweep``, the
surrogate report for ``sweep_1m``).  While a job runs, a poller reads
its status every 100 ms, as a user refreshing the ``/sweep/job`` page
does.
"""

import json
import random
import resource
import subprocess
import sys
import threading
import time
from typing import Dict, List

import tracing
from common import (HERE, ROOT, Outcome, digest_text, fresh_dir, layer_self,
                    mean, median, percentile, written_bytes)
from reference import digest
from spaces import (ACCESS_TIME, SURROGATE,
                    surrogate_config, sweep_1m_space, sweep_space)

from repro.core.estimator import evaluate_power
from repro.designs.infopad import build_infopad
from repro.explore import JobStore, engine, results
from repro.explore.batcheval import resolve_target
from repro.obs import get_registry
from repro.surrogate import runner

SETUPS = 5  # set-ups per run; setup_s is their median
#: points per chunk, i.e. per checkpoint: ``repro sweep``'s default
SWEEP_CHUNK = 64
POLL_S = 0.100
SWEEP_SAMPLE = 256  # rows re-checked against evaluate_power per job
TRAIN_SAMPLE = 512  # training rows re-checked per sweep_1m job


def exact_power(overrides: Dict[str, float]) -> float:
    """The reference estimator's watts for one point of the space."""
    design = build_infopad()
    for target, value in overrides.items():
        scope, name = resolve_target(design, target)
        scope.set(name, float(value))
    return evaluate_power(design).power


class Poller:
    """Reads a job's status every :data:`POLL_S` while it runs."""

    def __init__(self, store: JobStore, job_id: str):
        self.latencies: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(store, job_id))
        self._thread.start()

    def _run(self, store: JobStore, job_id: str) -> None:
        while not self._stop.wait(POLL_S):
            began = time.perf_counter()
            store.job(job_id).summary()
            self.latencies.append(time.perf_counter() - began)

    def stop(self) -> List[float]:
        self._stop.set()
        self._thread.join()
        return self.latencies


def _timed_checkpoints(job, writes: List[float]) -> None:
    """Time each checkpoint the engine asks this job to write."""
    for attribute in ("record_chunk", "record_phase_chunk"):
        method = getattr(job, attribute)

        def timed(*args, _method=method):
            began = time.perf_counter()
            _method(*args)
            writes.append(time.perf_counter() - began)
        setattr(job, attribute, timed)


def _memo_counts() -> tuple:
    metric = get_registry().get("powerplay_explore_memo_total")
    if metric is None:
        return 0.0, 0.0
    return metric.value(kind="hit"), metric.value(kind="miss")


class Sweep:
    """One sweep workload: how to create a job, answer it and check it."""

    name = "sweep"

    def __init__(self, seed: int):
        self.seed = seed

    def create(self, store: JobStore):
        return store.create(
            build_infopad(), sweep_space(self.seed), objectives=("power",),
            derived=(ACCESS_TIME,), workers=2, mode="process",
            chunk_size=SWEEP_CHUNK,
        )

    def answer(self, job) -> dict:
        """What the user waits for: the Pareto front and both exports."""
        rows = job.result_rows()
        names = job.objective_names
        # module attributes, not imported names: a traced run wraps them
        front = results.pareto_rows(rows, names)
        csv = results.export_csv(rows, job.space.axis_names, names)
        payload = results.export_json(rows, job.space.axis_names, names)
        return {"rows": len(rows), "front": len(front),
                "csv_rows": csv.count("\n") - 1,
                "json_rows": len(json.loads(payload)["rows"]),
                "sample": random.Random(self.seed).sample(rows, SWEEP_SAMPLE)}

    def check(self, out: Outcome, job: dict) -> None:
        points = job["points"]
        if job["state"] != "done":
            out.fail(points, f"{job['id']} ended {job['state']}")
            return
        for key in ("rows", "csv_rows", "json_rows"):
            if job[key] != points:
                out.fail(points, f"{job['id']}: {job[key]} {key} "
                                 f"for {points} points")
        check_rows(out, job["id"], job["sample"])

    def inputs(self) -> str:
        return digest_text(json.dumps(sweep_space(self.seed).to_payload()))


class Sweep1M(Sweep):
    name = "sweep_1m"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.reference = json.loads((HERE / "reference.json").read_text())

    def create(self, store: JobStore):
        return store.create(
            build_infopad(), sweep_1m_space(), objectives=("power",),
            derived=(ACCESS_TIME,), chunk_size=2048,
            surrogate=surrogate_config(self.seed),
        )

    def answer(self, job) -> dict:
        """What the user waits for: the surrogate report and its front."""
        report = runner.surrogate_report(job)
        train = list(job.phase_rows("train").values())
        sample = list(job.phase_rows("verify").values())
        sample += random.Random(self.seed).sample(
            train, min(TRAIN_SAMPLE, len(train)))
        return {"report": report,
                "front": [int(i) for i in job.phase_data("plan")["front"]],
                "sample": sample}

    def check(self, out: Outcome, job: dict) -> None:
        if job["state"] != "done":
            out.fail(1, f"{job['id']} ended {job['state']}")
            return
        report = job["report"]
        if report.error_bound > SURROGATE["max_error"]:
            out.fail(1, f"{job['id']}: error bound {report.error_bound} "
                        "over the budget")
        front = job["front"]
        if (len(front) != self.reference["front_size"]
                or digest(front) != self.reference["front_sha256"]):
            out.fail(1, f"{job['id']}: front of {len(front)} points "
                        "differs from the exact reference")
        check_rows(out, job["id"], job["sample"])

    def inputs(self) -> str:
        return digest_text(json.dumps([sweep_1m_space().to_payload(),
                                       surrogate_config(self.seed)]))


WORKLOADS = {"sweep": Sweep, "sweep_1m": Sweep1M}


def children_cpu_s() -> float:
    """CPU seconds of every child process this one has waited for: the
    set-up processes and the engine's pool workers once it joins them."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def check_rows(out: Outcome, job_id: str, rows) -> None:
    """Each exact row's watts are bit-identical to evaluate_power."""
    for row in rows:
        if row["error"] or row["objectives"]["power"] != exact_power(
                row["overrides"]):
            out.fail(1, f"{job_id} point {row['index']}: power differs "
                        "from evaluate_power")


def engine_record(job) -> dict:
    """The job's own account of its chunks: count, busy seconds, points."""
    if job.surrogate is None:
        chunks = list(job.chunks.values())
    else:
        chunks = [c for phase in ("train", "verify")
                  for c in job.phase_chunks(phase).values()]
    return {"id": job.job_id, "state": job.state, "workers": job.workers,
            "points": job.total_points, "chunks": len(chunks),
            "busy_s": sum(c["seconds"] for c in chunks),
            "exact_points": sum(len(c["rows"]) for c in chunks)}


def sweep_pass(name: str, seed: int, seconds: float, traced: bool,
               delays=None) -> Outcome:
    workload = WORKLOADS[name](seed)
    out = Outcome()
    run_dir = fresh_dir(name)
    store = JobStore(run_dir / "jobs")
    setups, wall_setups = [], []
    for _ in range(SETUPS):
        job_dir = fresh_dir(f"{name}-setup") / "jobs"
        began, cpu_began = time.perf_counter(), children_cpu_s()
        subprocess.run([sys.executable, str(HERE / "sweep_setup.py"), name,
                        str(seed), str(job_dir)], cwd=ROOT, check=True)
        wall_setups.append(time.perf_counter() - began)
        setups.append(children_cpu_s() - cpu_began)

    tracer = None
    if traced:
        tracer = tracing.Tracer(delays=delays,
                                dump_dir=fresh_dir(f"{name}-workers"))
        tracer.install()
    elif delays:
        tracer = tracing.Tracer(delays=delays, record=False).install()
    memo0 = _memo_counts()
    jobs, reads, writes = [], [], []
    began = time.perf_counter()
    try:
        while not jobs or time.perf_counter() - began < seconds:
            submitted = time.perf_counter()
            cpu_began = time.process_time() + children_cpu_s()
            written_began = written_bytes()
            job = workload.create(store)
            _timed_checkpoints(job, writes)
            poller = Poller(store, job.job_id)
            try:
                engine.run_job(job)
                answer = workload.answer(job)
            finally:
                reads.extend(poller.stop())
            wall = time.perf_counter() - submitted
            cpu = time.process_time() + children_cpu_s() - cpu_began
            jobs.append(dict(engine_record(job), wall=wall, cpu=cpu,
                             written=written_bytes() - written_began,
                             **answer))
            # the first job's peak: how many jobs fit in a run depends
            # on the machine's speed, and each one fragments the heap
            if len(jobs) == 1:
                rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            store.forget(job.job_id)  # keep memory flat across jobs
    finally:
        if tracer is not None:
            tracer.uninstall()
    memo1 = _memo_counts()

    out.attempted = sum(job["points"] for job in jobs)
    for job in jobs:
        workload.check(out, job)
    out.put("setup_s", median(setups), "s")
    out.put("wall_setup_s", median(wall_setups), "s")
    out.put("cpu_ms_per_op",
            median([j["cpu"] / j["points"] for j in jobs]) * 1e3, "ms")
    out.put("disk_write_kb_per_op",
            median([j["written"] / j["points"] for j in jobs]) / 1e3, "KB")
    out.put("ops_per_s", median([j["points"] / j["wall"] for j in jobs]),
            "1/s")
    out.put("read_p50_ms", percentile(reads, 0.5) * 1e3, "ms")
    out.put("read_p90_ms", percentile(reads, 0.9) * 1e3, "ms")
    out.put("write_p50_ms", percentile(writes, 0.5) * 1e3, "ms")
    out.put("write_p90_ms", percentile(writes, 0.9) * 1e3, "ms")
    out.put("peak_rss_mb", rss_mb, "MB")
    if traced:
        tracer.absorb(tracing.worker_stats(tracer.dump_dir))
        tracer.write(run_dir / "trace.json")
        sweep_layers(out, tracer.stats(), jobs, memo0, memo1)
    return out


def sweep_layers(out: Outcome, stats, jobs, memo0, memo1) -> None:
    count = len(jobs)
    points = sum(job["points"] for job in jobs)
    busy = sum(job["busy_s"] for job in jobs)
    capacity = sum(job["workers"] * job["wall"] for job in jobs)
    out.put("explore.engine.worker_busy_s", busy / count, "s")
    out.put("explore.engine.worker_utilization", busy / capacity, "ratio")
    out.put("explore.engine.chunks",
            sum(job["chunks"] for job in jobs) / count, "count")
    out.put("explore.batcheval.us_per_point", busy / max(
        1, sum(job["exact_points"] for job in jobs)) * 1e6, "us")
    hits, misses = memo1[0] - memo0[0], memo1[1] - memo0[1]
    out.put("explore.batcheval.memo_hit_ratio",
            hits / max(1.0, hits + misses), "ratio")

    saves, size = tracing.persisted(stats, "jobs")
    out.put("explore.jobs.checkpoint_s",
            tracing.seconds(stats, "explore.jobs:JobStore.save_job") / count,
            "s")
    out.put("explore.jobs.checkpoints", saves / count, "count")
    out.put("explore.jobs.checkpoint_bytes", size / count, "B")
    out.put("explore.results.export_s", tracing.seconds(
        stats, "explore.results:export_csv", "explore.results:export_json")
        / count, "s")

    state_save = [n for n in stats if n.endswith("Backend.save")]
    out.put("state.save_ms", 1e3 * tracing.seconds(stats, *state_save)
            / max(1, tracing.calls(stats, *state_save)), "ms")
    # the state layer's saves here are the job checkpoints above
    out.put("state.bytes_per_point", size / points, "B/point")
    out.put("core.estimator.evaluations", tracing.calls(
        stats, *(f"core.estimator:evaluate_{k}"
                 for k in ("power", "area", "timing"))), "count")
    out.put("core.expressions.evals_per_op",
            tracing.calls(stats, "core.expressions:evaluate") / points,
            "1/op")

    reports = [job["report"] for job in jobs if "report" in job]
    if reports:
        out.put("surrogate.fit_s", mean(r.seconds.get("fit", 0.0)
                                         for r in reports), "s")
        out.put("surrogate.predict_s", mean(r.seconds.get("predict", 0.0)
                                             for r in reports), "s")
        out.put("surrogate.train_points",
                mean(r.train_points for r in reports), "count")
        out.put("surrogate.verified_points",
                mean(r.verified_points for r in reports), "count")
    layer_self(out, stats, points)
