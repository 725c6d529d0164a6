"""Sweep jobs: atomic checkpoints, resume, quarantine, lifecycle."""

import json
import sys
import threading
from pathlib import Path

import pytest

from repro.core.design import Design
from repro.core.expressions import compile_expression as E
from repro.core.model import CapacitiveTerm, TemplatePowerModel
from repro.core.parameters import Parameter
from repro.errors import JobError
from repro.explore import (
    Axis,
    JobStore,
    ParameterSpace,
    SweepJob,
    validate_job_id,
)
from repro.explore.engine import run_job
from repro.state import BACKEND_KINDS, FileBackend, open_backend

ADDER = TemplatePowerModel(
    "adder",
    capacitive=[CapacitiveTerm("bits", E("bitwidth * 68f"))],
    parameters=(Parameter("bitwidth", 16),),
)


def make_design():
    design = Design("d")
    design.scope.set("VDD", 1.5)
    design.scope.set("f", 2e6)
    design.add("alu", ADDER)
    return design


def make_space(points=6):
    return ParameterSpace([Axis("VDD", tuple(1.0 + 0.1 * i
                                             for i in range(points)))])


class TestJobIds:
    def test_valid(self):
        assert validate_job_id("job-0001") == "job-0001"

    @pytest.mark.parametrize(
        "bad",
        ["job-1", "job-0001\n", "../etc", "job-abcd", "", "JOB-0001"],
    )
    def test_invalid(self, bad):
        with pytest.raises(JobError):
            validate_job_id(bad)


class TestStore:
    def test_create_persists_pending(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(make_design(), make_space(), chunk_size=2)
        assert job.state == "pending"
        assert (tmp_path / f"{job.job_id}.json").exists()
        assert store.job_ids() == [job.job_id]

    def test_ids_are_sequential(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.create(make_design(), make_space())
        second = store.create(make_design(), make_space())
        assert [first.job_id, second.job_id] == ["job-0001", "job-0002"]

    def test_reload_from_disk_round_trips(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(
            make_design(), make_space(), owner="alice",
            workers=3, mode="process", chunk_size=2, prune=True,
        )
        job.record_chunk(0, 2, [{"index": 0}, {"index": 1}], 0.5)
        # a fresh store simulates a process that crashed and restarted
        revived = JobStore(tmp_path).job(job.job_id)
        assert revived.owner == "alice"
        assert revived.mode == "process"
        assert revived.done_points == 2
        assert revived.pending_chunks() == [(2, 4), (4, 6)]

    def test_corrupt_checkpoint_quarantined(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(make_design(), make_space())
        path = tmp_path / f"{job.job_id}.json"
        path.write_text('{"format": "powerplay-job/1", "truncated')
        fresh = JobStore(tmp_path)
        with pytest.raises(JobError, match="corrupt"):
            fresh.job(job.job_id)
        assert not path.exists()
        assert path.with_suffix(".json.corrupt").exists()
        assert fresh.quarantined

    def test_no_stray_temp_files_after_saves(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(make_design(), make_space(), chunk_size=2)
        for start, stop in job.pending_chunks():
            job.record_chunk(start, stop, [{"index": i}
                                           for i in range(start, stop)], 0.0)
        leftovers = [p for p in tmp_path.iterdir()
                     if p.suffix == ".saving"]
        assert leftovers == []

    def test_checkpoint_is_valid_json_after_every_save(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(make_design(), make_space(), chunk_size=2)
        path = tmp_path / f"{job.job_id}.json"
        for start, stop in job.pending_chunks():
            job.record_chunk(start, stop, [{"index": i}
                                           for i in range(start, stop)], 0.0)
            manifest = json.loads(path.read_text())  # never torn
            assert manifest["format"] == "powerplay-job/2"
            assert manifest["chunks"].keys() == {str(s) for s in job.chunks}
            for key in [manifest["spec"], *manifest["chunks"].values()]:
                json.loads((tmp_path / "parts" / f"{key}.json").read_text())


@pytest.fixture(params=BACKEND_KINDS)
def backend(request, tmp_path):
    opened = open_backend(request.param, tmp_path / "state")
    yield opened
    opened.close()


def manifest_of(backend, job_id):
    return json.loads(backend.load("jobs", job_id))


def quarantined_bytes(backend, label):
    """The bytes a quarantine kept, wherever the backend keeps them."""
    if isinstance(backend, FileBackend):
        return Path(label).read_text()
    row = backend._connection().execute(
        "SELECT body FROM quarantine WHERE rowid = ?",
        (int(label.rsplit("@q", 1)[1]),),
    ).fetchone()
    return row[0]


def on_disk(backend, job_id, part_keys):
    """``(namespace, key) -> text`` for a job's documents present now."""
    docs = {("jobs", job_id): backend.load("jobs", job_id)}
    for key in part_keys:
        docs[("jobs-parts", key)] = backend.load("jobs-parts", key)
    return {ref: text for ref, text in docs.items() if text is not None}


class TestManifestAndParts:
    def _job(self, backend, tmp_path):
        """A job with one chunk; returns it and its spec and chunk keys."""
        store = JobStore(tmp_path / "jobs", backend=backend)
        job = store.create(make_design(), make_space(), chunk_size=2)
        job.record_chunk(0, 2, [{"index": 0}, {"index": 1}], 0.5)
        manifest = manifest_of(backend, job.job_id)
        return job, (manifest["spec"], manifest["chunks"]["0"])

    def _assert_quarantined(self, backend, tmp_path, job, docs, reason):
        """Loading fails, and every document in ``docs`` went aside with
        its bytes and the reason kept."""
        fresh = JobStore(tmp_path / "jobs", backend=backend)
        with pytest.raises(JobError, match="corrupt"):
            fresh.job(job.job_id)
        assert [record[0] for record in fresh.quarantined] == [job.job_id]
        records = {
            (ns, key): (label, why)
            for ns, key, label, why in backend.quarantined
        }
        assert records.keys() == docs.keys()
        for ref, text in docs.items():
            label, why = records[ref]
            assert quarantined_bytes(backend, label) == text
            assert reason in why
        assert backend.keys("jobs-parts") == []
        assert fresh.list_jobs() == []

    def test_corrupt_manifest_quarantines_the_job(self, backend, tmp_path):
        job, keys = self._job(backend, tmp_path)
        backend.save("jobs", job.job_id, '{"format": "powerplay-job/2", "st')
        docs = on_disk(backend, job.job_id, keys)
        self._assert_quarantined(backend, tmp_path, job, docs,
                                 "Unterminated string")

    def test_missing_part_quarantines_the_job(self, backend, tmp_path):
        job, (spec, chunk) = self._job(backend, tmp_path)
        backend.delete("jobs-parts", chunk)
        docs = on_disk(backend, job.job_id, [spec, chunk])
        self._assert_quarantined(backend, tmp_path, job, docs, "missing")

    def test_corrupt_part_quarantines_the_job(self, backend, tmp_path):
        job, keys = self._job(backend, tmp_path)
        backend.save("jobs-parts", keys[1], '{"start": 0, "rows": [')
        docs = on_disk(backend, job.job_id, keys)
        self._assert_quarantined(backend, tmp_path, job, docs,
                                 "Expecting value")

    def test_reminted_id_never_reads_earlier_parts(self, backend, tmp_path):
        first, _ = self._job(backend, tmp_path)
        first.record_chunk(2, 4, [{"index": 2}, {"index": 3}], 0.5)
        earlier = {key: backend.load("jobs-parts", key)
                   for key in backend.keys("jobs-parts")}
        # the manifest is lost but its parts are not: the id is free
        backend.delete("jobs", first.job_id)
        store = JobStore(tmp_path / "jobs", backend=backend)
        second = store.create(make_design(), make_space(points=4),
                              chunk_size=2)
        assert second.job_id == first.job_id
        second.record_chunk(0, 2, [{"index": 0, "error": "x"}] * 2, 0.1)

        revived = JobStore(tmp_path / "jobs", backend=backend).job(
            second.job_id)
        assert revived.total_points == 4
        assert sorted(revived.chunks) == [0]
        assert revived.chunks[0]["rows"][0]["error"] == "x"
        listed = set(manifest_of(backend, second.job_id)["chunks"].values())
        assert listed.isdisjoint(earlier)
        for key, text in earlier.items():  # nothing overwritten either
            assert backend.load("jobs-parts", key) == text

    def test_parts_are_never_jobs(self, backend, tmp_path, monkeypatch):
        job, _ = self._job(backend, tmp_path)
        store = JobStore(tmp_path / "jobs", backend=backend)
        assert backend.keys("jobs-parts")
        assert store.job_ids() == [job.job_id]
        assert [j.job_id for j in store.list_jobs()] == [job.job_id]
        globbed = []
        keys = backend.keys
        monkeypatch.setattr(
            backend, "keys", lambda ns: globbed.append(ns) or keys(ns)
        )
        fresh = JobStore(tmp_path / "jobs", backend=backend)
        assert fresh.create(make_design(), make_space()).job_id == "job-0002"
        assert "jobs-parts" not in globbed

    def test_cli_lists_no_parts(self, tmp_path, capsys):
        from repro.cli import main

        store = JobStore(tmp_path / "state" / "jobs")
        job = store.create(make_design(), make_space(), chunk_size=2)
        job.record_chunk(0, 2, [{"index": 0}, {"index": 1}], 0.5)
        assert list((tmp_path / "state" / "jobs" / "parts").iterdir())
        assert main(["jobs", "--state", str(tmp_path / "state")]) == 0
        listing = capsys.readouterr().out.splitlines()[1:]
        assert [line.split()[0] for line in listing] == [job.job_id]


class TestLifecycle:
    def test_terminal_states_cannot_rerun(self, tmp_path):
        job = JobStore(tmp_path).create(make_design(), make_space())
        job.set_state("running")
        job.set_state("done")
        with pytest.raises(JobError, match="only a"):
            job.set_state("running")

    def test_cancelled_jobs_can_resume(self, tmp_path):
        job = JobStore(tmp_path).create(make_design(), make_space())
        job.set_state("running")
        job.set_state("cancelled")
        job.set_state("running")  # allowed: resume
        assert job.cancel_requested is False

    def test_cancel_after_finish_rejected(self, tmp_path):
        job = JobStore(tmp_path).create(make_design(), make_space())
        job.set_state("done")
        with pytest.raises(JobError, match="already finished"):
            job.request_cancel()

    def test_result_rows_incomplete_raises(self, tmp_path):
        job = JobStore(tmp_path).create(make_design(), make_space())
        with pytest.raises(JobError, match="incomplete"):
            job.result_rows()

    def test_unknown_state_rejected(self, tmp_path):
        job = JobStore(tmp_path).create(make_design(), make_space())
        with pytest.raises(JobError, match="unknown job state"):
            job.set_state("paused")

    def test_run_job_reaches_done(self, tmp_path):
        job = JobStore(tmp_path).create(
            make_design(), make_space(), chunk_size=2
        )
        run_job(job)
        assert job.state == "done"
        assert job.done_points == job.total_points
        rows = job.result_rows()
        assert [row["index"] for row in rows] == list(range(6))
        assert all(row["objectives"]["power"] > 0 for row in rows)

    def test_run_job_honors_cancel_request(self, tmp_path):
        job = JobStore(tmp_path).create(
            make_design(), make_space(), chunk_size=1
        )
        calls = {"n": 0}

        def stop_after_two():
            calls["n"] += 1
            return calls["n"] > 2

        run_job(job, should_stop=stop_after_two)
        assert job.state == "cancelled"
        assert 0 < job.done_points < job.total_points


class TestConcurrentReaders:
    def test_status_reads_survive_concurrent_checkpoints(self):
        # record_chunk inserts under job.lock; the /status page and job
        # pollers read from other threads, and a reader iterating the
        # chunk map outside the lock raised "dictionary changed size
        # during iteration"
        points = 20_000
        space = ParameterSpace([
            Axis("VDD", tuple(1.0 + 1e-5 * i for i in range(points)))
        ])
        job = SweepJob("job-0001", "me", make_design(), space, chunk_size=1)
        errors = []
        stop = threading.Event()

        def read():
            try:
                while not stop.is_set():
                    job.summary()
                    job.phase_chunks("train")
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader.start()
            for start in range(points):
                row = {"index": start, "error": "", "objectives": {}}
                job.record_chunk(start, start + 1, [row], 0.0)
        finally:
            stop.set()
            reader.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        assert errors == []
        assert job.summary()["done"] == points
        assert job.pending_chunks() == []
