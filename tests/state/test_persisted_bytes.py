"""What the session and job stores write, byte for byte.

The session store splices cached encodings of unchanged designs into
each save; its oracle is the one-call encoding of the in-memory
payload, ``json.dumps(session.to_payload(), separators=(",", ":"))``.

The job store writes a manifest plus write-once parts.  Its oracle:
the manifest and the parts it lists, read back from the backend,
reassemble to exactly ``job.to_payload()``; each part's text is
``jsondoc.dumps(part, sort_keys=True)``; and a checkpoint writes only
the parts it newly lists, each under a key never written before.

Random mutation sequences must meet the oracle after every step, on
every backend.  Documents the earlier indented encoders wrote must
still load, and an old single-document job checkpoint must resume to
the same export as an uninterrupted run.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro import obs  # noqa: E402
from repro.core.design import Design  # noqa: E402
from repro.core.expressions import compile_expression as E  # noqa: E402
from repro.core.model import (  # noqa: E402
    CapacitiveTerm,
    ExpressionPowerModel,
    ModelSet,
    TemplatePowerModel,
)
from repro.core.parameters import Parameter  # noqa: E402
from repro.designs.infopad import build_infopad  # noqa: E402
from repro.designs.luminance import build_figure1_design  # noqa: E402
from repro.errors import JobError, SessionError  # noqa: E402
from repro.explore import (  # noqa: E402
    Axis,
    DerivedObjective,
    JobStore,
    ParameterSpace,
    export_json,
    run_sweep,
)
from repro.explore.engine import run_job  # noqa: E402
from repro.explore.jobs import JOB_STATES  # noqa: E402
from repro.library.catalog import LibraryEntry  # noqa: E402
from repro.state import BACKEND_KINDS, jsondoc, open_backend  # noqa: E402
from repro.web.app import Application  # noqa: E402
from repro.web.session import UserStore  # noqa: E402

ADDER = TemplatePowerModel(
    "adder",
    capacitive=[CapacitiveTerm("bits", E("bitwidth * 68f"))],
    parameters=(Parameter("bitwidth", 16),),
)

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def session_oracle(session) -> str:
    return json.dumps(session.to_payload(), separators=(",", ":"))


def job_oracle(job) -> str:
    return json.dumps(
        job.to_payload(), sort_keys=True, separators=(",", ":")
    )


#: the whole-job members a manifest holds itself, or lists parts for
_MANIFEST_MEMBERS = ("format", "state", "error", "cancel_requested",
                     "chunks", "phases")


def listed_parts(manifest):
    """Every part key a manifest lists."""
    keys = [manifest["spec"], *manifest["chunks"].values()]
    for slots in manifest.get("phases", {}).values():
        for slot, value in slots.items():
            keys += value.values() if slot == "chunks" else [value]
    return keys


def reassembled(backend, job):
    """Read ``job``'s manifest and parts back and check each part's
    text against the in-memory value it stands for; returns the
    manifest and the whole-job text the two reassemble to."""
    manifest = json.loads(backend.load("jobs", job.job_id))
    assert manifest["format"] == "powerplay-job/2"
    payload = job.to_payload()

    def part(key, expected):
        text = backend.load("jobs-parts", key)
        assert text == jsondoc.dumps(expected, sort_keys=True)
        return json.loads(text)

    whole = part(manifest["spec"], {
        k: v for k, v in payload.items() if k not in _MANIFEST_MEMBERS
    })
    whole.update(format="powerplay-job/1", state=manifest["state"],
                 error=manifest["error"],
                 cancel_requested=manifest["cancel_requested"])
    whole["chunks"] = {
        start: part(key, payload["chunks"][start])
        for start, key in manifest["chunks"].items()
    }
    if "phases" in manifest:
        whole["phases"] = {
            phase: {
                slot: (
                    {o: part(k, payload["phases"][phase][slot][o])
                     for o, k in value.items()}
                    if slot == "chunks"
                    else part(value, payload["phases"][phase][slot])
                )
                for slot, value in slots.items()
            }
            for phase, slots in manifest["phases"].items()
        }
    return manifest, jsondoc.dumps(whole, sort_keys=True)


def assert_checkpoint(backend, job):
    """The stored checkpoint reassembles to exactly the job."""
    manifest, whole = reassembled(backend, job)
    assert whole == job_oracle(job)
    return manifest


class _Saves:
    """Records every ``(namespace, key)`` a backend saves."""

    def __init__(self, backend):
        self.log = []
        save = backend.save

        def recording(namespace, key, text):
            save(namespace, key, text)
            self.log.append((namespace, key))

        backend.save = recording

    def take(self):
        log, self.log = self.log, []
        return log


def make_design(name="d", vdd=1.5):
    design = Design(name)
    design.scope.set("VDD", vdd)
    design.scope.set("f", 2e6)
    design.add("alu", ADDER)
    return design


class _Opened:
    """A temporary directory with one backend of ``kind`` in it."""

    def __init__(self, kind):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)
        self.backend = open_backend(kind, self.root / "state")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.backend.close()
        self._tmp.cleanup()


# -- sessions ---------------------------------------------------------------

DESIGN_NAMES = st.sampled_from(["alpha", "beta", "gamma"])
SCOPE_VALUES = st.one_of(
    st.floats(0.1, 10.0),
    st.sampled_from(["2 * VDD", "f / 4", "1.5M"]),
)
SESSION_OPS = st.one_of(
    st.tuples(st.just("put"), DESIGN_NAMES, st.floats(0.5, 5.0)),
    st.tuples(st.just("edit"), DESIGN_NAMES,
              st.sampled_from(["VDD", "f", "k"]), SCOPE_VALUES),
    st.tuples(st.just("edit_row"), DESIGN_NAMES, st.integers(1, 64)),
    st.tuples(st.just("delete"), DESIGN_NAMES),
    st.tuples(st.just("define"), st.sampled_from(["m1", "m2"]),
              st.floats(1e-15, 1e-9)),
    st.tuples(st.just("defaults"), st.sampled_from(["sram", "adder"]),
              st.floats(1.0, 4096.0)),
    st.tuples(st.just("password"), st.text(min_size=4, max_size=8)),
    st.tuples(st.just("reload")),
)


def apply_session_op(store, session, op):
    """Run one mutation; return the session to keep using."""
    kind = op[0]
    if kind == "put":
        session.put_design(make_design(op[1], vdd=op[2]))
    elif kind in ("edit", "edit_row"):
        if op[1] not in session.designs:
            return session
        design = session.design(op[1])
        if kind == "edit":
            design.scope.set(op[2], op[3])
        else:
            design.row("alu").set("bitwidth", op[2])
        session.put_design(design)
    elif kind == "delete":
        try:
            session.delete_design(op[1])
        except SessionError:
            return session
    elif kind == "define":
        if op[1] in session.user_library:
            return session
        model = ExpressionPowerModel(op[1], f"{op[2]!r} * VDD^2 * f", [])
        session.user_library.add(LibraryEntry(op[1], ModelSet(power=model)))
        session.save()
    elif kind == "defaults":
        session.remember_defaults(op[1], {"words": op[2]})
    elif kind == "password":
        session.set_password(op[1])
    elif kind == "reload":
        return UserStore(store.root, backend=store.backend).session(
            session.username
        )
    return session


@pytest.mark.parametrize("kind", BACKEND_KINDS)
class TestSessionBytes:
    @SETTINGS
    @given(ops=st.lists(SESSION_OPS, min_size=1, max_size=12))
    def test_every_save_matches_the_oracle(self, kind, ops):
        with _Opened(kind) as opened:
            store = UserStore(opened.root / "users", backend=opened.backend)
            session = store.session("alice")
            session.put_design(make_design("alpha"))
            for op in ops:
                session = apply_session_op(store, session, op)
                assert store.read_disk("alice") == session_oracle(session)

    def test_play_edit_reencodes_only_that_design(self, kind, tmp_path):
        backend = open_backend(kind, tmp_path / "state")
        try:
            store = UserStore(tmp_path / "users", backend=backend)
            session = store.session("bob")
            session.put_design(build_infopad())
            session.put_design(build_figure1_design())
            cached = dict(session._encoded)
            infopad = session.design("infopad")
            infopad.scope.set("VDD1", 4.5)
            session.put_design(infopad)
            assert session._encoded["luminance_fig1"] is cached[
                "luminance_fig1"
            ]
            assert session._encoded["infopad"] is not cached["infopad"]
            assert store.read_disk("bob") == session_oracle(session)
        finally:
            backend.close()

    def test_indented_document_loads_unchanged(self, kind, tmp_path):
        backend = open_backend(kind, tmp_path / "state")
        try:
            store = UserStore(tmp_path / "users", backend=backend)
            session = store.session("carol")
            session.put_design(build_infopad())
            session.put_design(build_figure1_design())
            session.remember_defaults("sram", {"words": 1024})
            session.set_password("hunter22")
            payload = session.to_payload()
            # what the earlier encoder wrote
            old = json.dumps(payload, indent=1)
            backend.save("users", "carol", old)

            reopened = UserStore(tmp_path / "users", backend=backend)
            loaded = reopened.session("carol")
            assert loaded.to_payload() == payload
            assert loaded.check_password("hunter22")
            assert reopened.quarantined == []
            assert reopened.read_disk("carol") == old  # a load writes nothing

            loaded.remember_defaults("sram", {"bits": 16})
            assert reopened.read_disk("carol") == session_oracle(loaded)
        finally:
            backend.close()


# -- jobs -------------------------------------------------------------------

JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**9, 10**9),
    st.floats(allow_nan=True, allow_infinity=False),
    st.text(max_size=6),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=5), inner, max_size=3),
    ),
    max_leaves=8,
)
ROWS = st.lists(
    st.fixed_dictionaries({
        "index": st.integers(0, 10**6),
        "overrides": st.dictionaries(
            st.sampled_from(["VDD", "alu.bitwidth"]), st.floats(0.1, 64.0)
        ),
        "objectives": st.dictionaries(
            st.sampled_from(["power", "slowness"]),
            st.floats(allow_nan=True, allow_infinity=False),
        ),
        "error": st.text(max_size=6),
    }),
    max_size=4,
)
SECONDS = st.floats(0.0, 10.0)
PHASES = st.sampled_from(["train", "verify", "plan"])
JOB_OPS = st.one_of(
    # starts/ordinals of several digit counts: "1024" sorts before "128"
    st.tuples(st.just("chunk"), st.sampled_from([0, 2, 64, 128, 1024]),
              ROWS, SECONDS),
    st.tuples(st.just("phase_chunk"), PHASES,
              st.sampled_from([0, 1, 2, 10, 11]),
              st.lists(st.integers(0, 10**6), max_size=4), ROWS, SECONDS),
    st.tuples(st.just("phase_data"), PHASES,
              st.dictionaries(st.text(max_size=5), JSON_VALUES, max_size=3)),
    st.tuples(st.just("state"), st.sampled_from(JOB_STATES),
              st.text(max_size=6)),
    st.tuples(st.just("cancel")),
    st.tuples(st.just("reload")),
)


def apply_job_op(store, job, op):
    """Run one mutation; return the job to keep using."""
    kind = op[0]
    try:
        if kind == "chunk":
            job.record_chunk(op[1], op[1] + len(op[2]), op[2], op[3])
        elif kind == "phase_chunk":
            job.record_phase_chunk(*op[1:])
        elif kind == "phase_data":
            job.set_phase_data(op[1], op[2])
        elif kind == "state":
            job.set_state(op[1], op[2])
        elif kind == "cancel":
            job.request_cancel()
        elif kind == "reload":
            store.forget(job.job_id)
            fresh = JobStore(store.root, backend=store.backend)
            revived = fresh.job(job.job_id)
            assert job_oracle(revived) == job_oracle(job)
            return revived
    except JobError:
        pass  # an illegal transition writes nothing
    return job


@pytest.mark.parametrize("kind", BACKEND_KINDS)
class TestJobBytes:
    @SETTINGS
    @given(
        surrogate=st.booleans(),
        ops=st.lists(JOB_OPS, min_size=1, max_size=12),
    )
    def test_every_checkpoint_matches_the_oracle(self, kind, surrogate, ops):
        with _Opened(kind) as opened:
            store = JobStore(opened.root / "jobs", backend=opened.backend)
            job = store.create(
                make_design(),
                ParameterSpace([Axis("VDD", (1.0, 1.5, 2.0))]),
                surrogate={} if surrogate else None,
            )
            saves = _Saves(opened.backend)
            listed = set(listed_parts(assert_checkpoint(opened.backend, job)))
            written = set(listed)
            for op in ops:
                job = apply_job_op(store, job, op)
                manifest = assert_checkpoint(opened.backend, job)
                now = set(listed_parts(manifest))
                parts = [key for ns, key in saves.take() if ns == "jobs-parts"]
                # only the parts this step newly lists, each written once:
                # at most the one chunk or phase data the op stored
                assert sorted(parts) == sorted(now - listed)
                assert len(parts) <= (op[0] in ("chunk", "phase_chunk",
                                                "phase_data"))
                assert written.isdisjoint(parts)
                written.update(parts)
                listed = now

    def test_unchanged_chunks_are_not_rewritten(self, kind, tmp_path):
        backend = open_backend(kind, tmp_path / "state")
        try:
            store = JobStore(tmp_path / "jobs", backend=backend)
            job = store.create(make_design(), ParameterSpace(
                [Axis("VDD", (1.0, 1.5))]))
            job.record_chunk(0, 1, [{"index": 0}], 0.1)
            saves = _Saves(backend)
            job.record_chunk(1, 2, [{"index": 1}], 0.1)
            assert [ns for ns, _ in saves.take()] == ["jobs-parts", "jobs"]
            job.set_state("running")
            job.request_cancel()
            assert saves.take() == [("jobs", job.job_id)] * 2
            assert_checkpoint(backend, job)
        finally:
            backend.close()

    def test_replaced_chunk_is_reencoded(self, kind, tmp_path):
        backend = open_backend(kind, tmp_path / "state")
        try:
            store = JobStore(tmp_path / "jobs", backend=backend)
            job = store.create(make_design(), ParameterSpace(
                [Axis("VDD", (1.0, 1.5))]))
            job.record_chunk(0, 1, [{"index": 0}], 0.1)
            first = assert_checkpoint(backend, job)["chunks"]["0"]
            job.record_chunk(0, 1, [{"index": 0, "error": "x"}], 0.2)
            second = assert_checkpoint(backend, job)["chunks"]["0"]
            assert second != first
            # the superseded part is never overwritten in place
            assert json.loads(backend.load("jobs-parts", first))["rows"] == [
                {"index": 0}
            ]
        finally:
            backend.close()


def sweep_space():
    return ParameterSpace([
        Axis("VDD", (1.1, 1.5, 2.0, 3.3)),
        Axis("bits", (8.0, 16.0, 32.0), target="alu.bitwidth"),
    ])


def resumable_job(store, surrogate):
    if surrogate:
        return store.create(
            make_design(), ParameterSpace([
                Axis("VDD", tuple(1.0 + 0.05 * i for i in range(20))),
                Axis("bits", tuple(float(b) for b in range(8, 18)),
                     target="alu.bitwidth"),
            ]),
            derived=(DerivedObjective("slowness", "1 / VDD"),),
            chunk_size=16,
            surrogate={"train_frac": 0.25, "train_seed": 7,
                       "verify_top": 12},
        )
    return store.create(make_design(), sweep_space(), chunk_size=3)


def exported(job):
    return export_json(
        job.result_rows(), job.space.axis_names, job.objective_names
    )


@pytest.mark.parametrize("kind", BACKEND_KINDS)
@pytest.mark.parametrize("surrogate", [False, True],
                         ids=["exact", "surrogate"])
class TestIndentedCheckpointResume:
    def test_resumes_to_identical_export(self, kind, surrogate, tmp_path):
        # the uninterrupted run, in its own state directory
        with _Opened(kind) as opened:
            whole = resumable_job(
                JobStore(opened.root / "jobs", backend=opened.backend),
                surrogate,
            )
            run_job(whole)
            expected = exported(whole)
        if not surrogate:
            baseline = run_sweep(make_design(), sweep_space(), chunk_size=3)
            assert expected == export_json(
                baseline.rows, baseline.axis_names, baseline.objective_names
            )

        backend = open_backend(kind, tmp_path / "state")
        try:
            store = JobStore(tmp_path / "jobs", backend=backend)
            job = resumable_job(store, surrogate)
            run_job(job, should_stop=lambda: job.done_points > 0)
            assert job.state == "cancelled"
            assert 0 < job.done_points < job.total_points
            # rewrite the checkpoint as the earlier encoder did
            backend.save("jobs", job.job_id, json.dumps(
                job.to_payload(), indent=1, sort_keys=True))

            revived = JobStore(tmp_path / "jobs", backend=backend).job(
                job.job_id
            )
            run_job(revived)
            assert revived.state == "done"
            assert exported(revived) == expected
            # the first save converted it to a manifest plus parts
            assert_checkpoint(backend, revived)
        finally:
            backend.close()

    def test_interrupted_conversion_keeps_the_old_document(
            self, kind, surrogate, tmp_path):
        with _Opened(kind) as opened:
            whole = resumable_job(
                JobStore(opened.root / "jobs", backend=opened.backend),
                surrogate,
            )
            run_job(whole)
            expected = exported(whole)

        backend = open_backend(kind, tmp_path / "state")
        try:
            store = JobStore(tmp_path / "jobs", backend=backend)
            job = resumable_job(store, surrogate)
            run_job(job, should_stop=lambda: job.done_points > 0)
            old = json.dumps(job.to_payload(), sort_keys=True)
            backend.save("jobs", job.job_id, old)

            # the converting save dies after its parts, before the
            # manifest: the single document must stay in place
            save = backend.save

            def dying(namespace, key, text):
                if namespace == "jobs":
                    raise OSError("killed before the manifest")
                save(namespace, key, text)

            backend.save = dying
            parts = set(backend.keys("jobs-parts"))
            converting = JobStore(tmp_path / "jobs", backend=backend)
            with pytest.raises(OSError):
                converting.job(job.job_id).set_state("running")
            backend.save = save
            assert backend.load("jobs", job.job_id) == old
            assert set(backend.keys("jobs-parts")) > parts  # orphans

            revived = JobStore(tmp_path / "jobs", backend=backend).job(
                job.job_id
            )
            run_job(revived)
            assert exported(revived) == expected
            assert_checkpoint(backend, revived)
        finally:
            backend.close()


# -- spans ------------------------------------------------------------------

def span_tree(node):
    return (node.name, [span_tree(child) for child in node.children])


class TestPersistenceSpans:
    def test_session_save_splits_encode_and_write(self, tmp_path):
        store = UserStore(tmp_path / "users")
        session = store.session("dave")
        with obs.overridden(enabled=True):
            obs.clear_traces()
            session.remember_defaults("sram", {"words": 64})
            trace = obs.last_trace()
            obs.clear_traces()
        assert span_tree(trace) == (
            "session.save",
            [("session.encode", []), ("state.write", [])],
        )

    def test_job_checkpoint_splits_encode_and_write(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        job = store.create(make_design(), sweep_space())
        with obs.overridden(enabled=True):
            obs.clear_traces()
            job.record_chunk(0, 1, [{"index": 0}], 0.0)
            trace = obs.last_trace()
            obs.clear_traces()
        assert span_tree(trace) == (
            "jobs.checkpoint",
            [("jobs.encode", []), ("state.write", [])],
        )

    def test_profile_names_the_persistence_layer(self, tmp_path):
        app = Application(tmp_path / "state")
        form = {"user": "erin", "example": "luminance_fig1"}
        with obs.overridden(enabled=True):
            obs.clear_traces()
            app.handle("POST", "/design/load_example", form)
            app.handle("POST", "/design", {"user": "erin",
                                           "name": "luminance_fig1",
                                           "g:VDD": "1.2"})
            profile = json.loads(
                app.handle("GET", "/profile?fmt=json&top=200").body
            )
            obs.clear_traces()
        paths = {row["path"] for row in profile["hot_paths"]}
        assert any(path.endswith("session.save/session.encode")
                   for path in paths)
        assert any(path.endswith("session.save/state.write")
                   for path in paths)
