"""What the session and job stores write, byte for byte.

Both stores splice cached encodings of unchanged parts (a session's
designs, a job's write-once chunks) into each save.  The oracle is the
one-call encoding of the in-memory payload:

* sessions: ``json.dumps(session.to_payload(), separators=(",", ":"))``;
* jobs: the same with ``sort_keys=True``.

Random mutation sequences must write exactly the oracle after every
step, on every backend.  Documents the earlier indented encoders wrote
must still load, and an old job checkpoint must resume to the same
export as an uninterrupted run.
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
from repro.state import BACKEND_KINDS, open_backend  # noqa: E402
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
            # restored chunks are encoded lazily, on the first save
            assert revived.to_json() == job_oracle(revived)
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
            for op in ops:
                job = apply_job_op(store, job, op)
                text = store.backend.load("jobs", job.job_id)
                assert text == job_oracle(job)

    def test_replaced_chunk_is_reencoded(self, kind, tmp_path):
        backend = open_backend(kind, tmp_path / "state")
        try:
            store = JobStore(tmp_path / "jobs", backend=backend)
            job = store.create(make_design(), ParameterSpace(
                [Axis("VDD", (1.0, 1.5))]))
            job.record_chunk(0, 1, [{"index": 0}], 0.1)
            job.record_chunk(0, 1, [{"index": 0, "error": "x"}], 0.2)
            assert backend.load("jobs", job.job_id) == job_oracle(job)
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
            assert backend.load("jobs", revived.job_id) == job_oracle(revived)
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
