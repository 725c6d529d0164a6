"""Whole sweep jobs SIGKILLed mid-run resume to the uninterrupted export.

A child process runs an exact job or a surrogate job through a
:class:`JobStore` and SIGKILLs itself at a seeded instant: just before
or just after its Nth durable save of a manifest or of a part.  A kill
right after a part save, before the manifest that would list it, leaves
an orphan part; every job's first kill lands there.
After every kill the reopened store must load the job without
quarantining anything and without losing committed progress; after the
last, uninterrupted run the export must be byte-identical to a run
that was never killed, orphans or not.  Both backends.
"""

import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.explore import JobStore, export_json
from repro.state import BACKEND_KINDS, open_backend

REPO = Path(__file__).resolve().parents[2]

_CHILD = """
import os, signal, sys
from pathlib import Path
from repro.core.design import Design
from repro.core.expressions import compile_expression as E
from repro.core.model import CapacitiveTerm, TemplatePowerModel
from repro.core.parameters import Parameter
from repro.explore import Axis, DerivedObjective, JobStore, ParameterSpace
from repro.explore.engine import run_job
from repro.state import open_backend

kind, root, which, namespace, kill_at, when = sys.argv[1:]
kill_at = int(kill_at)
backend = open_backend(kind, Path(root))
store = JobStore(Path(root) / "jobs", backend=backend)
saves = 0
save = backend.save


def dying(ns, key, text):
    global saves
    saves += ns == namespace
    if saves == kill_at and ns == namespace and when == "before":
        os.kill(os.getpid(), signal.SIGKILL)
    save(ns, key, text)
    if saves == kill_at and ns == namespace and when == "after":
        os.kill(os.getpid(), signal.SIGKILL)


backend.save = dying
if "job-0001" in store.job_ids():
    job = store.job("job-0001")
else:
    design = Design("d")
    design.scope.set("VDD", 1.5)
    design.scope.set("f", 2e6)
    design.add("alu", TemplatePowerModel(
        "adder",
        capacitive=[CapacitiveTerm("bits", E("bitwidth * 68f"))],
        parameters=(Parameter("bitwidth", 16),),
    ))
    space = ParameterSpace([
        Axis("VDD", tuple(1.0 + 0.05 * i for i in range(20))),
        Axis("bits", tuple(float(b) for b in range(8, 14)),
             target="alu.bitwidth"),
    ])
    if which == "exact":
        job = store.create(design, space, chunk_size=12)
    else:
        job = store.create(
            design, space, chunk_size=8,
            derived=(DerivedObjective("slowness", "1 / VDD"),),
            surrogate={"train_frac": 0.25, "train_seed": 7,
                       "verify_top": 12},
        )
if job.state != "done":
    run_job(job)
print(saves)
"""


def run_child(kind, root, which, namespace="jobs", kill_at=0, when="after"):
    return subprocess.run(
        [sys.executable, "-c", _CHILD, kind, str(root), which, namespace,
         str(kill_at), when],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )


def listed_parts(manifest):
    keys = [manifest["spec"], *manifest["chunks"].values()]
    for slots in manifest.get("phases", {}).values():
        for slot, value in slots.items():
            keys += value.values() if slot == "chunks" else [value]
    return set(keys)


def reopen(kind, root):
    """``(job or None, orphan part count)``, from a fresh store."""
    backend = open_backend(kind, root)
    try:
        store = JobStore(root / "jobs", backend=backend)
        if "job-0001" not in store.job_ids():
            return None, len(backend.keys("jobs-parts"))
        job = store.job("job-0001")
        assert store.quarantined == [] and backend.quarantined == []
        text = backend.load("jobs", "job-0001")
        orphans = set(backend.keys("jobs-parts"))
        if json.loads(text)["format"] == "powerplay-job/2":
            orphans -= listed_parts(json.loads(text))
        return job, len(orphans)
    finally:
        backend.close()


def exported(job):
    return export_json(
        job.result_rows(), job.space.axis_names, job.objective_names
    )


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """Per job kind: (manifest saves of a whole run, its export)."""
    out = {}
    for which in ("exact", "surrogate"):
        root = tmp_path_factory.mktemp(f"whole-{which}")
        done = run_child("file", root, which)
        assert done.returncode == 0, done.stderr
        job, orphans = reopen("file", root)
        assert job.state == "done" and orphans == 0
        out[which] = int(done.stdout), exported(job)
    return out


KILLS = 3  # per job, then one run to the end


@pytest.mark.parametrize("kind", BACKEND_KINDS)
@pytest.mark.parametrize("which", ["exact", "surrogate"])
def test_killed_job_resumes_to_the_same_export(
        kind, which, uninterrupted, tmp_path):
    saves, expected = uninterrupted[which]
    rng = random.Random(f"{kind}-{which}")
    root = tmp_path / "state"
    done_points = 0
    for kill in range(KILLS):
        kill_at = rng.randint(1, max(2, saves // KILLS))
        if kill == 0:  # between a part save and its manifest
            namespace, when = "jobs-parts", "after"
        else:
            namespace = rng.choice(["jobs", "jobs-parts"])
            when = rng.choice(["before", "after"])
        killed = run_child(kind, root, which, namespace, kill_at, when)
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        job, _ = reopen(kind, root)
        if job is not None:
            assert job.done_points >= done_points  # nothing committed lost
            done_points = job.done_points
    finished = run_child(kind, root, which)
    assert finished.returncode == 0, finished.stderr
    job, orphans = reopen(kind, root)
    assert job.state == "done"
    assert exported(job) == expected
    assert orphans > 0  # the first kill left one; none was ever read
