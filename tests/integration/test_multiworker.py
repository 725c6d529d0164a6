"""Multi-worker front, oracle-checked end to end.

The differential argument: a seeded workload executed against a
``serve --workers N`` front (real processes, real sockets, user-keyed
sharding) must leave byte-for-byte the end state a serial replay of the
same script leaves — and the oracle that certifies it must *fail* when
a lost update is deliberately injected, or its EQUIVALENT verdict means
nothing.

Also here: the fleet aggregator merging per-worker ``/metrics``, and
the parent-SIGTERM drain regression (children exit within the deadline,
in-flight responses never truncated).
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.loadgen import (
    HttpTarget,
    generate_workload,
    replay_serial,
    run_script,
    verify,
)
from repro.errors import StateError, TransientRemoteError
from repro.obs.fleet import FleetScraper
from repro.state import BACKEND_KINDS, open_backend
from repro.web.app import Application
from repro.web.client import Browser
from repro.web.prefork import (
    WORKER_HEADER,
    MultiWorkerFront,
    shard_for,
)

SEED = 1996
REPO_ROOT = Path(__file__).resolve().parents[2]


def _front_vs_serial(tmp_path, workers, backend, users, ops, seed):
    """Run the seeded script against a live front, then serially;
    return the oracle report plus the concurrent run result."""
    script = generate_workload(seed, users=users, ops=ops)
    state = tmp_path / "state"
    with MultiWorkerFront(state, workers=workers, backend=backend) as front:
        result = run_script(
            script, HttpTarget(front.base_url), threads=users
        )
    exit_codes = front.exit_codes()
    assert exit_codes == {index: 0 for index in range(workers)}, exit_codes
    assert len(result.results) == len(script)
    assert not result.server_errors, (
        f"{len(result.server_errors)} 5xx/errors; first: "
        f"{[(r.index, r.kind, r.status, r.error) for r in result.server_errors[:3]]}"
    )
    # reopen the shared state with a fresh single-process server: the
    # oracle must see exactly what the workers durably left behind
    concurrent_app = Application(state, backend=backend)
    serial_app, serial_result = replay_serial(script, tmp_path / "serial")
    assert not serial_result.server_errors
    report = verify(script, concurrent_app, serial_app)
    return script, result, report


def test_front_refuses_without_so_reuseport(tmp_path, monkeypatch):
    """Every worker binds the public port with SO_REUSEPORT; without it
    the front fails up front, naming the requirement, and spawns no
    worker."""
    import socket

    spawned = []

    def popen(*args, **kwargs):
        spawned.append(args)
        raise OSError("spawning is blocked in this test")

    monkeypatch.delattr(socket, "SO_REUSEPORT")
    monkeypatch.setattr(subprocess, "Popen", popen)
    with pytest.raises(StateError, match="SO_REUSEPORT"):
        MultiWorkerFront(tmp_path / "state", workers=2).start()
    assert spawned == []


def test_two_worker_front_matches_serial(tmp_path):
    """Tier-1 smoke: 2 workers over the file backend, oracle EQUIVALENT,
    zero 5xx."""
    _, result, report = _front_vs_serial(
        tmp_path, workers=2, backend="file", users=4, ops=120, seed=SEED
    )
    assert report.matches, report.differences
    assert "EQUIVALENT" in report.summary()
    assert report.designs_checked > 0


@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKEND_KINDS)
def test_four_worker_front_matches_serial(tmp_path, backend):
    """The CI oracle smoke: 4 workers, both backends, longer script."""
    _, result, report = _front_vs_serial(
        tmp_path, workers=4, backend=backend, users=8, ops=320,
        seed=SEED + 3,
    )
    assert report.matches, report.differences
    assert "EQUIVALENT" in report.summary()


def test_requests_land_on_owning_worker(tmp_path):
    """Structural affinity: every response names the worker the shard
    function predicts, no matter which worker accepted the socket."""
    with MultiWorkerFront(
        tmp_path / "state", workers=2, backend="file"
    ) as front:
        browser = Browser(front.base_url)
        for user in ("alice", "bob", "carol", "dave"):
            owner = shard_for(user, 2)
            for _ in range(3):
                page = browser.post("/login", {"user": user})
                assert page.status == 200
                assert page.header(WORKER_HEADER) == str(owner), user


def test_oracle_detects_injected_lost_update(tmp_path):
    """Negative control: the oracle is only trustworthy if it fails
    when a lost update actually happened.  Replay the script twice
    (identical end states), then overwrite one user's durable state
    with a stale payload — exactly what a broken backend or a
    mis-sharded worker would leave — and demand DIVERGED."""
    script = generate_workload(SEED + 4, users=3, ops=90)
    victim_dir = tmp_path / "victim"
    _, victim_result = replay_serial(script, victim_dir)
    assert not victim_result.server_errors

    # inject the lost update: drop one design from the saved document
    backend = open_backend("file", victim_dir)
    user = script.users[0]
    payload = json.loads(backend.load("users", user))
    assert payload["designs"], "workload prologue guarantees a design"
    payload["designs"].popitem()
    backend.save("users", user, json.dumps(payload))

    tampered_app = Application(victim_dir)
    serial_app, _ = replay_serial(script, tmp_path / "serial")
    report = verify(script, tampered_app, serial_app)
    assert not report.matches
    assert "DIVERGED" in report.summary()
    assert any(f"user[{user}]" in diff for diff in report.differences)


def test_fleet_aggregator_merges_worker_metrics(tmp_path):
    """Each worker exposes its own /metrics and /healthz on its
    internal port; the existing fleet scraper merges them into one
    aggregate without any multi-worker special-casing."""
    with MultiWorkerFront(
        tmp_path / "state", workers=2, backend="file"
    ) as front:
        browser = Browser(front.base_url)
        issued = 0
        for user in ("erin", "frank", "grace", "heidi"):
            for _ in range(2):
                assert browser.post("/login", {"user": user}).status == 200
                issued += 1
        scraper = FleetScraper(front.internal_peers(), timeout=10.0)
        report = scraper.scrape()
        assert report.reachable == 2
        names = sorted(node.name for node in report.nodes)
        assert names == ["powerplay-w0", "powerplay-w1"]
        for node in report.nodes:
            assert node.ok, node.error
            assert node.health.get("status") == "ok"
            worker = node.health.get("worker", {})
            assert worker.get("count") == 2
        assert report.aggregate_requests_total() >= issued


@pytest.mark.slow
def test_parent_sigterm_drains_children(tmp_path):
    """Regression: SIGTERM to the ``serve --workers`` parent drains the
    whole fleet within the stop deadline — exit code 0, every child
    reaped, and a response in flight at the moment of the signal is
    delivered complete, never truncated."""
    state = tmp_path / "state"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--state", str(state), "--workers", "2", "--port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=str(REPO_ROOT),
    )
    try:
        base_url = None
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                break
            if "serving at" in line:
                base_url = line.split("serving at", 1)[1].split()[0]
                break
        assert base_url, "front never reported its URL"

        browser = Browser(base_url)
        assert browser.post("/login", {"user": "ivan"}).status == 200

        # keep requests in flight while the signal lands; any response
        # that comes back must be complete — truncation surfaces as
        # IncompleteRead/BadStatusLine, which we treat as failure
        failures = []
        done = threading.Event()

        def hammer():
            hammer_browser = Browser(base_url)
            while not done.is_set():
                try:
                    page = hammer_browser.get("/menu?user=ivan")
                    if page.status >= 500:
                        failures.append(f"status {page.status}")
                    elif "</html>" not in page.body:
                        failures.append("truncated body")
                except TransientRemoteError as exc:
                    cause = exc.__cause__
                    if isinstance(
                        cause, (ConnectionError, TimeoutError)
                    ):
                        return  # zero response bytes: a clean refusal
                        # race as the listener closed, not truncation
                    failures.append(f"{type(cause).__name__}: {cause}")
                    return

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.4)
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)
        done.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not failures, failures
        assert process.returncode == 0
    finally:
        done_proc = process.poll()
        if done_proc is None:
            process.kill()
            process.wait(timeout=10)
        process.stdout.close()
