"""The HTTP workload: ``sheet_play``.

The server runs in its own process, started the way ``repro serve``
starts it (file backend, one worker, telemetry on) from a fresh state
directory.  Load comes from this process over loopback: two
closed-loop connections, each sending its next request only after the
previous response (and any redirect it asked for) has arrived.
"""

import html
import http.client
import json
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.parse
from pathlib import Path
from typing import Dict, List, Optional

import tracing
from common import (HERE, LATENCIES, ROOT, VDDS, Outcome, digest_text,
                    fresh_dir, layer_self, mean, median, percentile,
                    written_bytes)

from repro.core.estimator import evaluate_power
from repro.core.units import format_eng, format_quantity
from repro.designs.infopad import build_infopad
from repro.loadgen.driver import op_request
from repro.loadgen.workload import Operation

CONNECTIONS = 2
SETUPS = 3  # set-ups per untraced run; setup_s is their median
READY_TIMEOUT_S = 60.0


# -- the server process ----------------------------------------------------

class Server:
    """``repro serve`` in a child process; ``stop()`` is SIGINT + wait."""

    def __init__(self, run_dir: Path, trace_out: Optional[Path] = None,
                 delays: Optional[Dict[str, float]] = None):
        self.state = run_dir / "state"
        self.trace_out = trace_out
        command = [sys.executable, "-u", str(HERE / "server_main.py"),
                   "--state", str(self.state)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        for layer, seconds in (delays or {}).items():
            command += ["--delay", f"{layer}={seconds}"]
        self._log = open(run_dir / "server.log", "wb")
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, stderr=self._log,
        )
        deadline = time.monotonic() + READY_TIMEOUT_S
        self.port = 0
        while time.monotonic() < deadline:
            line = self.process.stdout.readline().decode()
            if not line:
                break
            if line.startswith("PowerPlay serving at "):
                url = line.split()[3]
                self.port = urllib.parse.urlsplit(url).port
                break
        if not self.port:
            self.stop()
            raise RuntimeError(f"server did not start; see {run_dir}")

    def start_measuring(self) -> None:
        """Make a traced server drop what set-up recorded."""
        if self.trace_out is None:
            return
        marker = Path(f"{self.trace_out}.reset")
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not marker.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server did not reset")
            time.sleep(0.01)

    def cpu_s(self) -> float:
        """CPU seconds the server process has used so far, all threads:
        Linux's CPU-time clock of another process, ``MAKE_PROCESS_CPUCLOCK
        (pid, CPUCLOCK_SCHED)``."""
        return time.clock_gettime(((~self.process.pid) << 3) | 2)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


# -- one closed-loop client --------------------------------------------------

class Hop:
    __slots__ = ("request", "seconds")

    def __init__(self, request: str, seconds: float):
        self.request = request
        self.seconds = seconds


class Result:
    """One user operation: a request plus any redirect it asked for."""

    __slots__ = ("op", "method", "status", "seconds", "hops", "body", "done")

    def __init__(self, op, method, status, seconds, hops, body):
        self.done = time.perf_counter()
        self.op = op
        self.method = method
        self.status = status
        self.seconds = seconds
        self.hops = hops
        self.body = body


def request(port: int, method: str, path: str, form: Dict[str, str]) -> Result:
    hops: List[Hop] = []
    began = time.perf_counter()
    body = urllib.parse.urlencode(form) if method == "POST" else None
    headers = ({"Content-Type": "application/x-www-form-urlencoded"}
               if body is not None else {})
    status, text = 599, ""
    for _ in range(3):
        hop_began = time.perf_counter()
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            text = response.read().decode("utf-8", errors="replace")
            status = response.status
            location = response.getheader("Location")
            hops.append(Hop(response.getheader(tracing.REQUEST_HEADER) or "",
                            time.perf_counter() - hop_began))
        finally:
            connection.close()
        if status not in (301, 302, 303) or not location:
            break
        method, path, body, headers = "GET", location, None, {}
    return Result(None, "", status, time.perf_counter() - began, hops, text)


def request_for(op: Operation):
    """``(method, path, form)``: loadgen's translation, plus the PLAY of
    the InfoPad supply ``VDD1`` (loadgen's PLAY sets ``VDD``, which the
    InfoPad sheet does not use)."""
    if op.kind == "play_supply":
        return "POST", "/design", {"user": op.user, "name": op.params["name"],
                                   "g:VDD1": op.params["VDD1"]}
    return op_request(op)


def run_op(port: int, op: Operation) -> Result:
    method, path, form = request_for(op)
    try:
        result = request(port, method, path, form)
    except (OSError, http.client.HTTPException) as exc:
        result = Result(None, "", 599, 0.0, [], str(exc))
    result.op = op
    result.method = method
    return result


def drive(port: int, lanes: List[List[Operation]], seconds: float):
    """Run each lane's operations in order on its own connection until
    ``seconds`` pass; returns (results per lane, start, wall seconds)."""
    results: List[List[Result]] = [[] for _ in lanes]
    began = time.perf_counter()
    deadline = began + seconds

    def lane(slot: int) -> None:
        for op in lanes[slot]:
            if time.perf_counter() >= deadline:
                return
            results[slot].append(run_op(port, op))

    threads = [threading.Thread(target=lane, args=(slot,))
               for slot in range(len(lanes))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, began, time.perf_counter() - began


def scrape(port: int) -> Dict[str, float]:
    text = request(port, "GET", "/metrics", {}).body
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            samples[key] = float(value)
    return samples


def _delta(before, after, key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


WINDOW_S = 1.0


def latency_metrics(out: Outcome, results: List[Result], began: float,
                    wall: float) -> None:
    """Each metric is the median over the run's whole one-second
    windows of that window's figure, so a burst of load from outside
    the benchmark moves it less."""
    windows: List[List[Result]] = [
        [] for _ in range(max(1, int(wall / WINDOW_S)))]
    for result in results:
        slot = int((result.done - began) / WINDOW_S)
        if slot < len(windows):
            windows[slot].append(result)
    rows: Dict[str, List[float]] = {name: [] for name in LATENCIES}
    rows["ops_per_s"] = []
    for window in windows:
        rows["ops_per_s"].append(len(window) / WINDOW_S)
        reads = [r.seconds * 1e3 for r in window if r.method == "GET"]
        writes = [r.seconds * 1e3 for r in window if r.method == "POST"]
        for name, sample in (("read", reads), ("write", writes)):
            if sample:
                rows[f"{name}_p50_ms"].append(percentile(sample, 0.5))
                rows[f"{name}_p90_ms"].append(percentile(sample, 0.9))
    out.put("ops_per_s", median(rows.pop("ops_per_s")), "1/s")
    for name, values in rows.items():
        out.put(name, median(values), "ms")


def check_statuses(out: Outcome, results: List[Result]) -> None:
    for result in results:
        if result.status >= 400:
            out.fail(1, f"{result.op.kind} {result.op.user}: "
                        f"HTTP {result.status}")


def web_pass(name: str, lanes: List[List[Operation]], prologue, check,
             seconds: float, traced: bool, delays=None) -> Outcome:
    """Set a server up (three times untraced, for ``setup_s``), drive
    ``lanes`` against the last one, stop it, then run ``check``."""
    out = Outcome()
    setups, wall_setups = [], []
    server = None
    try:
        for attempt in range(1 if traced else SETUPS):
            if server is not None:
                server.stop()
            run_dir = fresh_dir(f"{name}-{attempt}")
            trace_out = run_dir / "trace.json" if traced else None
            began = time.perf_counter()
            server = Server(run_dir, trace_out, delays)
            prologue(server.port)
            wall_setups.append(time.perf_counter() - began)
            setups.append(server.cpu_s())
        server.start_measuring()
        before = scrape(server.port)
        cpu_before = server.cpu_s()
        written_before = written_bytes(server.process.pid)
        results, began, wall = drive(server.port, lanes, seconds)
        cpu_used = server.cpu_s() - cpu_before
        written = written_bytes(server.process.pid) - written_before
        after = scrape(server.port)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    flat = [r for lane in results for r in lane]
    out.attempted = len(flat)
    check_statuses(out, flat)
    check(out, results)
    latency_metrics(out, flat, began, wall)
    out.put("setup_s", median(setups), "s")
    out.put("wall_setup_s", median(wall_setups), "s")
    out.put("cpu_ms_per_op", cpu_used / max(1, len(flat)) * 1e3, "ms")
    out.put("disk_write_kb_per_op", written / max(1, len(flat)) / 1e3, "KB")
    out.put("peak_rss_mb", rss, "MB")
    if traced:
        web_layers(out, json.loads(trace_out.read_text()), flat,
                   before, after)
    return out


# -- per-layer figures from a traced server ----------------------------------

SAVE = "web.session:UserStore.save_session"
HANDLE = "web.app:Application.handle"
RECORD = "obs:FlightRecorder.record"
LOOKUPS = tuple(f"core.evalcache:EvaluationCache.{kind}"
                for kind in ("power", "area", "timing"))
FINGERPRINT = "core.evalcache:design_fingerprint"
ESTIMATOR = tuple(f"core.estimator:evaluate_{kind}"
                  for kind in ("power", "area", "timing"))
EXPRESSIONS = "core.expressions:evaluate"


def web_layers(out: Outcome, trace: dict, results: List[Result],
               before: dict, after: dict) -> None:
    stats = trace["stats"]
    ops = max(1, len(results))
    spans = trace["spans"]
    by_id = {span[0]: span for span in spans}
    children: Dict[int, List[list]] = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)

    saves = [s for s in spans if s[1] == SAVE]
    save_s = [s[3] - s[2] for s in saves]
    encode_s = [
        (s[3] - s[2]) - sum(c[3] - c[2] for c in children.get(s[0], ())
                            if tracing.layer_of(c[1]) == "state")
        for s in saves
    ]
    user_saves, user_bytes = tracing.persisted(stats, "users")
    all_saves, all_bytes = tracing.persisted(stats)
    session_saves = _delta(before, after,
                           'powerplay_session_ops_total{op="save"}')
    out.put("web.session.save_ms", mean(save_s) * 1e3, "ms")
    out.put("web.session.encode_ms", mean(encode_s) * 1e3, "ms")
    out.put("web.session.doc_bytes", user_bytes / max(1, user_saves), "B")
    out.put("web.session.saves_per_op", session_saves / ops, "1/op")

    state_save = [n for n in stats if n.endswith("Backend.save")]
    out.put("state.save_ms", 1e3 * tracing.seconds(stats, *state_save)
            / max(1, tracing.calls(stats, *state_save)), "ms")
    out.put("state.saves", all_saves, "count")
    out.put("state.bytes_per_op", all_bytes / ops, "B/op")

    hits = sum(_delta(before, after,
                      f'powerplay_eval_cache_total{{kind="{k}",result="hit"}}')
               for k in ("power", "area", "timing"))
    misses = sum(_delta(before, after,
                        f'powerplay_eval_cache_total{{kind="{k}",result="miss"}}')
                 for k in ("power", "area", "timing"))
    out.put("core.evalcache.hit_ratio", hits / max(1.0, hits + misses), "ratio")
    out.put("core.evalcache.fingerprint_ms",
            _per_call_ms(stats, FINGERPRINT), "ms")
    out.put("core.evalcache.lookups", tracing.calls(stats, *LOOKUPS), "count")
    out.put("core.estimator.evaluations", tracing.calls(stats, *ESTIMATOR),
            "count")
    out.put("core.estimator.evaluate_ms", _per_call_ms(stats, *ESTIMATOR), "ms")
    out.put("core.expressions.evals_per_op",
            tracing.calls(stats, EXPRESSIONS) / ops, "1/op")

    renders = [s for s in spans if s[1].startswith("web.pages:")
               and not by_id.get(s[4], ["", ""])[1].startswith("web.pages:")]
    pages = [len(r.body.encode()) for r in results
             if r.status == 200 and r.body.startswith("<")]
    out.put("web.pages.render_ms",
            mean([s[3] - s[2] for s in renders]) * 1e3, "ms")
    out.put("web.pages.page_bytes", mean(pages), "B")

    handled = {s[5]: s[3] - s[2] for s in spans if s[1] == HANDLE}
    gaps = [hop.seconds - handled[hop.request]
            for r in results for hop in r.hops if hop.request in handled]
    out.put("web.server.transport_ms", mean(gaps) * 1e3, "ms")

    handle_s = tracing.seconds(stats, HANDLE)
    handle_self = tracing.seconds(stats, HANDLE, own=True)
    calls = max(1, tracing.calls(stats, HANDLE))
    out.put("web.app.handle_ms", handle_s / calls * 1e3, "ms")
    out.put("web.app.self_ms", handle_self / calls * 1e3, "ms")
    out.put("web.app.self_share", 100.0 * handle_self / max(1e-12, handle_s),
            "%")
    out.put("obs.recorder.record_ms", _per_call_ms(stats, RECORD), "ms")
    layer_self(out, stats, ops)


def _per_call_ms(stats, *names) -> float:
    return 1e3 * tracing.seconds(stats, *names) / max(
        1, tracing.calls(stats, *names))


# -- sheet_play --------------------------------------------------------------

SHEET_USERS = ("designer0", "designer1")
EXAMPLES = ("luminance_fig1", "luminance_fig3", "infopad")
SHEET_MIX = (("sheet", 40), ("analysis", 20), ("play", 40))
SHEET_OPS_PER_USER = 20_000  # more than a run completes


def expected_totals() -> Dict[str, str]:
    """The sheet's total line for each supply, as the page renders it."""
    out = {}
    for vdd in VDDS:
        total = evaluate_power(build_infopad(), {"VDD1": float(vdd)}).power
        out[vdd] = html.escape(
            f"Total: {format_eng(total, 'W')}  ({format_quantity(total, 'W')})"
        )
    return out


def sheet_script(seed: int) -> List[List[Operation]]:
    """One lane per user: a seeded mix of sheet GETs, analysis GETs and
    PLAY POSTs on the user's InfoPad design."""
    rng = random.Random(seed)
    kinds = [kind for kind, _ in SHEET_MIX]
    weights = [weight for _, weight in SHEET_MIX]
    lanes = []
    for user in SHEET_USERS:
        ops = []
        for index in range(SHEET_OPS_PER_USER):
            kind = rng.choices(kinds, weights)[0]
            if kind == "sheet":
                ops.append(Operation(index, user, "design_sheet",
                                     {"name": "infopad"}))
            elif kind == "analysis":
                ops.append(Operation(index, user, "design_analysis",
                                     {"name": "infopad"}))
            else:
                ops.append(Operation(index, user, "play_supply",
                                     {"name": "infopad",
                                      "VDD1": rng.choice(VDDS)}))
        lanes.append(ops)
    return lanes


def sheet_prologue(port: int, user: str) -> List[Result]:
    """Log in, load the three paper designs (~35 KB of session) and
    PLAY every supply once so the evaluation cache is warm."""
    ops = [Operation(0, user, "login")]
    ops += [Operation(0, user, "load_example", {"example": name})
            for name in EXAMPLES]
    for vdd in VDDS:
        ops.append(Operation(0, user, "play_supply",
                             {"name": "infopad", "VDD1": vdd}))
        ops.append(Operation(0, user, "design_sheet", {"name": "infopad"}))
        ops.append(Operation(0, user, "design_analysis", {"name": "infopad"}))
    return [run_op(port, op) for op in ops]


def check_sheets(out: Outcome, lanes: List[List[Result]],
                 expected: Dict[str, str]) -> None:
    """Every PLAY page and every sheet after it shows the estimator's
    total for the supply last played."""
    for results in lanes:
        vdd = VDDS[-1]  # the prologue's last PLAY
        for result in results:
            kind = result.op.kind
            if kind == "play_supply":
                vdd = result.op.params["VDD1"]
            if kind in ("play_supply", "design_sheet") and \
                    expected[vdd] not in result.body:
                out.fail(1, f"{kind} {result.op.user} at VDD={vdd}: "
                            "total differs from evaluate_power")


def sheet_prologue_all(port: int) -> None:
    for user in SHEET_USERS:
        for result in sheet_prologue(port, user):
            if result.status >= 400:
                raise RuntimeError(f"prologue failed: {result.op.kind}")


def sheet_pass(seed: int, seconds: float, traced: bool,
               delays=None) -> Outcome:
    expected = expected_totals()

    def check(out: Outcome, lanes: List[List[Result]]) -> None:
        check_sheets(out, lanes, expected)
    return web_pass("sheet_play", sheet_script(seed), sheet_prologue_all,
                    check, seconds, traced, delays)


def sheet_inputs(seed: int) -> str:
    return digest_text(json.dumps(
        [[op.to_payload() for op in lane] for lane in sheet_script(seed)]))
