"""Layer tracing from outside the program: wrap each layer's public
functions, time every call, keep the spans in memory.

A *layer* is a module (or a small group of modules) under ``src/repro``.
:class:`Tracer.install` replaces every public function of a layer's
modules, and every public method of the classes they define, with a
timing wrapper, and rebinds each replaced module-level function
wherever another ``repro`` module imported it by name.  Untraced runs
never construct a :class:`Tracer`, so they run the program unchanged.

Each call records ``calls``, total seconds and *self* seconds (total
minus the time covered by wrapped calls it made).  Spans — ``(id,
name, start, end, parent, request id)`` — are kept in memory for every
layer except the hot ones (expression evaluation and the batch
evaluator), which keep counts and times only: they run millions of
times per run.  A span tree opened by a request carries the request's
``X-PowerPlay-Request`` id, taken from ``Application.handle``'s
response.

Forked pool workers inherit the wrappers.  A fork resets the child's
counters, and the worker entry points write the child's totals to
``<dump_dir>/worker-<pid>.json`` after every chunk, because spans and
counters recorded inside a pool worker never reach the parent
otherwise.

``delays`` maps a layer (``"state"``) or one function
(``"core.estimator:evaluate_power"``) to seconds; each call into it
spins that long first.  Only the negative-control script uses it.
"""

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

LAYERS: Dict[str, tuple] = {
    "web.server": ("repro.web.server",),
    "web.app": ("repro.web.app",),
    "web.pages": ("repro.web.pages",),
    "web.session": ("repro.web.session",),
    "state": (
        "repro.state.backend",
        "repro.state.filestate",
        "repro.state.fsio",
        "repro.state.sqlitestate",
    ),
    "core.evalcache": ("repro.core.evalcache",),
    "core.estimator": ("repro.core.estimator",),
    "core.expressions": ("repro.core.expressions",),
    "explore.engine": ("repro.explore.engine",),
    "explore.batcheval": ("repro.explore.batcheval",),
    "explore.jobs": ("repro.explore.jobs",),
    "explore.results": ("repro.explore.results",),
    "surrogate": (
        "repro.surrogate.fit",
        "repro.surrogate.predict",
        "repro.surrogate.runner",
        "repro.surrogate.sampling",
        "repro.surrogate.verify",
    ),
    "obs": ("repro.obs.recorder", "repro.obs.slo"),
}

#: layers called per expression or per point: counted, never spanned
HOT_LAYERS = frozenset({"core.expressions", "explore.batcheval"})

#: functions whose calls also count the bytes they persist:
#: qualname -> args -> (namespace, bytes)
SIZERS = {
    "FileBackend.save": lambda args: (args[1], len(args[3])),
}

#: pool-worker entry points that dump the worker's totals per chunk
WORKER_ENTRIES = ("_proc_chunk", "_proc_index_chunk")

REQUEST_HEADER = "X-PowerPlay-Request"


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _targets(module) -> Iterable[tuple]:
    """``(owner, attribute, function)`` for each public callable."""
    for name, value in list(vars(module).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            yield module, name, value
    for value in list(vars(module).values()):
        if not inspect.isclass(value) or value.__module__ != module.__name__:
            continue
        for name, member in list(vars(value).items()):
            if name.startswith("_") and name not in ("do_GET", "do_POST"):
                continue
            if inspect.isfunction(member):
                yield value, name, member


class Tracer:
    """Per-call timing of the program's layers (see module docstring)."""

    def __init__(self, delays: Optional[Dict[str, float]] = None,
                 record: bool = True, dump_dir: Optional[Path] = None):
        self.delays = dict(delays or {})
        self.record = record
        self.dump_dir = dump_dir
        self._local = threading.local()
        self._guard = threading.Lock()
        self._thread_stats: List[dict] = []
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._undo: List[tuple] = []

    # -- per-thread state ----------------------------------------------

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.stats = {}
            local.pending = []
            local.request = None
            with self._guard:
                self._thread_stats.append(local.stats)
        return local

    def _after_fork_in_child(self) -> None:
        self._local = threading.local()
        self._guard = threading.Lock()
        self._thread_stats = []
        self.spans = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, layer: str, fn):
        name = f"{layer}:{fn.__qualname__}"
        delay = self.delays.get(name, self.delays.get(layer, 0.0))
        if not self.record:
            @functools.wraps(fn)
            def delayed(*args, **kwargs):
                _spin(delay)
                return fn(*args, **kwargs)
            return delayed

        keep_spans = layer not in HOT_LAYERS
        is_handle = fn.__qualname__ == "Application.handle"
        sizer = SIZERS.get(fn.__qualname__)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._state()
            stack = local.stack
            span_id = next(tracer._ids) if keep_spans else 0
            frame = [0.0, span_id]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            if delay:
                _spin(delay)
            start = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                entry = local.stats.get(name)
                if entry is None:
                    entry = local.stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if sizer is not None:
                    namespace, size = sizer(args)
                    key = f"#bytes:{namespace}"
                    sized = local.stats.get(key)
                    if sized is None:
                        sized = local.stats[key] = [0, 0.0, 0.0]
                    sized[0] += 1
                    sized[1] += size
                if is_handle and result is not None:
                    local.request = result.headers.get(REQUEST_HEADER)
                if keep_spans:
                    local.pending.append(
                        [span_id, name, start, end, parent, None]
                    )
                if not stack and local.pending:
                    request = local.request
                    for span in local.pending:
                        span[5] = request
                    tracer.spans.extend(local.pending)
                    local.pending = []
                    local.request = None
        return wrapper

    def _wrap_worker_entry(self, fn):
        tracer = self

        @functools.wraps(fn)
        def entry(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.dump_worker()
            return result
        return entry

    def install(self) -> "Tracer":
        """Wrap every layer, or only the delayed ones when this tracer
        does not record."""
        layers = (LAYERS if self.record
                  else {layer_of(key) for key in self.delays})
        replaced = {}
        for layer in layers:
            for module_name in LAYERS[layer]:
                module = importlib.import_module(module_name)
                for owner, attribute, fn in _targets(module):
                    wrapped = self._wrap(layer, fn)
                    setattr(owner, attribute, wrapped)
                    self._undo.append((owner, attribute, fn))
                    if owner is module:
                        replaced[id(fn)] = (fn, wrapped)
        if self.record and self.dump_dir is not None:
            engine = importlib.import_module("repro.explore.engine")
            for attribute in WORKER_ENTRIES:
                fn = getattr(engine, attribute)
                wrapped = self._wrap_worker_entry(fn)
                setattr(engine, attribute, wrapped)
                self._undo.append((engine, attribute, fn))
            os.register_at_fork(after_in_child=self._after_fork_in_child)
        # rebind names other modules imported with ``from x import f``
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                pair = replaced.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attribute, pair[1])
                    self._undo.append((module, attribute, value))
        return self

    def uninstall(self) -> None:
        for owner, attribute, fn in reversed(self._undo):
            setattr(owner, attribute, fn)
        self._undo = []

    # -- results -------------------------------------------------------

    def stats(self) -> Dict[str, list]:
        """Function name -> ``[calls, total_s, self_s]``, all threads."""
        with self._guard:
            tables = list(self._thread_stats)
        return merge_stats(*tables)

    def absorb(self, table: Dict[str, list]) -> None:
        """Add counters recorded elsewhere (the pool workers' dumps)."""
        with self._guard:
            self._thread_stats.append(table)

    def reset(self) -> None:
        with self._guard:
            for table in self._thread_stats:
                table.clear()
        self.spans = []

    def dump_worker(self) -> None:
        path = self.dump_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.stats()))
        os.replace(tmp, path)

    def write(self, path: Path) -> None:
        """Write counters and spans out (what a run keeps on disk)."""
        path.write_text(json.dumps({
            "stats": self.stats(),
            "span_fields": ["id", "name", "start", "end", "parent",
                            "request"],
            "spans": self.spans,
        }))


def merge_stats(*tables: Dict[str, list]) -> Dict[str, list]:
    merged: Dict[str, list] = {}
    for table in tables:
        for name, (calls, total, own) in list(table.items()):
            entry = merged.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
    return merged


def worker_stats(dump_dir: Path) -> Dict[str, list]:
    """Sum what forked pool workers dumped (their final totals)."""
    tables = []
    for path in sorted(dump_dir.glob("worker-*.json")):
        tables.append(json.loads(path.read_text()))
        path.unlink()
    return merge_stats(*tables)


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


def layer_totals(stats: Dict[str, list]) -> Dict[str, list]:
    """Layer -> ``[calls, total_s, self_s]``."""
    totals = {layer: [0, 0.0, 0.0] for layer in LAYERS}
    for name, (calls, total, own) in stats.items():
        if name.startswith("#"):
            continue
        entry = totals[layer_of(name)]
        entry[0] += calls
        entry[1] += total
        entry[2] += own
    return totals


def persisted(stats: Dict[str, list], namespace: str = "") -> tuple:
    """``(saves, bytes)`` written to one state namespace, or to all."""
    keys = [k for k in stats if k.startswith(f"#bytes:{namespace}")]
    return (sum(stats[k][0] for k in keys), sum(stats[k][1] for k in keys))


def calls(stats: Dict[str, list], *names: str) -> int:
    return sum(stats.get(name, (0, 0.0, 0.0))[0] for name in names)


def seconds(stats: Dict[str, list], *names: str, own: bool = False) -> float:
    column = 2 if own else 1
    return sum(stats.get(name, (0, 0.0, 0.0))[column] for name in names)
