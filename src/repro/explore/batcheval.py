"""Row-level memoized batch evaluation — many points, few recomputes.

:func:`repro.core.estimator.evaluate_power` rebuilds the full report
tree on every call: every model expression re-walked, every scope name
re-resolved, every breakdown re-summed.  Fine for one PLAY; wasteful
for a 10k-point sweep where most rows' inputs did not change between
neighbouring points (a ``VDD2`` step leaves every ``VDD1`` row's
environment bit-identical).

:class:`BatchEvaluator` compiles a design once and then evaluates
points by **read-set memoization**: the first evaluation of a row
records exactly which environment names the row's models read (gets,
containment probes, and misses); later points re-resolve just those
names and reuse the row's objective values when every recorded read
matches.  A model that inspects its environment in any non-replayable
way (iteration, length) permanently opts its row out — correctness
never depends on guessing.

The contract, relied on by the engine and enforced by the equivalence
tests: for any design and override sequence, the objective values are
**bit-identical** to serial :func:`evaluate_power` /
:func:`evaluate_area` / :func:`evaluate_timing` calls under
:func:`~repro.core.estimator.scope_overrides`.  Sums are performed in
the same order over the same floats; memo hits return the exact float
computed earlier, which a replay would recompute identically.

Sweep targets may be dotted paths (``custom.luminance_chip.lut.bits``)
resolved by :func:`resolve_target` into the owning row scope, so sweeps
reach row-local parameters that top-page overrides cannot shadow.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ..core.design import Design, Instance, SubDesign
from ..core.estimator import RowEnv
from ..core.parameters import ParameterScope
from ..errors import DesignError, ExploreError, ModelError, PowerPlayError

#: read kinds recorded by the recorder / validated by the probe
_GET, _HAS, _MISS = 0, 1, 2

BUILTIN_OBJECTIVES = ("power", "area", "delay")


def resolve_target(design: Design, target: str) -> Tuple[ParameterScope, str]:
    """Resolve a sweep target into ``(scope, parameter name)``.

    A plain name addresses the design's global scope (like a top-page
    edit; the name may be new there, matching ``grid_search``).  A
    dotted path descends through sub-design rows to an instance row's
    local scope — there the final name must already be visible in the
    scope chain, catching typos before a 10k-point job starts.
    """
    parts = [part for part in target.split(".") if part]
    if not parts:
        raise ExploreError(f"empty sweep target {target!r}")
    if len(parts) == 1:
        return design.scope, parts[0]
    node: Design = design
    for depth, segment in enumerate(parts[:-1]):
        try:
            row = node.row(segment)
        except PowerPlayError:
            raise ExploreError(
                f"sweep target {target!r}: {'.'.join(parts[: depth + 1])!r}"
                f" names no row of design {node.name!r}"
            ) from None
        if isinstance(row, SubDesign):
            node = row.design
            continue
        if depth != len(parts) - 2:
            raise ExploreError(
                f"sweep target {target!r}: row {segment!r} is an instance;"
                " only one parameter segment may follow it"
            )
        name = parts[-1]
        if name not in row.scope:
            raise ExploreError(
                f"sweep target {target!r}: row {segment!r} resolves no "
                f"parameter {name!r}"
            )
        return row.scope, name
    name = parts[-1]
    if name not in node.scope:
        raise ExploreError(
            f"sweep target {target!r}: design {node.name!r} resolves no "
            f"parameter {name!r}"
        )
    return node.scope, name


class _Recorder(Mapping[str, float]):
    """Wraps an environment and records every read for later replay."""

    __slots__ = ("_env", "reads", "_seen", "unstable")

    def __init__(self, env: Mapping[str, float]):
        self._env = env
        self.reads: List[Tuple[str, int, Optional[float]]] = []
        self._seen: Dict[Tuple[str, int], bool] = {}
        self.unstable = False

    def _note(self, name: str, kind: int, value: Optional[float]) -> None:
        key = (name, kind)
        if key not in self._seen:
            self._seen[key] = True
            self.reads.append((name, kind, value))

    def __getitem__(self, name: str) -> float:
        try:
            value = self._env[name]
        except Exception:
            self._note(name, _MISS, None)
            raise
        self._note(name, _GET, value)
        return value

    def __contains__(self, name: object) -> bool:
        present = name in self._env
        if isinstance(name, str):
            self._note(name, _HAS, bool(present))
        return present

    def __iter__(self) -> Iterator[str]:
        self.unstable = True
        return iter(self._env)

    def __len__(self) -> int:
        self.unstable = True
        return len(self._env)


class _Memo:
    """One row's cached result for one objective kind."""

    __slots__ = ("reads", "result", "unstable")

    def __init__(self):
        self.reads: Optional[List[Tuple[str, int, Optional[float]]]] = None
        self.result: Optional[Tuple[float, ...]] = None
        self.unstable = False

    def matches(self, env: Mapping[str, float]) -> bool:
        if self.unstable or self.reads is None:
            return False
        for name, kind, expect in self.reads:
            if kind == _GET:
                try:
                    value = env[name]
                except Exception:
                    return False
                if value != expect:
                    return False
            elif kind == _HAS:
                if (name in env) != expect:
                    return False
            else:  # _MISS: the read raised last time; it must still raise
                try:
                    env[name]
                except Exception:
                    continue
                return False
        return True


class _CompiledRow:
    __slots__ = ("row", "power_memo", "area_memo", "timing_memo",
                 "needs_area_param")

    def __init__(self, row: Instance):
        self.row = row
        self.power_memo = _Memo()
        self.area_memo = _Memo()
        self.timing_memo = _Memo()
        #: does some sibling area-feed on this row? (computed at compile)
        self.needs_area_param = False


class _CompiledDesign:
    __slots__ = ("design", "order", "rows", "row_order")

    def __init__(self, design: Design):
        self.design = design
        #: evaluation order (feeds before consumers)
        self.order: List[str] = list(design.evaluation_order())
        #: row name -> _CompiledRow | _CompiledDesign
        self.rows: Dict[str, object] = {}
        #: summation order (presentation order, as the estimator sums)
        self.row_order: List[str] = list(design.row_names())
        fed_areas = set()
        for row in design:
            if isinstance(row, SubDesign):
                self.rows[row.name] = _CompiledDesign(row.design)
            else:
                self.rows[row.name] = _CompiledRow(row)
                fed_areas.update(row.area_feeds)
        for name in fed_areas:
            compiled = self.rows.get(name)
            if isinstance(compiled, _CompiledRow):
                compiled.needs_area_param = True


class BatchEvaluator:
    """Compile once, evaluate many points bit-identically to the
    estimator (see module docstring for the memoization contract)."""

    def __init__(self, design: Design, objectives: Tuple[str, ...] = ("power",)):
        for objective in objectives:
            if objective not in BUILTIN_OBJECTIVES:
                raise ExploreError(
                    f"unknown objective {objective!r}; built-ins are "
                    f"{BUILTIN_OBJECTIVES}"
                )
        if not objectives:
            raise ExploreError("need at least one objective")
        self.design = design
        self.objectives = tuple(objectives)
        self._compiled = _CompiledDesign(design)
        #: target string -> (scope, name), resolved lazily on first use
        self._targets: Dict[str, Tuple[ParameterScope, str]] = {}
        self.hits = 0
        self.misses = 0

    # -- overrides ---------------------------------------------------------

    def _bind(self, target: str) -> Tuple[ParameterScope, str]:
        bound = self._targets.get(target)
        if bound is None:
            bound = resolve_target(self.design, target)
            self._targets[target] = bound
        return bound

    def evaluate(self, overrides: Mapping[str, float]) -> Dict[str, float]:
        """Objective values at one point; design state restored after."""
        saved: List[Tuple[ParameterScope, str, bool, object]] = []
        try:
            for target, value in overrides.items():
                scope, name = self._bind(target)
                had = name in scope.local_names()
                saved.append(
                    (scope, name, had, scope.raw(name) if had else None)
                )
                scope.set(name, float(value))
            result: Dict[str, float] = {}
            for objective in self.objectives:
                if objective == "power":
                    result["power"] = self._power(self._compiled)[0]
                elif objective == "area":
                    result["area"] = self._area(self._compiled)
                else:
                    result["delay"] = self._timing(self._compiled)[0]
            return result
        finally:
            for scope, name, had, old in reversed(saved):
                if had:
                    scope._values[name] = old
                else:
                    scope.unset(name)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

    # -- the three passes --------------------------------------------------

    def _power(self, node: _CompiledDesign) -> Tuple[float, float]:
        """(total watts, the report's ``_area`` stand-in: 0.0) for a
        design node, mirroring ``_evaluate_design`` float-for-float."""
        computed: Dict[str, Tuple[float, float]] = {}
        for name in node.order:
            compiled = node.rows[name]
            if isinstance(compiled, _CompiledDesign):
                computed[name] = (self._power(compiled)[0], 0.0)
            else:
                computed[name] = self._power_row(compiled, computed)
        total = sum(computed[name][0] for name in node.row_order)
        return total, 0.0

    def _power_row(
        self,
        compiled: _CompiledRow,
        computed: Mapping[str, Tuple[float, float]],
    ) -> Tuple[float, float]:
        row = compiled.row
        extras: Dict[str, float] = {}
        if row.power_feeds:
            load = 0.0
            for feed in row.power_feeds:
                try:
                    feed_power = computed[feed][0]
                except KeyError:
                    raise DesignError(
                        f"row {row.name!r} feeds on unevaluated row {feed!r}"
                    ) from None
                extras[f"P.{feed}"] = feed_power
                load += feed_power
            extras["P_load"] = load
        if row.area_feeds:
            total_area = 0.0
            for feed in row.area_feeds:
                try:
                    feed_area = computed[feed][1]
                except KeyError:
                    raise DesignError(
                        f"row {row.name!r} area-feeds on unevaluated "
                        f"row {feed!r}"
                    ) from None
                extras[f"A.{feed}"] = feed_area
                total_area += feed_area
            extras["active_area"] = total_area
        env = RowEnv(row.scope, extras)
        memo = compiled.power_memo
        if memo.matches(env):
            self.hits += 1
            unit_power, area_param = memo.result
        else:
            self.misses += 1
            recorder = _Recorder(env)
            if row.measured_power is not None:
                unit_power = row.measured_power
            else:
                try:
                    unit_power = row.models.power.power(recorder)
                except ModelError as exc:
                    raise ModelError(f"row {row.name!r}: {exc}") from exc
            area_param = 0.0
            if compiled.needs_area_param and row.models.area is not None:
                try:
                    area_param = row.models.area.area(recorder) * row.quantity
                except ModelError:
                    area_param = 0.0
            if recorder.unstable:
                memo.unstable = True
                memo.reads = None
                memo.result = None
            else:
                memo.reads = recorder.reads
                memo.result = (unit_power, area_param)
        return unit_power * row.quantity, area_param

    def _area(self, node: _CompiledDesign) -> float:
        """Total active area, mirroring ``_evaluate_area``."""
        children: List[float] = []
        for name in node.row_order:
            compiled = node.rows[name]
            if isinstance(compiled, _CompiledDesign):
                children.append(self._area(compiled))
                continue
            row = compiled.row
            if row.models.area is None:
                children.append(0.0)
                continue
            env = RowEnv(row.scope, {})
            memo = compiled.area_memo
            if memo.matches(env):
                self.hits += 1
                children.append(memo.result[0])
                continue
            self.misses += 1
            recorder = _Recorder(env)
            value = row.models.area.area(recorder) * row.quantity
            if recorder.unstable:
                memo.unstable = True
            else:
                memo.reads = recorder.reads
                memo.result = (value,)
            children.append(value)
        return sum(children)

    def _timing(self, node: _CompiledDesign) -> Tuple[float, bool]:
        """(critical delay, modeled), mirroring ``_evaluate_timing``."""
        children: List[Tuple[float, bool]] = []
        for name in node.row_order:
            compiled = node.rows[name]
            if isinstance(compiled, _CompiledDesign):
                children.append(self._timing(compiled))
                continue
            row = compiled.row
            model = row.models.timing
            if model is None:
                children.append((0.0, False))
                continue
            env = RowEnv(row.scope, {})
            memo = compiled.timing_memo
            if memo.matches(env):
                self.hits += 1
                children.append((memo.result[0], True))
                continue
            self.misses += 1
            recorder = _Recorder(env)
            value = model.delay(recorder)
            if recorder.unstable:
                memo.unstable = True
            else:
                memo.reads = recorder.reads
                memo.result = (value,)
            children.append((value, True))
        modeled = [delay for delay, is_modeled in children if is_modeled]
        critical = max(modeled) if modeled else 0.0
        return critical, bool(modeled)
