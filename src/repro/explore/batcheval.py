"""Dirty-cone batch evaluation — many points, few recomputes.

:func:`repro.core.estimator.evaluate_power` rebuilds the full report
tree on every call: every model expression re-walked, every scope name
re-resolved, every breakdown re-summed.  Fine for one PLAY; wasteful
for a 10k-point sweep where most rows' inputs did not change between
neighbouring points (a ``VDD2`` step leaves every ``VDD1`` row alone).

:class:`BatchEvaluator` compiles a design once and keeps, per row and
per pass (power, area, delay), the row's last value and its **deps**:
the names its models read when it was last computed (gets, ``in``
probes and failed gets), closed over the formula parameters those
names resolve to from the row's scope.  Each point compares its
override values with the previous point's, and a row is recomputed
only when

* it has no deps yet (first point, new override key set, or the point
  after a failure);
* one of its models iterates or sizes its environment — such a row
  never keeps deps and is recomputed at every point;
* a changed target ``(scope T, name M)`` has ``M`` in its deps and
  ``T`` in its scope chain; or
* a power or area feed it consumes changed value.

Every other row returns its stored float without touching its
environment.  Deps are re-recorded on every recompute, because a
conditional model (``mode > 0.5 ? a : b``) reads different names at
different values.

Deps are valid for one override **key set**: a dotted target that
writes a float over a formula parameter (luminance's ``VDD = "VDD2"``)
hides the formula's inputs from the recording, so a call with other
keys drops every row's deps.  An exception during a point drops them
too, since the rows it recomputed before failing saw that point's
values.

The contract: **overrides are the only thing that changes the design
between calls.**  The engine gives each worker its own design replica
and a serial job a fresh ``job.design()``; a caller that edits the
design itself needs a new evaluator.  Under that contract, for any
design and override sequence the objective values are
**bit-identical** to :func:`~repro.core.estimator.evaluate_power` /
:func:`~repro.core.estimator.evaluate_area` /
:func:`~repro.core.estimator.evaluate_timing` with the same overrides
applied: sums run in the same order over the same floats (sub-design
totals are re-summed in row order every point), and a clean row's
stored float is the one a recompute would produce again.

Sweep targets may be dotted paths (``custom.luminance_chip.lut.bits``)
resolved by :func:`resolve_target` into the owning row scope, so sweeps
reach row-local parameters that top-page overrides cannot shadow.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterator, List, Mapping, Optional, Set,
                    Tuple)

from ..core.design import Design, Instance, SubDesign
from ..core.estimator import RowEnv
from ..core.expressions import Expression
from ..core.parameters import ParameterScope
from ..errors import (DesignError, ExploreError, ModelError, ParameterError,
                      PowerPlayError)

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
    """Wraps a row's environment and records the names its models read."""

    __slots__ = ("_env", "names", "unstable")

    def __init__(self, env: Mapping[str, float]):
        self._env = env
        self.names: Set[str] = set()
        self.unstable = False

    def __getitem__(self, name: str) -> float:
        self.names.add(name)
        return self._env[name]

    def __contains__(self, name: object) -> bool:
        if isinstance(name, str):
            self.names.add(name)
        return name in self._env

    def __iter__(self) -> Iterator[str]:
        self.unstable = True
        return iter(self._env)

    def __len__(self) -> int:
        self.unstable = True
        return len(self._env)


def _closure(names: Set[str], scope: ParameterScope) -> Set[str]:
    """``names`` closed over the formula parameters they resolve to
    from ``scope``."""
    deps = set(names)
    todo = list(deps)
    while todo:
        try:
            value = scope.raw(todo.pop())
        except ParameterError:
            continue
        if isinstance(value, Expression):
            fresh = value.names - deps
            deps |= fresh
            todo.extend(fresh)
    return deps


class _Cell:
    """One row's last result in one pass, and what it was computed from."""

    __slots__ = ("value", "deps", "extras")

    def __init__(self):
        self.value = None
        #: names the result depends on; None = recompute at next point
        self.deps: Optional[Set[str]] = None
        #: the feed values (``P_load``, ``active_area``...) it saw
        self.extras: Optional[Dict[str, float]] = None


class _CompiledRow:
    __slots__ = ("row", "chain", "power", "area", "timing",
                 "needs_area_param")

    def __init__(self, row: Instance):
        self.row = row
        #: ids of the scopes a lookup from this row walks
        chain = set()
        scope: Optional[ParameterScope] = row.scope
        while scope is not None:
            chain.add(id(scope))
            scope = scope.parent
        self.chain = frozenset(chain)
        self.power = _Cell()
        self.area = _Cell()
        self.timing = _Cell()
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

    def cells(self) -> Iterator[_Cell]:
        for compiled in self.rows.values():
            if isinstance(compiled, _CompiledDesign):
                yield from compiled.cells()
            else:
                yield compiled.power
                yield compiled.area
                yield compiled.timing


def _feed_extras(
    row: Instance, computed: Mapping[str, Tuple[float, float]]
) -> Dict[str, float]:
    """The feed entries of a row's power environment, summed in the
    estimator's order."""
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
    return extras


def _power_of(compiled: _CompiledRow, env: Mapping[str, float]):
    """(row watts, the row's ``_area`` report parameter or 0.0)."""
    row = compiled.row
    if row.measured_power is not None:
        unit_power = row.measured_power
    else:
        try:
            unit_power = row.models.power.power(env)
        except ModelError as exc:
            raise ModelError(f"row {row.name!r}: {exc}") from exc
    area_param = 0.0
    if compiled.needs_area_param and row.models.area is not None:
        try:
            area_param = row.models.area.area(env) * row.quantity
        except ModelError:
            area_param = 0.0
    return unit_power * row.quantity, area_param


def _area_of(compiled: _CompiledRow, env: Mapping[str, float]) -> float:
    return compiled.row.models.area.area(env) * compiled.row.quantity


def _delay_of(compiled: _CompiledRow, env: Mapping[str, float]) -> float:
    return compiled.row.models.timing.delay(env)


class BatchEvaluator:
    """Compile once, evaluate many points bit-identically to the
    estimator, recomputing only the rows a point's changed overrides
    reach (see the module docstring for the dirty rule and contract).

    ``hits`` counts rows reused, ``misses`` rows recomputed.
    """

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
        self._cells = list(self._compiled.cells())
        #: target string -> (scope, name), resolved lazily on first use
        self._targets: Dict[str, Tuple[ParameterScope, str]] = {}
        #: the override keys the cells' deps were recorded under
        self._keys: Optional[Tuple[str, ...]] = None
        #: target -> the value it had at the previous point
        self._last: Dict[str, float] = {}
        #: ``(id(scope), name)`` of each target this point changed
        self._changed: List[Tuple[int, str]] = []
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
        keys = tuple(overrides)
        if keys != self._keys:
            for cell in self._cells:
                cell.deps = None
            self._keys = keys
            self._last = {}
        changed: List[Tuple[int, str]] = []
        saved: List[Tuple[ParameterScope, str, bool, object]] = []
        try:
            for target, value in overrides.items():
                scope, name = self._bind(target)
                value = float(value)
                if self._last.get(target) != value:
                    changed.append((id(scope), name))
                    self._last[target] = value
                had = name in scope.local_names()
                saved.append(
                    (scope, name, had, scope.raw(name) if had else None)
                )
                scope.set(name, value)
            self._changed = changed
            result: Dict[str, float] = {}
            for objective in self.objectives:
                if objective == "power":
                    result["power"] = self._power(self._compiled)
                elif objective == "area":
                    result["area"] = self._area(self._compiled)
                else:
                    result["delay"] = self._timing(self._compiled)[0]
            return result
        except BaseException:
            self._keys = None  # the next point recomputes every row
            raise
        finally:
            for scope, name, had, old in reversed(saved):
                if had:
                    scope._values[name] = old
                else:
                    scope.unset(name)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

    # -- the three passes --------------------------------------------------

    def _cached(
        self,
        compiled: _CompiledRow,
        cell: _Cell,
        compute: Callable[[_CompiledRow, Mapping[str, float]], object],
        extras: Dict[str, float],
    ):
        """The row's value in one pass: stored if clean, else recomputed
        with its deps re-recorded."""
        deps = cell.deps
        if deps is not None and extras == cell.extras:
            chain = compiled.chain
            for scope_id, name in self._changed:
                if name in deps and scope_id in chain:
                    break
            else:
                self.hits += 1
                return cell.value
        self.misses += 1
        scope = compiled.row.scope
        recorder = _Recorder(RowEnv(scope, extras))
        cell.value = compute(compiled, recorder)
        cell.deps = (
            None if recorder.unstable else _closure(recorder.names, scope)
        )
        cell.extras = extras
        return cell.value

    def _power(self, node: _CompiledDesign) -> float:
        """Total watts of a design node, mirroring ``_evaluate_design``
        float-for-float (a sub-design's ``_area`` stand-in is 0.0)."""
        computed: Dict[str, Tuple[float, float]] = {}
        for name in node.order:
            compiled = node.rows[name]
            if isinstance(compiled, _CompiledDesign):
                computed[name] = (self._power(compiled), 0.0)
            else:
                computed[name] = self._cached(
                    compiled, compiled.power, _power_of,
                    _feed_extras(compiled.row, computed),
                )
        return sum(computed[name][0] for name in node.row_order)

    def _area(self, node: _CompiledDesign) -> float:
        """Total active area, mirroring ``_evaluate_area``."""
        children: List[float] = []
        for name in node.row_order:
            compiled = node.rows[name]
            if isinstance(compiled, _CompiledDesign):
                children.append(self._area(compiled))
            elif compiled.row.models.area is None:
                children.append(0.0)
            else:
                children.append(
                    self._cached(compiled, compiled.area, _area_of, {})
                )
        return sum(children)

    def _timing(self, node: _CompiledDesign) -> Tuple[float, bool]:
        """(critical delay, modeled), mirroring ``_evaluate_timing``."""
        children: List[Tuple[float, bool]] = []
        for name in node.row_order:
            compiled = node.rows[name]
            if isinstance(compiled, _CompiledDesign):
                children.append(self._timing(compiled))
            elif compiled.row.models.timing is None:
                children.append((0.0, False))
            else:
                children.append((
                    self._cached(compiled, compiled.timing, _delay_of, {}),
                    True,
                ))
        modeled = [delay for delay, is_modeled in children if is_modeled]
        critical = max(modeled) if modeled else 0.0
        return critical, bool(modeled)
