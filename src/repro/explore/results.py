"""Analysis and export of sweep results.

Everything here is a pure, deterministic function of the result rows —
the contract that makes checkpoint/resume verifiable: a resumed job and
an uninterrupted job hand the same rows to these functions and export
**byte-identical** CSV/JSON.

A result *row* is the engine's serializable point record::

    {"index": 3, "values": {"VDD2": 1.2, "bw": 12.0},
     "overrides": {...}, "objectives": {"power": ..., "delay": ...},
     "error": ""}
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from operator import le
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ExploreError


def _objective_vector(
    row: Mapping, objectives: Sequence[str]
) -> Optional[Tuple[float, ...]]:
    """The row's objective tuple, or ``None`` for failed rows and rows
    carrying a non-finite objective.

    Surrogate-predicted rows can legitimately hold NaN/inf (an
    extrapolating basis, a log of a non-positive value); a NaN must
    never reach dominance comparison — NaN compares false against
    everything and would silently survive onto the frontier — so
    such rows are dropped, and callers can count them via the
    ``stats`` out-param on :func:`pareto_rows`.
    """
    if row.get("error"):
        return None
    values = row.get("objectives", {})
    try:
        vector = tuple(float(values[name]) for name in objectives)
    except KeyError as exc:
        raise ExploreError(
            f"row {row.get('index')} is missing objective {exc}"
        ) from None
    for value in vector:
        if not math.isfinite(value):
            return None
    return vector


def pareto_rows(
    rows: Sequence[Mapping],
    objectives: Sequence[str],
    stats: Optional[Dict[str, int]] = None,
) -> List[Mapping]:
    """Non-dominated rows over N minimized objectives.

    Failed rows (non-empty ``error``) and rows with any non-finite
    objective never make the front; pass a dict as ``stats`` to get
    ``{"dropped_failed": n, "dropped_non_finite": m}`` back.  Ties on
    the full objective vector all survive (they dominate nobody and
    nobody dominates them), matching the designer's expectation that
    equivalent configurations stay visible.  Output preserves point
    order.
    """
    if not objectives:
        raise ExploreError("pareto_rows needs at least one objective")
    dropped_failed = 0
    dropped_non_finite = 0
    scored = []
    for row in rows:
        vector = _objective_vector(row, objectives)
        if vector is None:
            if row.get("error"):
                dropped_failed += 1
            else:
                dropped_non_finite += 1
            continue
        scored.append((row, vector))
    if stats is not None:
        stats["dropped_failed"] = dropped_failed
        stats["dropped_non_finite"] = dropped_non_finite
    # sort by objective vector: a dominator always sorts before its
    # victims lexicographically, so one pass against the running front
    # suffices — and a kept vector, sorting no later, dominates a later
    # one exactly when it differs and is no worse on every objective
    scored.sort(key=lambda item: item[1])
    front: List[Tuple[float, ...]] = []
    kept = set()
    for row, vector in scored:
        if any(k != vector and all(map(le, k, vector)) for k in front):
            continue
        front.append(vector)
        kept.add(id(row))
    return [row for row in rows if id(row) in kept]


def sensitivity_ranking(
    rows: Sequence[Mapping],
    axis_names: Sequence[str],
    objective: str = "power",
) -> List[Dict[str, float]]:
    """Per-axis impact on one objective, largest first.

    For each axis: group the successful rows by the values of every
    *other* axis, measure the objective's spread (max - min) within
    each group as that axis varies alone, and average the spreads.
    The relative figure divides by the mean objective so axes are
    comparable across magnitudes.  Deterministic: ties rank by name.
    """
    usable = [
        row
        for row in rows
        if not row.get("error")
        and math.isfinite(float(row["objectives"].get(objective, math.nan)))
    ]
    if not usable:
        return []
    mean = sum(
        float(row["objectives"][objective]) for row in usable
    ) / len(usable)
    ranking: List[Dict[str, float]] = []
    for axis in axis_names:
        groups: Dict[Tuple, List[float]] = {}
        for row in usable:
            values = row["values"]
            key = tuple(
                (name, values[name]) for name in axis_names if name != axis
            )
            groups.setdefault(key, []).append(
                float(row["objectives"][objective])
            )
        spreads = [
            max(group) - min(group)
            for group in groups.values()
            if len(group) > 1
        ]
        spread = sum(spreads) / len(spreads) if spreads else 0.0
        ranking.append(
            {
                "axis": axis,
                "spread": spread,
                "relative": spread / abs(mean) if mean else 0.0,
            }
        )
    ranking.sort(key=lambda item: (-item["spread"], item["axis"]))
    return ranking


def export_csv(
    rows: Sequence[Mapping],
    axis_names: Sequence[str],
    objectives: Sequence[str],
) -> str:
    """Result rows as CSV, byte-stable: ``repr`` floats round-trip
    exactly, row order is point order.

    When any row carries a ``source`` key (surrogate sweeps mark rows
    ``exact`` or ``predicted``) a ``source`` column is emitted; exports
    of plain exact sweeps stay byte-identical to before.
    """
    with_source = any("source" in row for row in rows)
    header = ["index", *axis_names, *objectives]
    if with_source:
        header.append("source")
    header.append("error")
    lines = [",".join(header)]
    for row in rows:
        cells: List[str] = [str(int(row["index"]))]
        for name in axis_names:
            cells.append(repr(float(row["values"][name])))
        for name in objectives:
            value = row.get("objectives", {}).get(name)
            cells.append("" if value is None else repr(float(value)))
        if with_source:
            cells.append(str(row.get("source", "exact")))
        error = str(row.get("error", ""))
        cells.append('"%s"' % error.replace('"', "'") if error else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


#: how json spells the floats ``repr`` writes as nan/inf/-inf
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def _wrap(ends: str, items: Sequence[str], depth: int) -> str:
    """A container at ``depth`` the way ``json.dumps(indent=1)`` lays
    it out, from its already-encoded items."""
    if not items:
        return ends
    inner = "\n" + " " * (depth + 1)
    return (ends[0] + inner + ("," + inner).join(items) + "\n"
            + " " * depth + ends[1])


def _encode(value: object, depth: int) -> str:
    """``json.dumps(value, indent=1, sort_keys=True)`` at ``depth``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    if isinstance(value, dict):
        return _wrap("{}", [
            f"{encode_basestring_ascii(k)}: {_encode(v, depth + 1)}"
            for k, v in sorted(value.items())
        ], depth)
    if isinstance(value, (list, tuple)):
        return _wrap("[]", [_encode(v, depth + 1) for v in value], depth)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


def _template(keys: Sequence[str], depth: int) -> str:
    """A %-template for an object at ``depth`` with these sorted keys."""
    return _wrap("{}", [
        encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys
    ], depth)


def _row_layout(values: Mapping, objectives: Mapping, source: bool) -> tuple:
    """``(template, value keys, objective keys)`` for one row shape:
    a row at depth 2 of the export, its members sorted."""
    value_keys, objective_keys = sorted(values), sorted(objectives)
    members = ['"error": %s', '"index": %s',
               '"objectives": ' + _template(objective_keys, 3)]
    if source:
        members.append('"source": %s')
    members.append('"values": ' + _template(value_keys, 3))
    return _wrap("{}", members, 2), value_keys, objective_keys


def export_json(
    rows: Sequence[Mapping],
    axis_names: Sequence[str],
    objectives: Sequence[str],
    meta: Optional[Mapping[str, object]] = None,
) -> str:
    """Full results as canonical JSON (sorted keys, indent 1) — the
    payload the resume-equivalence gate compares byte for byte.

    The text is ``json.dumps(payload, indent=1, sort_keys=True)``, but
    each row fills a template made once per row shape, so no row goes
    through json's pure-Python indenting encoder.
    """
    layouts: Dict[tuple, tuple] = {}
    out_rows: List[str] = []
    for row in rows:
        values = row["values"]
        scores = row.get("objectives", {})
        source = "source" in row
        shape = (tuple(values), tuple(scores), source)
        layout = layouts.get(shape)
        if layout is None:
            layout = layouts[shape] = _row_layout(values, scores, source)
        template, value_keys, objective_keys = layout
        fields = [
            encode_basestring_ascii(str(row.get("error", ""))),
            int.__repr__(int(row["index"])),
        ]
        fields += [_float(float(scores[k])) for k in objective_keys]
        if source:
            fields.append(encode_basestring_ascii(str(row["source"])))
        fields += [_float(float(values[k])) for k in value_keys]
        out_rows.append(template % tuple(fields))
    head: Dict[str, object] = {
        "axes": list(axis_names),
        "format": "powerplay-sweep-results/1",
        "objectives": list(objectives),
    }
    if meta:
        head["meta"] = dict(meta)
    members = [
        f"{encode_basestring_ascii(k)}: {_encode(v, 1)}"
        for k, v in sorted(head.items())
    ]
    # "rows" sorts after every other member
    members.append('"rows": ' + _wrap("[]", out_rows, 1))
    return _wrap("{}", members, 0)
