"""The fast Pareto filter and JSON export against their reference forms.

``pareto_rows`` tests dominance with one ``all(map(le, ...))`` pass and
``export_json`` fills per-row templates; the oracles below are the
straightforward versions they replaced, kept verbatim, and every
generated input must give the same front, the same drop counts and
the same bytes.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.errors import ExploreError  # noqa: E402
from repro.explore import export_json, pareto_rows  # noqa: E402


# -- the reference Pareto filter, verbatim ----------------------------------

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


def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` is no worse on every axis and better on one
    (all objectives minimized)."""
    no_worse = all(x <= y for x, y in zip(a, b))
    return no_worse and any(x < y for x, y in zip(a, b))


def reference_pareto_rows(
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
    # suffices
    scored.sort(key=lambda item: item[1])
    front: List[Tuple[Mapping, Tuple[float, ...]]] = []
    for row, vector in scored:
        if any(_dominates(kept, vector) for _, kept in front):
            continue
        front.append((row, vector))
    kept_indexes = {id(row) for row, _ in front}
    return [row for row in rows if id(row) in kept_indexes]


# -- the reference export, verbatim -----------------------------------------

def reference_export_json(
    rows: Sequence[Mapping],
    axis_names: Sequence[str],
    objectives: Sequence[str],
    meta: Optional[Mapping[str, object]] = None,
) -> str:
    """Full results as canonical JSON (sorted keys, indent 1) — the
    payload the resume-equivalence gate compares byte for byte."""
    out_rows: List[Dict[str, object]] = []
    for row in rows:
        out: Dict[str, object] = {
            "index": int(row["index"]),
            "values": {k: float(v) for k, v in row["values"].items()},
            "objectives": {
                k: float(v) for k, v in row.get("objectives", {}).items()
            },
            "error": str(row.get("error", "")),
        }
        if "source" in row:
            out["source"] = str(row["source"])
        out_rows.append(out)
    payload: Dict[str, object] = {
        "format": "powerplay-sweep-results/1",
        "axes": list(axis_names),
        "objectives": list(objectives),
        "rows": out_rows,
    }
    if meta:
        payload["meta"] = dict(meta)
    return json.dumps(payload, indent=1, sort_keys=True)


SETTINGS = settings(max_examples=200, deadline=None)

#: few distinct values, so exact ties and ±0.0 pairs are common
SCORES = st.sampled_from(
    [0.0, -0.0, 1.0, 1.0, 2.5, -3.0, 1e-12, math.nan, math.inf, -math.inf]
)
OBJECTIVES = st.lists(
    st.sampled_from(["power", "delay", "area"]),
    min_size=1, max_size=3, unique=True,
)


@st.composite
def scored_rows(draw):
    objectives = draw(OBJECTIVES)
    rows = []
    for index in range(draw(st.integers(0, 40))):
        rows.append({
            "index": index,
            "values": {"a": float(index)},
            "objectives": {name: draw(SCORES) for name in objectives},
            "error": draw(st.sampled_from(["", "", "", "boom"])),
        })
    return rows, objectives


class TestParetoOracle:
    @SETTINGS
    @given(scored_rows())
    def test_same_front_and_counts(self, case):
        rows, objectives = case
        stats, expected_stats = {}, {}
        front = pareto_rows(rows, objectives, stats)
        expected = reference_pareto_rows(rows, objectives, expected_stats)
        assert [id(row) for row in front] == [id(row) for row in expected]
        assert stats == expected_stats


NAMES = st.text(max_size=4)  # non-ASCII, quotes, "%" and the empty name
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
META_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, NAMES),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(NAMES, inner, max_size=3),
    ),
    max_leaves=8,
)
EXPORT_ROWS = st.lists(
    st.builds(
        lambda index, values, scores, error, source: dict(
            {"index": index, "values": values, "objectives": scores,
             "error": error},
            **({} if source is None else {"source": source}),
        ),
        st.integers(0, 10**9),
        st.dictionaries(st.sampled_from(["VDD", "bits", "é"]), FLOATS),
        st.dictionaries(st.sampled_from(["power", "delay"]), FLOATS),
        st.text(max_size=8),
        st.one_of(st.none(), st.sampled_from(["exact", "predicted"])),
    ),
    max_size=12,
)
META = st.one_of(
    st.none(),
    st.fixed_dictionaries({"job": NAMES, "design": NAMES}),
    st.dictionaries(NAMES, META_VALUES, max_size=3),
)


class TestExportJsonOracle:
    @SETTINGS
    @given(
        rows=EXPORT_ROWS,
        axes=st.lists(NAMES, max_size=3),
        objectives=st.lists(NAMES, max_size=3),
        meta=META,
    )
    def test_bytes_match_json_dumps(self, rows, axes, objectives, meta):
        assert export_json(rows, axes, objectives, meta) == (
            reference_export_json(rows, axes, objectives, meta)
        )

    def test_non_ascii_error_text_and_non_finite_values(self):
        rows = [{
            "index": 7,
            "values": {"VDD": -0.0},
            "objectives": {"power": math.nan, "delay": -math.inf},
            "error": "über \"quoted\" 50%",
            "source": "predicted",
        }]
        text = export_json(rows, ["VDD"], ["power", "delay"],
                           {"job": "job-0001", "design": "infopad"})
        assert text == reference_export_json(
            rows, ["VDD"], ["power", "delay"],
            {"job": "job-0001", "design": "infopad"},
        )
        assert '"power": NaN' in text and "\\u00fcber" in text
