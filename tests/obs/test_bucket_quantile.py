"""One bucket-quantile estimator behind every histogram reader.

The load generator's summary (``loadgen.stats.histogram_quantile`` over
a live :class:`Histogram`), the fleet view (``obs.fleet.family_quantile``
over scraped exposition text) and the capacity fit (over recorded
history) all answer through :func:`repro.obs.metrics.bucket_quantile`.
The expected values below are the outputs each reader gave before the
three copies were merged, pinned exactly.
"""

import math

import pytest

from repro.loadgen.stats import histogram_quantile
from repro.obs.fleet import family_quantile, parse_exposition
from repro.obs.metrics import MetricsRegistry, bucket_quantile

BOUNDS = (0.01, 0.05, 0.1, 0.5, 1.0)
#: route /a leaves the first two buckets empty and puts one sample
#: in +Inf; route /b leaves only the first bucket empty
OBSERVED = {
    "/a": (0.07, 0.08, 0.3, 0.3, 0.9, 2.0),
    "/b": (0.02, 0.04, 0.04),
}
QS = (0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0)

PINNED = {
    "/a": [0.05, 0.065, 0.08750000000000001, 0.30000000000000004,
           1.0, 1.0, 1.0, 1.0],
    "/b": [0.01, 0.014000000000000002, 0.02, 0.03,
           0.046000000000000006, 0.047999999999999994, 0.0496, 0.05],
    None: [0.01, 0.022, 0.04, 0.08750000000000001, 1.0, 1.0, 1.0, 1.0],
}


def registry_with(routes):
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "lat_seconds", "latency", ("route",), buckets=BOUNDS
    )
    for route in routes:
        for value in OBSERVED[route]:
            histogram.observe(value, route=route)
    return registry, histogram


def scraped_family(routes):
    registry, _ = registry_with(routes)
    return parse_exposition(registry.render()).get(
        "lat_seconds", {"kind": "histogram", "series": {}}
    )


@pytest.mark.parametrize("route", ["/a", "/b", None])
def test_loadgen_reader_pinned(route):
    _, histogram = registry_with(("/a", "/b"))
    assert [histogram_quantile(histogram, q, route) for q in QS] \
        == PINNED[route]


def test_loadgen_reader_empty_histogram_is_zero():
    _, histogram = registry_with(())
    assert histogram_quantile(histogram, 0.5) == 0.0


@pytest.mark.parametrize(
    "routes, key", [(("/a",), "/a"), (("/b",), "/b"), (("/a", "/b"), None)]
)
def test_fleet_reader_pinned_above_zero(routes, key):
    family = scraped_family(routes)
    assert [family_quantile(family, q) for q in QS[1:]] == PINNED[key][1:]


def test_fleet_reader_empty_and_untyped_are_none():
    assert family_quantile(scraped_family(()), 0.5) is None
    assert family_quantile({"kind": "counter", "series": {}}, 0.5) is None


def test_fleet_and_loadgen_agree_at_zero():
    """The one output the merge changed: with two leading empty buckets
    the fleet reader used to answer q=0 with the first bucket's bound
    (0.01); it now gives the lower edge of the first non-empty bucket,
    as the load generator and capacity readers always did."""
    assert family_quantile(scraped_family(("/a",)), 0.0) == 0.05
    assert family_quantile(scraped_family(("/b",)), 0.0) == 0.01


def test_bucket_quantile_directly():
    per_bucket = [(0.1, 2.0), (0.5, 2.0), (math.inf, 0.0)]
    assert bucket_quantile(per_bucket, 0.5) == 0.1
    assert bucket_quantile(per_bucket, 0.75) == 0.30000000000000004
    assert bucket_quantile([(0.1, 0.0), (math.inf, 5.0)], 0.95) == 0.1
    assert bucket_quantile([], 0.5) is None
    assert bucket_quantile([(0.1, 0.0), (math.inf, 0.0)], 0.5) is None
