"""Unit tests for the metrics registry and snapshot merging."""

import pytest

from repro.obs import NULL_REGISTRY, MetricsRegistry, merge_snapshots


def test_instruments_are_identified_by_name_and_labels():
    m = MetricsRegistry()
    a = m.counter("rpc.calls", method="a")
    b = m.counter("rpc.calls", method="b")
    assert a is not b
    assert m.counter("rpc.calls", method="a") is a
    a.inc()
    a.inc(2)
    assert a.value == 3
    assert b.value == 0


def test_kind_collision_is_an_error():
    m = MetricsRegistry()
    m.counter("x")
    with pytest.raises(ValueError):
        m.gauge("x")


def test_a_reading_is_read_when_snapshotted_and_rebinds():
    m = MetricsRegistry()
    store = {"old": 2, "new": 5}
    m.counter("before").inc()
    m.reading("tally", lambda: store["old"], server="s")
    assert m.snapshot()["counters"][1] == {
        "name": "tally", "labels": {"server": "s"}, "value": 2}
    store["old"] = 3
    m.reading("tally", lambda: store["new"], server="s")  # a recovery
    assert [c["value"] for c in m.snapshot()["counters"]] == [1, 5]
    with pytest.raises(ValueError):
        m.reading("before", lambda: 0)
    NULL_REGISTRY.reading("tally", lambda: 1)
    assert NULL_REGISTRY.snapshot()["counters"] == []


def test_gauge_keeps_last_value():
    m = MetricsRegistry()
    g = m.gauge("depth")
    assert g.value is None
    g.set(4)
    g.set(2)
    assert g.value == 2


def test_histogram_exact_percentiles():
    m = MetricsRegistry()
    h = m.histogram("lat")
    for v in (5.0, 1.0, 3.0, 2.0, 4.0):
        h.observe(v)
    assert h.count == 5
    assert h.mean == 3.0
    assert h.percentile(50) == 3.0
    assert h.percentile(95) == 5.0
    assert h.percentile(0) == 1.0
    with pytest.raises(ValueError):
        h.percentile(101)


def test_empty_histogram_is_nan_not_crash():
    h = MetricsRegistry().histogram("empty")
    assert h.mean != h.mean
    assert h.percentile(50) != h.percentile(50)


def test_series_records_time_value_pairs():
    s = MetricsRegistry().series("queue", site="a")
    s.record(0.0, 1)
    s.record(10.0, 3)
    assert len(s) == 2
    assert s.times == [0.0, 10.0]
    assert s.values == [1.0, 3.0]


def test_iteration_order_is_insertion_order():
    m = MetricsRegistry()
    m.counter("b")
    m.gauge("a")
    m.counter("b", site="x")
    names = [(name, labels) for name, labels, _k, _i in m]
    assert names == [("b", {}), ("a", {}), ("b", {"site": "x"})]


def test_find_returns_all_label_sets():
    m = MetricsRegistry()
    m.counter("hits", site="a").inc()
    m.counter("hits", site="b").inc(2)
    found = {tuple(labels.items()): inst.value
             for labels, inst in m.find("hits")}
    assert found == {(("site", "a"),): 1, (("site", "b"),): 2}


def test_snapshot_shape_and_no_nan():
    m = MetricsRegistry()
    m.counter("c").inc()
    m.gauge("g").set(1.5)
    m.histogram("h").observe(2.0)
    m.histogram("h-empty")
    m.series("s").record(1.0, 2.0)
    snap = m.snapshot()
    assert snap["counters"] == [{"name": "c", "labels": {}, "value": 1}]
    assert snap["gauges"] == [{"name": "g", "labels": {}, "value": 1.5}]
    h, h_empty = snap["histograms"]
    assert h["count"] == 1 and h["p50"] == 2.0 and h["p95"] == 2.0
    assert h_empty["count"] == 0
    assert h_empty["p50"] is None and h_empty["max"] is None
    assert snap["series"] == [
        {"name": "s", "labels": {}, "times": [1.0], "values": [2.0]}
    ]
    assert "samples" not in h
    assert "samples" in m.snapshot(include_samples=True)["histograms"][0]


def test_merge_sums_counters_and_keeps_last_gauge():
    m1, m2 = MetricsRegistry(), MetricsRegistry()
    m1.counter("c", k="x").inc(2)
    m2.counter("c", k="x").inc(3)
    m1.gauge("g").set(1)
    m2.gauge("g").set(9)
    merged = merge_snapshots([m1.snapshot(), m2.snapshot()])
    assert merged["counters"] == [
        {"name": "c", "labels": {"k": "x"}, "value": 5}
    ]
    assert merged["gauges"] == [{"name": "g", "labels": {}, "value": 9}]


def test_merge_pools_histograms_exactly_when_samples_present():
    m1, m2 = MetricsRegistry(), MetricsRegistry()
    for v in (1.0, 2.0):
        m1.histogram("h").observe(v)
    for v in (3.0, 4.0, 100.0):
        m2.histogram("h").observe(v)
    merged = merge_snapshots([
        m1.snapshot(include_samples=True),
        m2.snapshot(include_samples=True),
    ])
    (h,) = merged["histograms"]
    assert h["count"] == 5
    assert h["sum"] == 110.0
    assert (h["min"], h["max"]) == (1.0, 100.0)
    assert h["p50"] == 3.0      # exact pooled, not an average of p50s
    assert h["p95"] == 100.0


def test_merge_without_samples_degrades_percentiles_to_none():
    m1, m2 = MetricsRegistry(), MetricsRegistry()
    m1.histogram("h").observe(1.0)
    m2.histogram("h").observe(2.0)
    merged = merge_snapshots([m1.snapshot(), m2.snapshot()])
    (h,) = merged["histograms"]
    assert h["count"] == 2 and h["sum"] == 3.0
    assert h["p50"] is None and h["p95"] is None


def test_merge_concatenates_series_in_given_order():
    m1, m2 = MetricsRegistry(), MetricsRegistry()
    m1.series("s").record(0.0, 1.0)
    m2.series("s").record(5.0, 2.0)
    merged = merge_snapshots([m1.snapshot(), m2.snapshot()])
    (s,) = merged["series"]
    assert s["times"] == [0.0, 5.0]
    assert s["values"] == [1.0, 2.0]


def test_null_registry_shares_inert_instruments():
    assert not NULL_REGISTRY.enabled
    c = NULL_REGISTRY.counter("anything", site="x")
    c.inc(100)
    assert c.value == 0
    NULL_REGISTRY.gauge("g").set(5)
    NULL_REGISTRY.histogram("h").observe(1.0)
    NULL_REGISTRY.series("s").record(0.0, 1.0)
    assert NULL_REGISTRY.histogram("h").count == 0
    assert list(NULL_REGISTRY) == []
    assert NULL_REGISTRY.find("anything") == []
    snap = NULL_REGISTRY.snapshot()
    assert all(v == [] for v in snap.values())


def test_percentile_sort_is_cached_and_invalidated_on_observe():
    h = MetricsRegistry().histogram("lat")
    for v in (3.0, 1.0, 2.0):
        h.observe(v)
    assert h._sorted is None          # lazy: no sort until asked
    assert h.percentile(50) == 2.0
    first_sort = h._sorted
    assert first_sort == [1.0, 2.0, 3.0]
    assert h.percentile(95) == 3.0
    assert h._sorted is first_sort    # p95 reused the p50 sort
    h.observe(0.5)
    assert h._sorted is None          # new sample invalidates the cache
    assert h.percentile(50) == 1.0


def test_merge_mixed_with_and_without_samples_degrades_cleanly():
    # Regression for the complete=False path: one exact input with
    # samples, one without — the pool cannot claim exact percentiles,
    # but count/sum/min/max still aggregate.
    m1, m2 = MetricsRegistry(), MetricsRegistry()
    for v in (1.0, 2.0, 3.0):
        m1.histogram("h").observe(v)
    m2.histogram("h").observe(50.0)
    merged = merge_snapshots([
        m1.snapshot(include_samples=True),
        m2.snapshot(),  # no samples -> pool incomplete
    ])
    (h,) = merged["histograms"]
    assert h["count"] == 4 and h["sum"] == 56.0
    assert (h["min"], h["max"]) == (1.0, 50.0)
    assert h["p50"] is None and h["p95"] is None
    # Order independence: sample-less input first degrades the same way.
    merged = merge_snapshots([
        m2.snapshot(),
        m1.snapshot(include_samples=True),
    ])
    (h,) = merged["histograms"]
    assert h["count"] == 4
    assert h["p50"] is None and h["p95"] is None


def test_merge_zero_count_sampleless_input_keeps_pool_exact():
    # An *empty* histogram without samples must not poison the pool —
    # there is nothing missing from it.
    m1, m2 = MetricsRegistry(), MetricsRegistry()
    for v in (1.0, 2.0, 3.0):
        m1.histogram("h").observe(v)
    m2.histogram("h")  # registered, never observed
    merged = merge_snapshots([
        m1.snapshot(include_samples=True),
        m2.snapshot(),
    ])
    (h,) = merged["histograms"]
    assert h["count"] == 3
    assert h["p50"] == 2.0 and h["p95"] == 3.0


def test_snapshot_gauge_nan_becomes_none():
    m = MetricsRegistry()
    m.gauge("bad").set(float("nan"))
    m.gauge("good").set(1.0)
    snap = m.snapshot()
    by_name = {g["name"]: g["value"] for g in snap["gauges"]}
    assert by_name == {"bad": None, "good": 1.0}
    import json
    assert "NaN" not in json.dumps(snap)


def test_merge_carries_nan_free_gauges_through():
    m = MetricsRegistry()
    m.gauge("g").set(float("nan"))
    merged = merge_snapshots([m.snapshot()])
    assert merged["gauges"] == [{"name": "g", "labels": {}, "value": None}]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
def test_histogram_refuses_non_finite_values(bad):
    h = MetricsRegistry().histogram("h")
    with pytest.raises(ValueError, match=repr(bad)):
        h.observe(bad)
    h.observe(2.0)
    h.observe(1.0)
    assert (h.count, h.sum, h.min, h.max) == (2, 3.0, 1.0, 2.0)


def test_finite_registry_snapshot_is_strict_json():
    import json
    m = MetricsRegistry()
    m.counter("c").inc()
    m.gauge("g").set(float("nan"))
    for v in (3.0, 1.0, 2.0):
        m.histogram("h", site="a").observe(v)
    m.histogram("empty")
    m.series("s").record(0.0, 1.0)
    json.dumps(m.snapshot(include_samples=True), allow_nan=False)
    json.dumps(merge_snapshots([m.snapshot(include_samples=True),
                                m.snapshot()]), allow_nan=False)
