"""Metrics registry: instruments, naming, snapshots, scraping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import (
    MetricsRegistry,
    enable_observability,
    metric_key,
    parse_metric_key,
)
from repro.obs.export import otlp_json, prometheus_text
from repro.obs.state import METRICS_EVENT
from repro.runtime.sim import SimRuntime


def test_metric_key_sorts_labels():
    assert metric_key("m", {}) == "m"
    assert metric_key("m", {"b": "2", "a": "1"}) == "m{a=1,b=2}"


def test_metric_key_escapes_separator_characters():
    key = metric_key("m", {"node": "a,b=c}d{e\\f"})
    assert key == "m{node=a\\,b\\=c\\}d\\{e\\\\f}"
    assert parse_metric_key(key) == ("m", {"node": "a,b=c}d{e\\f"})


def test_parse_metric_key_plain_and_empty():
    assert parse_metric_key("m") == ("m", {})
    assert parse_metric_key("m{}") == ("m", {})
    # A bare name that merely contains a brace-free suffix passes through.
    assert parse_metric_key("weird}name") == ("weird}name", {})


def test_parse_metric_key_rejects_label_without_equals():
    with pytest.raises(ValueError, match="label without"):
        parse_metric_key("m{justakey}")


label_text = st.text(
    alphabet=st.characters(
        codec="utf-8", categories=("L", "N", "P", "S", "Zs")
    ),
    min_size=1,
    max_size=12,
)


@given(
    name=st.text(alphabet="abc.xyz_", min_size=1, max_size=10),
    labels=st.dictionaries(label_text, label_text, max_size=4),
)
def test_metric_key_round_trips(name, labels):
    parsed_name, parsed_labels = parse_metric_key(metric_key(name, labels))
    assert parsed_name == name
    assert parsed_labels == labels


def test_counter_get_or_create():
    registry = MetricsRegistry()
    counter = registry.counter("events", node="n1")
    counter.inc()
    counter.inc(2)
    assert registry.counter("events", node="n1") is counter
    assert counter.value == 3
    assert registry.counter("events", node="n2").value == 0


def test_gauge_set_and_callback():
    registry = MetricsRegistry()
    gauge = registry.gauge("depth")
    gauge.set(4)
    assert gauge.read() == 4.0
    computed = registry.gauge("util", fn=lambda: 0.5)
    assert computed.read() == 0.5


def test_gauge_rebinds_callback_on_reregister():
    # A node restart re-creates components; re-registration must swap in
    # the closure over the *new* CPU object, not keep the dead one.
    registry = MetricsRegistry()
    registry.gauge("depth", fn=lambda: 1.0)
    registry.gauge("depth", fn=lambda: 2.0)
    assert registry.gauge("depth").read() == 2.0


def test_histogram_welford():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", node="n1")
    for v in (1.0, 2.0, 3.0):
        hist.add(v)
    snap = registry.snapshot()["lat{node=n1}"]
    assert {k: snap[k] for k in ("count", "mean", "min", "max")} == {
        "count": 3,
        "mean": 2.0,
        "min": 1.0,
        "max": 3.0,
    }
    # Nearest-rank sketch quantiles: rank int(q * 2 / 100) is the middle
    # sample for p50, p95 and p99 alike, reported as its bucket midpoint.
    for q in ("p50", "p95", "p99"):
        assert snap[q] == pytest.approx(2.0, rel=0.01)


def test_histogram_quantiles_agree_across_snapshot_and_exports():
    registry = MetricsRegistry()
    hist = registry.histogram("op.latency_s", op="train")
    values = [(i * 7919 % 10_000 + 1) * 1e-4 for i in range(10_000)]
    assert len(set(values)) == len(values)
    for v in values:
        hist.add(v)
    ordered = sorted(values)
    snap = registry.snapshot()["op.latency_s{op=train}"]
    prom = {}
    for line in prometheus_text(registry).splitlines():
        if line.startswith("op_latency_s"):
            series, value = line.rsplit(" ", 1)
            prom[series] = float(value)
    (point,) = otlp_json(registry)["resourceMetrics"][0]["scopeMetrics"][0][
        "metrics"
    ][0]["summary"]["dataPoints"]
    otlp = {entry["quantile"]: entry["value"] for entry in point["quantileValues"]}
    for q in (50, 95, 99):
        exported = prom[f'op_latency_s{{op="train",quantile="{q / 100}"}}']
        assert exported == otlp[q / 100]
        assert snap[f"p{q}"] == round(exported, 9)
        true = ordered[int(q * (len(values) - 1) / 100)]
        assert abs(exported - true) <= 0.01 * true
    assert prom['op_latency_s_sum{op="train"}'] == sum(values)
    assert point["sum"] == sum(values)
    assert prom['op_latency_s_count{op="train"}'] == point["count"] == len(values)


def test_snapshot_is_flat_and_sorted():
    registry = MetricsRegistry()
    registry.counter("z").inc()
    registry.gauge("a").set(1)
    registry.histogram("m")
    snap = registry.snapshot()
    assert snap["z"] == 1
    assert snap["a"] == 1.0
    assert snap["m"] == {"count": 0}


def test_snapshot_isolates_broken_gauges():
    registry = MetricsRegistry()

    def boom() -> float:
        raise RuntimeError("dead node")

    registry.gauge("bad", fn=boom)
    registry.counter("good").inc()
    snap = registry.snapshot()
    assert "bad" not in snap
    assert snap["good"] == 1


def test_len_counts_all_instruments():
    registry = MetricsRegistry()
    registry.counter("a")
    registry.gauge("b")
    registry.histogram("c")
    assert len(registry) == 3


def test_scraper_emits_metric_records_at_sim_intervals():
    runtime = SimRuntime(seed=1)
    obs = enable_observability(runtime, scrape_interval_s=1.0)
    obs.metrics.counter("events").inc(5)
    runtime.run(until=3.5)
    scrapes = runtime.tracer.select(METRICS_EVENT)
    assert len(scrapes) == 3
    assert [r.time for r in scrapes] == [1.0, 2.0, 3.0]
    assert scrapes[-1]["m"]["events"] == 5
    obs.stop_scraping()


def test_cardinality_cap_stops_admission_but_returns_instruments():
    registry = MetricsRegistry(max_series=2)
    kept_a = registry.counter("a")
    kept_b = registry.gauge("b")
    with pytest.warns(RuntimeWarning, match="cardinality cap"):
        dropped = registry.counter("c")
    # The caller still gets a working instrument — it is just unregistered.
    dropped.inc(5)
    assert dropped.value == 5
    assert len(registry) == 2
    assert registry.dropped_series == 1
    assert registry.first_dropped_key == "c"
    # Existing series keep working and re-registration stays idempotent.
    assert registry.counter("a") is kept_a
    assert registry.gauge("b") is kept_b
    assert registry.dropped_series == 1


def test_cardinality_cap_warns_once_then_counts_silently():
    import warnings

    registry = MetricsRegistry(max_series=1)
    registry.counter("a")
    with pytest.warns(RuntimeWarning):
        registry.counter("b")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        registry.histogram("c")
        registry.gauge("d")
    assert not caught
    assert registry.dropped_series == 3


def test_dropped_series_surface_in_snapshot():
    registry = MetricsRegistry(max_series=1)
    registry.counter("a").inc()
    with pytest.warns(RuntimeWarning):
        registry.counter("b").inc()
    snap = registry.snapshot()
    assert snap["a"] == 1
    assert "b" not in snap
    assert snap["obs.meta.dropped_series"] == 1


def test_unbounded_registry_when_cap_is_none():
    registry = MetricsRegistry(max_series=None)
    for i in range(MetricsRegistry.DEFAULT_MAX_SERIES + 5):
        registry.counter("m", i=str(i))
    assert registry.dropped_series == 0


def test_node_gauges_registered_for_nodes():
    runtime = SimRuntime(seed=1)
    obs = enable_observability(runtime, scrape_interval_s=0)
    runtime.add_node("n1")
    # Component construction triggers register_node; simulate directly.
    obs.register_node(runtime.nodes["n1"])
    snap = obs.metrics.snapshot()
    assert "node.cpu.queue_depth{node=n1}" in snap
    assert "node.cpu.busy_s{node=n1}" in snap
    assert "wlan.airtime_share" in snap
