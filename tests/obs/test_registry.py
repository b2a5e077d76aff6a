"""MetricsRegistry semantics: metric types, labels, the flat read surface."""

import json
from itertools import accumulate

import pytest

from repro.obs.registry import MetricsRegistry


class TestCounter:
    def test_monotonic(self):
        c = MetricsRegistry().counter("reqs_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("reqs_total")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(7)
        g.inc(2)
        g.dec(4)
        assert g.value == 5.0


class TestHistogram:
    def test_observe_and_cumulative_counts(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(56.05)
        assert h.buckets == (0.1, 1.0, 10.0)
        assert list(accumulate(h.counts)) == [1, 3, 4, 5]  # the last bin is +Inf
        assert h.mean == pytest.approx(56.05 / 5)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="sorted ascending"):
            MetricsRegistry().histogram("lat", buckets=(1.0, 0.1))

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            MetricsRegistry().histogram("lat", buckets=())

    def test_reregister_with_different_buckets_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(0.1, 1.0))
        with pytest.raises(ValueError, match="already registered with buckets"):
            reg.histogram("lat", buckets=(0.5, 5.0))


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a", core="0") is reg.counter("a", core="0")
        assert reg.counter("a", core="0") is not reg.counter("a", core="1")

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.gauge("x")

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.gauge("zeta")
        reg.counter("alpha")
        assert reg.names() == ["alpha", "zeta"]

    def test_flat_surface(self):
        reg = MetricsRegistry()
        reg.counter("tasks_total", kind="cell").inc(4)
        reg.gauge("depth").set(2)
        reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        flat = reg.flat()
        assert flat['tasks_total{kind="cell"}'] == 4.0
        assert flat["depth"] == 2.0
        assert flat["lat_count"] == 1.0
        assert flat["lat_sum"] == 0.5

    def test_empty_registry_exports(self):
        reg = MetricsRegistry()
        assert reg.flat() == {} and reg.names() == []

    def test_flat_json_round_trip(self):
        """``FleetStats.summary()`` embeds ``flat()``: it must survive JSON."""
        reg = MetricsRegistry()
        reg.counter("runs_total").inc()
        reg.histogram("lat", buckets=(1.0,), kind="cell").observe(2.0)
        assert json.loads(json.dumps(reg.flat())) == {
            "runs_total": 1.0, 'lat_count{kind="cell"}': 1.0, 'lat_sum{kind="cell"}': 2.0,
        }
