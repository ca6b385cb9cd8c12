"""Tests for the observability metrics registry (``repro.obs``):
basic metric semantics, exporters, and correctness under concurrency —
a multi-thread counter hammer and a reconnect storm driven through the
fault-injecting proxy."""

import math
import socket
import sys
import threading
import time
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.stats import percentile
from repro.obs.metrics import BOUNDS, N_BUCKETS
from repro.mgmt.client import ManagementClient
from repro.mgmt.database import Database
from repro.mgmt.schema import simple_schema
from repro.mgmt.server import ManagementServer
from repro.net import FaultInjector, RetryPolicy

pytestmark = pytest.mark.serial  # resets the global obs registry

FAST = RetryPolicy(
    connect_timeout=2.0,
    call_timeout=2.0,
    max_reconnect_attempts=60,
    base_delay=0.01,
    max_delay=0.05,
)


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_for(predicate, timeout=10.0, what="condition"):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


@pytest.fixture
def obs_on():
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


class TestRegistryBasics:
    def test_counter_increments(self):
        reg = obs.MetricsRegistry()
        c = reg.counter("syncs_total")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        reg = obs.MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)
        assert reg.counter("c").value == 0

    def test_labels_distinguish_series(self):
        reg = obs.MetricsRegistry()
        reg.counter("writes", device="d0").inc()
        reg.counter("writes", device="d1").inc(2)
        assert reg.counter("writes", device="d0").value == 1
        assert reg.counter("writes", device="d1").value == 2

    def test_get_or_create_returns_same_metric(self):
        reg = obs.MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.counter("x", a="1") is not reg.counter("x", a="2")

    def test_type_conflict_raises(self):
        reg = obs.MetricsRegistry()
        reg.counter("mixed")
        with pytest.raises(TypeError):
            reg.gauge("mixed")

    def test_gauge_moves_both_ways(self):
        reg = obs.MetricsRegistry()
        g = reg.gauge("inflight")
        g.inc()
        g.inc()
        g.dec()
        assert g.value == 1
        g.set(7.5)
        assert g.value == 7.5

    def test_histogram_summary(self):
        reg = obs.MetricsRegistry()
        h = reg.histogram("latency")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(10.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert 1.0 <= summary["p50"] <= 4.0
        assert summary["p50"] <= summary["p90"] <= summary["p99"]

    def test_histogram_window_bounds_memory(self):
        """Fixed buckets: the same memory after 100 values and after
        10,000, and the totals stay exact."""
        reg = obs.MetricsRegistry()
        h = reg.histogram("lat")
        sizes = []
        for n in (100, 10_000):
            while h.count < n:
                h.observe(h.count * 1e-4)
            sizes.append(sys.getsizeof(h) + sys.getsizeof(h.counts))
        assert sizes[0] == sizes[1] < 4096
        summary = h.summary()
        assert summary["count"] == 10_000
        assert summary["sum"] == pytest.approx(1e-4 * 9_999 * 10_000 / 2)
        assert summary["min"] == 0.0 and summary["max"] == 0.9999
        assert summary["p50"] == pytest.approx(0.5, rel=0.1)

    def test_snapshot_and_json(self):
        reg = obs.MetricsRegistry()
        reg.counter("a", plane="mgmt").inc(3)
        reg.gauge("b").set(1.5)
        reg.histogram("c").observe(0.25)
        snap = reg.snapshot()
        assert snap["counters"]['a{plane="mgmt"}'] == 3
        assert snap["gauges"]["b"] == 1.5
        assert snap["histograms"]["c"]["count"] == 1
        import json

        assert json.loads(reg.to_json()) == snap

    def test_text_exporter_format(self):
        reg = obs.MetricsRegistry()
        reg.counter("writes_total", device="d0").inc(2)
        reg.histogram("sync_seconds").observe(0.5)
        text = reg.to_text()
        assert 'writes_total{device="d0"} 2' in text
        assert "sync_seconds_count 1" in text
        assert "sync_seconds_p50" in text

    def test_reset_clears_metrics(self):
        reg = obs.MetricsRegistry()
        reg.counter("x").inc()
        reg.reset()
        assert reg.counter("x").value == 0


class TestEnableDisable:
    def test_disabled_by_default(self):
        assert not obs.ENABLED

    def test_span_is_noop_when_disabled(self):
        before = len(obs.TRACER.spans())
        with obs.span("nothing") as s:
            s.set(ignored=True)
        assert len(obs.TRACER.spans()) == before

    def test_enabled_scope_restores(self):
        assert not obs.ENABLED
        with obs.enabled_scope():
            assert obs.ENABLED
        assert not obs.ENABLED

    def test_detail_tier(self):
        obs.enable()
        assert obs.ENABLED and not obs.detail_enabled()
        obs.enable(detail=True)
        assert obs.detail_enabled()
        obs.disable()
        assert not obs.ENABLED and not obs.detail_enabled()

    def test_registry_generation_advances_on_reset(self):
        reg = obs.MetricsRegistry()
        gen = reg.generation
        handle = reg.counter("x")
        reg.reset()
        assert reg.generation == gen + 1
        # stale handles must not alias the recreated metric
        assert reg.counter("x") is not handle


class TestConcurrency:
    def test_counter_loses_no_increments(self):
        reg = obs.MetricsRegistry()
        counter = reg.counter("hammered")
        n_threads, per_thread = 8, 10_000

        def hammer():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == n_threads * per_thread

    def test_labelled_counters_from_many_threads(self):
        reg = obs.MetricsRegistry()
        n_threads, per_thread = 6, 2_000

        def hammer(idx):
            for _ in range(per_thread):
                # get-or-create races with other threads on purpose
                reg.counter("events", worker=str(idx % 2)).inc()

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = (
            reg.counter("events", worker="0").value
            + reg.counter("events", worker="1").value
        )
        assert total == n_threads * per_thread

    def test_histogram_concurrent_observe(self):
        reg = obs.MetricsRegistry()
        hist = reg.histogram("lat")
        n_threads, per_thread = 8, 5_000

        def hammer():
            for _ in range(per_thread):
                hist.observe(1.0)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        summary = hist.summary()
        assert summary["count"] == n_threads * per_thread
        assert summary["sum"] == pytest.approx(n_threads * per_thread)

    @pytest.mark.slow
    def test_reconnect_storm_counters(self, obs_on):
        """Sever the mgmt connection repeatedly through the proxy and
        check that net-layer counters stay consistent with the
        connection's own bookkeeping: no lost increments, nothing
        negative."""
        db = Database(
            simple_schema("net", {"Port": {"name": "string"}})
        )
        with ManagementServer(db, port=free_port()) as srv:
            injector = FaultInjector(*srv.address, port=free_port()).start()
            client = ManagementClient(*injector.address, policy=FAST)
            try:
                assert client.echo(["hello"]) == ["hello"]
                storms = 5
                for _ in range(storms):
                    seen = client.conn.reconnects
                    injector.sever()
                    wait_for(
                        lambda: client.conn.reconnects > seen
                        and client.conn.state == "connected",
                        what="reconnect",
                    )
                    assert client.echo(["ping"]) == ["ping"]
                reconnect_counter = obs.REGISTRY.counter(
                    "net_reconnects_total", conn="mgmt-client"
                )
                assert reconnect_counter.value == client.conn.reconnects
                assert reconnect_counter.value >= storms
                snap = obs.REGISTRY.snapshot()
                assert all(v >= 0 for v in snap["counters"].values())
                # every RETRYING transition recorded by the connection
                # is mirrored in the registry
                retrying = obs.REGISTRY.counter(
                    "net_transitions_total", conn="mgmt-client",
                    state="retrying",
                )
                assert retrying.value == client.conn.transitions.count(
                    "retrying"
                )
            finally:
                client.close()
                injector.stop()


#: Seconds on a 2**-24 grid (so every partial sum of a few hundred of
#: them is exact) from below the first bucket bound to past the last.
GRID = st.integers(0, 2**35).map(lambda k: k * 2.0**-24)
#: Any positive seconds, spanning every bucket and both edges.
SECONDS = st.floats(1e-9, 4096.0, allow_nan=False, allow_infinity=False)


def _histogram(values):
    h = obs.Histogram()
    for v in values:
        h.observe(v)
    return h


def _span(h, value):
    """The bucket of ``value`` as the histogram interpolates in it:
    its bounds cut to the observed ``[min, max]``."""
    i = bisect_left(BOUNDS, value)
    low = max(BOUNDS[i - 1], h.min) if i else h.min
    high = min(BOUNDS[i], h.max) if i < len(BOUNDS) else h.max
    return low, high


class TestHistogramBuckets:
    def test_bounds_are_log_scale_and_fixed(self):
        assert len(BOUNDS) + 1 == N_BUCKETS
        assert BOUNDS[0] == 2.0**-20 and BOUNDS[-1] == 2.0**10
        ratios = {round(b / a, 12) for a, b in zip(BOUNDS, BOUNDS[1:])}
        assert ratios == {round(2 ** (1 / 8), 12)}

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(SECONDS, min_size=1, max_size=300),
        st.floats(0, 100, allow_nan=False),
    )
    def test_quantile_within_one_bucket_of_the_exact_percentile(
        self, values, pct
    ):
        """The estimate and the exact percentile both lie between the
        two values ranked around ``pct``: each estimate is off by at
        most the width of those values' buckets."""
        h = _histogram(values)
        est, exact = h.quantile(pct), percentile(values, pct)
        ordered = sorted(values)
        rank = pct / 100 * (len(values) - 1)
        below, above = ordered[math.floor(rank)], ordered[math.ceil(rank)]
        low = _span(h, below)[0]
        high = _span(h, above)[1]
        assert low <= est <= high
        width = max(
            hi - lo for lo, hi in (_span(h, below), _span(h, above))
        )
        assert abs(est - exact) <= width * (1 + 1e-9) + 1e-300
        if _span(h, below) == _span(h, above):
            assert bisect_left(BOUNDS, est) == bisect_left(BOUNDS, exact)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(SECONDS, max_size=200), st.lists(SECONDS, max_size=200))
    def test_merge_equals_the_histogram_of_both_lists(self, a, b):
        merged = _histogram(a).merge(_histogram(b))
        both = _histogram(a + b)
        assert list(merged.counts) == list(both.counts)
        assert merged.count == both.count == len(a) + len(b)
        assert (merged.min, merged.max) == (both.min, both.max)
        assert merged.total == pytest.approx(both.total, rel=1e-12)
        assert merged.summary().keys() == both.summary().keys()
        for pct in (0, 50, 90, 99, 100):
            assert merged.quantile(pct) == pytest.approx(
                both.quantile(pct), rel=1e-9
            )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(GRID, max_size=300))
    def test_count_and_sum_are_exact(self, values):
        h = _histogram(values)
        summary = h.summary()
        assert h.count == summary["count"] == len(values)
        assert h.total == summary["sum"] == sum(values)
        if values:
            assert (summary["min"], summary["max"]) == (
                min(values), max(values)
            )
        else:
            assert summary["min"] is None and "p50" not in summary

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(0, 2.0**-20, allow_nan=False), max_size=50),
        st.lists(
            st.floats(2.0**10, 1e12, exclude_min=True, allow_nan=False),
            max_size=50,
        ),
    )
    def test_values_beyond_the_bounds_land_in_the_edge_buckets(
        self, small, large
    ):
        h = _histogram(small + large)
        assert h.counts[0] == len(small)
        assert h.counts[N_BUCKETS - 1] == len(large)
        assert sum(h.counts[1:-1]) == 0
        if small and large:
            assert h.quantile(0) == min(small)
            assert h.quantile(100) == max(large)
