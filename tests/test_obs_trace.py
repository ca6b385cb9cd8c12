"""End-to-end update-id tracing tests (``repro.obs``):

one update-id minted at the OVSDB transact must appear on every stage
of the resulting propagation — controller sync, engine transaction
(with per-operator stats), and the P4Runtime table write — and digest
feedback must link back to the trace of the config change that
installed the digest-producing entries.  Covered both in-process and
across the real TCP servers.
"""

import threading
import time

import pytest

from repro import obs
from repro.apps.snvs import SnvsNetwork, build_snvs
from repro.core.controller import NerpaController
from repro.mgmt.client import ManagementClient
from repro.mgmt.database import Database
from repro.mgmt.server import ManagementServer
from repro.net import RetryPolicy
from repro.p4.headers import ethernet
from repro.p4runtime import AioP4RuntimeClient
from repro.p4runtime.server import P4RuntimeServer

pytestmark = pytest.mark.serial  # resets the global obs registry

A = "aa:00:00:00:00:0a"
B = "aa:00:00:00:00:0b"

FAST = RetryPolicy(
    connect_timeout=2.0,
    call_timeout=5.0,
    max_reconnect_attempts=60,
    base_delay=0.01,
    max_delay=0.05,
)


def wait_for(predicate, timeout=30.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.002)
    raise AssertionError(f"timed out waiting for {what}")


@pytest.fixture
def obs_on():
    obs.reset()
    obs.enable(detail=True)  # these tests inspect per-operator stats
    yield
    obs.disable()
    obs.reset()


@pytest.fixture
def net(obs_on):
    """An snvs network built with tracing on, closed after the test."""
    with SnvsNetwork(n_ports=8) as network:
        yield network


def span_names(uid):
    return {s.name for s in obs.TRACER.spans(uid)}


class TestLocalTracePath:
    def test_transact_uid_reaches_device_write(self, net):
        net.add_vlan(10)
        net.add_access_port(0, vlan=10)
        uid = obs.TRACER.latest_update_id(name="mgmt.transact")
        assert uid is not None
        # The same id covers every plane of the propagation.
        assert {
            "mgmt.transact",
            "controller.sync",
            "engine.transaction",
            "device.write",
            "device.apply",
        } <= span_names(uid)
        for span in obs.TRACER.spans(uid):
            assert span.duration >= 0.0

    def test_engine_span_carries_operator_stats(self, net):
        net.add_vlan(10)
        net.add_access_port(0, vlan=10)
        uid = obs.TRACER.latest_update_id(name="mgmt.transact")
        (engine_span,) = [
            s
            for s in obs.TRACER.spans(uid)
            if s.name == "engine.transaction"
        ]
        operators = engine_span.attrs["operators"]
        assert operators  # per-operator tuple counts and timings
        assert all(
            stats["calls"] >= 1 and stats["seconds"] >= 0.0
            for stats in operators.values()
        )
        assert any(stats["in_tuples"] > 0 for stats in operators.values())
        assert engine_span.attrs["stratum_seconds"]
        assert engine_span.attrs["deltas"]

    def test_spans_nest_under_controller_sync(self, net):
        net.add_vlan(10)
        net.add_access_port(0, vlan=10)
        uid = obs.TRACER.latest_update_id(name="mgmt.transact")
        spans = {s.name: s for s in obs.TRACER.spans(uid)}
        by_id = {s.span_id: s for s in obs.TRACER.spans(uid)}
        sync = spans["controller.sync"]
        assert by_id[spans["engine.transaction"].parent_id] is sync
        assert by_id[spans["device.write"].parent_id] is sync
        assert spans["device.apply"].parent_id == spans["device.write"].span_id
        # and the sync itself is a child of the transact
        assert by_id[sync.parent_id].name == "mgmt.transact"

    def test_digest_feedback_links_to_originating_trace(self, net):
        net.add_vlan(10)
        net.add_access_port(0, vlan=10)
        net.add_access_port(1, vlan=10)
        config_uid = obs.TRACER.latest_update_id(name="mgmt.transact")
        net.send(0, B, A)  # triggers a mac_learn_t digest
        digests = [
            s for s in obs.TRACER.spans() if s.name == "controller.digest"
        ]
        assert digests
        digest_span = digests[-1]
        # The feedback transaction has its own id...
        assert digest_span.update_id != config_uid
        # ...but links back to the config change whose entries produced
        # the digest (the device's config epoch).
        assert digest_span.attrs["link"] == config_uid
        # and the feedback's own writes are traced under the new id.
        assert "device.write" in span_names(digest_span.update_id)

    def test_render_prints_full_pipeline(self, net):
        net.add_vlan(10)
        net.add_access_port(0, vlan=10)
        uid = obs.TRACER.latest_update_id(name="mgmt.transact")
        text = obs.TRACER.render(uid)
        assert f"trace {uid}" in text
        for stage in (
            "mgmt.transact",
            "controller.sync",
            "engine.transaction",
            "device.write",
        ):
            assert stage in text
        assert "ms]" in text  # per-stage durations

    def test_standard_tier_skips_operator_profile(self):
        """``enable()`` without detail still traces every stage but
        leaves out the per-operator dataflow breakdown (the expensive
        part), keeping the always-on tier cheap."""
        obs.reset()
        obs.enable()
        try:
            with SnvsNetwork(n_ports=8) as net:
                net.add_vlan(10)
                net.add_access_port(0, vlan=10)
                uid = obs.TRACER.latest_update_id(name="mgmt.transact")
                assert {
                    "mgmt.transact",
                    "controller.sync",
                    "engine.transaction",
                    "device.write",
                } <= span_names(uid)
                (engine_span,) = [
                    s
                    for s in obs.TRACER.spans(uid)
                    if s.name == "engine.transaction"
                ]
                assert "operators" not in engine_span.attrs
                assert obs.REGISTRY.histogram("engine_txn_seconds").count >= 1
        finally:
            obs.disable()
            obs.reset()

    def test_disabled_stack_records_nothing(self):
        obs.reset()
        assert not obs.ENABLED
        with SnvsNetwork(n_ports=8) as net:
            net.add_vlan(10)
            net.add_access_port(0, vlan=10)
            net.send(0, B, A)
            assert obs.TRACER.spans() == []
            assert obs.REGISTRY.snapshot()["counters"] == {}

    def test_registry_folds_all_planes(self, net):
        net.add_vlan(10)
        net.add_access_port(0, vlan=10)
        net.send(0, B, A)
        snap = obs.REGISTRY.snapshot()
        counters = snap["counters"]
        assert counters["mgmt_txns_total"] >= 3
        assert snap["histograms"]["engine_txn_seconds"]["count"] >= 3
        assert counters["controller_syncs_total"] >= 2
        assert counters["dataplane_packets_total"] >= 1
        assert any(k.startswith("dataplane_digests_total") for k in counters)
        assert any(k.startswith("device_writes_total") for k in counters)
        assert snap["histograms"]["controller_sync_seconds"]["count"] >= 2
        metrics = net.metrics()
        assert metrics["registry"]["counters"] == counters
        assert metrics["engine"]["operators"]


def _transact_config(transact):
    transact(
        [
            {"op": "insert", "table": "Vlan", "row": {"vid": 10}},
            {
                "op": "insert",
                "table": "SwitchConfig",
                "row": {"name": "snvs", "learning_enabled": True},
            },
        ]
    )
    transact(
        [
            {
                "op": "insert",
                "table": "Port",
                "row": {
                    "name": f"port{p}",
                    "port_num": p,
                    "vlan_mode": "access",
                    "tag": 10,
                },
            }
            for p in (0, 1)
        ]
    )


@pytest.mark.slow
class TestRemoteTracePath:
    def test_remote_write_span_is_recorded_at_the_send(self, obs_on):
        """A remote ``device.write`` span is recorded when its send
        returns; the ack, arriving later, marks it ``applied`` and
        stretches it to the send→ack interval.  A batch whose send
        fails keeps its span, without ``applied``."""
        project = build_snvs()
        db = Database(project.schema)
        sim = project.new_simulator(n_ports=8)
        p4_srv = P4RuntimeServer(sim, port=0).start()
        device = AioP4RuntimeClient(*p4_srv.address, policy=FAST)
        controller = NerpaController(project, db, [device]).start()

        def write_span():
            uid = obs.TRACER.latest_update_id(name="mgmt.transact")
            (span,) = [
                s for s in obs.TRACER.spans(uid) if s.name == "device.write"
            ]
            return span

        try:
            _transact_config(db.transact)
            controller.drain()
            acked = write_span()
            assert acked.attrs["applied"] is True
            assert acked.attrs["ack"] is True

            p4_srv.stop()
            wait_for(
                lambda: "retrying"
                in controller.health()["devices"][0]["transitions"],
                what="transport noticing the drop",
            )
            db.transact(
                [
                    {
                        "op": "insert",
                        "table": "Port",
                        "row": {
                            "name": "port2",
                            "port_num": 2,
                            "vlan_mode": "access",
                            "tag": 10,
                        },
                    }
                ]
            )
            controller.drain()
            failed = write_span()
            assert "applied" not in failed.attrs
            assert controller.devices[0].consecutive_failures == 1
        finally:
            controller.stop()
            device.close()
            p4_srv.stop()

    def test_uid_crosses_both_wire_protocols(self, obs_on):
        """mgmt server → controller → P4Runtime server, all over TCP:
        the update-id minted server-side at the transact must reach the
        device-side write span, and the digest notification must carry
        it back for the feedback link.

        Synchronization is event-based, not timing-based: ports are
        OS-assigned (no bind race), delivery of the config and of the
        digest is observed through bounded waits on pipeline events
        (device table state, ingest hooks), and each wait is followed by
        ``controller.drain()`` — the pipeline's own quiescence barrier —
        before any span assertions, so no fixed delay is assumed
        anywhere.
        """
        project = build_snvs()
        db = Database(project.schema)
        sim = project.new_simulator(n_ports=8)
        mgmt_srv = ManagementServer(db, port=0).start()
        p4_srv = P4RuntimeServer(sim, port=0).start()
        mgmt = ManagementClient(*mgmt_srv.address, policy=FAST)
        device = AioP4RuntimeClient(*p4_srv.address, policy=FAST)
        controller = NerpaController(project, mgmt, [device])
        # Observe the digest crossing back into the controller before
        # it enters the pipeline; installed pre-start so the device
        # subscription carries the instrumented callback.
        digest_ingested = threading.Event()
        inner_on_digest = controller._on_digest

        def on_digest_spy(name, values):
            inner_on_digest(name, values)
            digest_ingested.set()

        controller._on_digest = on_digest_spy
        controller.start()
        try:
            _transact_config(mgmt.transact)
            # The monitor notification crosses the wire asynchronously;
            # the device table going live is the delivery event.  After
            # it, drain() guarantees every ingested changeset has been
            # evaluated and applied — so the spans all exist.
            wait_for(
                lambda: len(sim.table("in_vlan")) == 2,
                what="config to reach the device",
            )
            controller.drain()
            uid = obs.TRACER.latest_update_id(name="mgmt.transact")
            assert uid is not None
            names = span_names(uid)
            assert {
                "mgmt.transact",
                "controller.sync",
                "engine.transaction",
                "device.write",
                "device.apply",
            } <= names

            # Digest feedback over the wire links back to that uid.
            device.inject(0, ethernet(B, A))
            assert digest_ingested.wait(30.0), "digest never round-tripped"
            controller.drain()
            digest_spans = [
                s
                for s in obs.TRACER.spans()
                if s.name == "controller.digest"
            ]
            assert digest_spans
            assert any(s.attrs["link"] == uid for s in digest_spans)
        finally:
            controller.stop()
            device.close()
            mgmt.close()
            p4_srv.stop()
            mgmt_srv.stop()
