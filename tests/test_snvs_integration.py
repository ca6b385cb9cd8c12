"""Full-stack integration tests: the snvs switch through the whole
Nerpa pipeline (database -> incremental rules -> P4Runtime -> simulator),
including the MAC-learning digest feedback loop.

This is the reproduction of the paper's §4.3 integration test.
"""

import pytest

from repro.apps.snvs import SnvsNetwork, build_snvs
from repro.p4.headers import EthernetView

A = "aa:00:00:00:00:0a"
B = "aa:00:00:00:00:0b"
C = "aa:00:00:00:00:0c"


@pytest.fixture(scope="module")
def built_project():
    return build_snvs()


@pytest.fixture()
def net():
    with SnvsNetwork(n_ports=16) as network:
        network.add_vlan(10, "tenants")
        network.add_vlan(20, "storage")
        for port in range(4):
            network.add_access_port(port, vlan=10)
        for port in range(4, 6):
            network.add_access_port(port, vlan=20)
        yield network


class TestBuild:
    def test_compiles(self, built_project):
        assert set(built_project.bindings.table_relations) == {
            "InVlan",
            "Blocked",
            "Learned",
            "Fwd",
            "MirrorTap",
            "OutTag",
        }

    def test_digest_binding(self, built_project):
        assert built_project.bindings.digest_relations == {
            "mac_learn_t": "MacLearn"
        }

    def test_loc_in_papers_ballpark(self, built_project):
        # §4.3: snvs is ~350 LoC of DDlog (250 rules, 100 generated) —
        # our rule set is smaller but the same order of magnitude.
        report = built_project.loc_report()
        assert 15 <= report["dlog_rules"] <= 350
        assert 10 <= report["dlog_generated"] <= 120
        assert report["schema_tables"] == 5


class TestConfigurationSync:
    def test_port_rows_become_table_entries(self, net):
        # 6 access ports -> 2 in_vlan entries each (untagged classify;
        # ternary table also holds nothing else).
        assert len(net.switch.table("in_vlan")) == 6
        assert len(net.switch.table("out_tag")) == 6

    def test_multicast_groups_follow_vlans(self, net):
        assert net.switch.multicast_groups[10] == [0, 1, 2, 3]
        assert net.switch.multicast_groups[20] == [4, 5]

    def test_port_removal_retracts_entries(self, net):
        net.remove_port(3)
        assert len(net.switch.table("in_vlan")) == 5
        assert net.switch.multicast_groups[10] == [0, 1, 2]

    def test_port_update_is_incremental(self, net):
        before = net.controller.sync_count
        net.add_access_port(8, vlan=10)
        assert net.controller.sync_count == before + 1
        assert net.switch.multicast_groups[10] == [0, 1, 2, 3, 8]

    def test_undeclared_vlan_has_no_effect(self, net):
        net.add_access_port(9, vlan=99)  # VLAN 99 not declared
        assert 99 not in net.switch.multicast_groups
        # No in_vlan entry either: traffic on port 9 hits default drop.
        assert net.send(9, B, A) == []


class TestForwardingAndLearning:
    def test_unknown_dst_floods_vlan_members_only(self, net):
        outputs = net.send(0, B, A)
        assert sorted(p for p, _ in outputs) == [1, 2, 3]  # not 4,5 (vlan 20)

    def test_learning_installs_forwarding_entry(self, net):
        net.send(0, B, A)  # A learned at port 0
        outputs = net.send(1, A, B)  # B->A should now unicast
        assert [p for p, _ in outputs] == [0]

    def test_learning_survives_only_for_that_vlan(self, net):
        net.send(0, B, A)  # learn A on vlan 10
        outputs = net.send(4, A, C)  # vlan 20: A unknown there
        assert sorted(p for p, _ in outputs) == [5]

    def test_learning_disabled_blocks_feedback(self):
        with SnvsNetwork(n_ports=8, learning=False) as network:
            network.add_vlan(10)
            network.add_access_port(0, vlan=10)
            network.add_access_port(1, vlan=10)
            network.send(0, B, A)
            assert network.fwd_entries() == 0
            outputs = network.send(1, A, B)
            assert [p for p, _ in outputs] == [0]  # still floods (only member)

    def test_enabling_learning_later_applies_retroactively(self):
        with SnvsNetwork(n_ports=8, learning=False) as network:
            network.add_vlan(10)
            network.add_access_port(0, vlan=10)
            network.add_access_port(1, vlan=10)
            network.send(0, B, A)  # digest recorded, rule gated off
            network.set_learning(True)
            # The previously received digest now derives entries.
            assert network.fwd_entries() == 1

    def test_digest_suppressed_once_learned(self, net):
        net.send(0, B, A)
        before = net.controller.digests_processed
        net.send(0, B, A)
        assert net.controller.digests_processed == before


class TestVlanTagging:
    def test_trunk_port_emits_tagged(self, net):
        net.add_trunk_port(10, native_vlan=10, trunks=[10, 20])
        outputs = net.send(0, B, A)  # flood vlan 10
        by_port = {p: data for p, data in outputs}
        assert 10 in by_port
        view = EthernetView(by_port[10])
        assert view.vlan == 10
        # Access ports receive untagged.
        assert EthernetView(by_port[1]).vlan is None

    def test_tagged_frame_into_trunk(self, net):
        net.add_trunk_port(10, native_vlan=10, trunks=[10, 20])
        outputs = net.send(10, B, A, vlan=20)
        # Flooded into vlan 20 members (ports 4, 5), untagged there.
        assert sorted(p for p, _ in outputs) == [4, 5]
        assert all(EthernetView(d).vlan is None for _, d in outputs)

    def test_tagged_frame_with_disallowed_vid_dropped(self, net):
        net.add_trunk_port(10, native_vlan=10, trunks=[10])
        assert net.send(10, B, A, vlan=20) == []

    def test_tagged_frame_into_access_port_dropped(self, net):
        assert net.send(0, B, A, vlan=10) == []


class TestAclAndMirror:
    def test_blocked_mac_dropped(self, net):
        net.block_mac(10, A)
        assert net.send(0, B, A) == []
        # Blocked frames are not learned either.
        assert net.fwd_entries() == 0

    def test_unblocking_restores(self, net):
        net.block_mac(10, A)
        net.db.transact(
            [{"op": "delete", "table": "BlockedMac", "where": []}]
        )
        net.controller.drain()
        assert len(net.send(0, B, A)) == 3

    def test_mirror_copies_traffic(self, net):
        net.add_mirror(src_port=0, dst_port=7)
        outputs = net.send(0, B, A)
        ports = sorted(p for p, _ in outputs)
        assert 7 in ports  # mirror copy
        assert ports == [1, 2, 3, 7]

    def test_mirror_removal(self, net):
        net.add_mirror(src_port=0, dst_port=7)
        net.db.transact([{"op": "delete", "table": "Mirror", "where": []}])
        net.controller.drain()
        outputs = net.send(0, B, A)
        assert sorted(p for p, _ in outputs) == [1, 2, 3]


class TestControllerMetrics:
    def test_sync_latencies_recorded(self, net):
        metrics = net.metrics()
        assert metrics["syncs"] > 0
        assert metrics["mean_sync_latency"] > 0
        assert metrics["entries_written"] > 0


class TestRemoteTransports:
    """The same stack with TCP between all three planes."""

    def test_full_stack_over_tcp(self):
        from repro.core.controller import NerpaController
        from repro.mgmt.client import ManagementClient
        from repro.mgmt.database import Database
        from repro.mgmt.server import ManagementServer
        from repro.p4runtime import AioP4RuntimeClient
        from repro.p4runtime.server import P4RuntimeServer

        project = build_snvs()
        db = Database(project.schema)
        sim = project.new_simulator(n_ports=8)

        with ManagementServer(db) as mgmt_srv, P4RuntimeServer(sim) as dev_srv:
            mgmt_client = ManagementClient(*mgmt_srv.address)
            dev_client = AioP4RuntimeClient(*dev_srv.address)
            controller = NerpaController(
                project, mgmt_client, [dev_client]
            ).start()
            try:
                mgmt_client.transact(
                    [
                        {
                            "op": "insert",
                            "table": "Vlan",
                            "row": {"vid": 10, "description": ""},
                        },
                        {
                            "op": "insert",
                            "table": "SwitchConfig",
                            "row": {"name": "s", "learning_enabled": True},
                        },
                    ]
                )
                for port in range(3):
                    mgmt_client.transact(
                        [
                            {
                                "op": "insert",
                                "table": "Port",
                                "row": {
                                    "name": f"p{port}",
                                    "port_num": port,
                                    "vlan_mode": "access",
                                    "tag": 10,
                                },
                            }
                        ]
                    )
                # Wait until the controller has synced all three ports.
                import time

                deadline = time.time() + 5.0
                while time.time() < deadline:
                    if len(sim.table("in_vlan")) == 3:
                        break
                    time.sleep(0.01)
                assert len(sim.table("in_vlan")) == 3

                outputs = dev_client.inject(
                    0,
                    __import__(
                        "repro.p4.headers", fromlist=["ethernet"]
                    ).ethernet(B, A),
                )
                assert sorted(p for p, _ in outputs) == [1, 2]

                # Learning over the remote digest path.
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    if len(sim.table("fwd")) == 1:
                        break
                    time.sleep(0.01)
                assert len(sim.table("fwd")) == 1
            finally:
                controller.stop()
                mgmt_client.close()
                dev_client.close()
