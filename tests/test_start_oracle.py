"""The start oracle: ``start()`` takes no mode, so every combination
of what it can find must converge on its own.

One table-driven check over

* the engine — fresh (no checkpoint chain) or restored from one;
* the device — blank, exactly as the previous controller left it (at
  the checkpointed epoch when there is a chain), or at a foreign epoch
  holding a stale, a wrong-action and a missing entry;
* the management plane — unchanged, a row inserted, or a row deleted
  while the controller was down;

asserting ROADMAP aim 3 after a bare ``start()``: engine inputs == the
mgmt snapshot, device tables == engine outputs == a fresh controller's
from-scratch result — and that the cheap cases stay cheap (no table
read against a blank or epoch-matched device, nothing written where
nothing differs, one write round trip per full sync).

A second, deterministic test faults a full sync at every call boundary
and checks the invariant that makes epoch-matching sound: a device
never reports an epoch a checkpoint holds while its tables differ from
that checkpoint's state.
"""

import itertools
from collections import Counter
from functools import partial

import pytest

from repro.apps.snvs import build_snvs
from repro.core import reconcile
from repro.core.controller import NerpaController
from repro.errors import ProtocolError
from repro.mgmt.database import Database
from repro.p4.tables import FieldMatch, TableEntry
from repro.p4runtime.api import DeviceService


@pytest.fixture(scope="module")
def project():
    return build_snvs()


def _port_row(p):
    return {"name": f"p{p}", "port_num": p, "vlan_mode": "access", "tag": 10}


def _configure(db, ports):
    db.transact(
        [{"op": "insert", "table": "Vlan", "row": {"vid": 10}}]
        + [{"op": "insert", "table": "Port", "row": _port_row(p)} for p in ports]
    )


def _add_port(db, p):
    db.transact([{"op": "insert", "table": "Port", "row": _port_row(p)}])


def _del_port(db, p):
    db.transact(
        [{"op": "delete", "table": "Port", "where": [["name", "==", f"p{p}"]]}]
    )


def _device_state(sim):
    tables = {
        name: sorted(
            (entry.match_key(), entry.action, entry.action_params)
            for entry in table.entries()
        )
        for name, table in sim.tables.items()
    }
    return tables, dict(sim.multicast_groups)


def _engine_state(controller):
    bindings = controller.bindings
    relations = set(bindings.relation_for_ovsdb.values()) | set(
        bindings.table_relations
    )
    return {rel: controller.runtime.dump(rel) for rel in sorted(relations)}


class _CountingService(DeviceService):
    """Counts the round trips a controller makes to one device and can
    fail exactly one of them — before it takes effect, or after (the
    ack is lost) — with a transport error."""


    def __init__(self, sim):
        super().__init__(sim)
        self.calls = Counter()
        self.fail_at = None  # (nth counted call from arming, "before"|"after")
        self.fired = False

    def arm(self, nth, when):
        self.calls.clear()
        self.fail_at, self.fired = (nth, when), False

    def _round_trip(self, name, call):
        nth = sum(self.calls.values())
        self.calls[name] += 1
        faulted = self.fail_at is not None and self.fail_at[0] == nth
        if faulted:
            self.fired = True
            if self.fail_at[1] == "before":
                raise ProtocolError(f"injected: {name} request lost")
        result = call()
        if faulted:
            raise ProtocolError(f"injected: {name} reply lost")
        return result

    def get_config_epoch(self):
        return self._round_trip("get_config_epoch", super().get_config_epoch)

    def read_table(self, table):
        return self._round_trip(
            "read_table", partial(super().read_table, table)
        )

    def apply_batch(self, updates, mcast=None, fence=None):
        return self._round_trip(
            "apply_batch", partial(super().apply_batch, updates, mcast, fence)
        )

    def set_config_epoch(self, epoch, fence=None):
        return self._round_trip(
            "set_config_epoch", partial(super().set_config_epoch, epoch, fence)
        )


def _corrupt(sim):
    """Someone else drove this device: a stale entry, a wrong action, a
    missing entry — under an epoch no checkpoint of ours holds."""
    table = sim.table("in_vlan")
    missing, wrong = table.entries()[:2]
    table.delete(missing)
    table.modify(
        TableEntry(wrong.matches, wrong.action, [99], wrong.priority)
    )
    table.insert(
        TableEntry(
            [FieldMatch.exact(7), FieldMatch.exact(0), FieldMatch.ternary(0, 0)],
            "set_vlan",
            [10],
            1,
        )
    )
    sim.config_epoch = "ep-foreign"


CHAIN = ("no-chain", "chain")
DEVICE = ("blank", "as-left", "foreign")
MGMT = ("unchanged", "inserted", "deleted")


@pytest.mark.parametrize(
    "chain,device,mgmt", list(itertools.product(CHAIN, DEVICE, MGMT))
)
def test_bare_start_converges(project, tmp_path, chain, device, mgmt):
    db = Database(project.schema)
    switch = project.new_simulator(n_ports=8)
    first = NerpaController(
        project, db, [switch], state_dir=str(tmp_path / "first")
    ).start()
    _configure(db, (0, 1, 2))
    first.drain()
    if chain == "chain":
        first.save_checkpoint()
    first.stop()

    if device == "blank":
        switch = project.new_simulator(n_ports=8)
    elif device == "foreign":
        _corrupt(switch)
    if mgmt == "inserted":
        _add_port(db, 3)
    elif mgmt == "deleted":
        _del_port(db, 2)

    service = _CountingService(switch)
    # "no-chain" restarts on a state_dir holding no chain at all.
    state_dir = tmp_path / ("first" if chain == "chain" else "empty")
    second = NerpaController(
        project, db, [service], state_dir=str(state_dir)
    ).start()
    reference_switch = project.new_simulator(n_ports=8)
    reference = NerpaController(project, db, [reference_switch]).start()
    try:
        second.drain()
        calls = Counter(service.calls)  # before the oracle's own reads
        # Aim 3: engine inputs == mgmt snapshot, device == engine
        # outputs == a from-scratch evaluation (same db, so same uuids).
        assert _engine_state(second) == _engine_state(reference)
        assert _device_state(switch) == _device_state(reference_switch)
        assert not reconcile.compute_fixes(
            second.devices[0].io.read_table,
            second.bindings,
            reconcile.desired_writes(second.bindings, second.runtime),
        )
        if second.last_result is not None:
            assert not second.last_result.warnings  # no "duplicate insert"

        restored = chain == "chain"
        matched = restored and device == "as-left"
        assert second.restart_mode == ("warm" if restored else "cold")
        assert second.warm_skips == (1 if matched else 0)
        # A restored engine repairing a device is a resync; a fresh
        # engine's first sync is the initial push.
        assert second.device_resyncs == (1 if restored and not matched else 0)
        if device == "as-left" and mgmt == "unchanged":
            assert second.entries_written == 0

        if device == "blank" or matched:
            # What the device reports already proves what it holds.
            assert calls["read_table"] == 0
        # One epoch read decides the sync, whatever it reports.
        assert calls["get_config_epoch"] == 1
        if device == "blank" and not restored:
            # The old blind insert cost one write; so does this, plus
            # the epoch read that made it safe.
            assert calls["apply_batch"] == 1
        if matched and mgmt == "unchanged":
            assert calls["apply_batch"] == 0
        # A full sync is one write round trip; a restored engine's mgmt
        # delta is one more batch behind it.
        assert calls["apply_batch"] <= (2 if restored else 1)
        assert calls["set_config_epoch"] == 0  # unfenced: no bare stamp
    finally:
        second.stop()
        reference.stop()


def test_warm_start_against_foreign_devices_dumps_the_engine_once(
    project, tmp_path, monkeypatch
):
    """Devices that all moved since the checkpoint share one
    desired-state snapshot, and each is asked for its epoch once."""
    n_devices = 4
    db = Database(project.schema)
    switches = [project.new_simulator(n_ports=8) for _ in range(n_devices)]
    first = NerpaController(
        project, db, switches, state_dir=str(tmp_path)
    ).start()
    _configure(db, (0, 1, 2))
    first.drain()
    first.save_checkpoint()
    first.stop()
    for switch in switches:
        _corrupt(switch)
    _add_port(db, 3)

    dumps = []
    inner = reconcile.desired_writes
    monkeypatch.setattr(
        reconcile,
        "desired_writes",
        lambda *args: dumps.append(1) or inner(*args),
    )
    services = [_CountingService(switch) for switch in switches]
    second = NerpaController(
        project, db, services, state_dir=str(tmp_path)
    ).start()
    try:
        second.drain()
        assert len(dumps) == 1
        assert [s.calls["get_config_epoch"] for s in services] == [1] * n_devices
        assert second.restart_mode == "warm"
        assert second.warm_skips == 0
        assert second.device_resyncs == n_devices
    finally:
        second.stop()
    reference_switch = project.new_simulator(n_ports=8)
    NerpaController(project, db, [reference_switch]).start().stop()
    for switch in switches:
        assert _device_state(switch) == _device_state(reference_switch)


@pytest.mark.parametrize("when", ("before", "after"))
def test_faulted_full_sync_never_strands_a_checkpointed_epoch(
    project, tmp_path, when
):
    """Checkpoint at epoch E, miss a batch (quarantined), resync with
    one call failing, crash without saving, restart on the old
    checkpoint — once per call the resync makes (the epoch read, a read
    per table, the one write), the request or the reply lost.  Whatever
    failed, the device reports E only while it still holds E's state,
    so the restart neither skips a stale device nor re-inserts what the
    resync already repaired."""
    for nth in itertools.count():
        state_dir = str(tmp_path / str(nth))
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        service = _CountingService(switch)
        first = NerpaController(
            project, db, [service], state_dir=state_dir
        ).start()
        _configure(db, (0, 1))
        first.drain()
        first.save_checkpoint()
        checkpointed_epoch = switch.config_epoch
        checkpointed_state = _device_state(switch)
        assert checkpointed_epoch is not None

        first.devices[0].quarantined = True
        _add_port(db, 2)  # skipped by the breaker: only a resync delivers it
        first.drain()
        assert _device_state(switch) == checkpointed_state
        service.arm(nth, when)
        first.resync_device(0)
        assert service.calls["apply_batch"] <= 1
        assert service.calls["set_config_epoch"] == 0
        if switch.config_epoch == checkpointed_epoch:
            assert _device_state(switch) == checkpointed_state
        first.stop()  # crash: nothing is checkpointed after the resync

        # Raised WriteError (duplicate entry) when the repairs landed
        # but the separate epoch stamp did not.
        second = NerpaController(
            project, db, [switch], state_dir=state_dir
        ).start()
        reference_switch = project.new_simulator(n_ports=8)
        reference = NerpaController(project, db, [reference_switch]).start()
        try:
            second.drain()
            assert second.restart_mode == "warm"
            assert _engine_state(second) == _engine_state(reference)
            assert _device_state(switch) == _device_state(reference_switch)
        finally:
            second.stop()
            reference.stop()
        if not service.fired:
            # The resync made fewer than ``nth + 1`` calls: every call
            # boundary has been faulted (and this pass was fault-free).
            assert nth == 2 + len(switch.tables)
            break


def test_resync_with_repairs_is_one_write_round_trip(project):
    """Repairs, multicast membership and the new epoch travel in one
    atomic batch — not a write, a call per group and a stamp."""
    db = Database(project.schema)
    switch = project.new_simulator(n_ports=8)
    service = _CountingService(switch)
    controller = NerpaController(project, db, [service]).start()
    try:
        _configure(db, (0, 1, 2))
        controller.drain()
        expected = _device_state(switch)
        assert expected[1]  # the flood group: multicast is in play
        _corrupt(switch)
        switch.multicast_groups.clear()
        service.calls.clear()
        controller.resync_device(0)
        assert _device_state(switch) == expected
        assert service.calls["apply_batch"] == 1
        assert service.calls["set_config_epoch"] == 0
        assert switch.config_epoch == controller.devices[0].config_epoch
        assert switch.config_epoch != "ep-foreign"
    finally:
        controller.stop()
