"""Controller restart & reconciliation tests.

A controller that crashes and restarts faces a device that already
holds entries from its previous life — possibly stale ones.  ``start()``
sees that from the config epoch the device reports and must converge it
to exactly the state the current configuration derives, without
duplicate-insert failures and without touching correct entries.  The
read-diff cases run against the simulator in-process and through a
:class:`P4RuntimeServer` on it: one diff for both transports.
"""

import pytest

from repro.core import reconcile
from repro.core.controller import NerpaController
from repro.core.pipeline import nerpa_build
from repro.core.planes import LocalDevice
from repro.dlog.values import StructValue
from repro.mgmt.database import Database
from repro.mgmt.schema import simple_schema
from repro.p4.tables import FieldMatch, TableEntry
from repro.p4runtime.aio_client import AioP4RuntimeClient
from repro.p4runtime.api import WriteBatch, WriteError
from repro.p4runtime.server import P4RuntimeServer
from tests.test_fanout import FAST

SCHEMA = simple_schema(
    "net", {"PortCfg": {"port": "integer", "out_port": "integer"}}
)

P4 = """
header eth_t { bit<48> dst; bit<48> src; bit<16> ethertype; }
struct headers_t { eth_t eth; }
struct meta_t { bit<1> pad; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t m,
         inout standard_metadata_t std) {
    state start { pkt.extract(hdr.eth); transition accept; }
}
control Ing(inout headers_t hdr, inout meta_t m,
            inout standard_metadata_t std) {
    action forward(bit<16> port) { std.egress_spec = port; }
    action drop() { mark_to_drop(); }
    table patch {
        key = { std.ingress_port : exact; }
        actions = { forward; drop; }
        default_action = drop();
    }
    apply { patch.apply(); }
}
"""

RULES = "Patch(p as bit<16>, PatchActionForward{o as bit<16>}) :- PortCfg(_, p, o)."


def build():
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    switch = project.new_simulator(n_ports=16)
    return project, db, switch


def add_port(db, port, out_port):
    db.transact(
        [
            {
                "op": "insert",
                "table": "PortCfg",
                "row": {"port": port, "out_port": out_port},
            }
        ]
    )


@pytest.fixture(params=["in-process", "remote"])
def connect(request):
    """``connect(switch)``: the device a restarted controller drives —
    the simulator itself, or a client of a P4Runtime server on it."""
    servers, clients = [], []

    def connect(switch):
        if request.param == "in-process":
            return switch
        servers.append(P4RuntimeServer(switch).start())
        clients.append(AioP4RuntimeClient(*servers[-1].address, policy=FAST))
        return clients[-1]

    yield connect
    for client in clients:
        client.close()
    for server in servers:
        server.stop()


class TestReconcile:
    def test_fresh_start_against_populated_device_converges(self):
        project, db, switch = build()
        add_port(db, 1, 5)
        NerpaController(project, db, [switch]).start().stop()
        assert len(switch.table("patch")) == 1

        # Second controller, same device: the epoch the first one left
        # says the device is populated, so it is read and diffed — there
        # is no blind initial insert left to collide.
        db2 = Database(project.schema)
        add_port(db2, 1, 5)
        add_port(db2, 2, 6)
        NerpaController(project, db2, [switch]).start().stop()
        assert switch.table("patch").lookup([1]) == ("forward", (5,), True)
        assert switch.table("patch").lookup([2]) == ("forward", (6,), True)

    def test_reconcile_preserves_correct_entries(self):
        project, db, switch = build()
        add_port(db, 1, 5)
        add_port(db, 2, 6)
        NerpaController(project, db, [switch]).start().stop()

        db2 = Database(project.schema)
        add_port(db2, 1, 5)
        add_port(db2, 2, 6)
        with NerpaController(project, db2, [switch]) as controller:
            assert len(switch.table("patch")) == 2
            assert switch.table("patch").lookup([1]) == ("forward", (5,), True)
            # Nothing needed fixing: no reconciliation writes.
            assert controller.entries_written == 0

    def test_reconcile_removes_stale_entries(self, connect):
        project, db, switch = build()
        add_port(db, 1, 5)
        NerpaController(project, db, [switch]).start().stop()
        # Leftover garbage from a previous life.
        switch.table("patch").insert(
            TableEntry([FieldMatch.exact(9)], "forward", [9])
        )

        db2 = Database(project.schema)
        add_port(db2, 1, 5)
        controller = NerpaController(project, db2, [connect(switch)]).start()
        controller.stop()
        assert controller.entries_written == 1
        assert len(switch.table("patch")) == 1
        # Port 9 falls back to the default action (miss).
        assert switch.table("patch").lookup([9])[2] is False

    def test_reconcile_fixes_wrong_action_params(self, connect):
        project, db, switch = build()
        add_port(db, 1, 5)
        NerpaController(project, db, [switch]).start().stop()

        # New config says port 1 -> 7; the device still says -> 5.
        db2 = Database(project.schema)
        add_port(db2, 1, 7)
        controller = NerpaController(project, db2, [connect(switch)]).start()
        controller.stop()
        assert controller.entries_written == 1
        assert switch.table("patch").lookup([1]) == ("forward", (7,), True)
        assert len(switch.table("patch")) == 1

    def test_reconcile_inserts_missing_entries(self, connect):
        project, db, switch = build()
        add_port(db, 1, 5)
        NerpaController(project, db, [switch]).start().stop()
        # A populated device missing an entry the config derives.
        switch.table("patch").delete(switch.table("patch").entries()[0])

        db2 = Database(project.schema)
        add_port(db2, 1, 5)
        add_port(db2, 3, 4)
        controller = NerpaController(project, db2, [connect(switch)]).start()
        controller.stop()
        assert controller.entries_written == 2
        assert switch.table("patch").lookup([1]) == ("forward", (5,), True)
        assert switch.table("patch").lookup([3]) == ("forward", (4,), True)

    def test_a_blank_device_is_sent_the_state_unread(self):
        project, db, switch = build()  # device starts empty
        add_port(db, 3, 4)
        with NerpaController(project, db, [switch]):
            assert switch.table("patch").lookup([3]) == ("forward", (4,), True)

    def test_an_ill_typed_row_rolls_an_in_process_batch_back(self):
        """The row at index 2 fails its type check as the batch is
        applied: a ``WriteError`` at that index, the rows before it
        undone, and the config epoch the device had."""
        project, db, switch = build()
        add_port(db, 1, 5)
        NerpaController(project, db, [switch]).start().stop()
        entries = switch.table("patch").items()
        epoch = switch.config_epoch

        binding = project.bindings.table_relations["Patch"]
        forward = "PatchActionForward"
        batch = WriteBatch([
            ("DELETE", binding, [(1, StructValue(forward, (5,)))]),
            ("INSERT", binding, [
                (2, StructValue(forward, (6,))),
                (3, StructValue(forward, ())),  # one parameter short
            ]),
        ])
        outcome = []
        LocalDevice(switch).apply_batch_async(
            batch, update_ids=["u-bad"],
            callback=lambda *answer: outcome.append(answer),
        )
        ((applied, error),) = outcome
        assert applied is None and isinstance(error, WriteError)
        assert error.index == 2 and "expects 1 parameter" in str(error)
        assert switch.table("patch").items() == entries
        assert switch.config_epoch == epoch

    def test_reconciled_controller_stays_incremental(self):
        project, db, switch = build()
        add_port(db, 1, 5)
        NerpaController(project, db, [switch]).start().stop()

        db2 = Database(project.schema)
        add_port(db2, 1, 5)
        with NerpaController(project, db2, [switch]) as controller:
            add_port(db2, 2, 6)  # post-restart change flows normally
            controller.drain()
            assert switch.table("patch").lookup([2]) == ("forward", (6,), True)


class TestDrive:
    """``reconcile.drive`` runs a sync's generator of device calls."""

    def test_done_runs_once_when_it_raises_under_an_inline_answer(self):
        """An in-process device answers inside the call, so the rest of
        the chain — ``done`` included — runs inside it too.  What
        ``done`` raises must not be thrown back into the finished
        generator and reach ``done`` a second time."""
        outcomes = []

        def steps():
            value = yield lambda callback: callback(41, None)
            return value + 1

        def done(value, error):
            outcomes.append((value, error))
            raise RuntimeError("bookkeeping failed")

        with pytest.raises(RuntimeError):
            reconcile.drive(steps(), done)
        assert outcomes == [(42, None)]

    def test_a_call_that_raises_before_answering_is_thrown_in(self):
        def steps():
            try:
                yield lambda callback: 1 / 0
            except ZeroDivisionError:
                return "caught"

        outcomes = []
        reconcile.drive(steps(), lambda *outcome: outcomes.append(outcome))
        assert outcomes == [("caught", None)]
