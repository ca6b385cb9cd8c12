"""A device batch that holds the engine's deltas as they came.

A fan-out's :class:`~repro.core.pipeline.changeset.DeviceBatch` keeps
each output relation's delta itself and reads its write list straight
from it; only a later batch merging into it (or a row recorded into
it) folds the rows into ``[dead, live]`` cells.  These tests hold that
to the batch that folds every row as it arrives:

* **the same writes** — over random output deltas and any schedule of
  fan-outs, merges and pops (a private tail merging in place, a shared
  tail copied, devices behind together sharing one merge, a delete and
  re-insert of one row elided), a lazily built batch emits what an
  eagerly folded one does, every delete before any insert;
* **the deltas it holds do not change** — each engine transaction
  hands out fresh deltas, and a held batch emits the same list after
  later transactions.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline.changeset import DeviceBatch
from repro.core.pipeline.queues import CoalescingQueue, Task
from repro.dlog.values import StructValue
from tests.test_row_emit import forward, project

BINDINGS = project().bindings.table_relations
EXACT, ACL = BINDINGS["ExactT"], BINDINGS["AclT"]


def exact_row(port, vlan, out):
    action = forward("ExactT", out) if out else StructValue("ExactTActionDrop", ())
    return (port, vlan, action)


def acl_row(vlan, prefix, out, priority):
    return (vlan, (prefix, 255), forward("AclT", out), priority)


_exact = st.builds(
    exact_row, st.integers(0, 2), st.integers(0, 1), st.integers(0, 2)
)
_acl = st.builds(
    acl_row, st.integers(0, 1), st.integers(0, 1), st.integers(1, 2),
    st.integers(1, 2),
)


@st.composite
def _transactions(draw):
    """Output deltas of a run of engine transactions: each deletes some
    rows the relations hold and inserts some they do not, deletes listed
    first.  Two rows may share a key, as an ill-keyed program's can."""
    state = {"ExactT": set(), "AclT": set()}
    txns = []
    for _ in range(draw(st.integers(1, 6))):
        deltas = {}
        for relation, rows in (("ExactT", _exact), ("AclT", _acl)):
            held = sorted(state[relation], key=repr)
            dead = draw(st.lists(st.sampled_from(held), unique=True)) if held else []
            live = [
                row for row in draw(st.lists(rows, max_size=4, unique=True))
                if row not in state[relation]
            ]
            state[relation] -= set(dead)
            state[relation] |= set(live)
            delta = {row: -1 for row in dead}
            delta.update((row, 1) for row in live)
            if delta:
                deltas[relation] = delta
        txns.append(deltas)
    return txns


def batch_of(seq, deltas, lazy):
    """A fan-out's batch of one transaction: its deltas held, or every
    row folded into a cell as it comes."""
    batch = DeviceBatch(seq)
    for relation, delta in deltas.items():
        binding = BINDINGS[relation]
        if lazy:
            batch.add_delta(binding, delta)
            continue
        for row, weight in delta.items():
            if weight > 0:
                batch.record_insert(binding, binding.key_of(row), row)
            else:
                batch.record_delete(binding, binding.key_of(row), row)
    batch.update_ids = [f"u-{seq}"]
    return batch


def emitted(batch):
    """The batch's writes as runs ``(kind, table, rows)``, rows counted
    (a run's order is the order the engine listed them in)."""
    runs = []
    for write in batch.emit_writes():
        if runs and runs[-1][:2] == (write.kind, write.table):
            runs[-1][2].append(write.row)
        else:
            runs.append((write.kind, write.table, [write.row]))
    kinds = [kind for kind, _, _ in runs]
    assert kinds == sorted(kinds)  # "DELETE" < "INSERT": deletes first
    return [(kind, table, Counter(rows)) for kind, table, rows in runs]


def fan_out(queues, batch):
    batch.shared = True
    try:
        for queue in queues:
            queue.put(batch)
    finally:
        batch._merges = None


def run_schedule(txns, steps, n_queues, lazy):
    queues = [CoalescingQueue(name=f"dev-{i}") for i in range(n_queues)]
    popped = [[] for _ in queues]

    def pop(index):
        item = queues[index].pop_nowait()
        if item is None:
            return
        if isinstance(item, Task):
            popped[index].append(("task", item.fn))
        else:
            popped[index].append(
                (item.seq, item.last_seq, item.update_ids, emitted(item))
            )

    seq = 0
    for kind, index, supersede in steps:
        if kind == "fan" and seq < len(txns):
            seq += 1
            fan_out(queues, batch_of(seq, txns[seq - 1], lazy))
        elif kind == "task":
            queues[index % n_queues].put(
                Task(len(popped[0])),
                supersedes=(lambda item: True) if supersede else None,
            )
        else:
            pop(index % n_queues)
    while seq < len(txns):
        seq += 1
        fan_out(queues, batch_of(seq, txns[seq - 1], lazy))
    for index, queue in enumerate(queues):
        while len(queue):
            pop(index)
    return popped


_steps = st.lists(
    st.tuples(
        st.sampled_from(["fan", "fan", "pop", "task"]),
        st.integers(0, 3),
        st.booleans(),
    ),
    max_size=24,
)


@settings(max_examples=300, deadline=None)
@given(txns=_transactions(), steps=_steps, n_queues=st.integers(1, 4))
def test_lazy_and_eager_batches_emit_the_same_writes(txns, steps, n_queues):
    assert run_schedule(txns, steps, n_queues, lazy=True) == run_schedule(
        txns, steps, n_queues, lazy=False
    )


def test_a_lazy_batch_reads_its_writes_from_the_deltas_in_runs():
    old, new = exact_row(1, 0, 1), exact_row(1, 0, 2)
    deltas = {
        "ExactT": {old: -1, exact_row(2, 0, 1): -1, new: 1},
        "AclT": {acl_row(0, 1, 1, 1): 1},
    }
    batch = batch_of(1, deltas, lazy=True)
    assert batch.ops == {}  # nothing folded
    writes = batch.emit_writes()
    assert writes.runs == [
        ("DELETE", EXACT, [old, exact_row(2, 0, 1)]),
        ("INSERT", EXACT, [new]),
        ("INSERT", ACL, [acl_row(0, 1, 1, 1)]),
    ]
    assert len(writes) == 4 and batch.ops == {}
    assert batch.emit_writes() is writes


def test_two_rows_under_one_key_fold_as_cells_and_the_batch_is_unchanged():
    first, second = exact_row(1, 0, 1), exact_row(1, 0, 2)
    lazy = batch_of(1, {"ExactT": {first: 1, second: 1}}, lazy=True)
    eager = batch_of(1, {"ExactT": {first: 1, second: 1}}, lazy=False)
    assert [(w.kind, w.row) for w in lazy.emit_writes()] == [
        ("INSERT", second)  # last writer wins, as in a cell
    ] == [(w.kind, w.row) for w in eager.emit_writes()]
    assert lazy.ops == {}


def test_a_row_deleted_and_reinserted_across_merged_batches_is_elided():
    row = exact_row(1, 0, 1)
    first = batch_of(1, {"ExactT": {row: -1}}, lazy=True)
    first.shared = True
    second = batch_of(2, {"ExactT": {row: 1}}, lazy=True)
    merged = first.coalesce(second)
    assert merged is not first and merged.emit_writes() == []
    assert first.ops == {} and len(first.emit_writes()) == 1


def test_each_transaction_hands_out_fresh_deltas_and_a_held_batch_keeps_them():
    """A batch holds the engine's delta objects themselves, so no later
    transaction may write into one: each transaction's are new, and
    a batch emits the same writes after later transactions as before."""
    runtime = project().program.start()
    try:
        cfg = [("u1", 1, 10, 2), ("u2", 2, 10, 3)]
        held = runtime.transaction(inserts={"Cfg": cfg})
        batch = DeviceBatch(1)
        for relation, delta in held.deltas.items():
            if relation in BINDINGS:
                batch.add_delta(BINDINGS[relation], delta)
        before = {r: dict(d.items()) for r, d in held.deltas.items()}
        writes = [(w.kind, w.row) for w in batch.emit_writes()]
        later = [
            runtime.transaction(deletes={"Cfg": cfg[:1]}),
            runtime.transaction(inserts={"Cfg": cfg[:1]}),
            runtime.transaction(deletes={"Cfg": cfg}),
        ]
        for result in later:
            for relation, delta in result.deltas.items():
                assert delta is not held.deltas.get(relation)
        assert {r: dict(d.items()) for r, d in held.deltas.items()} == before
        batch._writes = None  # emit again from the held deltas
        assert [(w.kind, w.row) for w in batch.emit_writes()] == writes
    finally:
        runtime.close()
