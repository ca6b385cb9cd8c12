"""The staged pipeline's intermediate representations.

The controller's update path is a three-stage pipeline (see
``docs/ARCHITECTURE.md``):

1. **ingest** turns monitor deliveries and digest feedback into a
   :class:`Changeset` — the net row-level effect of one or more
   management-plane transactions, keyed per row so that bursts
   coalesce;
2. **evaluate** (engine callbacks on the reactor) turns a changeset into an
   engine transaction and fans the output deltas out as one
   :class:`DeviceBatch`, shared by every device's queue;
3. **apply** (one event-loop channel per device, :mod:`repro.core.fanout`)
   merges queued batches and issues them as a single batched P4Runtime
   write.

Both IRs share the same *coalescing algebra*.  Per key (a row uuid at
the changeset level, a table and the entry's match key at the device
level) the net effect of any op sequence is at most "delete the
oldest value, insert the newest":

=============================  ==============================
sequence observed              net effect
=============================  ==============================
insert(a)                      insert(a)
delete(a)                      delete(a)
delete(a), insert(b)           delete(a) + insert(b)  [modify]
insert(a), delete(a)           nothing      [cancelled]
insert(a), delete(a), ins(b)   insert(b)    [last writer wins]
delete(a), insert(a)           nothing      [round trip]
=============================  ==============================

Each key's state is a two-slot cell ``[delete_value, insert_value]``;
:func:`_record_delete` / :func:`_record_insert` implement the
transitions above and are shared by both IR classes.

**Ordering invariant** (preserved and tested): merging batches never
reorders engine transactions — a merged batch carries the contiguous
``seq`` range it covers, and emission always puts deletes before
inserts so a changed entry (delete + insert under one match key)
never collides inside the atomic device write.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, List, Optional, Tuple

#: Cap on how many update-ids a coalesced changeset/batch drags along
#: (trace bookkeeping must not grow without bound under a flood).
_MAX_UPDATE_IDS = 128


def _record_delete(cell: list, value) -> None:
    """Fold ``delete(value)`` into a two-slot ``[delete, insert]`` cell."""
    if cell[1] is not None:
        cell[1] = None  # cancels the pending insert
    elif cell[0] is None:
        cell[0] = value  # first delete pins the oldest value
    # else: delete after delete for one key cannot happen in a
    # well-formed stream; keeping the oldest value is still correct.


def _record_insert(cell: list, value) -> None:
    cell[1] = value  # last writer wins


def _merge_update_ids(target: List[str], extra: List[str]) -> None:
    """Append ``extra``, evicting the *oldest* ids past the cap —
    ``update_ids[-1]`` must always be the newest merged id (it names
    the coalesced sync and stamps the device's config epoch)."""
    target.extend(extra)
    if len(target) > _MAX_UPDATE_IDS:
        del target[: len(target) - _MAX_UPDATE_IDS]


class Changeset:
    """Stage-1 IR: the net row changes of >= 1 management transactions.

    ``ops`` maps ``relation -> row key -> [delete_row, insert_row]``.
    The row key is ``(table, uuid)`` for OVSDB-derived rows and the row
    tuple itself for digest insertions (digests have no uuid).
    """

    __slots__ = (
        "source",
        "ops",
        "update_ids",
        "parent",
        "link",
        "digest_name",
        "txns",
        "digests",
        "first_enqueued",
    )

    def __init__(self, source: str = "mgmt"):
        self.source = source
        self.ops: Dict[str, Dict[Hashable, list]] = {}
        self.update_ids: List[str] = []
        #: The span (e.g. ``mgmt.transact``) the evaluation should nest
        #: under — carried across the thread hop, adopted by stage 2.
        self.parent = None
        #: For digest changesets: update-id of the config change whose
        #: entries produced the digest (the device's config epoch).
        self.link: Optional[str] = None
        self.digest_name: Optional[str] = None
        self.txns = 0
        self.digests = 0
        self.first_enqueued = time.perf_counter()

    def record_insert(self, relation: str, key: Hashable, row: tuple) -> None:
        cell = self.ops.setdefault(relation, {}).setdefault(key, [None, None])
        _record_insert(cell, row)

    def record_delete(self, relation: str, key: Hashable, row: tuple) -> None:
        cell = self.ops.setdefault(relation, {}).setdefault(key, [None, None])
        _record_delete(cell, row)

    @property
    def update_id(self) -> Optional[str]:
        """The newest merged update-id (names the coalesced sync)."""
        return self.update_ids[-1] if self.update_ids else None

    def row_count(self) -> int:
        return sum(len(keys) for keys in self.ops.values())

    def is_empty(self) -> bool:
        return all(
            cell[0] is None and cell[1] is None
            for keys in self.ops.values()
            for cell in keys.values()
        )

    def to_transaction(self) -> Tuple[Dict[str, list], Dict[str, list]]:
        """Net ``(inserts, deletes)`` for one engine transaction.

        A key whose delete and insert carry the same row is a round
        trip and is dropped entirely.
        """
        inserts: Dict[str, list] = {}
        deletes: Dict[str, list] = {}
        for relation, keys in self.ops.items():
            for cell in keys.values():
                dead, live = cell
                if dead is not None and dead == live:
                    continue
                if dead is not None:
                    deletes.setdefault(relation, []).append(dead)
                if live is not None:
                    inserts.setdefault(relation, []).append(live)
        return inserts, deletes

    def coalesce(self, other: "Changeset") -> Optional["Changeset"]:
        """Fold a newer changeset into this one (queue-tail merge) and
        return it, or ``None`` when ``other`` cannot be merged.

        Only changesets from the same source merge — mixing digest
        feedback into a management changeset would blur the digest
        trace-link bookkeeping.
        """
        if not isinstance(other, Changeset) or other.source != self.source:
            return None
        for relation, keys in other.ops.items():
            for key, (dead, live) in keys.items():
                if dead is not None:
                    self.record_delete(relation, key, dead)
                if live is not None:
                    self.record_insert(relation, key, live)
        _merge_update_ids(self.update_ids, other.update_ids)
        if other.parent is not None:
            self.parent = other.parent
        if other.link is not None:
            self.link = other.link
        if other.digest_name is not None:
            self.digest_name = other.digest_name
        self.txns += other.txns
        self.digests += other.digests
        return self


class DeviceBatch:
    """Stage-3 IR: the net table writes of >= 1 engine transactions.

    A fan-out's batch holds the engine's output deltas as they came —
    ``(binding, delta)`` per output relation, the delta itself, not a
    copy (an emitted delta is never written again) — with nothing
    converted and nothing keyed: :meth:`emit_writes` reads its rows
    straight from the deltas.  Only when a later batch merges into it
    (:meth:`coalesce`) are they folded into ``ops``, which maps
    ``(binding, key) -> [delete_row, insert_row]``: the rows under their
    table's :class:`~repro.core.codegen.TableBinding` and the device
    identity ``binding.key_of(row)``.  A batch holds deltas or cells,
    never both: deltas go only into a fan-out's fresh batch, and
    :meth:`record_insert`/:meth:`record_delete` only into a batch built
    row by row.  ``mcast`` maps ``group -> port list``
    (``None`` = delete the group), last writer wins.  ``seq``/
    ``last_seq`` are the engine-transaction range the batch covers —
    merge only ever extends it forward, which is what keeps per-device
    application in engine-transaction order.

    A fan-out puts *one* batch object on every device's queue and marks
    it ``shared``: nothing may change it any more, and a queue that
    wants to merge into it does so in a copy (:meth:`coalesce`).
    Devices that fell behind together hold the same shared tail, and
    they share its merge too: the fanned-out batch records, for the
    length of its fan-out, the merge of each shared tail it met.  What
    every device has in common — the write list, and through it the
    encoded request — is thereby computed once per distinct queue
    state, not once per device.
    """

    __slots__ = (
        "seq",
        "last_seq",
        "ops",
        "mcast",
        "update_ids",
        "parent",
        "txns",
        "first_enqueued",
        "shared",
        "_deltas",
        "_writes",
        "_merges",
        "__weakref__",  # a batch's lifetime can be watched
    )

    def __init__(self, seq: int):
        self.seq = seq
        self.last_seq = seq
        self.ops: Dict[Tuple[object, Hashable], list] = {}
        self.mcast: Dict[int, Optional[List[int]]] = {}
        self.update_ids: List[str] = []
        self.parent = None
        self.txns = 1
        self.first_enqueued = time.perf_counter()
        #: More than one queue holds this object: copy before merging.
        self.shared = False
        #: ``[(binding, delta)]`` not folded into ``ops`` yet.
        self._deltas: list = []
        self._writes = None  # emit_writes() memo; any record drops it
        #: ``shared tail -> its merge with this batch`` while this
        #: batch is being fanned out; the fan-out drops it after.
        self._merges = None

    def add_delta(self, binding, delta) -> None:
        """One output relation's delta (``row -> weight``) for
        ``binding``'s table, held as it is until a merge folds it."""
        assert not self.ops, "a batch holds deltas or cells, not both"
        if delta:
            self._deltas.append((binding, delta))
            self._writes = None

    def _folded(self) -> Dict[Tuple[object, Hashable], list]:
        """The cells: ``ops``, or with deltas held a new dict they are
        folded into."""
        if not self._deltas:
            return self.ops
        cells: Dict[Tuple[object, Hashable], list] = {}
        for binding, delta in self._deltas:
            _fold_delta(cells, binding, delta)
        return cells

    def _cells(self) -> Dict[Tuple[object, Hashable], list]:
        """``ops``, with the held deltas folded in first."""
        if self._deltas:
            self.ops, self._deltas = self._folded(), []
        return self.ops

    def record_insert(self, binding, key: Hashable, row: tuple) -> None:
        assert not self._deltas, "a batch holds deltas or cells, not both"
        _record_insert(self.ops.setdefault((binding, key), [None, None]), row)
        self._writes = None

    def record_delete(self, binding, key: Hashable, row: tuple) -> None:
        assert not self._deltas, "a batch holds deltas or cells, not both"
        _record_delete(self.ops.setdefault((binding, key), [None, None]), row)
        self._writes = None

    @property
    def update_id(self) -> Optional[str]:
        return self.update_ids[-1] if self.update_ids else None

    def _private_copy(self) -> "DeviceBatch":
        clone = DeviceBatch(self.seq)
        clone.last_seq = self.last_seq
        clone.ops = {key: cell[:] for key, cell in self.ops.items()}
        clone._deltas = list(self._deltas)  # the deltas are only read
        clone.mcast = dict(self.mcast)
        clone.update_ids = list(self.update_ids)
        clone.parent = self.parent
        clone.txns = self.txns
        clone.first_enqueued = self.first_enqueued
        return clone

    def emit_writes(self) -> list:
        """The batch as one :class:`~repro.p4runtime.api.WriteList`:
        runs of rows per (kind, table), every delete run before any
        insert run.

        A row deleted and re-inserted unchanged is a round trip and is
        dropped (rows carry interned action values, so equal rows mean
        the same action, params and priority).  The list is built once
        per batch state, so every device of a shared batch gets the
        same list, and it makes a
        :class:`~repro.p4runtime.api.RowWrite` per row only for code
        that reads its items.
        """
        from repro.p4runtime.api import WriteList

        if self._writes is None:
            runs = _delta_runs(self._deltas) if self._deltas else None
            if runs is None:
                # Folded, or two rows of one kind under one key: the
                # cells decide which one stands (in a copy: a shared
                # batch does not change).
                runs = _cell_runs(self._folded())
            self._writes = WriteList.of_runs(runs)
        return self._writes

    def is_empty(self) -> bool:
        return not self.mcast and not self._deltas and all(
            cell[0] is None and cell[1] is None for cell in self.ops.values()
        )

    def coalesce(self, other: "DeviceBatch") -> Optional["DeviceBatch"]:
        """Fold a strictly newer batch in, so the merged batch covers
        a forward, in-order span of engine transactions (gaps are
        transactions that produced no writes for this device).

        Returns the batch that now holds the merge — ``self``, or for
        a ``shared`` batch a copy that the queue puts in its place —
        or ``None`` when ``other`` cannot be merged.  ``other``
        may be shared too; its rows are only read.  When both are, the
        merge is recorded on ``other``, and the next queue whose tail is
        this same ``self`` takes the recorded batch (now shared) instead
        of copying and merging again.  Nothing can change a recorded
        merge in between: a fan-out puts ``other`` once per queue, a
        merge does not pump, and the fan-out drops the record after
        its last put."""
        if not isinstance(other, DeviceBatch):
            return None
        if other.seq <= self.last_seq:
            return None
        memo = None
        if self.shared and other.shared:
            if other._merges is None:
                other._merges = {}
            memo = other._merges
            merged = memo.get(self)
            if merged is not None:
                merged.shared = True  # a second queue holds it now
                return merged
        merged = self._private_copy() if self.shared else self
        ops = merged._cells()
        for binding, delta in other._deltas:
            _fold_delta(ops, binding, delta)
        for key, (dead, live) in other.ops.items():
            cell = ops.setdefault(key, [None, None])
            if dead is not None:
                _record_delete(cell, dead)
            if live is not None:
                _record_insert(cell, live)
        merged._writes = None
        merged.mcast.update(other.mcast)
        _merge_update_ids(merged.update_ids, other.update_ids)
        if other.parent is not None:
            merged.parent = other.parent
        merged.last_seq = other.last_seq
        merged.txns += other.txns
        if memo is not None:
            memo[self] = merged
        return merged


def _fold_delta(ops: dict, binding, delta) -> None:
    """Fold one held delta (one engine transaction's) into ``ops``' cells
    the way the delta's own cells would merge into them: per key its
    first delete — a cell keeps the oldest — then its inserts (an
    engine delta lists a relation's deletes before its inserts)."""
    key_of = binding.key_of
    deleted = set()
    for row, weight in delta.items():
        if weight < 0:
            key = key_of(row)
            if key not in deleted:
                deleted.add(key)
                _record_delete(ops.setdefault((binding, key), [None, None]), row)
    for row, weight in delta.items():
        if weight > 0:
            _record_insert(ops.setdefault((binding, key_of(row)), [None, None]), row)


def _delta_runs(deltas: list) -> Optional[list]:
    """``[(kind, binding, rows)]`` read straight from held deltas, or
    ``None`` when two rows of one kind share a key (one delta cannot
    delete and re-insert the same row, so there is no round trip to
    elide)."""
    deletes, inserts = [], []
    for binding, delta in deltas:
        dead = [row for row, weight in delta.items() if weight < 0]
        live = [row for row, weight in delta.items() if weight > 0]
        key_of = binding.key_of
        if len(set(map(key_of, dead))) < len(dead) or len(
            set(map(key_of, live))
        ) < len(live):
            return None
        if dead:
            deletes.append(("DELETE", binding, dead))
        if live:
            inserts.append(("INSERT", binding, live))
    return deletes + inserts


def _cell_runs(ops: dict) -> list:
    """``[(kind, binding, rows)]`` of folded cells, round trips dropped."""
    deletes: Dict[object, list] = {}
    inserts: Dict[object, list] = {}
    for (binding, _), (dead, live) in ops.items():
        if dead is not None:
            if dead == live:
                continue
            deletes.setdefault(binding, []).append(dead)
        if live is not None:
            inserts.setdefault(binding, []).append(live)
    return [("DELETE", b, rows) for b, rows in deletes.items()] + [
        ("INSERT", b, rows) for b, rows in inserts.items()
    ]


class MulticastState:
    """Group membership folded from the reserved ``MulticastGroup(group,
    port)`` output relation.  Engine-thread state: only the evaluate
    stage (and engine tasks) read or mutate it."""

    def __init__(self, groups: Optional[Dict[int, List[int]]] = None):
        self.members: Dict[int, set] = {
            int(group): set(ports) for group, ports in (groups or {}).items()
        }

    def fold(self, delta) -> Dict[int, Optional[List[int]]]:
        """Apply a relation delta; returns the net config ops for a
        :class:`DeviceBatch` (``None`` = delete the group)."""
        changed = set()
        for row, weight in delta.items():
            group, port = int(row[0]), int(row[1])
            members = self.members.setdefault(group, set())
            if weight > 0:
                members.add(port)
            else:
                members.discard(port)
            changed.add(group)
        ops: Dict[int, Optional[List[int]]] = {}
        for group in sorted(changed):
            if self.members[group]:
                ops[group] = sorted(self.members[group])
            else:
                ops[group] = None
                del self.members[group]
        return ops

    def snapshot(self) -> Dict[int, List[int]]:
        """``group -> sorted ports`` for every non-empty group."""
        return {
            group: sorted(members)
            for group, members in self.members.items()
            if members
        }
