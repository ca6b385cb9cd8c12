"""P4Runtime-style entities and the device-side service.

The wire shapes (dicts, JSON-ready) mirror the parts of P4Runtime the
stack needs:

Table write update::

    {"type": "INSERT" | "MODIFY",
     "table": "fwd",
     "match": [10, {"ternary": [5, 255]}, {"lpm": [167772160, 8]}],
     "action": {"name": "forward", "params": [2]},
     "priority": 3}

    {"type": "DELETE",
     "table": "nat",
     "match": [1, 167772161]}

An exact field is its bare value in ``match``; an lpm or ternary field
is a one-key object, ``{"lpm": [value, prefix_len]}`` or
``{"ternary": [value, mask]}``.  ``priority`` is left out when it is 0
on a table without a ternary field, as P4Runtime leaves it unset there
(a receiver reads a missing one as 0), and is always sent on a table
with one.  That is the one form every encoder writes and
:func:`decode_update` reads: a tagged ``{"exact": v}`` is a bad match
field.

A DELETE names its entry by the match key and priority alone, as in
P4Runtime: every encoder sends it without an action, and a receiver
ignores an action a DELETE carries.

Writes are *batched and atomic*: a failed update rolls the whole batch
back (P4Runtime's error semantics), which the Nerpa controller relies
on to keep data-plane state transactional like the rest of the stack.

Between the engine's rows and a table, an update has one form,
``(kind, table, key, value)`` (:func:`decode_update`; its inverse is
:func:`encode_update`): ``key`` is the entry's match key, ``value`` its
``(action, *params)``.  A device applies that form, in one loop for
every device (:class:`DeviceService`), and answers a ``read_table``
with ``(key, value)`` pairs.  A :class:`WriteBatch` holds a batch's
updates as runs of rows (or of repaired pairs) that one codec call
turns into that form or into the updates' wire text.
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ReproError, RuntimeApiError
from repro.mgmt.jsonrpc import dumps_text
from repro.obs.trace import UPDATE_ID
from repro.p4.simulator import Simulator
from repro.p4.tables import TableEntry


class WriteError(RuntimeApiError):
    """A write batch failed; carries the index of the failing update."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"update {index}: {message}")


class FencedWriteError(RuntimeApiError):
    """A write carried a fencing epoch older than the device's.

    Raised *before* anything is applied — the batch has no effect.  A
    semantic rejection, not a transport failure: a deposed controller
    must not trip its circuit breaker and resync (it would fail the
    same way); it must observe at drain() that it lost leadership.
    """

    def __init__(self, stale: int, current: int):
        self.stale = stale
        self.current = current
        super().__init__(
            f"write fenced: epoch {stale} deposed by epoch {current}"
        )


class TableWrite:
    """One update of a write batch, as an entry: what a script or test
    hands the blocking :meth:`AioP4RuntimeClient.write
    <repro.p4runtime.aio_client.AioP4RuntimeClient.write>`, and the
    read-only item a :class:`WriteBatch` yields when iterated."""

    __slots__ = ("kind", "table", "entry")

    def __init__(self, kind: str, table: str, entry: TableEntry):
        if kind not in ("INSERT", "MODIFY", "DELETE"):
            raise RuntimeApiError(f"bad write type {kind!r}")
        self.kind = kind
        self.table = table
        self.entry = entry

    def to_wire(self) -> dict:
        entry = self.entry
        return encode_update(
            self.kind, self.table, entry.match_key(),
            (entry.action, *entry.action_params),
        )

    def to_json(self) -> str:
        """The update's JSON text, as it goes into a request."""
        return dumps_text(self.to_wire())

    @classmethod
    def from_wire(cls, data: dict) -> "TableWrite":
        kind, table, key, value = decode_update(data)
        return cls(kind, table, TableEntry.from_key(key, value))

    def __repr__(self):
        return f"TableWrite({self.kind} {self.table} {self.entry!r})"


class WriteBatch:
    """The table writes of one batch, as runs ``(kind, codec, items)``
    of one kind each.  A codec turns a run of its items into the
    updates' JSON texts, comma-joined (``codec.wire_run(kind, items)``),
    or into the ``(kind, table, key, value)`` each text decodes to
    (``codec.decoded_run(kind, items)``): engine rows under their
    table's :class:`~repro.core.codegen.TableBinding`, a read-diff's
    repairs under a :class:`PairCodec`.  Its length is its update
    count; iterating it yields a read-only :class:`TableWrite` each.

    ``encoded`` keeps the request parameters the batch was last encoded
    to, so a batch fanned out to a fleet is encoded by the first client
    and spliced into the others' frames.  Treat as frozen once handed
    to a client."""

    __slots__ = ("runs", "encoded", "_count")

    def __init__(self, runs: list):
        self.runs = runs
        #: ``(key, params)`` of the last ``apply_batch`` encoded from
        #: this batch — private to :mod:`repro.p4runtime.aio_client`.
        self.encoded = None
        self._count = sum(len(items) for _, _, items in runs)

    def __len__(self) -> int:
        return self._count

    def decoded(self) -> Iterator[tuple]:
        """Every update as ``(kind, table, key, value)``, decoded as it
        is reached: an ill-typed row raises when its turn comes."""
        return chain.from_iterable(
            codec.decoded_run(kind, items) for kind, codec, items in self.runs
        )

    def __iter__(self) -> Iterator[TableWrite]:
        for kind, table, key, value in self.decoded():
            yield TableWrite(kind, table, TableEntry.from_key(key, value))


class PairCodec:
    """The codec of runs of one table's ``(key, value)`` pairs, already
    in the form :func:`decode_update` gives: a read-diff's repairs.  A
    DELETE pair's value goes nowhere: its text has no action."""

    __slots__ = ("table",)

    def __init__(self, table: str):
        self.table = table

    def decoded_run(self, kind: str, pairs) -> List[tuple]:
        table = self.table
        if kind == "DELETE":
            return [(kind, table, key, NO_ACTION) for key, _ in pairs]
        return [(kind, table, key, value) for key, value in pairs]

    def wire_run(self, kind: str, pairs) -> str:
        table = self.table
        return ",".join(
            dumps_text(encode_update(kind, table, key, value))
            for key, value in pairs
        )


#: The value of a decoded DELETE, whose text names no action.
NO_ACTION = ("NoAction",)


def decode_update(data: dict) -> tuple:
    """A wire update as ``(kind, table, key, value)``, what a device's
    tables apply: ``key`` is the entry's :meth:`TableEntry.match_key`,
    ``value`` its ``(action, *params)`` — tuples of atoms, so a table
    holding them gives the collector nothing to track.  A match field
    that is not an object is an exact field's value; a missing
    ``priority`` is 0.  A DELETE's value is :data:`NO_ACTION`, whatever
    action it carries.  Raises :class:`RuntimeApiError` for an update
    no device can decode."""
    try:
        kind = data["type"]
        if kind not in ("INSERT", "MODIFY", "DELETE"):
            raise RuntimeApiError(f"bad write type {kind!r}")
        key = (data.get("priority", 0),)
        for match in data.get("match", ()):
            if type(match) is not dict:
                key += ("exact", match, None)
            elif "lpm" in match:
                value, prefix_len = match["lpm"]
                key += ("lpm", value, prefix_len)
            elif "ternary" in match:
                value, mask = match["ternary"]
                key += ("ternary", value, mask)
            else:
                raise RuntimeApiError(f"bad match field {match!r}")
        if kind == "DELETE":
            return kind, data["table"], key, NO_ACTION
        action = data.get("action", {})
        value = (action.get("name", "NoAction"), *action.get("params", ()))
        return kind, data["table"], key, value
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise RuntimeApiError(f"bad table write {data!r}: {exc}") from exc


def encode_update(kind: str, table: str, key: tuple, value: tuple) -> dict:
    """The wire update :func:`decode_update` reads as ``(kind, table,
    key, value)``: each exact field its bare value, and ``priority``
    only when it is nonzero or the key has a ternary field.  A
    DELETE's has no action, so its ``value`` is not read."""
    match = []
    ternary = False
    for at in range(1, len(key), 3):
        match_kind, field, arg = key[at:at + 3]
        if match_kind == "exact":
            match.append(field)
        else:
            match.append({match_kind: [field, arg]})
            ternary = ternary or match_kind == "ternary"
    update = {"type": kind, "table": table, "match": match}
    if kind != "DELETE":
        update["action"] = {"name": value[0], "params": list(value[1:])}
    if ternary or key[0] != 0:
        update["priority"] = key[0]
    return update


class DeviceService:
    """Applies P4Runtime-style operations to one simulator.

    This is the device-local half: the remote server delegates here,
    and in-process deployments (a Nerpa "local control plane") call it
    directly.  ``simulator`` needs only what the writes read:
    ``table(name)``, the multicast setters and the
    ``config_epoch``/``fencing_epoch`` attributes — a
    :class:`~repro.p4runtime.farm.TableStore` is enough.  A table
    needs ``write(kind, key, value)`` of a decoded update, returning
    what ``restore(key, old)`` takes to undo it (and raising
    :func:`~repro.p4.tables.write_rejection`'s error), and ``items()``,
    its ``(key, value)`` pairs.
    """

    def __init__(self, simulator: Simulator, device_id: str = "device-0"):
        self.sim = simulator
        self.device_id = device_id
        #: Table updates of the batches that held.
        self.updates_applied = 0

    # -- writes ------------------------------------------------------------

    def apply_updates(self, wire_updates: Iterable[dict]) -> int:
        """Apply a batch of wire-form updates atomically, each decoded
        (:func:`decode_update`) as it is applied; returns the number of
        updates.  ``wire_updates`` is iterated once, so it may build
        them as it goes.

        On failure the already-applied prefix is rolled back and a
        :class:`WriteError` is raised.
        """
        return self._write(map(decode_update, wire_updates))

    def write(self, updates: Iterable[TableWrite]) -> int:
        """:meth:`apply_updates` of the wire forms of ``updates``, for
        scripts and tests."""
        return self.apply_updates(map(TableWrite.to_wire, updates))

    def apply_batch(
        self,
        updates: Sequence,
        mcast: Optional[dict] = None,
        fence: Optional[int] = None,
    ) -> int:
        """One round trip for a coalesced pipeline batch: multicast
        group config (``group -> ports``, ``None`` deletes the group)
        plus an atomic table-write batch — a :class:`WriteBatch`, or a
        remote batch's list of wire dicts — behind the ``fence`` check.

        Multicast config is applied first (so a flood entry never
        references a group that does not exist yet) and is idempotent;
        only the table writes carry rollback semantics.
        """
        if fence is not None:
            with self._fence_lock():
                self._advance_fence(fence)
                return self.apply_batch(updates, mcast, None)
        if mcast:
            for group_id in sorted(mcast):
                ports = mcast[group_id]
                if ports:
                    self.sim.set_multicast_group(group_id, list(ports))
                else:
                    self.sim.delete_multicast_group(group_id)
        if not updates:
            return 0
        if isinstance(updates, WriteBatch):
            return self._write(updates.decoded())
        return self.apply_updates(updates)

    # -- write fencing ------------------------------------------------------

    def fencing_epoch(self) -> Optional[int]:
        """The highest fencing epoch any writer has presented (``None``
        until a fenced write arrives)."""
        return getattr(self.sim, "fencing_epoch", None)

    def _fence_lock(self) -> threading.Lock:
        """The lock a fenced write holds from its check through its
        apply (check-then-apply must be atomic across writers).
        Unfenced writes take no lock — single-controller deployments
        never mint an epoch.

        The lock (like the fence itself) lives on the *simulator*:
        each controller wraps a shared device in its own
        DeviceService/server, and fencing only means anything if all
        of them validate against one authoritative epoch."""
        lock = getattr(self.sim, "fence_lock", None)
        if lock is None:
            lock = self.sim.fence_lock = threading.Lock()
        return lock

    def _advance_fence(self, fence: int) -> None:
        """Validate-and-advance the device's fencing epoch: a write
        stamped with an epoch *older* than the highest seen is from a
        deposed leader — reject it before it touches any state."""
        current = self.fencing_epoch()
        if current is not None and fence < current:
            if obs.ENABLED:
                obs.REGISTRY.counter(
                    "device_fenced_writes_total", device=self.device_id
                ).inc()
            raise FencedWriteError(fence, current)
        self.sim.fencing_epoch = fence

    def _write(self, updates: Iterable[tuple]) -> int:
        uid = UPDATE_ID.get()
        if obs.ENABLED:
            with obs.span(
                "device.apply", update_id=uid, device=self.device_id
            ) as span:
                count = self._apply_batch(updates)
                span.set(writes=count)
            obs.REGISTRY.counter(
                "device_writes_total", device=self.device_id
            ).inc(count)
        else:
            count = self._apply_batch(updates)
        self.updates_applied += count
        if uid is not None:
            # Remember which config change last touched this device
            # (once it holds: a rolled-back batch stamps nothing);
            # digests emitted by matching packets carry it back so the
            # feedback loop links to its originating trace.
            self.sim.config_epoch = uid
        return count

    def _apply_batch(self, updates: Iterable[tuple]) -> int:
        table_of = self.sim.table
        # Per applied update, what reverts it: table, key and what the
        # table's write returned — flat, so a large batch keeps no
        # tuple per update for the collector to count.
        undo: list = []
        # The rollback scope spans the iteration too: ``updates`` decode
        # as they go, and a malformed update (or a key no table can hold:
        # a list is unhashable) must undo the prefix like a rejected one.
        # Its index is the count applied so far.
        try:
            for kind, name, key, value in updates:
                table = table_of(name)
                undo += (table, key, table.write(kind, key, value))
        except (ReproError, TypeError) as exc:
            index = len(undo) // 3
            while undo:
                old, key, table = undo.pop(), undo.pop(), undo.pop()
                table.restore(key, old)
            raise WriteError(index, str(exc)) from exc
        return len(undo) // 3

    # -- reads and config -------------------------------------------------------

    def get_config_epoch(self) -> Optional[str]:
        """The update-id of the last config change applied to this
        device (``None`` if never written).  A restarting controller
        compares this against its checkpointed epoch to decide whether a
        full resync is needed."""
        return getattr(self.sim, "config_epoch", None)

    def set_config_epoch(
        self, epoch: Optional[str], fence: Optional[int] = None
    ) -> None:
        """Stamp the device's config epoch explicitly, behind the
        ``fence`` check (how a takeover teaches an epoch-matched device
        the new leader's fencing epoch without writing to it)."""
        if fence is not None:
            with self._fence_lock():
                self._advance_fence(fence)
                return self.set_config_epoch(epoch)
        self.sim.config_epoch = epoch

    def read_table(self, table: str) -> List[Tuple[tuple, tuple]]:
        """The table's entries as ``(key, value)`` pairs."""
        return list(self.sim.table(table).items())

    def set_default_action(self, table: str, action: str, params: Sequence[int]) -> None:
        self.sim.table(table).set_default(action, params)

    def set_multicast_group(self, group_id: int, ports: Sequence[int]) -> None:
        self.sim.set_multicast_group(group_id, list(ports))

    def delete_multicast_group(self, group_id: int) -> None:
        self.sim.delete_multicast_group(group_id)

    def p4info(self) -> dict:
        return self.sim.pipeline.p4info.to_json()

    # -- digests and packet I/O ---------------------------------------------------------

    def drain_digests(self) -> List[Tuple[str, Tuple[int, ...]]]:
        return [(d.name, d.values) for d in self.sim.drain_digests()]

    def packet_out(self, port: int, data: bytes):
        """Controller-originated packet: inject as if received on ``port``
        (P4Runtime's PacketOut, simplified to ingress injection)."""
        return self.sim.inject(port, data)

    def drain_packet_ins(self) -> List[Tuple[int, bytes]]:
        return self.sim.drain_packet_ins()
