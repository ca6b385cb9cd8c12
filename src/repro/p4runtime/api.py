"""P4Runtime-style entities and the device-side service.

The wire shapes (dicts, JSON-ready) mirror the parts of P4Runtime the
stack needs:

Table write update::

    {"type": "INSERT" | "MODIFY" | "DELETE",
     "table": "fwd",
     "match": [{"field": "meta.vlan", "exact": 10},
               {"field": "hdr.eth.dst", "ternary": [5, 255]},
               {"field": "ip.dst", "lpm": [167772160, 8]}],
     "action": {"name": "forward", "params": [2]},
     "priority": 0}

Writes are *batched and atomic*: a failed update rolls the whole batch
back (P4Runtime's error semantics), which the Nerpa controller relies
on to keep data-plane state transactional like the rest of the stack.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ReproError, RuntimeApiError
from repro.mgmt.jsonrpc import dumps_text
from repro.obs.trace import current_update_id
from repro.p4.simulator import Simulator
from repro.p4.tables import FieldMatch, TableEntry


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
    """One update of a write batch."""

    __slots__ = ("kind", "table", "entry")

    def __init__(self, kind: str, table: str, entry: TableEntry):
        if kind not in ("INSERT", "MODIFY", "DELETE"):
            raise RuntimeApiError(f"bad write type {kind!r}")
        self.kind = kind
        self.table = table
        self.entry = entry

    @classmethod
    def insert(cls, table: str, entry: TableEntry) -> "TableWrite":
        return cls("INSERT", table, entry)

    @classmethod
    def delete(cls, table: str, entry: TableEntry) -> "TableWrite":
        return cls("DELETE", table, entry)

    @classmethod
    def modify(cls, table: str, entry: TableEntry) -> "TableWrite":
        return cls("MODIFY", table, entry)

    def to_wire(self) -> dict:
        return {
            "type": self.kind,
            "table": self.table,
            "match": [_match_to_wire(m) for m in self.entry.matches],
            "action": {
                "name": self.entry.action,
                "params": list(self.entry.action_params),
            },
            "priority": self.entry.priority,
        }

    def to_json(self) -> str:
        """The update's JSON text, as it goes into a request."""
        return dumps_text(self.to_wire())

    @classmethod
    def from_wire(cls, data: dict) -> "TableWrite":
        try:
            matches = [_match_from_wire(m) for m in data.get("match", [])]
            action = data.get("action", {})
            entry = TableEntry(
                matches,
                action.get("name", "NoAction"),
                action.get("params", []),
                data.get("priority", 0),
            )
            return cls(data["type"], data["table"], entry)
        except (KeyError, TypeError) as exc:
            raise RuntimeApiError(f"bad table write {data!r}: {exc}") from exc

    def __repr__(self):
        return f"TableWrite({self.kind} {self.table} {self.entry!r})"


class RowWrite:
    """One update of a write batch, kept as the control-plane output row
    it writes: ``binding`` (a :class:`~repro.core.codegen.TableBinding`)
    converts the row only when asked — ``to_json()`` straight to the
    update's JSON text (the table's generated ``binding.wire``, byte
    for byte what :meth:`TableWrite.to_json` gives for the same entry),
    ``entry`` (built once, for in-process devices and read-diffs) to a
    :class:`TableEntry`.  Interchangeable with a :class:`TableWrite`
    wherever writes are applied or encoded; ``to_wire()``, the dict
    form, is read back from the text."""

    __slots__ = ("kind", "table", "row", "binding", "_entry")

    def __init__(self, kind: str, binding, row: tuple):
        self.kind = kind
        self.table = binding.info.name
        self.row = row
        self.binding = binding
        self._entry: Optional[TableEntry] = None

    @property
    def entry(self) -> TableEntry:
        if self._entry is None:
            self._entry = self.binding.entry_for(self.row)
        return self._entry

    def to_json(self) -> str:
        return self.binding.wire(self.kind, self.row)

    def to_wire(self) -> dict:
        return json.loads(self.to_json())

    def __repr__(self):
        return f"RowWrite({self.kind} {self.table} {self.row!r})"


class WriteList(list):
    """The table writes of one batch, with room for the
    request parameters they serialise to: a batch fanned out to a
    fleet — one list object handed to every device's client — is
    encoded by the first client and spliced into the others' frames
    (:meth:`AioP4RuntimeClient.apply_batch_async`).  Treat as frozen
    once handed to a client.

    A list made by :meth:`of_runs` (a device batch's) holds output
    rows, not writes: ``runs`` is ``[(kind, binding, rows)]``, and the
    encoder turns a run into text with one ``binding.wire_run(kind,
    rows)``.  Its length and truth are the writes', and every other
    reading of it — iterating, indexing, comparing, ``in``, ``copy``,
    ``repr``, pickling — first replaces the rows by a
    :class:`RowWrite` each.  Only a C-level reader that bypasses the
    list's methods (``json.dumps`` of the list) sees the raw rows."""

    #: ``(key, params)`` of the last ``apply_batch`` encoded from this
    #: list — private to :mod:`repro.p4runtime.aio_client`.
    encoded = None
    #: ``[(kind, binding, rows)]`` of a list made by :meth:`of_runs`.
    runs = None
    _rows = False  # the items are still ``runs``' rows

    @classmethod
    def of_runs(cls, runs: list) -> "WriteList":
        writes = cls()
        for _, _, rows in runs:
            writes += rows
        writes.runs = runs
        writes._rows = True
        return writes

    def _as_writes(self) -> None:
        if self._rows:
            self._rows = False
            self[:] = [
                RowWrite(kind, binding, row)
                for kind, binding, rows in self.runs
                for row in rows
            ]


def _reading(name: str):
    """``list``'s method ``name`` for a :class:`WriteList`, on its
    writes."""
    method = getattr(list, name)

    def on_writes(self, *args, **kwargs):
        self._as_writes()
        return method(self, *args, **kwargs)

    on_writes.__name__ = name
    return on_writes


for _name in (
    "__iter__", "__reversed__", "__getitem__", "__contains__",
    "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__",
    "__add__", "__mul__", "__rmul__", "__repr__", "__reduce_ex__",
    "copy", "count", "index",
):
    setattr(WriteList, _name, _reading(_name))
del _name


def _match_to_wire(match: FieldMatch) -> dict:
    if match.kind == "exact":
        return {"exact": match.value}
    if match.kind == "lpm":
        return {"lpm": [match.value, match.arg]}
    return {"ternary": [match.value, match.arg]}


def _match_from_wire(data: dict) -> FieldMatch:
    if "exact" in data:
        return FieldMatch.exact(data["exact"])
    if "lpm" in data:
        value, prefix_len = data["lpm"]
        return FieldMatch.lpm(value, prefix_len)
    if "ternary" in data:
        value, mask = data["ternary"]
        return FieldMatch.ternary(value, mask)
    raise RuntimeApiError(f"bad match field {data!r}")


class DeviceService:
    """Applies P4Runtime-style operations to one simulator.

    This is the device-local half: the remote server delegates here,
    and in-process deployments (a Nerpa "local control plane") call it
    directly.
    """

    def __init__(self, simulator: Simulator, device_id: str = "device-0"):
        self.sim = simulator
        self.device_id = device_id

    # -- writes ------------------------------------------------------------

    def write(self, updates: Sequence[TableWrite]) -> int:
        """Apply a batch atomically; returns the number of updates.

        On failure the already-applied prefix is rolled back and a
        :class:`WriteError` is raised.
        """
        uid = current_update_id()
        if uid is not None:
            # Remember which config change last touched this device;
            # digests emitted by matching packets carry it back so the
            # feedback loop links to its originating trace.
            self.sim.config_epoch = uid
        with obs.span(
            "device.apply",
            update_id=uid,
            device=self.device_id,
            writes=len(updates),
        ):
            count = self._apply_batch(updates)
        if obs.enabled():
            obs.REGISTRY.counter(
                "device_writes_total", device=self.device_id
            ).inc(len(updates))
        return count

    def apply_batch(
        self,
        updates: Sequence[TableWrite],
        mcast: Optional[dict] = None,
        fence: Optional[int] = None,
    ) -> int:
        """One round trip for a coalesced pipeline batch: multicast
        group config (``group -> ports``, ``None`` deletes the group)
        plus an atomic table-write batch, behind the ``fence`` check.

        Multicast config is applied first (so a flood entry never
        references a group that does not exist yet) and is idempotent;
        only the table writes carry rollback semantics.
        """
        with self._fenced(fence):
            if mcast:
                for group_id in sorted(mcast):
                    ports = mcast[group_id]
                    if ports:
                        self.sim.set_multicast_group(group_id, list(ports))
                    else:
                        self.sim.delete_multicast_group(group_id)
            if not updates:
                return 0
            return self.write(updates)

    # -- write fencing ------------------------------------------------------

    def fencing_epoch(self) -> Optional[int]:
        """The highest fencing epoch any writer has presented (``None``
        until a fenced write arrives)."""
        return getattr(self.sim, "fencing_epoch", None)

    @contextmanager
    def _fenced(self, fence: Optional[int]):
        """Validate-and-advance the device's fencing epoch, then hold
        the fence lock around the caller's apply (check-then-apply must
        be atomic across writers).

        A write stamped with an epoch *older* than the highest seen is
        from a deposed leader: reject it before it touches any state.
        Unfenced writes (``fence=None``) pass, lock-free —
        single-controller deployments never mint an epoch.
        """
        if fence is None:
            yield
            return
        # The lock (like the fence itself) lives on the *simulator*:
        # each controller wraps a shared device in its own
        # DeviceService/server, and fencing only means anything if all
        # of them validate against one authoritative epoch.
        lock = getattr(self.sim, "fence_lock", None)
        if lock is None:
            lock = self.sim.fence_lock = threading.Lock()
        with lock:
            current = self.fencing_epoch()
            if current is not None and fence < current:
                if obs.enabled():
                    obs.REGISTRY.counter(
                        "device_fenced_writes_total", device=self.device_id
                    ).inc()
                raise FencedWriteError(fence, current)
            self.sim.fencing_epoch = fence
            yield

    def _apply_batch(self, updates: Sequence[TableWrite]) -> int:
        applied: List[Tuple[TableWrite, Optional[TableEntry]]] = []
        try:
            for i, update in enumerate(updates):
                try:
                    old = self._apply_one(update)
                except ReproError as exc:
                    raise WriteError(i, str(exc)) from exc
                applied.append((update, old))
        except WriteError:
            for update, old in reversed(applied):
                self._revert_one(update, old)
            raise
        return len(applied)

    def _apply_one(self, update: TableWrite) -> Optional[TableEntry]:
        table = self.sim.table(update.table)
        if update.kind == "INSERT":
            table.insert(update.entry)
            return None
        # ``TableState`` keys its entries by match key, so the
        # pre-image needed for rollback is an O(1) lookup — a linear
        # scan here turns a batch of modifies against a large table
        # into O(batch * table) and dominates failover resync time.
        old = table.get(update.entry.match_key())
        if update.kind == "MODIFY":
            table.modify(update.entry)
        else:
            table.delete(update.entry)
        return old

    def _revert_one(self, update: TableWrite, old: Optional[TableEntry]) -> None:
        table = self.sim.table(update.table)
        if update.kind == "INSERT":
            table.delete(update.entry)
        elif update.kind == "MODIFY" and old is not None:
            table.modify(old)
        elif update.kind == "DELETE" and old is not None:
            table.insert(old)

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
        with self._fenced(fence):
            self.sim.config_epoch = epoch

    def read_table(self, table: str) -> List[TableEntry]:
        return self.sim.table(table).entries()

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
