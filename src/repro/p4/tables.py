"""Match-action table state: entries and lookup.

Lookup semantics follow P4 (and BMv2):

* all keys ``exact`` — hash lookup;
* ``exact`` keys plus one ``lpm`` key — longest prefix wins among
  entries whose exact parts match;
* any ``ternary`` key — highest priority entry whose every field
  matches (exact fields compare equal, lpm fields prefix-match,
  ternary fields match under mask).

Entries are validated against the table's
:class:`~repro.p4.p4info.TableInfo` (field count, widths, value
ranges), which is exactly the validation P4Runtime performs on writes.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import RuntimeApiError
from repro.p4.p4info import TableInfo


class FieldMatch:
    """One key field of an entry.

    ``kind`` mirrors the table's match kind; payload by kind:
    exact -> value; lpm -> (value, prefix_len); ternary -> (value, mask).
    """

    __slots__ = ("kind", "value", "arg")

    def __init__(self, kind: str, value: int, arg: Optional[int] = None):
        self.kind = kind
        self.value = value
        self.arg = arg

    @classmethod
    def exact(cls, value: int) -> "FieldMatch":
        return cls("exact", value)

    @classmethod
    def lpm(cls, value: int, prefix_len: int) -> "FieldMatch":
        return cls("lpm", value, prefix_len)

    @classmethod
    def ternary(cls, value: int, mask: int) -> "FieldMatch":
        return cls("ternary", value, mask)

    def matches(self, packet_value: int, width: int) -> bool:
        if self.kind == "exact":
            return packet_value == self.value
        if self.kind == "lpm":
            prefix_len = self.arg or 0
            if prefix_len == 0:
                return True
            mask = ((1 << prefix_len) - 1) << (width - prefix_len)
            return (packet_value & mask) == (self.value & mask)
        mask = self.arg or 0
        return (packet_value & mask) == (self.value & mask)

    def __repr__(self):
        if self.kind == "exact":
            return f"={self.value}"
        if self.kind == "lpm":
            return f"{self.value}/{self.arg}"
        return f"{self.value}&{self.arg}"


class TableEntry:
    __slots__ = ("matches", "action", "action_params", "priority")

    def __init__(
        self,
        matches: Sequence[FieldMatch],
        action: str,
        action_params: Sequence[int],
        priority: int = 0,
    ):
        self.matches = tuple(matches)
        self.action = action
        self.action_params = tuple(action_params)
        self.priority = priority

    @classmethod
    def from_key(cls, key: tuple, value: tuple) -> "TableEntry":
        """The entry a table holds as ``key`` → ``value``: its
        :meth:`match_key` and ``(action, *params)``."""
        matches = [FieldMatch(*key[i:i + 3]) for i in range(1, len(key), 3)]
        return cls(matches, value[0], value[1:], key[0])

    def match_key(self) -> tuple:
        """Identity of the entry (match fields + priority), per P4Runtime:
        ``(priority, kind, value, arg, kind, value, arg, ...)``.  One
        flat tuple of atoms, which the collector stops tracking at its
        first pass — a table holds one per entry."""
        key = [self.priority]
        for m in self.matches:
            key += (m.kind, m.value, m.arg)
        return tuple(key)

    def __repr__(self):
        return (
            f"TableEntry([{', '.join(map(repr, self.matches))}] "
            f"-> {self.action}{self.action_params} prio={self.priority})"
        )


class TableState:
    """The runtime contents of one match-action table."""

    def __init__(self, info: TableInfo):
        self.info = info
        self.kinds = [m.match_kind for m in info.match_fields]
        self.widths = [m.width for m in info.match_fields]
        self._entries: Dict[tuple, TableEntry] = {}
        self.default_action: Optional[str] = info.default_action
        self.default_params: Tuple[int, ...] = tuple(info.default_params)
        self._mode = self._pick_mode()
        # exact mode: key tuple -> entry
        self._exact_index: Dict[tuple, TableEntry] = {}
        # lpm mode: exact part -> prefix_len -> {masked prefix -> entry}
        self._lpm_index: Dict[tuple, Dict[int, Dict[int, TableEntry]]] = {}
        self._lpm_pos = self.kinds.index("lpm") if "lpm" in self.kinds else -1
        # ternary mode: (-priority, seq, entry), kept sorted by bisect,
        # and each entry's seq by its match key
        self._scan_list: List[Tuple[int, int, TableEntry]] = []
        self._scan_seqs: Dict[tuple, int] = {}
        self._scan_seq = 0

    def _pick_mode(self) -> str:
        if any(k == "ternary" for k in self.kinds):
            return "scan"
        if self.kinds.count("lpm") > 1:
            return "scan"
        if "lpm" in self.kinds:
            return "lpm"
        return "exact"

    # -- mutation --------------------------------------------------------------

    def validate_entry(self, entry: TableEntry) -> None:
        info = self.info
        if len(entry.matches) != len(info.match_fields):
            raise RuntimeApiError(
                f"table {info.name}: entry has {len(entry.matches)} match "
                f"field(s), expected {len(info.match_fields)}"
            )
        for match, field in zip(entry.matches, info.match_fields):
            if match.kind != field.match_kind:
                raise RuntimeApiError(
                    f"table {info.name}: field {field.name} is "
                    f"{field.match_kind}, entry gives {match.kind}"
                )
            limit = 1 << field.width
            if not 0 <= match.value < limit:
                raise RuntimeApiError(
                    f"table {info.name}: value {match.value} out of range "
                    f"for {field.name} (bit<{field.width}>)"
                )
            if match.kind == "lpm":
                plen = match.arg or 0
                if not 0 <= plen <= field.width:
                    raise RuntimeApiError(
                        f"table {info.name}: prefix length {match.arg} "
                        f"out of range for {field.name}"
                    )
                dont_care = (1 << (field.width - plen)) - 1
                if match.value & dont_care:
                    raise RuntimeApiError(
                        f"table {info.name}: non-canonical lpm value for "
                        f"{field.name}: bits below the /{plen} prefix must "
                        "be zero (P4Runtime canonical form)"
                    )
            if match.kind == "ternary":
                mask = match.arg or 0
                if not 0 <= mask < limit:
                    raise RuntimeApiError(
                        f"table {info.name}: mask {match.arg} out of range "
                        f"for {field.name}"
                    )
                if match.value & ~mask & (limit - 1):
                    raise RuntimeApiError(
                        f"table {info.name}: non-canonical ternary value for "
                        f"{field.name}: masked-out bits must be zero"
                    )
        if entry.action not in info.action_names:
            raise RuntimeApiError(
                f"table {info.name}: action {entry.action!r} not allowed "
                f"(allowed: {info.action_names})"
            )
        if self._mode == "scan":
            if entry.priority <= 0:
                raise RuntimeApiError(
                    f"table {info.name}: ternary tables require priority > 0"
                )
        elif entry.priority != 0:
            # Without ternary fields, entries are identified by their
            # match alone; a priority would let two entries share one
            # index slot and silently shadow each other.
            raise RuntimeApiError(
                f"table {info.name}: priority is only valid for ternary tables"
            )

    def write(self, kind: str, key: tuple, value: tuple) -> Optional[TableEntry]:
        """Apply one decoded update (see
        :func:`~repro.p4runtime.api.decode_update`); returns what
        :meth:`restore` takes to undo it: the entry it replaced or
        removed, or ``None``.  A DELETE's ``value`` is not read: its
        wire form names no action."""
        old = self._entries.get(key)
        if kind != "DELETE":
            entry = TableEntry.from_key(key, value)
            self.validate_entry(entry)
        if (old is None) != (kind == "INSERT"):
            raise write_rejection(self.info.name, kind, key, value)
        if old is not None:
            self._index_remove(key, old)
        elif len(self._entries) >= self.info.size:
            raise RuntimeApiError(
                f"table {self.info.name}: full ({self.info.size} entries)"
            )
        if kind == "DELETE":
            del self._entries[key]
        else:
            self._entries[key] = entry
            self._index_add(key, entry)
        return old

    def restore(self, key: tuple, old: Optional[TableEntry]) -> None:
        """Undo the last :meth:`write` of ``key``, which returned ``old``."""
        current = self._entries.pop(key, None)
        if current is not None:
            self._index_remove(key, current)
        if old is not None:
            self._entries[key] = old
            self._index_add(key, old)

    def _write_entry(self, kind: str, entry: TableEntry) -> None:
        self.write(kind, entry.match_key(), (entry.action, *entry.action_params))

    def insert(self, entry: TableEntry) -> None:
        self._write_entry("INSERT", entry)

    def modify(self, entry: TableEntry) -> None:
        self._write_entry("MODIFY", entry)

    def delete(self, entry: TableEntry) -> None:
        self._write_entry("DELETE", entry)

    def set_default(self, action: str, params: Sequence[int]) -> None:
        if action not in self.info.action_names:
            raise RuntimeApiError(
                f"table {self.info.name}: action {action!r} not allowed"
            )
        self.default_action = action
        self.default_params = tuple(params)

    def entries(self) -> List[TableEntry]:
        return list(self._entries.values())

    def items(self) -> List[Tuple[tuple, tuple]]:
        """The entries as decoded ``(key, (action, *params))`` pairs."""
        return [
            (key, (entry.action, *entry.action_params))
            for key, entry in self._entries.items()
        ]

    def __len__(self):
        return len(self._entries)

    # -- indexes ------------------------------------------------------------------

    def _exact_key(self, entry: TableEntry) -> tuple:
        return tuple(
            m.value for m, k in zip(entry.matches, self.kinds) if k == "exact"
        )

    def _index_add(self, key: tuple, entry: TableEntry) -> None:
        if self._mode == "exact":
            self._exact_index[self._exact_key(entry)] = entry
        elif self._mode == "lpm":
            match = entry.matches[self._lpm_pos]
            width = self.widths[self._lpm_pos]
            prefix_len = match.arg or 0
            prefix = _prefix_bits(match.value, prefix_len, width)
            by_len = self._lpm_index.setdefault(self._exact_key(entry), {})
            by_len.setdefault(prefix_len, {})[prefix] = entry
        else:
            self._scan_seq += 1
            self._scan_seqs[key] = self._scan_seq
            bisect.insort(
                self._scan_list, (-entry.priority, self._scan_seq, entry)
            )

    def _index_remove(self, key: tuple, entry: TableEntry) -> None:
        if self._mode == "exact":
            self._exact_index.pop(self._exact_key(entry), None)
        elif self._mode == "lpm":
            match = entry.matches[self._lpm_pos]
            width = self.widths[self._lpm_pos]
            prefix_len = match.arg or 0
            prefix = _prefix_bits(match.value, prefix_len, width)
            by_len = self._lpm_index.get(self._exact_key(entry), {})
            bucket = by_len.get(prefix_len)
            if bucket is not None:
                bucket.pop(prefix, None)
                if not bucket:
                    del by_len[prefix_len]
        else:
            # (-priority, seq) sorts just before its own item: seqs are
            # unique, so no entry is ever compared.
            at = bisect.bisect_left(
                self._scan_list, (-entry.priority, self._scan_seqs.pop(key))
            )
            del self._scan_list[at]

    # -- lookup --------------------------------------------------------------------

    def lookup(self, values: Sequence[int]) -> Tuple[Optional[str], Tuple[int, ...], bool]:
        """Match packet key ``values``; returns (action, params, hit)."""
        entry = self._lookup_entry(values)
        if entry is not None:
            return entry.action, entry.action_params, True
        if self.default_action is not None:
            return self.default_action, self.default_params, False
        return None, (), False

    def _lookup_entry(self, values: Sequence[int]) -> Optional[TableEntry]:
        if self._mode == "exact":
            return self._exact_index.get(tuple(values))
        if self._mode == "lpm":
            exact_part = tuple(
                v for v, k in zip(values, self.kinds) if k == "exact"
            )
            by_len = self._lpm_index.get(exact_part)
            if not by_len:
                return None
            lpm_value = values[self._lpm_pos]
            width = self.widths[self._lpm_pos]
            for prefix_len in sorted(by_len, reverse=True):
                prefix = _prefix_bits(lpm_value, prefix_len, width)
                entry = by_len[prefix_len].get(prefix)
                if entry is not None:
                    return entry
            return None
        for _, _, entry in self._scan_list:
            if all(
                m.matches(v, w)
                for m, v, w in zip(entry.matches, values, self.widths)
            ):
                return entry
        return None


def write_rejection(table: str, kind: str, key: tuple, value) -> RuntimeApiError:
    """Why ``table`` refuses a ``kind`` write of ``key`` → ``value``: an
    insert needs a key the table lacks, a modify or delete one it holds.
    A delete is named by its key alone, as it comes: it carries no
    action."""
    if kind == "DELETE":
        matches = ", ".join(
            repr(FieldMatch(*key[i:i + 3])) for i in range(1, len(key), 3)
        )
        return RuntimeApiError(
            f"table {table}: no entry to delete for key [{matches}] "
            f"prio={key[0]}"
        )
    entry = TableEntry.from_key(key, value)
    why = "duplicate entry" if kind == "INSERT" else "no entry to modify for"
    return RuntimeApiError(f"table {table}: {why} {entry!r}")


def _prefix_bits(value: int, prefix_len: int, width: int) -> int:
    if prefix_len == 0:
        return 0
    return value >> (width - prefix_len)
