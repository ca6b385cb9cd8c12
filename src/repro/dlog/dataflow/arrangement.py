"""Arrangements: key-indexed operator state.

An arrangement is a Z-set organized as ``key -> {record -> weight}``.
Stateful operators keep their inputs arranged by join key so that a
delta on one side only touches the matching keys of the other —
the core mechanism that makes join/antijoin/aggregate incremental.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.dlog.dataflow.zset import ZSet

_EMPTY: Dict[object, int] = {}


class Arrangement:
    """``key -> {record -> weight}`` with eager zero-entry removal.

    A running record count is maintained alongside the index so
    :meth:`total_records` (hit by ``Runtime.state_size`` and the obs
    gauges on every scrape) is O(1) instead of O(all keys).
    """

    __slots__ = ("data", "records")

    def __init__(self):
        self.data: Dict[object, Dict[object, int]] = {}
        self.records: int = 0

    def add(self, key, record, weight: int) -> None:
        if weight == 0:
            return
        group = self.data.get(key)
        if group is None:
            group = {}
            self.data[key] = group
        new = group.get(record, 0) + weight
        if new == 0:
            del group[record]
            self.records -= 1
            if not group:
                del self.data[key]
        else:
            if record not in group:
                self.records += 1
            group[record] = new

    def update(self, delta: ZSet, key_fn) -> None:
        """Apply a keyed delta: each record is indexed under ``key_fn(record)``."""
        add = self.add
        for record, weight in delta.data.items():
            add(key_fn(record), record, weight)

    def group(self, key) -> Dict[object, int]:
        """The records under ``key`` (empty mapping if none). Do not mutate."""
        return self.data.get(key, _EMPTY)

    def has_key(self, key) -> bool:
        return key in self.data

    def keys(self) -> Iterator[object]:
        return iter(self.data.keys())

    def items(self) -> Iterator[Tuple[object, Dict[object, int]]]:
        return iter(self.data.items())

    def total_records(self) -> int:
        return self.records

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Arrangement({len(self.data)} keys, {self.total_records()} records)"
