"""Runtime metadata for a compiled pipeline (the P4Info analog).

P4Runtime drives a device through numeric ids; P4Info is the contract
that maps program entities (tables, actions, digests) to those ids and
describes their shapes (key fields, widths, match kinds, action
parameters).  The Nerpa codegen consumes this to generate control-plane
relations, and the P4Runtime layer uses it to validate writes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import DataPlaneError


class MatchField:
    __slots__ = ("name", "width", "match_kind")

    def __init__(self, name: str, width: int, match_kind: str):
        self.name = name
        self.width = width
        self.match_kind = match_kind  # exact | lpm | ternary

    def to_json(self):
        return {"name": self.name, "width": self.width, "match_kind": self.match_kind}

    def __repr__(self):
        return f"{self.name}:{self.match_kind}/{self.width}"


class ActionParam:
    __slots__ = ("name", "width")

    def __init__(self, name: str, width: int):
        self.name = name
        self.width = width

    def to_json(self):
        return {"name": self.name, "width": self.width}


class ActionInfo:
    __slots__ = ("id", "name", "params")

    def __init__(self, id: int, name: str, params: List[ActionParam]):
        self.id = id
        self.name = name
        self.params = params

    def to_json(self):
        return {
            "id": self.id,
            "name": self.name,
            "params": [p.to_json() for p in self.params],
        }


class TableInfo:
    __slots__ = (
        "id",
        "name",
        "match_fields",
        "action_names",
        "default_action",
        "default_params",
        "size",
    )

    def __init__(
        self,
        id: int,
        name: str,
        match_fields: List[MatchField],
        action_names: List[str],
        default_action: Optional[str],
        size: int,
        default_params: Optional[List[int]] = None,
    ):
        self.id = id
        self.name = name
        self.match_fields = match_fields
        self.action_names = action_names
        self.default_action = default_action
        self.default_params = list(default_params or [])
        self.size = size

    def to_json(self):
        return {
            "id": self.id,
            "name": self.name,
            "match_fields": [m.to_json() for m in self.match_fields],
            "actions": list(self.action_names),
            "default_action": self.default_action,
            "default_params": list(self.default_params),
            "size": self.size,
        }


class DigestInfo:
    __slots__ = ("id", "name", "fields")

    def __init__(self, id: int, name: str, fields: List[ActionParam]):
        self.id = id
        self.name = name
        self.fields = fields  # named, with widths

    def to_json(self):
        return {
            "id": self.id,
            "name": self.name,
            "fields": [f.to_json() for f in self.fields],
        }


class P4Info:
    """All runtime-relevant metadata of one pipeline."""

    def __init__(self):
        self.tables: Dict[str, TableInfo] = {}
        self.actions: Dict[str, ActionInfo] = {}
        self.digests: Dict[str, DigestInfo] = {}
        self._next_id = 1

    def _fresh_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def add_action(self, name: str, params: List[ActionParam]) -> ActionInfo:
        if name in self.actions:
            return self.actions[name]
        info = ActionInfo(self._fresh_id(), name, params)
        self.actions[name] = info
        return info

    def add_table(
        self,
        name: str,
        match_fields: List[MatchField],
        action_names: List[str],
        default_action: Optional[str],
        size: int,
        default_params: Optional[List[int]] = None,
    ) -> TableInfo:
        if name in self.tables:
            raise DataPlaneError(f"duplicate table {name!r}")
        info = TableInfo(
            self._fresh_id(),
            name,
            match_fields,
            action_names,
            default_action,
            size,
            default_params,
        )
        self.tables[name] = info
        return info

    def add_digest(self, name: str, fields: List[ActionParam]) -> DigestInfo:
        if name in self.digests:
            return self.digests[name]
        info = DigestInfo(self._fresh_id(), name, fields)
        self.digests[name] = info
        return info

    def table(self, name: str) -> TableInfo:
        try:
            return self.tables[name]
        except KeyError:
            raise DataPlaneError(f"unknown table {name!r}") from None

    def action(self, name: str) -> ActionInfo:
        try:
            return self.actions[name]
        except KeyError:
            raise DataPlaneError(f"unknown action {name!r}") from None

    def to_json(self):
        return {
            "tables": [t.to_json() for t in self.tables.values()],
            "actions": [a.to_json() for a in self.actions.values()],
            "digests": [d.to_json() for d in self.digests.values()],
        }
