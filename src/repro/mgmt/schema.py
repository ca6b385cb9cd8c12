"""Database schemas for the management plane.

A schema names a database and its tables; each table has typed columns.
Column types follow the OVSDB model (RFC 7047 §3.2): an atomic *key*
type, an optional atomic *value* type (which makes the column a map),
and ``min``/``max`` multiplicity:

* ``min=1, max=1`` — required scalar;
* ``min=0, max=1`` — optional scalar;
* ``max > 1`` or ``"unlimited"`` — a set (or map, with ``value``).

Schemas round-trip to the JSON format used on the wire and on disk.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

from repro.errors import SchemaError

ATOMIC_TYPES = ("integer", "real", "boolean", "string", "uuid")

UNLIMITED = "unlimited"


class ColumnType:
    """The type of one column: key [value] with multiplicity."""

    __slots__ = ("key", "value", "min", "max")

    def __init__(
        self,
        key: str,
        value: Optional[str] = None,
        min: int = 1,
        max: Union[int, str] = 1,
    ):
        if key not in ATOMIC_TYPES:
            raise SchemaError(f"unknown atomic type {key!r}")
        if value is not None and value not in ATOMIC_TYPES:
            raise SchemaError(f"unknown atomic type {value!r}")
        if min not in (0, 1):
            raise SchemaError(f"column min must be 0 or 1, got {min}")
        if max != UNLIMITED and (not isinstance(max, int) or max < 1):
            raise SchemaError(f"column max must be >= 1 or 'unlimited', got {max}")
        if max != UNLIMITED and isinstance(max, int) and min > max:
            raise SchemaError("column min exceeds max")
        if value is not None and max == 1:
            raise SchemaError("map columns need max > 1")
        self.key = key
        self.value = value
        self.min = min
        self.max = max

    @property
    def is_scalar(self) -> bool:
        return self.max == 1 and self.min == 1

    @property
    def is_optional(self) -> bool:
        return self.max == 1 and self.min == 0

    @property
    def is_set(self) -> bool:
        return self.value is None and (self.max == UNLIMITED or self.max > 1)

    @property
    def is_map(self) -> bool:
        return self.value is not None

    def default(self):
        if self.is_scalar:
            return {"integer": 0, "real": 0.0, "boolean": False, "string": ""}.get(
                self.key
            )
        if self.is_optional:
            return None
        if self.is_map:
            return {}
        return frozenset()

    def to_json(self):
        if self.is_scalar and self.value is None:
            return self.key
        out: Dict[str, object] = {"key": self.key}
        if self.value is not None:
            out["value"] = self.value
        if self.min != 1:
            out["min"] = self.min
        if self.max != 1:
            out["max"] = self.max
        return out

    @classmethod
    def from_json(cls, data) -> "ColumnType":
        if isinstance(data, str):
            return cls(data)
        if not isinstance(data, dict) or "key" not in data:
            raise SchemaError(f"bad column type {data!r}")
        return cls(
            data["key"],
            data.get("value"),
            data.get("min", 1),
            data.get("max", 1),
        )

    def __eq__(self, other):
        return (
            isinstance(other, ColumnType)
            and (self.key, self.value, self.min, self.max)
            == (other.key, other.value, other.min, other.max)
        )

    def __repr__(self):
        return f"ColumnType({self.to_json()!r})"


class ColumnSchema:
    __slots__ = ("name", "type", "mutable")

    def __init__(self, name: str, type: ColumnType, mutable: bool = True):
        if name.startswith("_"):
            raise SchemaError(f"column names may not start with '_': {name!r}")
        self.name = name
        self.type = type
        self.mutable = mutable

    def to_json(self):
        out: Dict[str, object] = {"type": self.type.to_json()}
        if not self.mutable:
            out["mutable"] = False
        return out

    @classmethod
    def from_json(cls, name: str, data) -> "ColumnSchema":
        if not isinstance(data, dict) or "type" not in data:
            raise SchemaError(f"bad column schema for {name!r}")
        return cls(name, ColumnType.from_json(data["type"]), data.get("mutable", True))


class TableSchema:
    def __init__(
        self,
        name: str,
        columns: Sequence[ColumnSchema],
        indexes: Sequence[Sequence[str]] = (),
    ):
        self.name = name
        self.columns: Dict[str, ColumnSchema] = {}
        for col in columns:
            if col.name in self.columns:
                raise SchemaError(f"table {name}: duplicate column {col.name!r}")
            self.columns[col.name] = col
        self.indexes = [tuple(ix) for ix in indexes]
        for index in self.indexes:
            for col in index:
                if col not in self.columns:
                    raise SchemaError(
                        f"table {name}: index references unknown column {col!r}"
                    )

    def column(self, name: str) -> ColumnSchema:
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name} has no column {name!r}"
            ) from None

    def to_json(self):
        out: Dict[str, object] = {
            "columns": {c.name: c.to_json() for c in self.columns.values()}
        }
        if self.indexes:
            out["indexes"] = [list(ix) for ix in self.indexes]
        return out

    @classmethod
    def from_json(cls, name: str, data) -> "TableSchema":
        if not isinstance(data, dict) or "columns" not in data:
            raise SchemaError(f"bad table schema for {name!r}")
        columns = [
            ColumnSchema.from_json(cname, cdata)
            for cname, cdata in data["columns"].items()
        ]
        return cls(name, columns, data.get("indexes", ()))


class DatabaseSchema:
    def __init__(self, name: str, tables: Sequence[TableSchema], version: str = "1.0.0"):
        self.name = name
        self.version = version
        self.tables: Dict[str, TableSchema] = {}
        for table in tables:
            if table.name in self.tables:
                raise SchemaError(f"duplicate table {table.name!r}")
            self.tables[table.name] = table

    def table(self, name: str) -> TableSchema:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"no table {name!r} in database {self.name}") from None

    def to_json(self):
        return {
            "name": self.name,
            "version": self.version,
            "tables": {t.name: t.to_json() for t in self.tables.values()},
        }

    @classmethod
    def from_json(cls, data) -> "DatabaseSchema":
        if not isinstance(data, dict) or "name" not in data or "tables" not in data:
            raise SchemaError("bad database schema")
        tables = [
            TableSchema.from_json(tname, tdata)
            for tname, tdata in data["tables"].items()
        ]
        return cls(data["name"], tables, data.get("version", "1.0.0"))


def simple_schema(name: str, tables: Dict[str, Dict[str, str]]) -> DatabaseSchema:
    """Convenience builder: ``{"Table": {"col": "string", ...}, ...}``.

    Column type strings are the atomic type names, optionally prefixed
    with ``?`` (optional), ``*`` (set), or ``map:<valuetype>:`` for maps
    (e.g. ``"map:string:string"`` is invalid — use ``"map<string,string>"``).
    """
    table_schemas = []
    for tname, cols in tables.items():
        columns = []
        for cname, spec in cols.items():
            columns.append(ColumnSchema(cname, _parse_type_spec(spec)))
        table_schemas.append(TableSchema(tname, columns))
    return DatabaseSchema(name, table_schemas)


def _parse_type_spec(spec: str) -> ColumnType:
    if spec.startswith("?"):
        return ColumnType(spec[1:], min=0, max=1)
    if spec.startswith("*"):
        return ColumnType(spec[1:], min=0, max=UNLIMITED)
    if spec.startswith("map<") and spec.endswith(">"):
        inner = spec[4:-1]
        parts = [p.strip() for p in inner.split(",")]
        if len(parts) != 2:
            raise SchemaError(f"bad map type spec {spec!r}")
        return ColumnType(parts[0], parts[1], min=0, max=UNLIMITED)
    return ColumnType(spec)
