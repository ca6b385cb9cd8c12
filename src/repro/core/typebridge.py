"""The shared type system across the three planes.

"To aid correctness, all three parts are type-checked together" — this
module defines the mapping that makes that possible:

===================  ==========================  =====================
management (OVSDB)   control (dlog)              data (P4)
===================  ==========================  =====================
integer              bigint
real                 float
boolean              bool
string / uuid        string
optional T           Option<T>
set of T             Vec<T> (sorted)
map K->V             Map<K,V>
\\-                   bit<N>                      bit<N> field
\\-                   (bit<N>, bigint)            lpm key (value, len)
\\-                   (bit<N>, bit<N>)            ternary key (value, mask)
===================  ==========================  =====================

plus the value converters the controller uses at runtime to move rows
between representations without hand-written glue.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.dlog.values import MapValue, StructValue
from repro.errors import TypeCheckError
from repro.mgmt.schema import ColumnType
from repro.p4.p4info import MatchField, TableInfo

_ATOM_TO_DLOG_TEXT: Dict[str, str] = {
    "integer": "bigint",
    "real": "float",
    "boolean": "bool",
    "string": "string",
    "uuid": "string",
}


def ovsdb_column_to_dlog_text(ctype: ColumnType) -> str:
    """The dlog type of an OVSDB column, as source text (for generated
    declarations)."""
    key = _ATOM_TO_DLOG_TEXT[ctype.key]
    if ctype.is_scalar:
        return key
    if ctype.is_optional:
        return f"Option<{key}>"
    if ctype.is_map:
        return f"Map<{key}, {_ATOM_TO_DLOG_TEXT[ctype.value]}>"
    return f"Vec<{key}>"


def ovsdb_value_to_dlog(ctype: ColumnType, value) -> object:
    """Convert a committed OVSDB value into a dlog runtime value."""
    if ctype.is_scalar:
        return value
    if ctype.is_optional:
        if value is None:
            return StructValue("None", ())
        return StructValue("Some", (value,))
    if ctype.is_map:
        return MapValue(value.items())
    return tuple(sorted(value, key=repr))


def match_field_to_dlog_text(field: MatchField) -> str:
    if field.match_kind == "exact":
        return f"bit<{field.width}>"
    if field.match_kind == "lpm":
        return f"(bit<{field.width}>, bigint)"
    return f"(bit<{field.width}>, bit<{field.width}>)"


def match_payload(field: MatchField) -> Callable[[object], object]:
    """The converter of one key column of ``field``'s match kind: the
    column value -> its P4Runtime match payload, the integer of an
    exact match or the ``[value, prefix_len | mask]`` of an lpm or
    ternary one.  A value of the wrong shape raises TypeCheckError."""
    name, kind = field.name, field.match_kind
    if kind == "exact":

        def payload(value):
            if not isinstance(value, int):
                raise TypeCheckError(
                    f"{name}: exact match expects an integer, got {value!r}"
                )
            return value

    else:

        def payload(value):
            if not isinstance(value, tuple) or len(value) != 2:
                raise TypeCheckError(
                    f"{name}: {kind} match expects a pair, got {value!r}"
                )
            return [value[0], value[1]]

    return payload


def action_constructor_name(table: TableInfo, action_name: str) -> str:
    """Constructor name for one action of a table's action union."""
    return f"{camel(table.name)}Action{camel(action_name)}"


def action_union_name(table: TableInfo) -> str:
    return f"{table.name}_action_t"


def relation_name_for_table(table_name: str) -> str:
    """P4 table name -> generated output relation name (CamelCase)."""
    return camel(table_name)


def relation_name_for_digest(digest_name: str) -> str:
    name = digest_name[:-2] if digest_name.endswith("_t") else digest_name
    return camel(name)


def camel(name: str) -> str:
    """snake_case -> CamelCase, preserving interior capitals
    (``no_action`` -> ``NoAction``, ``NoAction`` -> ``NoAction``)."""
    return "".join(
        part[0].upper() + part[1:] for part in name.split("_") if part
    )


def table_key_columns(table: TableInfo) -> List[Tuple[str, MatchField]]:
    """Sanitized, unique column names for a table's key fields."""
    used: Dict[str, int] = {}
    out: List[Tuple[str, MatchField]] = []
    for field in table.match_fields:
        base = field.name.split(".")[-1]
        base = "".join(c if (c.isalnum() or c == "_") else "_" for c in base)
        if not base or not (base[0].isalpha() or base[0] == "_"):
            base = f"k_{base}"
        count = used.get(base, 0)
        used[base] = count + 1
        out.append((base if count == 0 else f"{base}_{count}", field))
    return out
