"""Generation of control-plane declarations from the other two planes.

This automates the glue the paper calls out: "Nerpa's tooling generates
an input relation for the controller for each table in the OVSDB
management plane; it also generates a controller input relation for
each packet digest in the P4 program.  An output relation for the
controller is generated for each match-action table in the P4 program."

The generator emits *dlog source text* (so the result is ordinary code
the same compiler consumes, and counts toward the §4.3 LoC accounting)
plus a :class:`GeneratedBindings` structure the controller uses to move
values between planes at runtime — for each P4 table, converters
specialised to that table's match kinds and action set
(:class:`TableBinding`).

Shapes generated:

* OVSDB table ``Port`` with columns ``name, vlan`` becomes::

      input relation Port(uuid: string, name: string, vlan: bigint)

* P4 table ``in_vlan`` with key ``std.ingress_port : exact`` (bit<16>)
  and actions ``set_vlan(bit<12> vid)``, ``drop`` becomes::

      typedef in_vlan_action_t = InVlanActionSetVlan{vid: bit<12>}
                               | InVlanActionDrop
      output relation InVlan(port: bit<16>, action: in_vlan_action_t)

  (ternary tables get a trailing ``priority: bigint`` column;
  lpm/ternary key columns are (value, len/mask) pairs);

* P4 digest struct ``mac_learn_t`` becomes::

      input relation MacLearn(mac: bit<48>, port: bit<16>, vlan: bit<12>)
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Tuple

from repro.core import typebridge as TB
from repro.dlog.values import StructValue
from repro.errors import TypeCheckError
from repro.mgmt.jsonrpc import dumps_text
from repro.mgmt.schema import ColumnSchema, DatabaseSchema
from repro.p4.p4info import DigestInfo, P4Info, TableInfo
from repro.p4.tables import FieldMatch, TableEntry

_KINDS = ("INSERT", "MODIFY", "DELETE")
#: Whether every type of an iterable of types is exactly ``int``.
_ALL_INT = {int}.issuperset


class TableBinding:
    """Runtime mapping between one output relation and one P4 table.

    The converters are closures generated once for the table, so a row
    pays no dispatch on match kind or action set:

    * ``key_of(row)`` — the row's identity on the device: its key
      columns, plus the priority column of a ternary table;
    * ``wire_run(kind, rows)`` — the JSON texts of the P4Runtime
      updates writing a run of rows of one kind, comma-joined: each
      byte for byte what ``dumps`` makes of the dict
      :meth:`~repro.p4runtime.api.TableWrite.to_wire` builds for the
      same entry.  Each (kind, action) pair has a ``%``-format made
      when the binding is generated, holding the table's and action's
      names and the key layout; a row whose action is a known
      constructor of the right arity and whose key, parameter and
      priority values are all exactly ``int`` is that format filled
      in, and any other row is encoded field by field;
    * ``wire(kind, row)`` — one row's text: ``wire_run`` of that row;
    * ``entry_for(row)`` — the :class:`~repro.p4.tables.TableEntry` it
      denotes, for in-process devices and read-diffs.

    ``wire_run``, ``wire`` and ``entry_for`` type-check the key and
    action columns and raise :class:`~repro.errors.TypeCheckError` for
    an ill-typed row.
    """

    def __init__(
        self,
        relation: str,
        info: TableInfo,
        has_priority: bool,
        actions_by_constructor: Dict[str, Tuple[str, int]],
    ):
        self.relation = relation
        self.info = info
        self.has_priority = has_priority
        self.key_columns = TB.table_key_columns(info)
        # constructor name -> (action name, param count)
        self.actions_by_constructor = actions_by_constructor
        self.key_of, self.wire, self.wire_run, self.entry_for = (
            self._converters()
        )

    def _converters(self):
        table, relation = self.info.name, self.relation
        n_keys = len(self.key_columns)
        fields = [
            (field.match_kind, TB.match_payload(field))
            for _, field in self.key_columns
        ]
        actions = self.actions_by_constructor
        positions = list(range(n_keys))
        priority_at = n_keys + 1 if self.has_priority else None
        if priority_at is not None:
            positions.append(priority_at)
        key_of = (
            operator.itemgetter(*positions) if positions else lambda row: ()
        )

        def action_of(value) -> Tuple[str, tuple]:
            if not isinstance(value, StructValue):
                raise TypeCheckError(
                    f"{relation}: action column must be a constructor "
                    f"of {table}'s action union, got {value!r}"
                )
            resolved = actions.get(value.constructor)
            if resolved is None:
                raise TypeCheckError(
                    f"{relation}: {value.constructor} is not an "
                    f"action of table {table}"
                )
            name, param_count = resolved
            if len(value.fields) != param_count:
                raise TypeCheckError(
                    f"{relation}: action {name} expects "
                    f"{param_count} parameter(s)"
                )
            return name, value.fields

        formats = {
            (kind, name, param_count): self._update_format(
                kind, name, param_count
            )
            for kind in _KINDS
            for name, param_count in actions.values()
        }
        pairs = [kind != "exact" for kind, _ in fields]

        def pair_values(row: tuple) -> Optional[tuple]:
            """The key values of a table with lpm or ternary columns,
            flattened, or ``None`` when a pair column is not a pair."""
            keys = ()
            for is_pair, value in zip(pairs, row):
                if not is_pair:
                    keys += (value,)
                elif type(value) is tuple and len(value) == 2:
                    keys += value
                else:
                    return None
            return keys

        def encode_fields(kind: str, row: tuple) -> str:
            """The row's update text, each value through ``dumps_text``:
            for a row the fast path of ``wire_run`` does not cover."""
            values = []
            for (match_kind, payload), value in zip(fields, row):
                if match_kind == "exact":
                    values.append(payload(value))
                else:
                    values.extend(payload(value))
            name, params = action_of(row[n_keys])
            values.extend(params)
            if priority_at is not None:
                values.append(row[priority_at])
            key = (kind, name, len(params))
            # A format is made here only for an action added to
            # ``actions_by_constructor`` after the binding was.
            fmt = formats.get(key) or self._update_format(*key)
            return fmt % tuple(map(dumps_text, values))

        # kind -> constructor -> (format, its ``(action, param count)``);
        # a constructor counts only while ``actions`` still maps it to
        # that same pair.
        by_constructor = {
            kind: {
                ctor: (formats[(kind, *resolved)], resolved)
                for ctor, resolved in actions.items()
            }
            for kind in _KINDS
        }
        exact_only = not any(pairs)

        def wire_run(kind: str, rows) -> str:
            known = by_constructor.get(kind, {})
            texts = []
            for row in rows:
                action = row[n_keys]
                if type(action) is StructValue:
                    ctor = action.constructor
                    fmt = known.get(ctor)
                    if (
                        fmt is not None
                        and actions.get(ctor) is fmt[1]
                        and len(action.fields) == fmt[1][1]
                    ):
                        keys = row[:n_keys] if exact_only else pair_values(row)
                        if keys is not None:
                            values = keys + action.fields
                            if priority_at is not None:
                                values += (row[priority_at],)
                            # Every value an int: the format filled in
                            # is the text the per-field path makes.
                            if _ALL_INT(map(type, values)):
                                texts.append(fmt[0] % values)
                                continue
                texts.append(encode_fields(kind, row))
            return ",".join(texts)

        def wire(kind: str, row: tuple) -> str:
            return wire_run(kind, (row,))

        def entry_for(row: tuple) -> TableEntry:
            matches = [
                FieldMatch(match_kind, payload(value))
                if match_kind == "exact"
                else FieldMatch(match_kind, *payload(value))
                for (match_kind, payload), value in zip(fields, row)
            ]
            name, params = action_of(row[n_keys])
            priority = 0 if priority_at is None else row[priority_at]
            return TableEntry(matches, name, params, priority)

        return key_of, wire, wire_run, entry_for

    def _update_format(self, kind: str, name: str, param_count: int) -> str:
        """The ``%``-format of one (kind, action) pair's update text:
        one ``%s`` per key value (two for an lpm or ternary pair), per
        action parameter, and for the priority of a ternary table."""

        def literal(value) -> str:
            return dumps_text(value).replace("%", "%%")

        match = ",".join(
            "{%s:%s}"
            % (literal(field.match_kind),
               "%s" if field.match_kind == "exact" else "[%s,%s]")
            for _, field in self.key_columns
        )
        return (
            '{"type":%s,"table":%s,"match":[%s],'
            '"action":{"name":%s,"params":[%s]},"priority":%s}'
            % (
                literal(kind),
                literal(self.info.name),
                match,
                literal(name),
                ",".join(["%s"] * param_count),
                "%s" if self.has_priority else "0",
            )
        )


class GeneratedBindings:
    """Everything the controller needs to convert values at runtime."""

    def __init__(self):
        # OVSDB table name -> relation name
        self.relation_for_ovsdb: Dict[str, str] = {}
        # OVSDB table name -> its columns, in the relation's column order
        self.ovsdb_columns: Dict[str, List[ColumnSchema]] = {}
        # relation name -> TableBinding
        self.table_relations: Dict[str, TableBinding] = {}
        # digest struct name -> relation name
        self.digest_relations: Dict[str, str] = {}

    def input_row(self, table: str, uuid: str, row: dict) -> tuple:
        """A committed OVSDB row as a row of its input relation."""
        values = [uuid]
        for column in self.ovsdb_columns[table]:
            values.append(TB.ovsdb_value_to_dlog(column.type, row[column.name]))
        return tuple(values)


def generate_declarations(
    schema: Optional[DatabaseSchema], p4info: Optional[P4Info]
) -> Tuple[str, GeneratedBindings]:
    """Produce (dlog source text, bindings) for the given planes."""
    lines: List[str] = []
    bindings = GeneratedBindings()
    if schema is not None:
        lines.append(f"// Input relations generated from OVSDB schema '{schema.name}'.")
        for table in schema.tables.values():
            if table.name.startswith("_"):
                # Reserved management-plane tables (e.g. the ``_Lease``
                # leader-election table) are not application state: they
                # must not become engine inputs, or every lease
                # heartbeat would churn through the pipeline and bloat
                # delta checkpoints.
                continue
            lines.append(_ovsdb_relation(table, bindings))
        lines.append("")
    if p4info is not None:
        if p4info.digests:
            lines.append("// Input relations generated from P4 digests.")
            for digest in p4info.digests.values():
                lines.append(_digest_relation(digest, bindings))
            lines.append("")
        if p4info.tables:
            lines.append("// Output relations generated from P4 match-action tables.")
            for table in p4info.tables.values():
                lines.extend(_table_relation(table, p4info, bindings))
            lines.append("")
    return "\n".join(lines), bindings


def _ovsdb_relation(table, bindings: GeneratedBindings) -> str:
    relation = table.name
    if table.name in bindings.relation_for_ovsdb:
        raise TypeCheckError(f"duplicate generated relation {relation}")
    columns = ["uuid: string"]
    for column in table.columns.values():
        columns.append(
            f"{column.name}: {TB.ovsdb_column_to_dlog_text(column.type)}"
        )
    bindings.relation_for_ovsdb[table.name] = relation
    bindings.ovsdb_columns[table.name] = list(table.columns.values())
    return f"input relation {relation}({', '.join(columns)})"


def _digest_relation(digest: DigestInfo, bindings: GeneratedBindings) -> str:
    relation = TB.relation_name_for_digest(digest.name)
    columns = [f"{f.name}: bit<{f.width}>" for f in digest.fields]
    bindings.digest_relations[digest.name] = relation
    return f"input relation {relation}({', '.join(columns)})"


def _table_relation(
    table: TableInfo, p4info: P4Info, bindings: GeneratedBindings
) -> List[str]:
    relation = TB.relation_name_for_table(table.name)
    actions: Dict[str, Tuple[str, int]] = {}
    ctors: List[str] = []
    for action_name in table.action_names:
        ctor = TB.action_constructor_name(table, action_name)
        action_info = p4info.action(action_name)
        actions[ctor] = (action_name, len(action_info.params))
        if action_info.params:
            fields = ", ".join(
                f"{p.name}: bit<{p.width}>" for p in action_info.params
            )
            ctors.append(f"{ctor}{{{fields}}}")
        else:
            ctors.append(ctor)

    lines = [f"typedef {TB.action_union_name(table)} = {' | '.join(ctors)}"]

    binding = TableBinding(
        relation,
        table,
        has_priority=any(
            f.match_kind == "ternary" for f in table.match_fields
        ),
        actions_by_constructor=actions,
    )
    columns = [
        f"{name}: {TB.match_field_to_dlog_text(field)}"
        for name, field in binding.key_columns
    ]
    columns.append(f"action: {TB.action_union_name(table)}")
    if binding.has_priority:
        columns.append("priority: bigint")
    lines.append(f"output relation {relation}({', '.join(columns)})")
    bindings.table_relations[relation] = binding
    return lines
