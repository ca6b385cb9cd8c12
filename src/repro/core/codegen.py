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

import json
import operator
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.core import typebridge as TB
from repro.dlog.values import StructValue
from repro.errors import TypeCheckError
from repro.mgmt.jsonrpc import dumps_text
from repro.mgmt.schema import ColumnSchema, DatabaseSchema
from repro.p4.p4info import DigestInfo, P4Info, TableInfo
from repro.p4runtime.api import NO_ACTION

#: The kinds whose update carries an action; a DELETE's carries its key
#: alone.
_ACTION_KINDS = ("INSERT", "MODIFY")
#: The atoms of a match key besides a row's values: the match kinds and
#: an exact field's ``None``.
_KEY_ATOMS = ("exact", "lpm", "ternary", None)
#: Whether every type of an iterable of types is exactly ``int``.
_ALL_INT = {int}.issuperset


def _json_value(value):
    """``value`` as its JSON text reads back (a tuple as a list, say);
    ``TypeError`` for a value JSON has no form for."""
    return value if type(value) is int else json.loads(dumps_text(value))


class TableBinding:
    """Runtime mapping between one output relation and one P4 table.

    The converters are closures generated once for the table, so a row
    pays no dispatch on match kind or action set:

    * ``key_of(row)`` — the row's identity on the device: its key
      columns, plus the priority column of a ternary table;
    * ``wire_run(kind, rows)`` — the JSON texts of the P4Runtime
      updates writing a run (a list) of rows of one kind, comma-joined:
      each byte for byte what ``dumps`` makes of
      :func:`~repro.p4runtime.api.encode_update` of the row's decoded
      form.  That is the one wire form of an update: each exact field
      is its bare value in ``match``, an lpm or ternary field its
      one-key object, and ``priority`` is sent on a table with a
      ternary field (its priority column) and left out on any other,
      where it is always 0.  Each (kind, action) pair of an INSERT or
      MODIFY has a ``%``-format made when the binding is generated,
      holding the table's and action's names and the key layout, and
      so does the table's DELETE, which names no action.  A run whose
      rows all have a known constructor of the right arity as their
      action (a DELETE's action is not read) is the formats filled in
      with one ``%`` when one check finds every key, parameter and
      priority value of the run exactly ``int``; any other run is
      encoded row by row, field by field;
    * ``decoded_run(kind, rows)`` — yields, row by row, the ``(kind,
      table, key, value)`` that
      :func:`~repro.p4runtime.api.decode_update` reads from the row's
      text (a DELETE's value is ``("NoAction",)``): what an in-process
      device applies and a read-diff compares.  A row with a known
      constructor of the right arity and every value exactly ``int``
      takes a fast path: its key is picked by one ``itemgetter`` made
      with the binding.

    Both type-check the key columns, and the action column of an
    INSERT or MODIFY, and raise :class:`~repro.errors.TypeCheckError`
    for an ill-typed row (or ``TypeError`` for a value JSON has no
    form for), ``decoded_run`` when it reaches that row.  With the
    two, the binding is the codec of a
    :class:`~repro.p4runtime.api.WriteBatch`'s runs of rows.
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
        self.key_of, self.wire_run, self.decoded_run = self._converters()

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
            for kind in _ACTION_KINDS
            for name, param_count in actions.values()
        }
        delete_format = self._update_format("DELETE")
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
            for each row of a run the fast path of ``wire_run`` refused."""
            values = []
            for (match_kind, payload), value in zip(fields, row):
                if match_kind == "exact":
                    values.append(payload(value))
                else:
                    values.extend(payload(value))
            if kind == "DELETE":
                fmt = delete_format
            else:
                name, params = action_of(row[n_keys])
                values.extend(params)
                key = (kind, name, len(params))
                # A format is made here only for an action added to
                # ``actions_by_constructor`` after the binding was.
                fmt = formats.get(key) or self._update_format(*key)
            if priority_at is not None:
                values.append(row[priority_at])
            return fmt % tuple(map(dumps_text, values))

        # kind -> constructor -> (format, its ``(action, param count)``);
        # a constructor counts only while ``actions`` still maps it to
        # that same pair.
        by_constructor = {
            kind: {
                ctor: (formats[(kind, *resolved)], resolved)
                for ctor, resolved in actions.items()
            }
            for kind in _ACTION_KINDS
        }
        exact_only = not any(pairs)
        # An exact-only table's DELETE values are its rows' key columns.
        key_values = operator.itemgetter(slice(0, n_keys))

        def fill(kind: str, rows) -> Tuple[Optional[list], Optional[list]]:
            """The formats of a run's updates and, flattened, the values
            they take — or ``None`` formats for a run holding a row whose
            action (a DELETE's is not read) or key shape no format
            covers.  The values' types are not checked here."""
            if kind == "DELETE":
                if exact_only and priority_at is None:
                    return [delete_format] * len(rows), list(
                        chain.from_iterable(map(key_values, rows))
                    )
                values = []
                for row in rows:
                    keys = row[:n_keys] if exact_only else pair_values(row)
                    if keys is None:
                        return None, None
                    values += keys
                    if priority_at is not None:
                        values.append(row[priority_at])
                return [delete_format] * len(rows), values
            known = by_constructor.get(kind, {})
            fmts, values = [], []
            for row in rows:
                action = row[n_keys]
                if type(action) is not StructValue:
                    return None, None
                ctor = action.constructor
                fmt = known.get(ctor)
                if (
                    fmt is None
                    or actions.get(ctor) is not fmt[1]
                    or len(action.fields) != fmt[1][1]
                ):
                    return None, None
                keys = row[:n_keys] if exact_only else pair_values(row)
                if keys is None:
                    return None, None
                fmts.append(fmt[0])
                values += keys
                values += action.fields
                if priority_at is not None:
                    values.append(row[priority_at])
            return fmts, values

        def wire_run(kind: str, rows) -> str:
            fmts, values = fill(kind, rows)
            # One type check for the run: every value an int, and the
            # formats filled in are the texts the per-field path makes.
            if fmts is not None and _ALL_INT(map(type, values)):
                return ",".join(fmts) % tuple(values)
            return ",".join([encode_fields(kind, row) for row in rows])

        # A decoded key, ``(priority, kind, value, arg, ...)``, is picked
        # from a row's flattened key values, its priority and _KEY_ATOMS.
        n_flat = n_keys + sum(pairs)
        atom_at = {atom: n_flat + 1 + i for i, atom in enumerate(_KEY_ATOMS)}
        layout, at = [n_flat], 0
        for (match_kind, _), is_pair in zip(fields, pairs):
            layout += (atom_at[match_kind], at, at + 1 if is_pair else atom_at[None])
            at += 1 + is_pair
        pick_key = operator.itemgetter(*layout) if n_keys else lambda values: values[:1]

        def decode_fields(kind: str, row: tuple) -> tuple:
            """``(flattened key values + (priority,), action name,
            params)`` of a row the fast path does not cover, checked as
            ``encode_fields`` checks it, each value as its text reads
            back."""
            keys = []
            for (_, payload), value in zip(fields, row):
                match = payload(value)
                keys += match if type(match) is list else (match,)
            # A DELETE's action is not read: its text names none.
            name, params = (
                (None, ()) if kind == "DELETE" else action_of(row[n_keys])
            )
            priority = 0 if priority_at is None else row[priority_at]
            values = tuple(map(_json_value, (*keys, *params, priority)))
            return values[:n_flat] + values[-1:], name, values[n_flat:-1]

        def decoded_run(kind: str, rows):
            if kind == "DELETE":
                for row in rows:
                    keys = row[:n_keys] if exact_only else pair_values(row)
                    if keys is not None:
                        keys += (0 if priority_at is None else row[priority_at],)
                    if keys is None or not _ALL_INT(map(type, keys)):
                        keys = decode_fields(kind, row)[0]
                    yield kind, table, pick_key(keys + _KEY_ATOMS), NO_ACTION
                return
            for row in rows:
                action, keys = row[n_keys], None
                if type(action) is StructValue:
                    resolved = actions.get(action.constructor)
                    if resolved is not None and len(action.fields) == resolved[1]:
                        keys = row[:n_keys] if exact_only else pair_values(row)
                if keys is not None:
                    keys += (0 if priority_at is None else row[priority_at],)
                    name, params = resolved[0], action.fields
                if keys is None or not _ALL_INT(map(type, keys + params)):
                    keys, name, params = decode_fields(kind, row)
                yield kind, table, pick_key(keys + _KEY_ATOMS), (name, *params)

        return key_of, wire_run, decoded_run

    def _update_format(
        self, kind: str, name: Optional[str] = None, param_count: int = 0
    ) -> str:
        """The ``%``-format of one (kind, action) pair's update text:
        one ``%s`` per key value (an exact field's is its bare value,
        an lpm or ternary field's two are in their one-key object), per
        action parameter, and for the priority of a table with a
        ternary field; any other table's priority is 0 and not sent.
        A DELETE's names no action: its key is the entry."""

        def literal(value) -> str:
            return dumps_text(value).replace("%", "%%")

        match = ",".join(
            "%s"
            if field.match_kind == "exact"
            else "{%s:[%%s,%%s]}" % literal(field.match_kind)
            for _, field in self.key_columns
        )
        action = (
            ""
            if kind == "DELETE"
            else ',"action":{"name":%s,"params":[%s]}'
            % (literal(name), ",".join(["%s"] * param_count))
        )
        return '{"type":%s,"table":%s,"match":[%s]%s%s}' % (
            literal(kind),
            literal(self.info.name),
            match,
            action,
            ',"priority":%s' if self.has_priority else "",
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
