"""The management-plane operation set (RFC 7047 §5.2 flavor).

``execute_operations`` runs a list of operation dicts against a staged
transaction view.  Supported operations::

    {"op": "insert",  "table": T, "row": {...}, "uuid-name": name?}
    {"op": "select",  "table": T, "where": [...], "columns": [...]?}
    {"op": "update",  "table": T, "where": [...], "row": {...}}
    {"op": "mutate",  "table": T, "where": [...],
                      "mutations": [[column, mutator, value], ...]}
    {"op": "delete",  "table": T, "where": [...]}
    {"op": "wait",    "table": T, "where": [...], "until": "==" | "!=",
                      "rows": [...]}
    {"op": "abort"}
    {"op": "comment", "comment": "..."}

``where`` is a list of ``[column, function, value]`` clauses (all must
hold): ``==  !=  <  <=  >  >=  includes  excludes``.  A later operation
may reference a row inserted earlier in the same transaction via
``["named-uuid", name]``.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import TransactionError
from repro.mgmt.schema import TableSchema


def execute_operations(db, staged, operations: Sequence[dict]) -> List[dict]:
    results: List[dict] = []
    for i, op in enumerate(operations):
        if not isinstance(op, dict) or "op" not in op:
            raise TransactionError(f"operation {i}: not an operation: {op!r}")
        kind = op["op"]
        handler = _HANDLERS.get(kind)
        if handler is None:
            raise TransactionError(f"operation {i}: unknown op {kind!r}")
        try:
            results.append(handler(db, staged, op))
        except TransactionError as exc:
            raise TransactionError(f"operation {i} ({kind}): {exc}") from None
    return results


def _table_schema(db, op) -> TableSchema:
    table = op.get("table")
    if not isinstance(table, str):
        raise TransactionError("missing table")
    return db.schema.table(table)


#: Value types a ``where`` equality reads from an index: ``==`` on
#: them agrees with hashing against any stored column value.
_INDEXED = (int, str, bool)
#: Whether a row's values hold no ``named-uuid`` reference to resolve.
_ALL_SCALAR = {int, float, str, bool, type(None)}.issuperset


def _resolve_uuid_refs(staged, value):
    """Resolve ``["named-uuid", name]`` references to real uuids."""
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and value[0] == "named-uuid"
    ):
        name = value[1]
        if name not in staged.named_uuids:
            raise TransactionError(f"unknown named-uuid {name!r}")
        return staged.named_uuids[name]
    if isinstance(value, (list, tuple)):
        return type(value)(_resolve_uuid_refs(staged, v) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(_resolve_uuid_refs(staged, v) for v in value)
    if isinstance(value, dict):
        return {
            _resolve_uuid_refs(staged, k): _resolve_uuid_refs(staged, v)
            for k, v in value.items()
        }
    return value


def _compare(test):
    def compare(actual, expected) -> bool:
        try:
            return test(actual, expected)
        except TypeError:
            raise TransactionError(
                f"cannot compare {actual!r} with {expected!r}"
            ) from None

    return compare


def _includes(actual, expected) -> bool:
    if isinstance(actual, dict):
        return all(
            k in actual and actual[k] == v for k, v in (expected or {}).items()
        )
    if isinstance(actual, frozenset):
        return expected in actual
    return actual == expected


def _excludes(actual, expected) -> bool:
    if isinstance(actual, dict):
        return not any(
            k in actual and actual[k] == v for k, v in (expected or {}).items()
        )
    if isinstance(actual, frozenset):
        return expected not in actual
    return actual != expected


_WHERE_FUNCTIONS = {
    "==": _compare(operator.eq),
    "!=": _compare(operator.ne),
    "<": _compare(operator.lt),
    "<=": _compare(operator.le),
    ">": _compare(operator.gt),
    ">=": _compare(operator.ge),
    "includes": _includes,
    "excludes": _excludes,
}


def _compile_where(tschema: TableSchema, where) -> Callable[[str, dict], bool]:
    """One operation's ``where`` clauses as a row predicate
    ``(uuid, row) -> bool``.  Shape, columns and function names are
    checked here, once, so a malformed clause fails even when the table
    holds no row to test it on."""
    if where is None:
        return lambda uuid, row: True
    if not isinstance(where, (list, tuple)):
        raise TransactionError(f"bad where clause {where!r}")
    clauses = []
    for clause in where:
        if (
            not isinstance(clause, (list, tuple))
            or len(clause) != 3
            or not isinstance(clause[0], str)
        ):
            raise TransactionError(f"bad where clause {clause!r}")
        column, func, expected = clause
        if column != "_uuid" and column not in tschema.columns:
            raise TransactionError(
                f"table {tschema.name} has no column {column!r}"
            )
        test = _WHERE_FUNCTIONS.get(func) if isinstance(func, str) else None
        if test is None:
            raise TransactionError(f"unknown where function {func!r}")
        clauses.append((column, test, expected))

    def matches(uuid: str, row: dict) -> bool:
        for column, test, expected in clauses:
            if not test(uuid if column == "_uuid" else row[column], expected):
                return False
        return True

    return matches


def _select_rows(db, staged, op) -> Dict[str, dict]:
    tschema = _table_schema(db, op)
    where = _resolve_uuid_refs(staged, op.get("where"))
    matches = _compile_where(tschema, where)
    if len(where or ()) == 1:
        column, func, value = where[0]
        if func == "==" and column != "_uuid" and type(value) in _INDEXED:
            found = staged.find(tschema.name, column, value)
            if found is not None:
                return found
    return {
        uuid: row
        for uuid, row in staged.items(tschema.name)
        if matches(uuid, row)
    }


def _op_insert(db, staged, op) -> dict:
    tschema = _table_schema(db, op)
    raw = op.get("row", {})
    if not (isinstance(raw, dict) and _ALL_SCALAR(map(type, raw.values()))):
        raw = _resolve_uuid_refs(staged, raw)
    row = db.validate_row(tschema.name, raw)
    uuid = db.new_uuid()
    staged.put(tschema.name, uuid, row)
    name = op.get("uuid-name")
    if name is not None:
        if name in staged.named_uuids:
            raise TransactionError(f"duplicate uuid-name {name!r}")
        staged.named_uuids[name] = uuid
    return {"uuid": uuid}


def _op_select(db, staged, op) -> dict:
    tschema = _table_schema(db, op)
    columns: Optional[Sequence[str]] = op.get("columns")
    if columns is not None:
        for c in columns:
            if c != "_uuid":
                tschema.column(c)
    rows = []
    for uuid, row in sorted(_select_rows(db, staged, op).items()):
        full = {"_uuid": uuid, **row}
        if columns is not None:
            full = {c: full[c] for c in columns}
        rows.append(full)
    return {"rows": rows}


def _op_update(db, staged, op) -> dict:
    tschema = _table_schema(db, op)
    raw = _resolve_uuid_refs(staged, op.get("row", {}))
    new_values = db.validate_row(tschema.name, raw, partial=True)
    for col in new_values:
        if not tschema.column(col).mutable:
            raise TransactionError(f"column {col} is immutable")
    count = 0
    for uuid, row in _select_rows(db, staged, op).items():
        merged = dict(row)
        merged.update(new_values)
        staged.put(tschema.name, uuid, merged)
        count += 1
    return {"count": count}


_NUMERIC_MUTATORS = {
    "+=": lambda a, b: a + b,
    "-=": lambda a, b: a - b,
    "*=": lambda a, b: a * b,
}


def _op_mutate(db, staged, op) -> dict:
    tschema = _table_schema(db, op)
    mutations = _resolve_uuid_refs(staged, op.get("mutations", []))
    count = 0
    for uuid, row in _select_rows(db, staged, op).items():
        merged = dict(row)
        for mutation in mutations:
            if not isinstance(mutation, (list, tuple)) or len(mutation) != 3:
                raise TransactionError(f"bad mutation {mutation!r}")
            column, mutator, value = mutation
            cschema = tschema.column(column)
            if not cschema.mutable:
                raise TransactionError(f"column {column} is immutable")
            current = merged[column]
            if mutator in _NUMERIC_MUTATORS:
                if not isinstance(current, (int, float)) or isinstance(
                    current, bool
                ):
                    raise TransactionError(
                        f"{mutator} applies to numeric columns, "
                        f"{column} is {current!r}"
                    )
                merged[column] = _NUMERIC_MUTATORS[mutator](current, value)
            elif mutator == "insert":
                if isinstance(current, dict):
                    updated = dict(current)
                    updated.update(value)
                    merged[column] = updated
                elif isinstance(current, frozenset):
                    additions = (
                        value
                        if isinstance(value, (set, frozenset, list, tuple))
                        else [value]
                    )
                    merged[column] = current | frozenset(additions)
                else:
                    raise TransactionError(
                        f"insert mutator applies to sets/maps, "
                        f"{column} is scalar"
                    )
            elif mutator == "delete":
                if isinstance(current, dict):
                    keys = (
                        value
                        if isinstance(value, (set, frozenset, list, tuple))
                        else [value]
                    )
                    merged[column] = {
                        k: v for k, v in current.items() if k not in set(keys)
                    }
                elif isinstance(current, frozenset):
                    removals = (
                        value
                        if isinstance(value, (set, frozenset, list, tuple))
                        else [value]
                    )
                    merged[column] = current - frozenset(removals)
                else:
                    raise TransactionError(
                        f"delete mutator applies to sets/maps, "
                        f"{column} is scalar"
                    )
            else:
                raise TransactionError(f"unknown mutator {mutator!r}")
            merged[column] = db.validate_row(
                tschema.name, {column: merged[column]}, partial=True
            )[column]
        staged.put(tschema.name, uuid, merged)
        count += 1
    return {"count": count}


def _op_delete(db, staged, op) -> dict:
    tschema = _table_schema(db, op)
    count = 0
    for uuid in list(_select_rows(db, staged, op)):
        staged.delete(tschema.name, uuid)
        count += 1
    return {"count": count}


def _op_wait(db, staged, op) -> dict:
    tschema = _table_schema(db, op)
    until = op.get("until")
    if until not in ("==", "!="):
        raise TransactionError(f"wait until must be '==' or '!=', got {until!r}")
    expected = [
        db.validate_row(tschema.name, _resolve_uuid_refs(staged, r), partial=True)
        for r in op.get("rows", [])
    ]
    columns = op.get("columns")
    actual = []
    for _, row in sorted(_select_rows(db, staged, op).items()):
        if columns is not None:
            actual.append({c: row[c] for c in columns})
        else:
            actual.append(dict(row))

    def contains_all():
        return all(
            any(all(row.get(c) == v for c, v in want.items()) for row in actual)
            for want in expected
        )

    satisfied = contains_all() if until == "==" else not contains_all()
    if not satisfied:
        raise TransactionError("wait condition not satisfied")
    return {}


def _op_abort(db, staged, op) -> dict:
    raise TransactionError("aborted by abort operation")


def _op_comment(db, staged, op) -> dict:
    return {}


_HANDLERS = {
    "insert": _op_insert,
    "select": _op_select,
    "update": _op_update,
    "mutate": _op_mutate,
    "delete": _op_delete,
    "wait": _op_wait,
    "abort": _op_abort,
    "comment": _op_comment,
}
