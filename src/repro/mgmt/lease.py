"""Leased leadership on top of the management plane's own machinery.

Controller HA needs exactly one writer, elected and fenced.  Rather
than a bespoke consensus protocol, the lease is a **row in a reserved
table** (``_Lease``) driven through the ordinary
:meth:`~repro.mgmt.database.Database.transact` operation set — the
acquire is an atomic CAS (``mutate``+``update`` guarded by a
``where`` on the expiry), renewal is a guarded ``update``, and other
controllers watch the table with a plain monitor.  The semantics
mirror RFC 7047's ``lock``/``steal``/``unlock`` methods:

* **acquire** succeeds only when the lease is absent or expired
  (``steal=True`` ignores the expiry) and always increments the
  **fencing epoch** — a monotonic integer every acquisition bumps,
  never reset, so any two leaderships are totally ordered;
* **renew** extends the expiry only while ``(owner, epoch)`` still
  match — a deposed leader's heartbeat fails instead of resurrecting
  its lease;
* **release** zeroes the expiry (graceful handoff: the next acquire
  need not wait out the TTL) but keeps the row, because the epoch
  must survive every change of leadership.

:func:`fence_ops` turns the same ``(owner, epoch)`` pair into a
``wait`` guard a leader prepends to its management transactions:
the commit aborts atomically unless the leader still holds the lease
at its epoch — mgmt-plane write fencing with zero new machinery.

Timestamps are caller-supplied wall-clock seconds (``now``), so tests
can drive expiry deterministically with a fake clock.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

from repro.errors import TransactionError
from repro.mgmt.schema import ColumnSchema, ColumnType, DatabaseSchema, TableSchema

#: The reserved lease table every :class:`~repro.mgmt.database.Database`
#: carries (injected by :func:`ensure_lease_table`).
LEASE_TABLE = "_Lease"


def lease_table_schema() -> TableSchema:
    return TableSchema(
        LEASE_TABLE,
        [
            ColumnSchema("name", ColumnType("string")),
            ColumnSchema("owner", ColumnType("string")),
            ColumnSchema("epoch", ColumnType("integer")),
            ColumnSchema("expires", ColumnType("real")),
        ],
        indexes=[("name",)],
    )


def ensure_lease_table(schema: DatabaseSchema) -> None:
    """Add the reserved lease table to ``schema`` (idempotent).

    The table rides the schema's JSON round trip, so remote clients
    learn it from ``get_schema`` like any application table.
    """
    if LEASE_TABLE not in schema.tables:
        schema.tables[LEASE_TABLE] = lease_table_schema()


def fence_ops(name: str, owner: str, epoch: int) -> List[dict]:
    """A ``wait`` guard asserting ``owner`` still holds lease ``name``
    at fencing epoch ``epoch``.  Prepend to a leader's transact op list:
    the whole transaction aborts (nothing commits) once the leader is
    deposed — the mgmt-plane half of end-to-end write fencing."""
    return [
        {
            "op": "wait",
            "table": LEASE_TABLE,
            "where": [["name", "==", name]],
            "columns": ["owner", "epoch"],
            "until": "==",
            "rows": [{"owner": owner, "epoch": epoch}],
        }
    ]


def _select_op(name: str) -> dict:
    return {
        "op": "select",
        "table": LEASE_TABLE,
        "where": [["name", "==", name]],
    }


def _row_to_lease(row: dict) -> dict:
    return {
        "name": row["name"],
        "owner": row["owner"],
        "epoch": int(row["epoch"]),
        "expires": float(row["expires"]),
    }


def acquire(
    transact: Callable[[Sequence[dict]], list],
    name: str,
    owner: str,
    ttl: float,
    now: Optional[float] = None,
    steal: bool = False,
) -> Optional[dict]:
    """Try to take lease ``name`` for ``owner``; the lease row (with
    its freshly incremented fencing epoch) on success, ``None`` when it
    is held by a live leader (or an acquire race was lost — retry on
    the next poll)."""
    if now is None:
        now = time.time()
    cas_where = [["name", "==", name]]
    if not steal:
        cas_where = cas_where + [["expires", "<=", now]]
    try:
        results = transact(
            [
                {
                    "op": "mutate",
                    "table": LEASE_TABLE,
                    "where": cas_where,
                    "mutations": [["epoch", "+=", 1]],
                },
                {
                    "op": "update",
                    "table": LEASE_TABLE,
                    "where": cas_where,
                    "row": {"owner": owner, "expires": now + ttl},
                },
                _select_op(name),
            ]
        )
    except TransactionError:
        return None
    rows = results[2].get("rows", [])
    if results[0].get("count", 0) and results[1].get("count", 0):
        return _row_to_lease(rows[0])
    if rows:
        return None  # held by a live leader
    # No lease row yet: first acquisition races through the unique
    # index on ``name`` — exactly one inserter wins, the rest see a
    # TransactionError and retry via the CAS path next poll.
    try:
        results = transact(
            [
                {
                    "op": "insert",
                    "table": LEASE_TABLE,
                    "row": {
                        "name": name,
                        "owner": owner,
                        "epoch": 1,
                        "expires": now + ttl,
                    },
                },
                _select_op(name),
            ]
        )
    except TransactionError:
        return None
    return _row_to_lease(results[1]["rows"][0])


def renew(
    transact: Callable[[Sequence[dict]], list],
    name: str,
    owner: str,
    epoch: int,
    ttl: float,
    now: Optional[float] = None,
) -> bool:
    """Heartbeat: extend the expiry while ``(owner, epoch)`` still hold
    the lease.  False means the lease was lost — the caller must stop
    acting as leader immediately."""
    if now is None:
        now = time.time()
    try:
        results = transact(
            [
                {
                    "op": "update",
                    "table": LEASE_TABLE,
                    "where": [
                        ["name", "==", name],
                        ["owner", "==", owner],
                        ["epoch", "==", epoch],
                    ],
                    "row": {"expires": now + ttl},
                }
            ]
        )
    except TransactionError:
        return False
    return bool(results[0].get("count", 0))


def release(
    transact: Callable[[Sequence[dict]], list],
    name: str,
    owner: str,
) -> bool:
    """Graceful handoff: expire the lease immediately so a standby can
    acquire without waiting out the TTL.  The row (and its epoch)
    stays — fencing epochs must be monotonic across leaderships."""
    try:
        results = transact(
            [
                {
                    "op": "update",
                    "table": LEASE_TABLE,
                    "where": [["name", "==", name], ["owner", "==", owner]],
                    "row": {"expires": 0.0},
                }
            ]
        )
    except TransactionError:
        return False
    return bool(results[0].get("count", 0))


def peek(
    transact: Callable[[Sequence[dict]], list], name: str
) -> Optional[dict]:
    """The current lease row, without touching it."""
    results = transact([_select_op(name)])
    rows = results[0].get("rows", [])
    return _row_to_lease(rows[0]) if rows else None


#: The lease methods a management plane answers, by name: the function
#: above (called with the database's ``transact`` ahead of the params)
#: and the key that holds its result in a server's answer.
METHODS = {
    "lease_acquire": (acquire, "lease"),
    "lease_renew": (renew, "renewed"),
    "lease_release": (release, "released"),
    "lease_get": (peek, "lease"),
}
