"""Incremental dataflow operators.

Every operator consumes per-port input deltas (Z-sets) and emits an
output delta.  Stateful operators maintain arrangements and implement
the standard incremental update rules:

* **join**:      ``δ(L ⋈ R) = δL ⋈ R' + L ⋈ δR``  (R' is R after δR)
* **antijoin**:  recomputed exactly per affected key from pre/post state
* **distinct**:  emits ±1 on support transitions of the running count
* **aggregate**: keeps each group's value and updates only groups whose
  key appears in the delta: ``min``/``max`` from the inserted arguments
  (refolding the distinct arguments only when the extreme's last copy
  leaves), any other aggregate by one fold after the delta

The update rules are the entire point of the system: a transaction that
touches *k* records costs time proportional to *k* (times the matching
group sizes), never to the size of the relations.

A rule's linear work — pattern matches, guards, assignments, FlatMaps,
the head — is no operator of its own.  The planner compiles each run of
it into a *step* that the node producing its input calls once per
record it produces, ``step(record, weight, out)`` (a join's step takes
both records: ``step(left, right, weight, out)``); the step adds what it
derives to the ``out`` dict that becomes the node's output Z-set,
dropping zero weights (:func:`emit` is the identity step).  Linear work
distributes over a delta, so running it inside the producer is exact.
The one stateless operator, :class:`ScanNode`, runs a step over a
relation's delta — where no stateful node produces the input.

There is one contract: ``process(deltas)`` takes any Z-set per port — a
single row or a whole relation loaded into empty state — reads it
without mutating it, and returns the output delta.  Where starting
from nothing allows a cheaper route (``DistinctNode`` with no support
counts yet), the operator takes it because of what it sees in its own
state, never because a caller said so.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.dlog.dataflow.arrangement import Arrangement
from repro.dlog.dataflow.zset import ZSet

#: ``step(record, weight, out)``: a linear stretch run on one record.
Step = Callable[[object, int, Dict[object, int]], None]


class Node:
    """Base dataflow node: ``n_ports`` inputs, one output delta.

    Nodes with ``multi_output = True`` (the recursive-SCC evaluator)
    return a ``dict`` of named deltas from :meth:`process`; their
    downstream edges select one via ``out_key``.
    """

    n_ports = 1
    multi_output = False

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__
        self.downstream: List[Tuple["Node", int, Optional[str]]] = []

    def connect_to(self, child: "Node", port: int = 0, out_key: Optional[str] = None) -> None:
        if not 0 <= port < child.n_ports:
            raise ValueError(f"{child.name} has no port {port}")
        if (out_key is not None) != self.multi_output:
            raise ValueError(
                f"{self.name}: out_key must be given exactly for multi-output nodes"
            )
        self.downstream.append((child, port, out_key))

    def process(self, deltas: List[Optional[ZSet]]) -> ZSet:
        raise NotImplementedError  # pragma: no cover

    def state_size(self) -> int:
        """Number of records held in this node's state (0 if stateless)."""
        return 0

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


def _port(deltas: List[Optional[ZSet]], i: int) -> ZSet:
    d = deltas[i] if i < len(deltas) else None
    return d if d is not None else ZSet()


def _sum_ports(deltas: List[Optional[ZSet]]) -> ZSet:
    """Sum of the input ports; a lone live port is returned as-is
    (borrowed — callers only read it, and ``Graph.run`` copies a
    borrowed delta before merging into it)."""
    live = [d for d in deltas if d]
    if len(live) == 1:
        return live[0]
    out = ZSet()
    for d in live:
        out.merge(d)
    return out


class SourceNode(Node):
    """Entry point: the engine injects a relation's input delta here."""

    def process(self, deltas):
        return _port(deltas, 0)


def emit(record, weight: int, out: Dict[object, int]) -> None:
    """The identity step: add ``weight`` to ``record`` in ``out``,
    dropping the entry when the sum is zero."""
    new = out.get(record, 0) + weight
    if new:
        out[record] = new
    else:
        del out[record]


class ScanNode(Node):
    """A linear stretch over a relation's delta: ``step(record, weight,
    out)`` once per record (stateless)."""

    def __init__(self, step: Step, name: str = ""):
        super().__init__(name)
        self.step = step

    def process(self, deltas):
        step = self.step
        out: Dict[object, int] = {}
        for record, weight in _port(deltas, 0).data.items():
            step(record, weight, out)
        return ZSet(out)


class DistinctNode(Node):
    """Set semantics over a multiset stream.

    Accepts several ports (summed) so a derived relation can union all
    of its rules here.  Maintains the total derivation count of each
    record and emits +1/-1 only when a record's support appears or
    disappears — exactly the "counting" algorithm for non-recursive
    incremental view maintenance.
    """

    def __init__(self, n_ports: int = 1, name: str = ""):
        super().__init__(name)
        self.n_ports = n_ports
        self.counts = ZSet()

    def process(self, deltas):
        combined = _sum_ports(deltas).data
        counts = self.counts.data
        if not counts:
            # No support yet: the summed delta *is* the new count table.
            counts.update(combined)
            return ZSet({r: 1 for r, w in combined.items() if w > 0})
        out: Dict[object, int] = {}
        # Inlined count maintenance: one dict walk per batched delta
        # instead of per-record weight()/add() call pairs.
        get = counts.get
        for record, weight in combined.items():
            old = get(record, 0)
            new = old + weight
            if new == 0:
                del counts[record]
            else:
                counts[record] = new
            if new > 0:
                if old <= 0:
                    out[record] = 1
            elif old > 0:
                out[record] = -1
        return ZSet(out)

    def state_size(self) -> int:
        return len(self.counts)

    def positive_records(self):
        return (r for r, w in self.counts.items() if w > 0)


class JoinNode(Node):
    """Binary equi-join with arranged inputs.

    Every pair of records with equal keys calls ``step(left, right,
    weight, out)``, which adds what the pair derives to ``out`` — the
    planner's compiled residual match and linear stretch, so a pair may
    derive nothing (a residual pattern that fails) or several records.
    """

    n_ports = 2

    def __init__(
        self,
        left_key: Callable[[object], object],
        right_key: Callable[[object], object],
        step: Callable[[object, object, int, Dict[object, int]], None],
        name: str = "",
    ):
        super().__init__(name)
        self.left_key = left_key
        self.right_key = right_key
        self.step = step
        self.left = Arrangement()
        self.right = Arrangement()

    def process(self, deltas):
        dl, dr = _port(deltas, 0), _port(deltas, 1)
        # δL ⋈ R_post  +  L_pre ⋈ δR  — update right first, left last.
        self.right.update(dr, self.right_key)
        out: Dict[object, int] = {}
        if dl and self.right.data:
            self._probe(dl, self.left_key, self.right.data, True, out)
        if dr and self.left.data:
            self._probe(dr, self.right_key, self.left.data, False, out)
        self.left.update(dl, self.left_key)
        return ZSet(out)

    def _probe(self, delta, key_fn, index, delta_is_left, out) -> None:
        """Accumulate ``delta ⋈ index`` into ``out``.  The delta is
        grouped by key first so each key's matching group is fetched
        once per batch, not once per record."""
        step = self.step
        grouped: Dict[object, List[Tuple[object, int]]] = {}
        for rec, w in delta.data.items():
            key = key_fn(rec)
            bucket = grouped.get(key)
            if bucket is None:
                grouped[key] = [(rec, w)]
            else:
                bucket.append((rec, w))
        for key, bucket in grouped.items():
            group = index.get(key)
            if not group:
                continue
            for rec, w in bucket:
                if delta_is_left:
                    for other, ow in group.items():
                        step(rec, other, w * ow, out)
                else:
                    for other, ow in group.items():
                        step(other, rec, w * ow, out)

    def state_size(self) -> int:
        return self.left.total_records() + self.right.total_records()


class AntiJoinNode(Node):
    """Left records whose key has no support on the right.

    Port 0 carries left records; port 1 carries *keys* (the planner
    projects the negated relation down to the join key first).  The
    output delta is computed exactly as the difference between the
    post- and pre-state of each affected key, which handles same-
    transaction changes to both sides; ``step(record, weight, out)``
    runs on each output record.
    """

    n_ports = 2

    def __init__(
        self, left_key: Callable[[object], object], step: Step, name: str = ""
    ):
        super().__init__(name)
        self.left_key = left_key
        self.step = step
        self.left = Arrangement()
        self.right_counts: Dict[object, int] = {}

    def _right_present(self, key) -> bool:
        return self.right_counts.get(key, 0) > 0

    def process(self, deltas):
        dl, dr = _port(deltas, 0), _port(deltas, 1)
        lk = self.left_key

        affected = set()
        for rec, _ in dl.items():
            affected.add(lk(rec))
        for key, _ in dr.items():
            affected.add(key)

        pre: Dict[object, Tuple[Dict[object, int], bool]] = {}
        for key in affected:
            pre[key] = (dict(self.left.group(key)), self._right_present(key))

        # Apply updates.
        self.left.update(dl, lk)
        counts = self.right_counts
        for key, weight in dr.items():
            new = counts.get(key, 0) + weight
            if new == 0:
                counts.pop(key, None)
            else:
                counts[key] = new

        step = self.step
        out: Dict[object, int] = {}
        for key in affected:
            pre_group, pre_present = pre[key]
            post_group = self.left.group(key)
            post_present = self._right_present(key)
            if not post_present:
                for rec, w in post_group.items():
                    step(rec, w, out)
            if not pre_present:
                for rec, w in pre_group.items():
                    step(rec, -w, out)
        return ZSet(out)

    def state_size(self) -> int:
        return self.left.total_records() + len(self.right_counts)


class AggregateNode(Node):
    """Group-by aggregation that keeps each group's value.

    ``key_fn(record)`` extracts the group key (a tuple of group-by
    variable values); ``args_fn(record)`` evaluates the aggregate's
    argument expressions.  ``groups`` holds each group's argument tuples
    with their multiplicities, and ``values`` each non-empty group's
    current value.  On each delta, only the groups whose key occurs in
    the delta change.  With a ``select`` (``min``/``max``, see
    :class:`repro.dlog.stdlib.Aggregate`) the cached value is updated
    from the arguments the delta inserts, and the group is refolded over
    its *distinct* arguments only when the cached extreme's last copy
    leaves; any other aggregate folds the group once, after the delta.
    When a group's value changes, the old row ``key + (value,)`` is
    retracted and the new one inserted, each through ``step(row, ±1,
    out)``.  A delta that drives an argument's multiplicity negative
    raises ``ValueError``.
    """

    def __init__(
        self,
        key_fn: Callable[[object], tuple],
        args_fn: Callable[[object], tuple],
        fold: Callable[[List[tuple]], object],
        step: Step,
        name: str = "",
        select: Optional[Callable[..., object]] = None,
    ):
        super().__init__(name)
        self.key_fn = key_fn
        self.args_fn = args_fn
        self.fold = fold
        self.select = select
        self.step = step
        self.groups = Arrangement()  # key -> {args_tuple -> count}
        self.values: Dict[object, object] = {}  # key -> current value

    def restore(self, groups: Arrangement) -> None:
        """Take ``groups`` (a checkpoint's arrangement) as the state and
        derive each group's value from it."""
        self.groups = groups
        self.values = {key: self._fold(group) for key, group in groups.items()}

    def _fold(self, group: Dict[object, int]) -> object:
        """The value of a non-empty group with positive multiplicities."""
        if self.select is not None:
            return self.select(args[0] for args in group)
        rows: List[tuple] = []
        for args, count in group.items():
            rows.extend([args] * count)
        return self.fold(rows)

    def process(self, deltas):
        delta = _port(deltas, 0)
        key_fn, args_fn, add = self.key_fn, self.args_fn, self.groups.add
        arrived: Dict[object, List[tuple]] = {}  # touched key -> inserted args
        left: List[Tuple[object, tuple]] = []
        for record, weight in delta.items():
            key = key_fn(record)
            args = args_fn(record)
            add(key, args, weight)
            inserted = arrived.get(key)
            if inserted is None:
                inserted = arrived[key] = []
            if weight > 0:
                inserted.append(args)
            else:
                left.append((key, args))
        group_of = self.groups.group
        for key, args in left:
            if group_of(key).get(args, 0) < 0:
                raise ValueError(
                    f"{self.name}: negative multiplicity in aggregate group"
                )
        values, select, step = self.values, self.select, self.step
        out: Dict[object, int] = {}
        for key, inserted in arrived.items():
            old = values.get(key)
            group = group_of(key)
            if not group:
                new = None
            elif select is None or old is None or (old,) not in group:
                new = self._fold(group)
            elif inserted:
                new = select(old, *[args[0] for args in inserted])
                if (new,) not in group:  # its insert was cancelled out
                    new = self._fold(group)
            else:
                continue  # the extreme stays; only other copies left
            if old == new:
                continue
            if old is not None:
                step(key + (old,), -1, out)
            if new is None:
                del values[key]
            else:
                values[key] = new
                step(key + (new,), 1, out)
        return ZSet(out)

    def state_size(self) -> int:
        return self.groups.total_records()
