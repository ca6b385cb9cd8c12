"""Partition analysis: decide how each relation distributes over shards.

The sharded engine (:mod:`repro.dlog.shard.runtime`) runs N unmodified
per-shard :class:`~repro.dlog.engine.Runtime` instances, each evaluating
the *whole program* over a subset of the input rows.  The union of the
per-shard fixpoints equals the global fixpoint only if rows that must
meet inside an operator are guaranteed to be co-located.  This module
computes a :class:`ShardPlan` that makes that guarantee by static
analysis, assigning every relation one of three *distribution statuses*:

``partitioned(c)``
    Rows are hash-distributed by column ``c`` (the **partition key**):
    every row lives on exactly ``shard_for(row[c], n)``.  For input
    relations this is enforced by the router; for derived relations it
    is *proven*: every rule deriving the relation carries the partition
    variable from a partitioned body atom into head position ``c``.

``replicated``
    Every shard holds every row (the **broadcast fallback**).  Input
    relations are replicated when no consistent partition key exists for
    them; a derived relation is replicated when all of its rules read
    only replicated relations (each shard then derives the identical
    full contents, and the facade's cross-shard reference counts
    collapse the N copies into one logical row).

``scattered``
    Derived only: each row lives on at least one shard (wherever a rule
    instance derived it), but on no statically known one, and possibly
    on several.  Scattered relations may feed further rules only in
    positions where co-location is irrelevant (see below).

A rule is **shard-safe** when every ground instance of its body is fully
contained in at least one shard, and — when the rule involves negation
or aggregation — in *exactly* the shards that matter:

* all body atoms replicated → safe anywhere (derives replicated);
* exactly one non-replicated *positive* atom → safe: each of its rows
  meets the full replicated context on its own shard;
* several non-replicated atoms (including negated ones) → safe iff all
  of them are partitioned and their partition-key columns bind the
  *same variable* in this rule (the **link variable**): equal key ⇒
  equal hash ⇒ co-located.  This is the exchange-free equi-join case —
  the router already re-partitioned the inputs by the join key;
* a negated atom must be replicated or co-partitioned with the rule's
  link variable (absence must be decidable shard-locally);
* an ``Aggregate`` groups only rows the local shard holds, so the
  partition/link variable must be among the group-by keys (each group
  is then entirely on one shard).  A partitioned atom whose key column
  is bound to a literal pins the whole rule to one shard, which is also
  safe.

Recursion needs no special machinery: an SCC whose rules all stay
shard-safe under the members' computed statuses is *key-closed* (or
chain-local) and evaluates entirely inside each shard's own DRed
evaluator; otherwise the demotion loop below replicates the inputs
feeding it and every shard computes the full (identical) fixpoint.

The solver is optimistic with monotone demotion: seed partition-key
candidates by voting (join/negation/group-by positions), then re-solve;
any rule that cannot be made shard-safe demotes the input relations
feeding its offending atoms to replicated and the analysis restarts.
Each restart strictly grows the replicated set, so it terminates — in
the worst case with everything replicated, which is always correct
(shard count 1 semantics on every shard, deduplicated by the facade).
"""

from __future__ import annotations

import zlib
from collections import Counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dlog import ast as A

PARTITIONED = "partitioned"
REPLICATED = "replicated"
SCATTERED = "scattered"

#: A distribution status: ``(kind, column)``; ``column`` is only
#: meaningful for ``partitioned``.
Status = Tuple[str, Optional[int]]

_REPL: Status = (REPLICATED, None)
_SCAT: Status = (SCATTERED, None)


def shard_for(value: object, shards: int) -> int:
    """Stable shard assignment for a partition-key value.

    Deliberately *not* Python's builtin ``hash``: string hashing is
    randomized per process, and the router's choices must survive a
    checkpoint/restore into a different process (a row's delete must
    route to the shard that holds its insert).  ``repr`` is
    deterministic for every runtime value type (ints, strings, floats,
    bools, tuples, ``StructValue``, ``MapValue``).
    """
    return zlib.crc32(repr(value).encode("utf-8")) % shards


class ShardPlan:
    """The analysis result: a status per relation plus diagnostics."""

    def __init__(
        self,
        statuses: Dict[str, Status],
        input_relations: Sequence[str],
        notes: Sequence[str] = (),
    ):
        self.statuses = statuses
        self.input_relations = list(input_relations)
        #: Human-readable demotion decisions (why a relation broadcasts).
        self.notes = list(notes)

    def status(self, relation: str) -> Status:
        return self.statuses.get(relation, _REPL)

    def is_replicated(self, relation: str) -> bool:
        return self.status(relation)[0] == REPLICATED

    def route(self, relation: str, row: tuple, shards: int) -> Optional[int]:
        """Owner shard of an input row, or ``None`` for broadcast."""
        kind, col = self.status(relation)
        if kind != PARTITIONED:
            return None
        return shard_for(row[col], shards)

    def explain(self) -> str:
        lines = []
        for rel in sorted(self.statuses):
            kind, col = self.statuses[rel]
            role = "input" if rel in self.input_relations else "derived"
            if kind == PARTITIONED:
                lines.append(f"{rel} ({role}): partitioned by column {col}")
            else:
                lines.append(f"{rel} ({role}): {kind}")
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)


def analyze(program) -> ShardPlan:
    """Compute the :class:`ShardPlan` of a compiled program."""
    checked = program.checked
    rules = checked.ast.rules
    input_relations = [
        r.name for r in checked.ast.relations if r.role == "input"
    ]
    seed_cols = _vote_partition_columns(checked, input_relations)
    forced: Set[str] = set()
    notes: List[str] = []
    # Each failed solve demotes at least one more input to replicated,
    # so len(inputs) + 1 rounds always suffice.
    for _ in range(len(input_relations) + 1):
        outcome = _solve(program, seed_cols, forced)
        if isinstance(outcome, dict):
            return ShardPlan(outcome, input_relations, notes)
        demoted, why = outcome
        fresh = [rel for rel in demoted if rel not in forced]
        if not fresh:
            # Nothing left to demote yet the program still conflicts:
            # give up and broadcast everything (always correct).
            fresh = [r for r in input_relations if r not in forced]
            if not fresh:
                break
        forced.update(fresh)
        notes.append(f"replicating {', '.join(sorted(fresh))}: {why}")
    statuses = {rel: _REPL for rel in input_relations}
    for rel in {r.head.relation for r in rules}:
        statuses.setdefault(rel, _REPL)
    return ShardPlan(statuses, input_relations, notes)


# ---------------------------------------------------------------------------
# Seeding: pick a candidate partition column per input relation.
# ---------------------------------------------------------------------------


def _atom_items(rule: A.Rule) -> List[Tuple[A.Atom, bool]]:
    """The rule's atoms as ``(atom, is_positive)`` pairs, in body order."""
    out = []
    for item in rule.body:
        if isinstance(item, A.AtomItem):
            out.append((item.atom, True))
        elif isinstance(item, A.NegAtom):
            out.append((item.atom, False))
    return out


def _var_positions(atom: A.Atom) -> Dict[str, List[int]]:
    positions: Dict[str, List[int]] = {}
    for idx, arg in enumerate(atom.args):
        if isinstance(arg, A.PVar):
            positions.setdefault(arg.name, []).append(idx)
    return positions


def _vote_partition_columns(
    checked, input_relations: Sequence[str]
) -> Dict[str, int]:
    """Choose each input's candidate key: the column most often bound to
    a variable that links atoms (join/negation) or keys a group-by."""
    votes: Counter = Counter()
    for rule in checked.ast.rules:
        atoms = _atom_items(rule)
        occurrences: Dict[str, List[Tuple[str, int]]] = {}
        for atom, _ in atoms:
            for var, positions in _var_positions(atom).items():
                for pos in positions:
                    occurrences.setdefault(var, []).append(
                        (atom.relation, pos)
                    )
        group_vars: Set[str] = set()
        for item in rule.body:
            if isinstance(item, A.AggregateItem):
                group_vars.update(item.group_by)
        for var, occs in occurrences.items():
            linking = len(occs) > 1
            if linking or var in group_vars:
                for rel, pos in occs:
                    votes[(rel, pos)] += 2 if linking else 1
    columns: Dict[str, int] = {}
    decls = {r.name: r for r in checked.ast.relations}
    for rel in input_relations:
        arity = decls[rel].arity
        best, best_votes = 0, -1
        for col in range(arity):
            count = votes.get((rel, col), 0)
            if count > best_votes:
                best, best_votes = col, count
        columns[rel] = best
    return columns


# ---------------------------------------------------------------------------
# Solving: fixpoint over derived statuses, violations demand demotions.
# ---------------------------------------------------------------------------


class _Violation(Exception):
    def __init__(self, relations: Sequence[str], why: str):
        super().__init__(why)
        self.relations = list(relations)
        self.why = why


def _solve(program, seed_cols: Dict[str, int], forced: Set[str]):
    """One analysis round.  Returns the status map on success, or a
    ``(inputs_to_demote, reason)`` pair when a rule cannot be made
    shard-safe under the current input assignment."""
    checked = program.checked
    strat = program.stratification
    rules_by_head: Dict[str, List[A.Rule]] = {}
    for rule in checked.ast.rules:
        rules_by_head.setdefault(rule.head.relation, []).append(rule)
    feeds = _base_input_map(checked, rules_by_head)

    statuses: Dict[str, Status] = {}
    for rel in checked.ast.relations:
        if rel.role == "input":
            if rel.name in forced:
                statuses[rel.name] = _REPL
            else:
                statuses[rel.name] = (PARTITIONED, seed_cols[rel.name])

    try:
        for scc_idx, scc in enumerate(strat.order):
            members = [m for m in scc if m not in statuses]
            if not members:
                continue  # inputs (or already solved)
            if not strat.recursive[scc_idx]:
                rel = members[0]
                statuses[rel] = _combine(
                    [
                        _contribution(rule, statuses)
                        for rule in rules_by_head.get(rel, ())
                    ]
                )
                continue
            # Recursive SCC: start each member from its non-recursive
            # (base) rules — a member with none is empty until the
            # recursion feeds it, and replicated-of-nothing is sound as
            # a starting point — then iterate to a fixpoint.
            scc_set = set(scc)
            for member in members:
                base = [
                    _contribution(rule, statuses)
                    for rule in rules_by_head.get(member, ())
                    if not _mentions(rule, scc_set)
                ]
                statuses[member] = _combine(base) if base else _REPL
            for _ in range(8 * len(members) + 8):
                changed = False
                for member in members:
                    combined = _combine(
                        [
                            _contribution(rule, statuses)
                            for rule in rules_by_head.get(member, ())
                        ]
                    )
                    if combined != statuses[member]:
                        statuses[member] = combined
                        changed = True
                if not changed:
                    break
            else:
                raise _Violation(
                    list(scc),
                    f"recursive component {sorted(scc)} did not converge",
                )
    except _Violation as exc:
        demote: Set[str] = set()
        for rel in exc.relations:
            demote.update(feeds.get(rel, {rel} if rel in feeds else set()))
            if checked.relations.get(rel) is not None and rel in feeds:
                continue
            if rel in seed_cols:  # an input itself
                demote.add(rel)
        demote = {r for r in demote if r in seed_cols}
        return demote, exc.why
    return statuses


def _mentions(rule: A.Rule, relations: Set[str]) -> bool:
    return any(
        atom.relation in relations for atom, _ in _atom_items(rule)
    )


def _base_input_map(checked, rules_by_head) -> Dict[str, Set[str]]:
    """``relation -> input relations transitively feeding it``."""
    cache: Dict[str, Set[str]] = {}
    roles = {r.name: r.role for r in checked.ast.relations}

    def visit(rel: str, seen: Set[str]) -> Set[str]:
        if rel in cache:
            return cache[rel]
        if roles.get(rel) == "input":
            cache[rel] = {rel}
            return cache[rel]
        if rel in seen:
            return set()  # recursive back-edge; the root fills it in
        seen.add(rel)
        out: Set[str] = set()
        for rule in rules_by_head.get(rel, ()):
            for atom, _ in _atom_items(rule):
                out |= visit(atom.relation, seen)
        seen.discard(rel)
        cache[rel] = out
        return out

    for rel in roles:
        visit(rel, set())
    return cache


def _contribution(rule: A.Rule, statuses: Dict[str, Status]) -> Status:
    """Distribution status of the rows this one rule derives, or raise
    :class:`_Violation` when the rule is not shard-safe."""
    atoms = _atom_items(rule)
    non_repl = [
        (atom, positive)
        for atom, positive in atoms
        if statuses.get(atom.relation, _REPL)[0] != REPLICATED
    ]
    aggregates = [
        item for item in rule.body if isinstance(item, A.AggregateItem)
    ]

    if not non_repl:
        return _REPL

    link_var: Optional[str] = None
    pinned = False
    if len(non_repl) == 1:
        atom, positive = non_repl[0]
        kind, col = statuses.get(atom.relation, _REPL)
        if not positive:
            # ``not R`` over a partitioned/scattered R: absence on the
            # local shard proves nothing about the other shards.
            raise _Violation(
                [atom.relation],
                f"rule {rule.name}: negated {atom.relation} must be "
                "replicated (or co-partitioned with a positive atom)",
            )
        if kind == PARTITIONED:
            arg = atom.args[col]
            if isinstance(arg, A.PVar):
                link_var = arg.name
            elif isinstance(arg, A.PLit):
                pinned = True  # every matching row is on one shard
    else:
        names: Set[str] = set()
        for atom, _positive in non_repl:
            kind, col = statuses.get(atom.relation, _REPL)
            arg = atom.args[col] if kind == PARTITIONED else None
            if kind != PARTITIONED or not isinstance(arg, A.PVar):
                raise _Violation(
                    [a.relation for a, _ in non_repl],
                    f"rule {rule.name}: atoms "
                    f"{sorted({a.relation for a, _ in non_repl})} join "
                    "across shard boundaries without a shared key",
                )
            names.add(arg.name)
        if len(names) != 1:
            raise _Violation(
                [a.relation for a, _ in non_repl],
                f"rule {rule.name}: partition keys bind different "
                f"variables {sorted(names)} — rows are not co-located",
            )
        link_var = names.pop()

    if aggregates and not pinned:
        if link_var is None or not all(
            link_var in item.group_by for item in aggregates
        ):
            raise _Violation(
                [a.relation for a, _ in non_repl],
                f"rule {rule.name}: aggregate groups span shards "
                "(partition key is not a group-by key)",
            )

    if link_var is not None:
        for pos, arg in enumerate(rule.head.args):
            if isinstance(arg, A.PVar) and arg.name == link_var:
                return (PARTITIONED, pos)
    return _SCAT


def _combine(contributions: Sequence[Status]) -> Status:
    """Merge per-rule contributions into one relation status.

    Mixed contributions (one rule derives partitioned rows, another
    replicated or differently-partitioned ones) leave rows in places no
    single description covers — the relation degrades to scattered,
    whose downstream uses are restricted accordingly.
    """
    if not contributions:
        return _REPL
    first = contributions[0]
    if all(c == first for c in contributions):
        return first
    return _SCAT
