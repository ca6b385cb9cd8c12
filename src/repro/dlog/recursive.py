"""Incremental evaluation of recursive rule sets (rank-checked deletion).

A recursive SCC — e.g. the paper's network-labeling program::

    Label(n1, l) :- GivenLabel(n1, l).
    Label(n2, l) :- Label(n1, l), Edge(n1, n2).

cannot be maintained by the counting/delta operators alone: a fact can
support itself through a cycle.  Classical delete–rederive (DRed)
deletes everything derivable from a lost fact and then re-derives most
of it.  Here every member fact carries a **rank** instead (external
rows rank 0), with one invariant: *every member fact has a derivation
whose member rows all rank strictly below it*.  Such a derivation is
well-founded, so it cannot run through the fact itself.  A transaction
runs:

1. **Suspect**: a suspect is a head of a derivation that uses a lost
   fact — a deleted external row, an inserted row of a negated external
   relation, or a member deleted in phase 2 — found with the seed
   variants while the lost fact is still in the state.  Only heads
   ranked above the lost fact are suspects; a lower one's ranked
   derivation cannot use it.
2. **Check in rank order**: a suspect survives, keeping its rank, if
   top-down head binding finds a derivation whose member rows all rank
   below it (a computed column such as ``n + 1`` is bound to the row's
   value and checked as a guard).  Every lower-ranked fact is settled
   by then.  Otherwise it is deleted, and its dependents become
   suspects.
3. **Rederive**: a deleted fact whose check skipped a row only because
   of its rank (a cycle or a longer path) gets an unrestricted top-down
   check; forward propagation from each rederived fact restores the
   deleted facts it supports.  Any other deleted fact has no
   derivation left.
4. **Insert**: semi-naive fixpoint seeded from the inserted facts.

A fact derived in phase 3 or 4 ranks 1 + the highest member rank of
the derivation that produced it.  Ranks need not be minimal; only the
invariant matters.

Each rule is generated once per evaluation order (one per seed body
item, one top-down) as one Python function (:mod:`repro.dlog.interp`
generates its expressions and patterns, :mod:`repro.dlog.plan` its
guards, assignments and FlatMaps).  The binding order is static, so
each pattern variable becomes a bind or a compare, each join a ``for``
over a probe of the :class:`IndexStore` resolved then, each negation an
``if not`` or a ``for``/``else`` over one, and a top-down variant
returns at its first derivation.

The SCC is wrapped in a :class:`SccNode` so it composes with the
delta-dataflow graph: external relations (lower strata) feed its input
ports, and each member relation's output delta flows onward.

Non-recursive rules whose head happens to live in an SCC (the base case
``Label(n,l) :- GivenLabel(n,l)``) are *not* evaluated here: the engine
plans them as ordinary dataflow and routes their output into the SCC as
a synthetic base relation, so features like aggregation remain usable
in base rules.
"""

from __future__ import annotations

import heapq
import math
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.dlog import ast as A
from repro.dlog import types as T
from repro.dlog.dataflow.operators import Node
from repro.dlog.dataflow.zset import ZSet
from repro.dlog.interp import Code, Evaluator, Slots, condition, slot, tuple_text
from repro.dlog.plan import (
    _bind_row,
    _pattern_free_vars,
    _simple_pvar_positions,
    classify_args,
    expr_vars,
    open_body_item,
    open_row_match,
    rule_code,
    unpack,
)
from repro.dlog.typecheck import CheckedProgram
from repro.errors import StratificationError


#: Inverse of ``v op literal``, for solving a computed head column.
_INVERSE = {"+": "-", "-": "+"}


class IndexStore:
    """Rows per relation, each mapped to its rank, with incrementally
    maintained hash indexes on position subsets.

    The row map is the relation: ``rows[rel][row]`` is the row's rank
    (0 for external rows), so a rank costs no second hash table.  A key
    on every column is a membership test on the row map, never an index
    (it would be a second copy of the relation).  Generated variants
    resolve their probe once, at compile time (:meth:`probe`), and hold
    the row map or index dict it reads; :meth:`add`/:meth:`remove` key
    each registered index with an ``itemgetter``, and :meth:`restore` refills
    both in place."""

    def __init__(self):
        self.rows: Dict[str, Dict[tuple, int]] = {}
        self.arity: Dict[str, int] = {}
        # relation -> positions -> (key getter, key -> rows)
        self.indexes: Dict[
            str, Dict[Tuple[int, ...], Tuple[Callable, Dict[tuple, Set[tuple]]]]
        ] = {}

    def ensure(self, rel: str, arity: int) -> None:
        self.rows.setdefault(rel, {})
        self.indexes.setdefault(rel, {})
        self.arity[rel] = arity

    def probe(self, rel: str, positions: Tuple[int, ...]) -> Callable:
        """``probe(key, default)`` for an :meth:`ensure`-d relation,
        with ``dict.get``'s signature: the rows whose ``positions`` (a
        proper subset of the columns; a full key is a membership test
        on the row map) hold ``key``, or ``default`` if there are none.
        No key probes the row map itself, and any other key the ``get``
        of an index registered here (and filled from the current rows)
        on first use.  The key is the tuple of the positions' values,
        except for an index on one position: what
        ``itemgetter(*positions)`` returns, the value itself."""
        rows = self.rows[rel]
        if not positions:
            return lambda key, default: rows
        by_positions = self.indexes[rel]
        if positions not in by_positions:
            key_of = itemgetter(*positions)
            by_positions[positions] = (key_of, _indexed(key_of, rows, {}))
        return by_positions[positions][1].get

    def restore(self, rows: Dict[str, Dict[tuple, int]]) -> None:
        """Replace every relation's rows with ``rows`` (relation -> row
        -> rank; a checkpoint of the same program, so the same
        relations).  Each row map and registered index is refilled in
        place: compiled steps hold them."""
        for rel, ranks in self.rows.items():
            ranks.clear()
            ranks.update(rows.get(rel, ()))
            for key_of, index in self.indexes[rel].values():
                index.clear()
                _indexed(key_of, ranks, index)

    def add(self, rel: str, row: tuple, rank: int = 0) -> bool:
        rows = self.rows[rel]
        if row in rows:
            return False
        rows[row] = rank
        for key_of, index in self.indexes[rel].values():
            key = key_of(row)
            bucket = index.get(key)
            if bucket is None:
                index[key] = {row}
            else:
                bucket.add(row)
        return True

    def remove(self, rel: str, row: tuple) -> bool:
        rows = self.rows[rel]
        if row not in rows:
            return False
        del rows[row]
        for key_of, index in self.indexes[rel].values():
            key = key_of(row)
            bucket = index[key]
            bucket.discard(row)
            if not bucket:
                del index[key]
        return True

    def total_rows(self) -> int:
        return sum(len(rows) for rows in self.rows.values())

    def total_index_entries(self) -> int:
        return sum(
            len(bucket)
            for by_positions in self.indexes.values()
            for _, index in by_positions.values()
            for bucket in index.values()
        )


def _indexed(key_of: Callable, rows: Iterable[tuple], index: Dict[tuple, Set[tuple]]):
    """``index``, empty on entry, with ``rows`` added under ``key_of``."""
    for row in rows:
        index.setdefault(key_of(row), set()).add(row)
    return index


# -- compiled rules --------------------------------------------------------------


class _Check:
    """One ranked top-down check: member rows ranked at or above
    ``ceiling`` are skipped, and ``capped`` records that one was."""

    __slots__ = ("ceiling", "capped")

    def __init__(self, ceiling: float = math.inf):
        self.ceiling = ceiling
        self.capped = False


class _CompiledRule:
    """One rule generated once per evaluation order, each a function in
    which ``rank`` is the highest member rank a derivation uses so far.
    ``variants[v]`` for seed ``v``:

    * an integer — the body index of the seed atom, whose rows come from
      a delta: ``variants[i](rows, heads)`` matches each row against
      that atom first, runs the rest of the body, and maps each head it
      derives to the lowest rank a derivation gives it;
    * ``"head"`` — top-down: ``variants["head"](row, check)`` returns
      the rank of a derivation of the head ``row`` within the
      :class:`_Check`'s ceiling, or ``None``;
    * ``None`` — no seed, ``variants[None](heads)`` (only the recompute
      ablation, which compiles nothing else).
    """

    def __init__(self, rule: A.Rule, head_exprs: List[A.Expr]):
        self.rule = rule
        self.head_rel = rule.head.relation
        self.head_exprs = head_exprs
        self.variants: Dict[object, Callable] = {}
        # Top-down head binding: a variable column binds its variable; a
        # computed column binds a fresh name (``$i`` cannot clash with a
        # program variable) that the "head" variant checks with a guard.
        self.head_consts: List[Tuple[int, object]] = []
        self.head_binds: List[Tuple[int, str]] = []
        for i, e in enumerate(head_exprs):
            if isinstance(e, A.Lit):
                self.head_consts.append((i, e.value))
            elif isinstance(e, A.Var):
                self.head_binds.append((i, e.name))
            else:
                self.head_binds.append((i, f"${i}"))


class SccEvaluator:
    """Incremental evaluator for one recursive SCC.

    Mode ``"dred"`` (the name predates the algorithm) is rank-checked
    deletion; ``"recompute"`` is the full-fixpoint ablation."""

    def __init__(
        self,
        members: Sequence[str],
        rules: Sequence[A.Rule],
        checked: CheckedProgram,
        evaluator: Optional[Evaluator] = None,
        mode: str = "dred",
    ):
        if mode not in ("dred", "recompute"):
            raise ValueError(f"unknown recursive mode {mode!r}")
        self.mode = mode
        self.members = list(members)
        self.member_set = set(members)
        self.checked = checked
        self.evaluator = evaluator or Evaluator(checked)
        self.state = IndexStore()

        self.rules: List[_CompiledRule] = []
        self.rules_by_head: Dict[str, List[_CompiledRule]] = {m: [] for m in members}
        # external relation -> [(compiled_rule, body_index, polarity)]
        self.ext_watch: Dict[str, List[Tuple[_CompiledRule, int, str]]] = {}
        # member relation -> [(compiled_rule, body_index)]
        self.member_watch: Dict[str, List[Tuple[_CompiledRule, int]]] = {
            m: [] for m in members
        }
        self.externals: List[str] = []
        for rule in rules:
            self._compile_rule(rule)
        self.externals = sorted(self.ext_watch.keys())

    # -- compilation -------------------------------------------------------------

    def _compile_rule(self, rule: A.Rule) -> None:
        compiled = _CompiledRule(rule, self.checked.head_exprs[id(rule)])
        self.state.ensure(compiled.head_rel, len(compiled.head_exprs))
        for idx, item in enumerate(rule.body):
            if isinstance(item, A.AggregateItem):
                raise StratificationError(
                    f"rule {rule.name}: aggregation inside recursive SCC "
                    f"({', '.join(self.members)}) is not stratifiable"
                )
            if isinstance(item, (A.AtomItem, A.NegAtom)):
                self.state.ensure(item.atom.relation, len(item.atom.args))
            if isinstance(item, A.AtomItem):
                rel = item.atom.relation
                if rel in self.member_set:
                    self.member_watch[rel].append((compiled, idx))
                else:
                    self.ext_watch.setdefault(rel, []).append(
                        (compiled, idx, "positive")
                    )
            elif isinstance(item, A.NegAtom):
                rel = item.atom.relation
                if rel in self.member_set:
                    raise StratificationError(
                        f"rule {rule.name}: negation of {rel} inside its own "
                        "recursive SCC"
                    )
                self.ext_watch.setdefault(rel, []).append(
                    (compiled, idx, "negative")
                )
        # Every relation the rule reads has its row map now, so the
        # generated variants can hold them.
        if self.mode == "recompute":
            compiled.variants[None] = self._compile_full(compiled)
        else:
            for idx, item in enumerate(rule.body):
                if isinstance(item, (A.AtomItem, A.NegAtom)):
                    compiled.variants[idx] = self._compile_seed(compiled, idx)
            compiled.variants["head"] = self._compile_head(compiled)
        self.rules.append(compiled)
        self.rules_by_head[rule.head.relation].append(compiled)

    def _compile_seed(self, compiled: _CompiledRule, idx: int) -> Callable:
        item = compiled.rule.body[idx]
        atom = item.atom
        slots = Slots()
        code = rule_code(compiled.rule, f"seed {idx}")
        code.open("for row in rows:", loop=True)
        if _simple_pvar_positions(atom.args) is None:
            open_row_match(
                self.evaluator, code, atom.args, range(len(atom.args)), slots, "row"
            )
        else:
            _bind_row(slots, atom.args, ())
            unpack(code, 0, len(slots), "row")
        rank = "0"
        if atom.relation in self.member_set:
            rank = "rank"
            code.line(f"rank = {code.const(self.state.rows[atom.relation])}[row]")
        # A negated atom's variables are bound by other atoms; matching
        # the seed row pre-binds them, but the negation itself must
        # still be (re-)checked against the current state, so it stays
        # in the body.
        skip = idx if isinstance(item, A.AtomItem) else None
        rank = self._compile_body(compiled, skip, slots, code, rank)
        self._add_head(compiled, slots, code, rank)
        return code.function("seed", ["rows", "heads"])

    def _compile_full(self, compiled: _CompiledRule) -> Callable:
        slots = Slots()
        code = rule_code(compiled.rule, "recompute")
        rank = self._compile_body(compiled, None, slots, code, "0")
        self._add_head(compiled, slots, code, rank)
        return code.function("recompute", ["heads"])

    def _add_head(self, compiled: _CompiledRule, slots: Slots, code: Code, rank: str):
        """End a seeded variant: record the head under the lowest rank
        a derivation gives it."""
        head, new, best = code.temp(), code.temp(), code.temp()
        code.line(f"{head} = {self.evaluator.tuple_expr(code, compiled.head_exprs, slots)}")
        code.line(f"{new} = {rank} + 1")
        code.line(f"{best} = heads.get({head})")
        code.open(f"if {best} is None or {new} < {best}:")
        code.line(f"heads[{head}] = {new}")

    def _compile_head(self, compiled: _CompiledRule) -> Callable:
        """The top-down order: every head column is bound up front.

        A repeated head variable is checked on the row before the body
        runs.  A computed column ``e`` bound to ``$i`` becomes the guard
        ``e == $i``, scheduled as soon as the body binds ``e``'s
        variables.  A bigint ``v ± literal`` column whose ``v`` is bound
        nowhere else is instead solved for ``v`` before the body, so that
        the body's joins can be keyed on ``v``; its guard would always
        hold.  Only bigint: the inverse is computed without wrapping,
        which is exact only where the arithmetic cannot wrap.  Member
        rows are checked against the :class:`_Check`'s ceiling.
        """
        slots = Slots()
        code = rule_code(compiled.rule, "head")
        for pos, const in compiled.head_consts:
            code.open(f"if row[{pos}] != {code.const(const)}:")
            code.line("return None")
            code.close()
        first: Dict[str, int] = {}
        for pos, name in compiled.head_binds:
            if name in first:
                # A repeated head variable: unequal values derive nothing.
                code.open(f"if row[{pos}] != row[{first[name]}]:")
                code.line("return None")
                code.close()
            else:
                first[name] = pos
                slots.bind(name)
        if list(first.values()) == list(range(len(compiled.head_exprs))):
            unpack(code, 0, len(first), "row")
        else:
            for i, pos in enumerate(first.values()):
                code.line(f"{slot(i)} = row[{pos}]")
        code.line("ceiling = check.ceiling")
        guards: List[A.Guard] = []
        for pos, name in compiled.head_binds:
            expr = compiled.head_exprs[pos]
            if isinstance(expr, A.Var):
                continue
            value = A.Var(name)
            if (
                isinstance(expr, A.BinOp)
                and expr.op in _INVERSE
                and isinstance(self.checked.type_of(expr), T.TBigInt)
            ):
                var, lit = expr.left, expr.right
                if expr.op == "+" and isinstance(var, A.Lit):
                    var, lit = lit, var
                if isinstance(var, A.Var) and isinstance(lit, A.Lit) and var.name not in slots:
                    inverse = A.BinOp(_INVERSE[expr.op], value, lit)
                    open_body_item(
                        self.evaluator, code, A.Assignment(A.PVar(var.name), inverse), slots
                    )
                    continue  # exact on bigints: ``e == $i`` would always hold
            guards.append(A.Guard(A.BinOp("==", expr, value)))
        rank = self._compile_body(compiled, None, slots, code, "0", guards, True)
        code.line(f"return {rank} + 1")
        return code.function("head", ["row", "check"])

    def _compile_body(
        self,
        compiled: _CompiledRule,
        skip_idx: Optional[int],
        slots: Slots,
        code: Code,
        rank: str,
        extra: Sequence[A.Guard] = (),
        ranked: bool = False,
    ) -> str:
        """Generate one evaluation order of the body (all but item
        ``skip_idx``) into ``code``, greedily most-bound-first; returns
        the local (or ``"0"``) holding the highest member rank the
        derivation uses, ``rank`` being the highest one so far.

        Body items are conjunctive, so reordering is semantics-
        preserving; choosing the next atom by how many of its argument
        positions are already determined turns e.g. top-down
        rederivation (head variables pre-bound) into index probes
        instead of relation scans.  Guards (including the ``extra``
        ones), assignments, FlatMaps, and negations are emitted as soon
        as their variables are available, preserving their relative
        order.  The binding order is static, so each pattern variable
        is generated either to bind its slot or to compare with it.
        """
        rule = compiled.rule
        remaining: List[Tuple[int, object]] = [
            (idx, item)
            for idx, item in enumerate(rule.body)
            if idx != skip_idx
        ]
        remaining.extend((None, guard) for guard in extra)
        while remaining:
            if self._open_ready_non_atom(rule, remaining, slots, code):
                continue
            atom_choices = [
                (i, idx, item.atom)
                for i, (idx, item) in enumerate(remaining)
                if isinstance(item, A.AtomItem)
            ]
            if not atom_choices:
                # Only possible for ill-formed bodies; the typechecker
                # guarantees variables are eventually bound.
                _, item = remaining[0]
                raise StratificationError(
                    f"rule {rule.name}: cannot schedule {item!r}"
                )
            # Score: most keyable positions first; on ties prefer
            # external (input) relations over SCC members — the member
            # is the derived closure and is usually the largest
            # relation in the stratum.
            bound = slots.bound()
            best = max(
                atom_choices,
                key=lambda c: (
                    len(classify_args(c[2].args, bound)[0]),
                    c[2].relation not in self.member_set,
                    -c[0],
                ),
            )
            i, _, atom = best
            rank = self._join(atom, slots, code, rank, ranked)
            del remaining[i]
        return rank

    def _open_ready_non_atom(self, rule, remaining, slots, code) -> bool:
        """Generate the first non-atom item whose variables are bound."""
        bound = slots.bound()
        for i, (_, item) in enumerate(remaining):
            if isinstance(item, (A.Guard, A.Assignment, A.FlatMapItem)):
                if expr_vars(item.expr) <= bound:
                    open_body_item(self.evaluator, code, item, slots)
                    del remaining[i]
                    return True
            elif isinstance(item, A.NegAtom):
                deps = set()
                for arg in item.atom.args:
                    deps.update(_pattern_free_vars(arg))
                if deps <= bound:
                    self._negation(rule, item.atom, slots, code)
                    del remaining[i]
                    return True
        return False

    def _join(self, atom: A.Atom, slots: Slots, code: Code, rank: str, ranked: bool) -> str:
        """A join: a ``for`` over the probe of ``atom``'s relation on
        its bound positions, binding the rest (key positions are not
        re-matched).  A member row's rank raises the derivation's rank
        (the local returned); when ``ranked`` (top-down checks), member
        rows at or above the check's ceiling are skipped and recorded
        as capped."""
        keys, residual = classify_args(atom.args, slots.bound())
        rel = atom.relation
        rows = code.const(self.state.rows[rel])
        probe, key = self._probe(rel, keys, slots, code)
        row = code.temp()
        if probe is None:
            code.line(f"{row} = {key}")
            code.require(f"{row} in {rows}")
        else:
            code.open(f"for {row} in {probe}({key}, ()):", loop=True)
        if rel in self.member_set:
            row_rank = code.temp()
            code.line(f"{row_rank} = {rows}[{row}]")
            if ranked:
                code.open(f"if {row_rank} >= ceiling:")
                code.line("check.capped = True")
                code.line(code.fail())
                code.close()
            if rank == "0":
                rank = row_rank
            else:
                higher = code.temp()
                code.line(f"{higher} = {rank} if {rank} > {row_rank} else {row_rank}")
                rank = higher
        open_row_match(self.evaluator, code, atom.args, residual, slots, row)
        return rank

    def _probe(self, rel: str, keys, slots: Slots, code: Code):
        """The probe of ``rel`` on the ``keys`` positions, resolved
        now, and the key it takes, as texts of ``code``; no probe for a
        key on every column, which is the row itself (a membership test
        on the row map)."""
        positions = tuple(pos for pos, _ in keys)
        values = [self.evaluator.expr(code, e, slots) for _, e in keys]
        if len(positions) == self.state.arity[rel]:
            # Planned positions are ascending, so the key is the row.
            return None, tuple_text(values)
        probe = code.const(self.state.probe(rel, positions))
        if len(positions) == 1:
            return probe, values[0]
        return probe, tuple_text(values)

    def _negation(self, rule: A.Rule, atom: A.Atom, slots: Slots, code: Code) -> None:
        """A negation: the rest of the body runs only if no row of
        ``atom``'s relation matches its bound positions and its closed
        residual patterns."""
        keys, residual = classify_args(atom.args, slots.bound())
        for pos in residual:
            if _pattern_free_vars(atom.args[pos]):
                raise StratificationError(
                    f"rule {rule.name}: negated atom "
                    f"{atom.relation} mixes bound variables and "
                    "wildcards in one argument; rewrite as "
                    "separate conditions"
                )
        probe, key = self._probe(atom.relation, keys, slots, code)
        if probe is None:
            code.require(f"{key} not in {code.const(self.state.rows[atom.relation])}")
            return
        if not residual:
            code.require(f"not {probe}({key}, ())")
            return
        row = code.temp()
        parts = []
        for pos in residual:
            parts += self.evaluator.pattern(code, atom.args[pos], slots, f"{row}[{pos}]")
        code.open(f"for {row} in {probe}({key}, ()):", loop=True)
        code.open(f"if {condition(parts)}:")
        code.line("break")  # a matching row blocks the derivation
        code.close()
        code.close()
        code.open("else:")

    # -- transaction processing -------------------------------------------------------

    def apply(self, ext_deltas: Dict[str, ZSet]) -> Dict[str, ZSet]:
        """Apply external deltas; return per-member output deltas."""
        ins: Dict[str, List[tuple]] = {}
        dels: Dict[str, List[tuple]] = {}
        for rel, delta in ext_deltas.items():
            for row, weight in delta.items():
                if weight > 0:
                    ins.setdefault(rel, []).append(row)
                elif weight < 0:
                    dels.setdefault(rel, []).append(row)

        if self.mode == "recompute":
            return self._apply_recompute(ins, dels)

        out: Dict[str, ZSet] = {m: ZSet() for m in self.members}

        # Phase 1: suspects of the lost external facts, found over the
        # pre-transaction state; then the external changes land.
        suspects: Dict[int, Set[Tuple[str, tuple]]] = {}
        order: List[int] = []  # heap of the ranks in ``suspects``
        for compiled, idx, rows in self._ext_seeds(dels, ins):
            self._suspect_from(compiled, idx, rows, 0, suspects, order)
        for rel, rows in dels.items():
            for row in rows:
                self.state.remove(rel, row)
        for rel, rows in ins.items():
            for row in rows:
                self.state.add(rel, row)

        # Phase 2: check suspects in rank order.  Every fact ranked
        # below the suspect is settled, so a derivation under its rank
        # is well-founded.  A deleted fact's dependents rank above it,
        # so the heap only grows upward.
        deleted: Dict[str, Set[tuple]] = {m: set() for m in self.members}
        recheck: List[Tuple[str, tuple]] = []
        check = _Check()
        while order:
            rank = heapq.heappop(order)
            for member, row in suspects.pop(rank):
                check.ceiling, check.capped = rank, False
                for compiled in self.rules_by_head[member]:
                    if compiled.variants["head"](row, check) is not None:
                        break
                else:
                    if check.capped:
                        recheck.append((member, row))
                    for compiled, idx in self.member_watch[member]:
                        self._suspect_from(compiled, idx, (row,), rank, suspects, order)
                    self.state.remove(member, row)
                    out[member].add(row, -1)
                    deleted[member].add(row)

        # Phase 3: rederive.  Only a fact whose check was capped may
        # still have a derivation over the settled state; a worklist
        # then propagates forward from every rederived fact (a rederived
        # fact can only re-enable derivations it participates in, so
        # propagation is complete).
        worklist: List[Tuple[str, tuple]] = []
        for member, row in recheck:
            for compiled in self.rules_by_head[member]:
                rank = compiled.variants["head"](row, _Check())
                if rank is not None:
                    deleted[member].discard(row)
                    self.state.add(member, row, rank)
                    out[member].add(row, 1)
                    worklist.append((member, row))
                    break
        while worklist:
            member, row = worklist.pop()
            for compiled, idx in self.member_watch[member]:
                head_rel = compiled.head_rel
                heads: Dict[tuple, int] = {}
                compiled.variants[idx]((row,), heads)
                for head, rank in heads.items():
                    if head in deleted[head_rel]:
                        deleted[head_rel].discard(head)
                        self.state.add(head_rel, head, rank)
                        out[head_rel].add(head, 1)
                        worklist.append((head_rel, head))

        # Phase 4: semi-naive insertion.
        delta: Dict[str, Set[tuple]] = {m: set() for m in self.members}
        for compiled, idx, rows in self._ext_seeds(ins, dels):
            self._insert_from(compiled, idx, rows, out, delta)
        while any(delta.values()):
            new_delta: Dict[str, Set[tuple]] = {m: set() for m in self.members}
            for member, rows in delta.items():
                if not rows:
                    continue
                for compiled, idx in self.member_watch[member]:
                    self._insert_from(compiled, idx, rows, out, new_delta)
            delta = new_delta

        return out

    def _ext_seeds(self, positive, negative):
        """``(rule, body index, rows)`` seeding every rule that reads the
        ``positive`` rows through a positive atom or the ``negative``
        rows through a negated one."""
        for changed, polarity in ((positive, "positive"), (negative, "negative")):
            for rel, rows in changed.items():
                for compiled, idx, pol in self.ext_watch.get(rel, ()):
                    if pol == polarity:
                        yield compiled, idx, rows

    def _suspect_from(self, compiled, idx, rows, lost_rank, suspects, order) -> None:
        """Queue the heads ``rows`` (lost facts of rank ``lost_rank``,
        still in the state) derive by rule ``compiled`` through body
        item ``idx``, if they are members ranked above the lost facts."""
        member = compiled.head_rel
        ranks = self.state.rows[member]
        heads: Dict[tuple, int] = {}
        compiled.variants[idx](rows, heads)
        for head in heads:
            rank = ranks.get(head)
            if rank is None or rank <= lost_rank:
                continue
            bucket = suspects.get(rank)
            if bucket is None:
                bucket = suspects[rank] = set()
                heapq.heappush(order, rank)
            bucket.add((member, head))

    def _insert_from(self, compiled, idx, rows, out, delta) -> None:
        """Add the heads ``rows`` derive by rule ``compiled`` through
        body item ``idx``, each under the lowest rank a derivation gives
        it.  The heads are collected before any is added: a rule may
        read the relation it writes, and a bucket must not change while
        it is being scanned."""
        member = compiled.head_rel
        heads: Dict[tuple, int] = {}
        compiled.variants[idx](rows, heads)
        for head, rank in heads.items():
            if self.state.add(member, head, rank):
                out[member].add(head, 1)
                delta[member].add(head)

    # -- full recomputation (ablation baseline) ------------------------------------------

    def _apply_recompute(self, ins, dels) -> Dict[str, ZSet]:
        old = {m: self.extent(m) for m in self.members}
        for rel, rows in dels.items():
            for row in rows:
                self.state.remove(rel, row)
        for rel, rows in ins.items():
            for row in rows:
                self.state.add(rel, row)
        for member in self.members:
            for row in list(self.state.rows.get(member, ())):
                self.state.remove(member, row)
        # Naive fixpoint: run every rule until nothing new appears.
        changed = True
        while changed:
            changed = False
            for compiled in self.rules:
                heads: Dict[tuple, int] = {}
                compiled.variants[None](heads)
                for head in heads:
                    if self.state.add(compiled.head_rel, head):
                        changed = True
        out: Dict[str, ZSet] = {}
        for member in self.members:
            delta = ZSet()
            new = self.extent(member)
            for row in new - old[member]:
                delta.add(row, 1)
            for row in old[member] - new:
                delta.add(row, -1)
            out[member] = delta
        return out

    # -- introspection ------------------------------------------------------------------

    def extent(self, member: str) -> Set[tuple]:
        return set(self.state.rows.get(member, ()))

    def state_size(self) -> int:
        return self.state.total_rows() + self.state.total_index_entries()


class SccNode(Node):
    """Dataflow node wrapping an :class:`SccEvaluator`.

    Input port *i* carries the delta of ``externals[i]``; the output is
    a dict keyed by member relation name.
    """

    multi_output = True

    def __init__(self, evaluator: SccEvaluator, name: str = ""):
        super().__init__(name or f"scc({','.join(evaluator.members)})")
        self.scc = evaluator
        self.externals = list(evaluator.externals)
        self.n_ports = max(1, len(self.externals))

    def process(self, deltas):
        ext_deltas: Dict[str, ZSet] = {}
        for i, rel in enumerate(self.externals):
            if i < len(deltas) and deltas[i]:
                ext_deltas[rel] = deltas[i]
        return self.scc.apply(ext_deltas)

    def state_size(self) -> int:
        return self.scc.state_size()
