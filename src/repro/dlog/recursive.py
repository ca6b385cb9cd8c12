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
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.dlog import ast as A
from repro.dlog import types as T
from repro.dlog.dataflow.operators import Node
from repro.dlog.dataflow.zset import ZSet
from repro.dlog.interp import Evaluator
from repro.dlog.plan import (
    _pattern_free_vars,
    classify_args,
    expr_vars,
    pattern_vars,
    pattern_vars_of_atom,
)
from repro.dlog.typecheck import CheckedProgram
from repro.dlog.values import MapValue
from repro.errors import StratificationError


#: Inverse of ``v op literal``, for solving a computed head column.
_INVERSE = {"+": "-", "-": "+"}


class IndexStore:
    """Rows per relation, each mapped to its rank, with lazily built,
    incrementally maintained hash indexes on position subsets.

    The row map is the relation: ``rows[rel][row]`` is the row's rank
    (0 for external rows), so a rank costs no second hash table.  A key
    on every column is a membership test on the row map, never an index
    (it would be a second copy of the relation)."""

    def __init__(self):
        self.rows: Dict[str, Dict[tuple, int]] = {}
        self.arity: Dict[str, int] = {}
        # relation -> positions -> key -> rows
        self.indexes: Dict[str, Dict[Tuple[int, ...], Dict[tuple, Set[tuple]]]] = {}

    def ensure(self, rel: str, arity: int) -> None:
        self.rows.setdefault(rel, {})
        self.arity[rel] = arity

    def add(self, rel: str, row: tuple, rank: int = 0) -> bool:
        rows = self.rows.setdefault(rel, {})
        if row in rows:
            return False
        rows[row] = rank
        for positions, index in self.indexes.get(rel, {}).items():
            key = tuple(row[p] for p in positions)
            index.setdefault(key, set()).add(row)
        return True

    def remove(self, rel: str, row: tuple) -> bool:
        rows = self.rows.get(rel)
        if rows is None or row not in rows:
            return False
        del rows[row]
        for positions, index in self.indexes.get(rel, {}).items():
            key = tuple(row[p] for p in positions)
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del index[key]
        return True

    def lookup(self, rel: str, positions: Tuple[int, ...], key: tuple) -> Iterable[tuple]:
        rows = self.rows.get(rel, ())
        if not positions:
            return rows
        if len(positions) == self.arity[rel]:
            # Planned positions are ascending, so the key is the row.
            return (key,) if key in rows else ()
        indexes = self.indexes.setdefault(rel, {})
        index = indexes.get(positions)
        if index is None:
            index = indexes[positions] = {}
            for row in rows:
                k = tuple(row[p] for p in positions)
                index.setdefault(k, set()).add(row)
        return index.get(key, ())

    def total_rows(self) -> int:
        return sum(len(rows) for rows in self.rows.values())

    def total_index_entries(self) -> int:
        return sum(
            len(bucket)
            for by_positions in self.indexes.values()
            for index in by_positions.values()
            for bucket in index.values()
        )


# -- compiled rule steps ---------------------------------------------------------


class _JoinStep:
    __slots__ = ("atom", "positions", "key_exprs", "new_vars", "member")

    def __init__(self, atom, positions, key_exprs, new_vars, member):
        self.atom = atom
        self.positions = positions
        self.key_exprs = key_exprs
        self.new_vars = new_vars
        self.member = member  # joins an SCC member: its rows carry ranks


class _NegStep:
    __slots__ = ("atom", "positions", "key_exprs", "residual")

    def __init__(self, atom, positions, key_exprs, residual):
        self.atom = atom
        self.positions = positions
        self.key_exprs = key_exprs
        self.residual = residual


class _GuardStep:
    __slots__ = ("expr",)

    def __init__(self, expr):
        self.expr = expr


class _AssignStep:
    __slots__ = ("pattern", "expr")

    def __init__(self, pattern, expr):
        self.pattern = pattern
        self.expr = expr


class _FlatMapStep:
    __slots__ = ("pattern", "expr")

    def __init__(self, var, expr):
        self.pattern = A.PVar(var)
        self.expr = expr


class _CompiledRule:
    """One rule with precompiled evaluation orders.

    ``variants[v]`` is the step list to use when the seed is:

    * ``None`` — no seed (full evaluation; only the recompute ablation);
    * an integer — the body index of the seed atom, whose rows come from
      a delta; the seed atom's pattern match runs first, then the rest;
    * ``"head"`` — top-down rederivation with the head row pre-bound.
    """

    def __init__(self, rule: A.Rule, head_exprs: List[A.Expr]):
        self.rule = rule
        self.head_rel = rule.head.relation
        self.head_exprs = head_exprs
        self.variants: Dict[object, List[object]] = {}
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
        #: Set when a ranked check skipped a row for its rank.
        self.capped = False

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
        compiled.variants[None] = self._compile_variant(rule, None, set())
        for idx, item in enumerate(rule.body):
            if isinstance(item, A.AtomItem):
                seed_bound = set(pattern_vars_of_atom(item.atom))
                compiled.variants[idx] = self._compile_variant(rule, idx, seed_bound)
            elif isinstance(item, A.NegAtom):
                # A negated atom's variables are bound by other atoms;
                # matching the seed row pre-binds them, but the negation
                # itself must still be (re-)checked against the current
                # state, so it is NOT skipped from the step list.
                seed_bound = set(pattern_vars_of_atom(item.atom))
                compiled.variants[idx] = self._compile_variant(rule, None, seed_bound)
        compiled.variants["head"] = self._compile_head_variant(compiled)
        self.rules.append(compiled)
        self.rules_by_head[rule.head.relation].append(compiled)

    def _compile_head_variant(self, compiled: _CompiledRule) -> List[object]:
        """The top-down order: every head column is bound up front.

        A computed column ``e`` bound to ``$i`` becomes the guard
        ``e == $i``, scheduled as soon as the body binds ``e``'s
        variables.  A bigint ``v ± literal`` column whose ``v`` is bound
        nowhere else is also solved for ``v`` before the body, so that
        the body's joins can be keyed on ``v`` (the guard stays).  Only
        bigint: the inverse is computed without wrapping, which is exact
        only where the arithmetic cannot wrap.
        """
        bound = {name for _, name in compiled.head_binds}
        solved: List[object] = []
        guards: List[A.Guard] = []
        for pos, name in compiled.head_binds:
            expr = compiled.head_exprs[pos]
            if isinstance(expr, A.Var):
                continue
            value = A.Var(name)
            guards.append(A.Guard(A.BinOp("==", expr, value)))
            if not (
                isinstance(expr, A.BinOp)
                and expr.op in _INVERSE
                and isinstance(self.checked.type_of(expr), T.TBigInt)
            ):
                continue
            var, lit = expr.left, expr.right
            if expr.op == "+" and isinstance(var, A.Lit):
                var, lit = lit, var
            if isinstance(var, A.Var) and isinstance(lit, A.Lit) and var.name not in bound:
                inverse = A.BinOp(_INVERSE[expr.op], value, lit)
                solved.append(_AssignStep(A.PVar(var.name), inverse))
                bound.add(var.name)
        return solved + self._compile_variant(compiled.rule, None, bound, guards)

    def _compile_variant(
        self,
        rule: A.Rule,
        skip_idx: Optional[int],
        bound0: Set[str],
        extra: Sequence[A.Guard] = (),
    ) -> List[object]:
        """Compile one evaluation order, greedily most-bound-first.

        Body items are conjunctive, so reordering is semantics-
        preserving; choosing the next atom by how many of its argument
        positions are already determined turns e.g. top-down
        rederivation (head variables pre-bound) into index probes
        instead of relation scans.  Guards (including the ``extra``
        ones), assignments, FlatMaps, and negations are emitted as soon
        as their variables are available, preserving their relative
        order.
        """
        steps: List[object] = []
        bound = set(bound0)
        remaining: List[Tuple[int, object]] = [
            (idx, item)
            for idx, item in enumerate(rule.body)
            if idx != skip_idx
        ]
        remaining.extend((None, guard) for guard in extra)
        while remaining:
            emitted = self._emit_ready_non_atoms(rule, remaining, bound, steps)
            if emitted:
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
            best = max(
                atom_choices,
                key=lambda c: (
                    len(classify_args(c[2].args, bound)[0]),
                    c[2].relation not in self.member_set,
                    -c[0],
                ),
            )
            i, _, atom = best
            keys, _res = classify_args(atom.args, bound)
            steps.append(
                _JoinStep(
                    atom,
                    tuple(pos for pos, _ in keys),
                    tuple(e for _, e in keys),
                    tuple(
                        v for v in pattern_vars_of_atom(atom) if v not in bound
                    ),
                    atom.relation in self.member_set,
                )
            )
            bound.update(pattern_vars_of_atom(atom))
            del remaining[i]
        return steps

    def _emit_ready_non_atoms(self, rule, remaining, bound, steps) -> bool:
        """Emit the first non-atom item whose variables are bound."""
        for i, (_, item) in enumerate(remaining):
            if isinstance(item, A.Guard):
                if expr_vars(item.expr) <= bound:
                    steps.append(_GuardStep(item.expr))
                    del remaining[i]
                    return True
            elif isinstance(item, A.Assignment):
                if expr_vars(item.expr) <= bound:
                    steps.append(_AssignStep(item.pattern, item.expr))
                    bound.update(pattern_vars(item.pattern))
                    del remaining[i]
                    return True
            elif isinstance(item, A.FlatMapItem):
                if expr_vars(item.expr) <= bound:
                    steps.append(_FlatMapStep(item.var, item.expr))
                    bound.add(item.var)
                    del remaining[i]
                    return True
            elif isinstance(item, A.NegAtom):
                atom = item.atom
                deps = set()
                for arg in atom.args:
                    deps.update(_pattern_free_vars(arg))
                if deps <= bound:
                    keys, residual = classify_args(atom.args, bound)
                    for pos in residual:
                        if _pattern_free_vars(atom.args[pos]):
                            raise StratificationError(
                                f"rule {rule.name}: negated atom "
                                f"{atom.relation} mixes bound variables and "
                                "wildcards in one argument; rewrite as "
                                "separate conditions"
                            )
                    steps.append(
                        _NegStep(
                            atom,
                            tuple(pos for pos, _ in keys),
                            tuple(e for _, e in keys),
                            tuple((pos, atom.args[pos]) for pos in residual),
                        )
                    )
                    del remaining[i]
                    return True
        return False

    # -- step evaluation -----------------------------------------------------------

    def _eval_steps(
        self,
        steps: List[object],
        env: Dict[str, object],
        rank: int,
        ceiling: Optional[int] = None,
        i: int = 0,
    ) -> Iterator[Tuple[Dict[str, object], int]]:
        """Yield ``(env, rank)`` for each way to finish ``steps`` from
        step ``i``, where ``rank`` is the highest member-row rank used.
        With a ``ceiling``, member rows ranked at or above it are
        skipped and :attr:`capped` records that one was."""
        if i == len(steps):
            yield env, rank
            return
        step = steps[i]
        ev = self.evaluator
        if isinstance(step, _JoinStep):
            key = tuple(ev.eval(e, env) for e in step.key_exprs)
            rel = step.atom.relation
            ranks = self.state.rows[rel] if step.member else None
            for row in self.state.lookup(rel, step.positions, key):
                row_rank = rank
                if ranks is not None:
                    row_rank = ranks[row]
                    if ceiling is not None and row_rank >= ceiling:
                        self.capped = True
                        continue
                    if row_rank < rank:
                        row_rank = rank
                env2 = dict(env)
                if self._match_atom(step.atom, row, env2):
                    yield from self._eval_steps(steps, env2, row_rank, ceiling, i + 1)
        elif isinstance(step, _NegStep):
            key = tuple(ev.eval(e, env) for e in step.key_exprs)
            blocked = False
            for row in self.state.lookup(step.atom.relation, step.positions, key):
                if all(
                    ev.match(pat, row[pos], {}, bind_always=False)
                    for pos, pat in step.residual
                ):
                    blocked = True
                    break
            if not blocked:
                yield from self._eval_steps(steps, env, rank, ceiling, i + 1)
        elif isinstance(step, _GuardStep):
            if ev.eval(step.expr, env):
                yield from self._eval_steps(steps, env, rank, ceiling, i + 1)
        elif isinstance(step, _AssignStep):
            # Here and for FlatMap: a variable the head pre-bound (top-
            # down rederivation) is an equality constraint, not a binding.
            value = ev.eval(step.expr, env)
            env2 = dict(env)
            if ev.match(step.pattern, value, env2, bind_always=False):
                yield from self._eval_steps(steps, env2, rank, ceiling, i + 1)
        elif isinstance(step, _FlatMapStep):
            value = ev.eval(step.expr, env)
            elems = value.pairs if isinstance(value, MapValue) else value
            for elem in elems:
                env2 = dict(env)
                if ev.match(step.pattern, elem, env2, bind_always=False):
                    yield from self._eval_steps(steps, env2, rank, ceiling, i + 1)
        else:  # pragma: no cover
            raise AssertionError(f"unknown step {step!r}")

    def _match_atom(self, atom: A.Atom, row: tuple, env: Dict[str, object]) -> bool:
        ev = self.evaluator
        for pat, value in zip(atom.args, row):
            if not ev.match(pat, value, env, bind_always=False):
                return False
        return True

    def _heads_from_seed(
        self, compiled: _CompiledRule, seed_idx: int, seed_rows: Iterable[tuple]
    ) -> Dict[tuple, int]:
        """Evaluate a rule with body atom ``seed_idx`` restricted to rows;
        map each head to the lowest rank a derivation gives it.

        The heads are collected before the caller adds any: a rule may
        read the relation it writes, and a bucket must not change while
        it is being scanned."""
        steps = compiled.variants[seed_idx]
        atom = compiled.rule.body[seed_idx].atom
        ranks = self.state.rows[atom.relation] if atom.relation in self.member_set else None
        ev = self.evaluator
        heads: Dict[tuple, int] = {}
        for row in seed_rows:
            env = {}
            if not self._match_atom(atom, row, env):
                continue
            seed_rank = ranks[row] if ranks is not None else 0
            for final_env, rank in self._eval_steps(steps, env, seed_rank):
                head = tuple(ev.eval(e, final_env) for e in compiled.head_exprs)
                best = heads.get(head)
                if best is None or rank + 1 < best:
                    heads[head] = rank + 1
        return heads

    def _full_heads(self, compiled: _CompiledRule) -> Iterator[tuple]:
        """Every head the rule derives now (the recompute ablation,
        which keeps no ranks)."""
        ev = self.evaluator
        for env, _ in self._eval_steps(compiled.variants[None], {}, 0):
            yield tuple(ev.eval(e, env) for e in compiled.head_exprs)

    def _derive(
        self, compiled: _CompiledRule, row: tuple, ceiling: Optional[int] = None
    ) -> Optional[int]:
        """Top-down: the rank of a derivation of ``row`` by this rule
        right now, using only member rows ranked below ``ceiling``;
        ``None`` if there is none."""
        for pos, const in compiled.head_consts:
            if row[pos] != const:
                return None
        env: Dict[str, object] = {}
        for pos, name in compiled.head_binds:
            if env.setdefault(name, row[pos]) != row[pos]:
                return None  # a repeated head variable, unequal values
        for _, rank in self._eval_steps(compiled.variants["head"], env, 0, ceiling):
            return rank + 1
        return None

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
        while order:
            rank = heapq.heappop(order)
            for member, row in suspects.pop(rank):
                self.capped = False
                if any(
                    self._derive(compiled, row, rank) is not None
                    for compiled in self.rules_by_head[member]
                ):
                    continue
                if self.capped:
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
                rank = self._derive(compiled, row)
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
                for head, rank in self._heads_from_seed(compiled, idx, [row]).items():
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
        for head in self._heads_from_seed(compiled, idx, rows):
            rank = ranks.get(head)
            if rank is None or rank <= lost_rank:
                continue
            bucket = suspects.get(rank)
            if bucket is None:
                bucket = suspects[rank] = set()
                heapq.heappush(order, rank)
            bucket.add((member, head))

    def _insert_from(self, compiled, idx, rows, out, delta) -> None:
        member = compiled.head_rel
        for head, rank in self._heads_from_seed(compiled, idx, rows).items():
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
                for head in list(self._full_heads(compiled)):
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
