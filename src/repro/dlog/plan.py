"""Compilation of rules into incremental dataflow chains.

A rule body is processed left to right, maintaining a *schema* — the
ordered tuple of variables bound so far.  Each body item becomes one
dataflow node:

=====================  =========================================
body item              node
=====================  =========================================
first atom             FlatMap (pattern match over relation rows);
                       Map when the match is a pure projection,
                       nothing when it is the identity
later atom             Join (keyed on the shared/bound positions)
``not R(...)``         AntiJoin (right side projected to the key)
guard                  Filter
``var x = e``          FlatMap (pattern may be refutable)
``var x = FlatMap(e)`` FlatMap
``var x = Aggregate``  Aggregate
=====================  =========================================

The head becomes a Map computing the head expressions, feeding the head
relation's Distinct node.

Wherever a scan, join merge or head is provably a positional
selection (plain distinct variables, so the pattern match cannot
fail), the node gets a compiled ``itemgetter`` closure in place of the
generic pattern-match/expression interpreter.

The classification helpers (:func:`pattern_vars`, :func:`classify_args`)
are shared with the recursive-stratum evaluator, which plans the same
information for its semi-naive join orders.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.dlog import ast as A
from repro.dlog.interp import Evaluator
from repro.dlog.typecheck import CheckedProgram, pattern_to_expr
from repro.dlog.dataflow.operators import (
    AggregateNode,
    AntiJoinNode,
    FilterNode,
    FlatMapNode,
    JoinNode,
    MapNode,
    Node,
)
from repro.dlog.stdlib import AGGREGATES
from repro.errors import TypeCheckError
from repro.dlog.values import MapValue


def _tuple_getter(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """A compiled ``row -> (row[p0], row[p1], ...)`` selector."""
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        p = positions[0]
        return lambda row: (row[p],)
    return itemgetter(*positions)


def _simple_pvar_positions(args: Sequence[A.Pattern]) -> Optional[List[int]]:
    """Positions of PVar args when the atom is a simple projection.

    Returns ``None`` unless every argument is a plain variable or
    wildcard and the variables are pairwise distinct (no implicit
    equality constraints) — the shape whose match never fails and whose
    output is a pure positional projection.
    """
    positions: List[int] = []
    names: Set[str] = set()
    for i, pat in enumerate(args):
        if isinstance(pat, A.PVar):
            if pat.name in names:
                return None
            names.add(pat.name)
            positions.append(i)
        elif not isinstance(pat, A.PWildcard):
            return None
    return positions


class Schema:
    """Ordered variables of an intermediate dataflow record."""

    __slots__ = ("vars", "index")

    def __init__(self, vars: Sequence[str]):
        self.vars = tuple(vars)
        self.index = {v: i for i, v in enumerate(self.vars)}

    def __contains__(self, var: str) -> bool:
        return var in self.index

    def env(self, row: tuple) -> Dict[str, object]:
        return dict(zip(self.vars, row))

    def extended(self, new_vars: Sequence[str]) -> "Schema":
        return Schema(self.vars + tuple(new_vars))

    def __repr__(self):
        return f"Schema{self.vars}"


def pattern_vars(pat: A.Pattern) -> List[str]:
    """Variables bound by a pattern, in left-to-right order."""
    out: List[str] = []

    def walk(p: A.Pattern) -> None:
        if isinstance(p, A.PVar):
            out.append(p.name)
        elif isinstance(p, A.PTuple):
            for sub in p.elems:
                walk(sub)
        elif isinstance(p, A.PStruct):
            for _, sub in p.fields:
                walk(sub)
        # PWildcard, PLit, PExpr bind nothing.

    walk(pat)
    return out


def expr_vars(expr: A.Expr) -> Set[str]:
    """Free variables of an expression."""
    out: Set[str] = set()

    def walk(e: A.Expr) -> None:
        if isinstance(e, A.Var):
            out.add(e.name)
        elif isinstance(e, A.BinOp):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, A.UnaryOp):
            walk(e.operand)
        elif isinstance(e, A.Field):
            walk(e.expr)
        elif isinstance(e, A.Call):
            for a in e.args:
                walk(a)
        elif isinstance(e, (A.TupleExpr, A.VecExpr)):
            for a in e.elems:
                walk(a)
        elif isinstance(e, A.StructExpr):
            for _, a in e.fields:
                walk(a)
        elif isinstance(e, A.IfExpr):
            walk(e.cond)
            walk(e.then)
            walk(e.els)
        elif isinstance(e, A.MatchExpr):
            walk(e.subject)
            for pat, arm in e.arms:
                walk(arm)
                # Pattern-bound vars shadow outer ones; for planning
                # purposes over-approximating free vars is safe.
        elif isinstance(e, A.Cast):
            walk(e.expr)

    walk(expr)
    return out


def _contains_wildcard(pat: A.Pattern) -> bool:
    if isinstance(pat, A.PWildcard):
        return True
    if isinstance(pat, A.PTuple):
        return any(_contains_wildcard(p) for p in pat.elems)
    if isinstance(pat, A.PStruct):
        return any(_contains_wildcard(p) for _, p in pat.fields)
    return False


def _pattern_free_vars(pat: A.Pattern) -> Set[str]:
    """All variables occurring in a pattern, including inside PExpr."""
    out: Set[str] = set(pattern_vars(pat))
    def walk(p: A.Pattern) -> None:
        if isinstance(p, A.PExpr):
            out.update(expr_vars(p.expr))
        elif isinstance(p, A.PTuple):
            for sub in p.elems:
                walk(sub)
        elif isinstance(p, A.PStruct):
            for _, sub in p.fields:
                walk(sub)
    walk(pat)
    return out


def classify_args(
    args: Sequence[A.Pattern], bound: Set[str]
) -> Tuple[List[Tuple[int, A.Expr]], List[int]]:
    """Split atom argument positions into join-key and residual.

    Returns ``(keys, residual)`` where ``keys`` is a list of
    ``(position, expr)`` — the expression computes the expected value of
    that position from already-``bound`` variables — and ``residual``
    lists positions that must be handled by a full pattern match
    (binding new variables or checking complex shapes).
    """
    keys: List[Tuple[int, A.Expr]] = []
    residual: List[int] = []
    for i, pat in enumerate(args):
        expr = _keyable_expr(pat, bound)
        if expr is not None:
            keys.append((i, expr))
        elif isinstance(pat, A.PWildcard):
            continue
        else:
            residual.append(i)
    return keys, residual


def _keyable_expr(pat: A.Pattern, bound: Set[str]) -> Optional[A.Expr]:
    """If the pattern's value is fully determined by ``bound`` variables,
    return the expression computing it; else None."""
    if isinstance(pat, A.PVar):
        return A.Var(pat.name, pat.pos) if pat.name in bound else None
    if isinstance(pat, A.PLit):
        return A.Lit(pat.value, None, pat.pos)
    if isinstance(pat, A.PExpr):
        return pat.expr if expr_vars(pat.expr) <= bound else None
    if isinstance(pat, (A.PTuple, A.PStruct)):
        if _contains_wildcard(pat):
            return None
        if set(_pattern_free_vars(pat)) <= bound:
            try:
                return pattern_to_expr(pat)
            except TypeCheckError:
                return None
        return None
    return None


class RuleChain:
    """The planned dataflow for one rule.

    ``entry`` is ``(relation_name, node)`` for the first node fed by a
    relation; ``taps`` lists additional ``(relation_name, node, port)``
    edges (join/antijoin right inputs); ``nodes`` is every node created
    (in upstream-to-downstream order); ``exit`` is the final node whose
    output rows are the head relation's rows.

    ``static_rows`` is set instead for body-less rules (facts): the rows
    to inject once at startup.
    """

    def __init__(self):
        self.entry: Optional[Tuple[str, Node]] = None
        self.taps: List[Tuple[str, Node, int]] = []
        self.nodes: List[Node] = []
        self.exit: Optional[Node] = None
        self.static_rows: Optional[List[tuple]] = None


class Planner:
    """Compiles the non-recursive rules of a checked program."""

    def __init__(self, checked: CheckedProgram, evaluator: Optional[Evaluator] = None):
        self.checked = checked
        self.evaluator = evaluator or Evaluator(checked)

    # -- expression compilation helpers ------------------------------------

    def compile_expr(self, expr: A.Expr, schema: Schema) -> Callable[[tuple], object]:
        """Compile an expression to a row function (fast path for vars)."""
        if isinstance(expr, A.Var) and expr.name in schema:
            idx = schema.index[expr.name]
            return lambda row: row[idx]
        if isinstance(expr, A.Lit):
            value = expr.value
            return lambda row: value
        evaluator = self.evaluator
        env_of = schema.env
        return lambda row: evaluator.eval(expr, env_of(row))

    def _compile_key(
        self, keys: List[Tuple[int, A.Expr]], schema: Schema
    ) -> Callable[[tuple], tuple]:
        fns = [self.compile_expr(expr, schema) for _, expr in keys]
        if not fns:
            return lambda row: ()
        return lambda row: tuple(fn(row) for fn in fns)

    # -- rule planning --------------------------------------------------------

    def plan_rule(self, rule: A.Rule) -> RuleChain:
        chain = RuleChain()
        items = rule.body
        head_exprs = self.checked.head_exprs[id(rule)]

        if not any(isinstance(i, (A.AtomItem,)) for i in items):
            chain.static_rows = self._evaluate_static(rule, items, head_exprs)
            return chain

        schema = Schema([])
        current: Optional[Node] = None
        first = True
        for item in items:
            if isinstance(item, A.AtomItem):
                if first:
                    current, schema = self._plan_first_atom(chain, item.atom, rule)
                    first = False
                else:
                    current, schema = self._plan_join(
                        chain, current, schema, item.atom, rule
                    )
            elif isinstance(item, A.NegAtom):
                if first:
                    raise TypeCheckError(
                        f"rule {rule.name}: body cannot start with a negated atom"
                    )
                current = self._plan_antijoin(chain, current, schema, item.atom, rule)
            elif isinstance(item, A.Guard):
                current = self._plan_guard(chain, current, schema, item)
            elif isinstance(item, A.Assignment):
                current, schema = self._plan_assignment(chain, current, schema, item)
            elif isinstance(item, A.FlatMapItem):
                current, schema = self._plan_flatmap(chain, current, schema, item)
            elif isinstance(item, A.AggregateItem):
                current, schema = self._plan_aggregate(chain, current, schema, item)
            else:  # pragma: no cover
                raise TypeCheckError(f"rule {rule.name}: unsupported item {item!r}")

        if all(isinstance(e, A.Var) and e.name in schema for e in head_exprs):
            head_fn = _tuple_getter([schema.index[e.name] for e in head_exprs])
        else:
            head_fns = tuple(self.compile_expr(e, schema) for e in head_exprs)

            def head_fn(row):
                return tuple(fn(row) for fn in head_fns)

        chain.exit = self._chain(
            chain, current, MapNode(head_fn, name=f"{rule.name}:head")
        )
        return chain

    @staticmethod
    def _chain(chain: RuleChain, current: Optional[Node], node: Node) -> Node:
        """Append ``node`` to the chain, fed on port 0 by ``current`` —
        or straight by the rule's first relation when ``current`` is
        ``None`` (no node has been planned yet: an identity scan)."""
        if current is None:
            chain.entry = (chain.entry[0], node)
        else:
            current.connect_to(node, 0)
        chain.nodes.append(node)
        return node

    def _evaluate_static(self, rule, items, head_exprs) -> List[tuple]:
        """Evaluate a body with no atoms (a fact) at plan time."""
        evaluator = self.evaluator
        envs: List[Dict[str, object]] = [{}]
        for item in items:
            if isinstance(item, A.Guard):
                envs = [e for e in envs if evaluator.eval(item.expr, e)]
            elif isinstance(item, A.Assignment):
                kept = []
                for env in envs:
                    value = evaluator.eval(item.expr, env)
                    env2 = dict(env)
                    if evaluator.match(item.pattern, value, env2, bind_always=True):
                        kept.append(env2)
                envs = kept
            elif isinstance(item, A.FlatMapItem):
                expanded = []
                for env in envs:
                    value = evaluator.eval(item.expr, env)
                    elems = value.pairs if isinstance(value, MapValue) else value
                    for elem in elems:
                        env2 = dict(env)
                        env2[item.var] = elem
                        expanded.append(env2)
                envs = expanded
            else:
                raise TypeCheckError(
                    f"rule {rule.name}: {type(item).__name__} requires at "
                    "least one preceding relation atom"
                )
        return [
            tuple(evaluator.eval(e, env) for e in head_exprs) for env in envs
        ]

    def _match_row_fn(
        self,
        args: Sequence[A.Pattern],
        out_vars: Sequence[str],
        schema_vars: Sequence[str],
    ):
        """Build fn(base_env_pairs, row) used by first-atom and join merges."""
        evaluator = self.evaluator
        args = tuple(args)
        out_vars = tuple(out_vars)

        def match(env: Dict[str, object], row: tuple) -> Optional[tuple]:
            for pat, value in zip(args, row):
                if not evaluator.match(pat, value, env, bind_always=False):
                    return None
            return tuple(env[v] for v in out_vars)

        return match

    def _plan_first_atom(self, chain: RuleChain, atom: A.Atom, rule: A.Rule):
        new_vars = _dedup(pattern_vars_of_atom(atom))
        schema = Schema(new_vars)
        chain.entry = (atom.relation, None)
        name = f"{rule.name}:scan({atom.relation})"
        # Simple scans (all-distinct plain variables, maybe wildcards)
        # are pure projections — and need no node at all when the
        # projection is the full row.
        positions = _simple_pvar_positions(atom.args)
        if positions is None:
            match = self._match_row_fn(atom.args, schema.vars, ())

            def expand(row, match=match):
                out = match({}, row)
                return (out,) if out is not None else ()

            node: Node = FlatMapNode(expand, name=name)
        elif len(positions) < len(atom.args):
            node = MapNode(_tuple_getter(positions), name=name)
        else:
            return None, schema
        return self._chain(chain, None, node), schema

    def _plan_join(
        self, chain: RuleChain, current: Optional[Node], schema: Schema, atom: A.Atom, rule: A.Rule
    ):
        bound = set(schema.vars)
        keys, residual = classify_args(atom.args, bound)
        left_key = self._compile_key(keys, schema)
        right_key = _tuple_getter([pos for pos, _ in keys])

        new_vars = [v for v in _dedup(pattern_vars_of_atom(atom)) if v not in bound]
        out_schema = schema.extended(new_vars)
        # When every residual argument is a fresh, distinct plain
        # variable, the pattern match can never fail (key equality
        # already covers the keyable positions) and the merged row is a
        # pure concatenation.
        if _simple_pvar_positions([atom.args[pos] for pos in residual]) is None:
            match = self._match_row_fn(atom.args, out_schema.vars, schema.vars)
            lvars = schema.vars

            def merge(l_row, r_row):
                return match(dict(zip(lvars, l_row)), r_row)

        elif residual:
            sel = _tuple_getter(residual)

            def merge(l_row, r_row):
                return l_row + sel(r_row)

        else:

            def merge(l_row, r_row):
                return l_row

        node = JoinNode(
            left_key, right_key, merge, name=f"{rule.name}:join({atom.relation})"
        )
        chain.taps.append((atom.relation, node, 1))
        return self._chain(chain, current, node), out_schema

    def _plan_antijoin(
        self, chain: RuleChain, current: Optional[Node], schema: Schema, atom: A.Atom, rule: A.Rule
    ):
        bound = set(schema.vars)
        keys, residual = classify_args(atom.args, bound)
        # Residual positions must be checkable on the right side alone
        # (closed patterns, possibly with wildcards); the typechecker has
        # already rejected new variables under negation.
        checks: List[Tuple[int, A.Pattern]] = []
        for pos in residual:
            pat = atom.args[pos]
            if _pattern_free_vars(pat):
                raise TypeCheckError(
                    f"rule {rule.name}: negated atom {atom.relation} mixes "
                    f"bound variables and wildcards in one argument; "
                    "rewrite the argument as separate conditions"
                )
            checks.append((pos, pat))

        key_of = _tuple_getter([pos for pos, _ in keys])
        name = f"{rule.name}:negkey({atom.relation})"
        if checks:
            evaluator = self.evaluator

            def project(row):
                for pos, pat in checks:
                    if not evaluator.match(pat, row[pos], {}, bind_always=False):
                        return ()
                return (key_of(row),)

            projector: Node = FlatMapNode(project, name=name)
        else:
            projector = MapNode(key_of, name=name)
        left_key = self._compile_key(keys, schema)
        node = AntiJoinNode(left_key, name=f"{rule.name}:antijoin({atom.relation})")
        projector.connect_to(node, 1)
        chain.taps.append((atom.relation, projector, 0))
        chain.nodes.append(projector)
        return self._chain(chain, current, node)

    def _plan_guard(self, chain: RuleChain, current: Optional[Node], schema: Schema, item: A.Guard):
        fn = self.compile_expr(item.expr, schema)
        node = FilterNode(lambda row, fn=fn: bool(fn(row)), name="guard")
        return self._chain(chain, current, node)

    def _plan_assignment(
        self, chain: RuleChain, current: Optional[Node], schema: Schema, item: A.Assignment
    ):
        new_vars = _dedup(pattern_vars(item.pattern))
        out_schema = schema.extended(new_vars)
        fn = self.compile_expr(item.expr, schema)
        evaluator = self.evaluator
        pattern = item.pattern
        svars = schema.vars
        ovars = out_schema.vars

        def expand(row):
            env = dict(zip(svars, row))
            if evaluator.match(pattern, fn(row), env, bind_always=True):
                return (tuple(env[v] for v in ovars),)
            return ()

        node = FlatMapNode(expand, name="assign")
        return self._chain(chain, current, node), out_schema

    def _plan_flatmap(
        self, chain: RuleChain, current: Optional[Node], schema: Schema, item: A.FlatMapItem
    ):
        out_schema = schema.extended([item.var])
        fn = self.compile_expr(item.expr, schema)

        def expand(row):
            value = fn(row)
            elems = value.pairs if isinstance(value, MapValue) else value
            return tuple(row + (elem,) for elem in elems)

        node = FlatMapNode(expand, name=f"flatmap({item.var})")
        return self._chain(chain, current, node), out_schema

    def _plan_aggregate(
        self, chain: RuleChain, current: Optional[Node], schema: Schema, item: A.AggregateItem
    ):
        positions = [schema.index[k] for k in item.group_by]
        key_fn = _tuple_getter(positions)
        arg_fns = [self.compile_expr(a, schema) for a in item.args]

        def args_fn(row, fns=tuple(arg_fns)):
            return tuple(fn(row) for fn in fns)

        agg = AGGREGATES[item.func]
        node = AggregateNode(
            key_fn, args_fn, agg.fn, name=f"aggregate({item.func})"
        )
        out_schema = Schema(list(item.group_by) + [item.var])
        return self._chain(chain, current, node), out_schema


def pattern_vars_of_atom(atom: A.Atom) -> List[str]:
    out: List[str] = []
    for arg in atom.args:
        out.extend(pattern_vars(arg))
    return out


def _dedup(names: Sequence[str]) -> List[str]:
    seen: Set[str] = set()
    out: List[str] = []
    for n in names:
        if n not in seen:
            seen.add(n)
            out.append(n)
    return out
