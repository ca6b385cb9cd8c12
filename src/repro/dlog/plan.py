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

Every expression and pattern is compiled once (:mod:`repro.dlog.interp`)
over the record's schema: a record is the frame its compiled code reads
by slot.  Wherever a scan, join merge or head is provably a positional
selection (plain distinct variables, so the pattern match cannot
fail), the node gets an ``itemgetter`` selection instead.

Rules that run without a dataflow — the recursive-stratum evaluator's
bodies and body-less facts — run as *step chains*: each compiled step
``step(frame, rank, ctx)`` calls the next one once per way its body
item holds, and a non-``None`` return stops the chain early and is
passed back up (see :func:`compile_body_step`).

The classification helpers (:func:`pattern_vars`, :func:`classify_args`)
are shared with the recursive-stratum evaluator, which plans the same
information for its semi-naive join orders.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.dlog import ast as A
from repro.dlog.interp import Evaluator, Slots
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


def compile_row_match(
    evaluator: Evaluator,
    args: Sequence[A.Pattern],
    positions: Sequence[int],
    slots: Slots,
) -> Callable[[tuple, List[object]], bool]:
    """``fn(row, frame) -> bool`` matching ``row[p]`` against ``args[p]``
    for each of ``positions`` in order, binding new variables into the
    frame (a variable bound earlier — in ``slots`` or at an earlier
    position — is compared).  When every argument is a fresh, distinct
    plain variable the match cannot fail and is one slice assignment."""
    pats = [(p, args[p]) for p in positions if not isinstance(args[p], A.PWildcard)]
    names = {
        pat.name
        for _, pat in pats
        if isinstance(pat, A.PVar) and pat.name not in slots
    }
    if len(names) == len(pats):
        start = len(slots)
        for _, pat in pats:
            slots.bind(pat.name)
        if len(pats) == 1:
            ((p, _),) = pats

            def bind_one(row, frame):
                frame[start] = row[p]
                return True

            return bind_one
        stop = len(slots)
        get = _tuple_getter([p for p, _ in pats])

        def bind(row, frame):
            frame[start:stop] = get(row)
            return True

        return bind
    tests = [(p, evaluator.compile_pattern(pat, slots)) for p, pat in pats]

    def match(row, frame):
        for p, test in tests:
            if not test(row[p], frame):
                return False
        return True

    return match


def compile_body_step(evaluator: Evaluator, item: A.BodyItem, slots: Slots):
    """Compile a guard, assignment or FlatMap over ``slots`` (binding
    the variables it introduces) into a step-chain link: ``link(next)``
    returns the step, which runs ``next`` once per way the item holds
    and returns the first non-``None`` result of ``next``."""
    value = evaluator.compile_expr(item.expr, slots)
    if isinstance(item, A.Guard):

        def link_guard(nxt):
            def guard(frame, rank, ctx):
                if value(frame):
                    return nxt(frame, rank, ctx)
                return None

            return guard

        return link_guard
    if isinstance(item, A.Assignment):
        test = evaluator.compile_pattern(item.pattern, slots)

        def link_assign(nxt):
            def assign(frame, rank, ctx):
                if test(value(frame), frame):
                    return nxt(frame, rank, ctx)
                return None

            return assign

        return link_assign
    # A FlatMap: a variable bound already (a head variable, top-down) is
    # an equality constraint, like any pattern variable.
    test = evaluator.compile_pattern(A.PVar(item.var), slots)

    def link_flatmap(nxt):
        def flatmap(frame, rank, ctx):
            elems = value(frame)
            if isinstance(elems, MapValue):
                elems = elems.pairs
            for elem in elems:
                if test(elem, frame):
                    found = nxt(frame, rank, ctx)
                    if found is not None:
                        return found
            return None

        return flatmap

    return link_flatmap


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
        """Compile an expression to a function of a ``schema`` record."""
        return self._over_record(self.evaluator.compile_expr, expr, schema)

    def compile_tuple(
        self, exprs: Sequence[A.Expr], schema: Schema
    ) -> Callable[[tuple], tuple]:
        """Compile expressions to a ``record -> tuple`` function (an
        ``itemgetter`` when they are all variables)."""
        return self._over_record(self.evaluator.compile_tuple, exprs, schema)

    @staticmethod
    def _over_record(compile, node, schema: Schema):
        """``compile(node, slots)`` with the record as the frame; when
        the code needs a bigger one (match-arm bindings) the record is
        copied into it."""
        slots = Slots(schema.vars)
        fn = compile(node, slots)
        if len(slots) == len(schema.vars):
            return fn
        pad = [None] * (len(slots) - len(schema.vars))
        return lambda row: fn([*row, *pad])

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

        head_fn = self.compile_tuple(head_exprs, schema)
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
        """Evaluate a body with no atoms (a fact) at plan time, as a
        step chain ending in the head."""
        slots = Slots()
        links = []
        for item in items:
            if not isinstance(item, (A.Guard, A.Assignment, A.FlatMapItem)):
                raise TypeCheckError(
                    f"rule {rule.name}: {type(item).__name__} requires at "
                    "least one preceding relation atom"
                )
            links.append(compile_body_step(self.evaluator, item, slots))
        head_of = self.evaluator.compile_tuple(head_exprs, slots)

        def emit(frame, rank, rows):
            rows.append(head_of(frame))

        step = emit
        for link in reversed(links):
            step = link(step)
        rows: List[tuple] = []
        step([None] * len(slots), 0, rows)
        return rows

    def _frame_matcher(self, args, positions, schema: Schema, out_vars):
        """``fn(record, row) -> out tuple or None``: match ``row[p]``
        against ``args[p]`` (for ``positions``) over a frame holding the
        ``schema`` record, and select ``out_vars`` on success."""
        slots = Slots(schema.vars)
        match = compile_row_match(self.evaluator, args, positions, slots)
        out = _tuple_getter([slots.index[v] for v in out_vars])
        pad = [None] * (len(slots) - len(schema.vars))

        def match_row(record, row):
            frame = [*record, *pad]
            return out(frame) if match(row, frame) else None

        return match_row

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
            match = self._frame_matcher(
                atom.args, range(len(atom.args)), Schema(()), schema.vars
            )

            def expand(row):
                out = match((), row)
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
        left_key = self.compile_tuple([e for _, e in keys], schema)
        right_key = _tuple_getter([pos for pos, _ in keys])

        new_vars = [v for v in _dedup(pattern_vars_of_atom(atom)) if v not in bound]
        out_schema = schema.extended(new_vars)
        # Key equality already covers the keyable positions, so only the
        # residual ones are matched.  When every residual argument is a
        # fresh, distinct plain variable the match can never fail and
        # the merged row is a pure concatenation.
        if _simple_pvar_positions([atom.args[pos] for pos in residual]) is None:
            match = self._frame_matcher(atom.args, residual, schema, new_vars)

            def merge(l_row, r_row):
                new = match(l_row, r_row)
                return None if new is None else l_row + new

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
        for pos in residual:
            if _pattern_free_vars(atom.args[pos]):
                raise TypeCheckError(
                    f"rule {rule.name}: negated atom {atom.relation} mixes "
                    f"bound variables and wildcards in one argument; "
                    "rewrite the argument as separate conditions"
                )

        key_of = _tuple_getter([pos for pos, _ in keys])
        name = f"{rule.name}:negkey({atom.relation})"
        if residual:
            match = self._frame_matcher(atom.args, residual, Schema(()), ())

            def project(row):
                return () if match((), row) is None else (key_of(row),)

            projector: Node = FlatMapNode(project, name=name)
        else:
            projector = MapNode(key_of, name=name)
        left_key = self.compile_tuple([e for _, e in keys], schema)
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
        slots = Slots(schema.vars)
        value = self.evaluator.compile_expr(item.expr, slots)
        test = self.evaluator.compile_pattern(item.pattern, slots)
        new = _tuple_getter([slots.index[v] for v in new_vars])
        pad = [None] * (len(slots) - len(schema.vars))

        def expand(row):
            frame = [*row, *pad]
            if test(value(frame), frame):
                return (row + new(frame),)
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
        args_fn = self.compile_tuple(item.args, schema)
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
