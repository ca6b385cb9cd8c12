"""Compilation of rules into incremental dataflow.

Every body item compiles to code over a *frame* — a flat sequence
holding the rule's variables at the slot indices a :class:`Slots` fixes
in binding order (:mod:`repro.dlog.interp`) — and the code runs as a
*step chain*: a step ``step(frame, rank, ctx)`` calls the next one once
per way its item holds (:func:`compile_row_match` for an atom's
pattern, :func:`compile_body_step` for a guard, assignment or FlatMap).
A non-``None`` return stops a chain early and is passed back up; the
recursive-stratum evaluator uses that to stop at a first derivation.

A rule that runs as dataflow is its *stateful* items, each a node,
joined by *linear stretches* — the items between them — that run
inside the node producing their input:

=======================  ==============================================
body item                where it runs
=======================  ==============================================
first atom               a Scan of its relation (pattern match), or
                         nothing when the stretch after it passes the
                         rows through unchanged
later atom               a Join keyed on its bound positions; the
                         residual positions match inside it
``not R(...)``           an AntiJoin; the negated relation is projected
                         to the key by a Scan (nothing when the key is
                         the whole row)
``var x = Aggregate``    an Aggregate
guard, ``var p = e``,    the node of the nearest stateful item before
``var x = FlatMap(e)``   it (or the first atom's Scan)
head                     the last node's stretch, which adds head rows
                         to the head relation's Distinct node
=======================  ==============================================

For dataflow, a chain's ``rank`` is the Z-set weight and ``ctx`` the
node's output dict; its last step adds the head row, or the record the
next node reads (the variables bound so far), to that dict.  Where a
scan's arguments or a join's residual ones are plain distinct variables
(so the match cannot fail) the frame is the row itself, or the left
record followed by the right row, with no match step; a stretch that
would only copy its frame adds the frame itself.  Body-less rules
(facts) run the same chains once, at plan time.

The classification helpers (:func:`pattern_vars`, :func:`classify_args`)
are shared with the recursive-stratum evaluator, which plans the same
information for its semi-naive join orders.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.dlog import ast as A
from repro.dlog.interp import Evaluator, Slots
from repro.dlog.typecheck import CheckedProgram, pattern_to_expr
from repro.dlog.dataflow.operators import (
    AggregateNode,
    AntiJoinNode,
    JoinNode,
    Node,
    ScanNode,
    emit,
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


_LINEAR = (A.Guard, A.Assignment, A.FlatMapItem)


def _stages(rule: A.Rule) -> List[Tuple[A.BodyItem, List[A.BodyItem]]]:
    """A body as its stages: each relation atom, negated atom or
    aggregate with the linear items that follow it, the first stage
    being the first atom's."""
    stages: List[Tuple[A.BodyItem, List[A.BodyItem]]] = []
    for item in rule.body:
        if stages and isinstance(item, _LINEAR):
            stages[-1][1].append(item)
        elif stages or isinstance(item, A.AtomItem):
            stages.append((item, []))
        else:
            raise TypeCheckError(
                f"rule {rule.name}: body must start with a relation atom"
            )
    return stages


#: Prefix of the slot names given to a row's columns that bind no new
#: variable (a join key, a wildcard): no rule variable can be named so,
#: and records between stages leave them out.
_COLUMN = "#"


def _bind_row(slots: Slots, args: Sequence[A.Pattern], bound) -> None:
    """Give each column of a row appended to the frame a slot: a fresh
    variable's own, any other column an anonymous one."""
    for pat in args:
        if isinstance(pat, A.PVar) and pat.name not in bound:
            slots.bind(pat.name)
        else:
            slots.bind(f"{_COLUMN}{len(slots)}")


def _frame_of(pad: int):
    """``fn(record) -> frame``: a list holding the record followed by
    ``pad`` free slots, for the variables the code after it binds."""
    fill = [None] * pad
    return lambda record: [*record, *fill]


def _framed(step, pad: int):
    """``fn(record, weight, out)`` running ``step`` on the record's
    frame with ``pad`` free slots (on the record itself with none)."""
    if not pad:
        return step
    frame_of = _frame_of(pad)
    return lambda record, weight, out: step(frame_of(record), weight, out)


class Planner:
    """Compiles the rules of a checked program that run as dataflow.

    A rule is planned as its stateful nodes joined by *linear
    stretches*: each relation atom after the first is a
    :class:`JoinNode`, each negated atom an :class:`AntiJoinNode`, each
    aggregate an :class:`AggregateNode`, and the linear items after one
    of them — with the head after the last — run inside it as a compiled
    step (see :mod:`repro.dlog.dataflow.operators`).  The first atom's
    stretch, and a negated atom's key projection, read a relation
    directly: a :class:`ScanNode`, or no node at all when it passes the
    relation's rows through unchanged.  Records between stages hold the
    variables bound so far, in binding order."""

    def __init__(self, checked: CheckedProgram, evaluator: Optional[Evaluator] = None):
        self.checked = checked
        self.evaluator = evaluator or Evaluator(checked)

    def fact_rows(self, rule: A.Rule) -> Optional[Dict[tuple, int]]:
        """A rule without body atoms (a fact), evaluated now as a step
        chain ending in its head: its rows, each with the number of
        ways the body holds; ``None`` for a rule with a body atom."""
        if any(isinstance(item, A.AtomItem) for item in rule.body):
            return None
        for item in rule.body:
            if not isinstance(item, _LINEAR):
                raise TypeCheckError(
                    f"rule {rule.name}: {type(item).__name__} requires at "
                    "least one preceding relation atom"
                )
        slots = Slots()
        step, _ = self._stretch(slots, rule.body, self._head(rule), None)
        rows: Dict[tuple, int] = {}
        step([None] * len(slots), 1, rows)
        return rows

    def plan_rule(
        self, rule: A.Rule, relations: Mapping[str, Node], target: Node
    ) -> List[Node]:
        """Plan a rule with body atoms, wired from the ``relations``
        nodes it reads into ``target`` (port 0); returns the nodes it
        created, upstream first."""
        stages = _stages(rule)
        nodes: List[Node] = []
        source: Optional[Node] = None
        record: Optional[List[str]] = None
        for i, (item, linear) in enumerate(stages):
            head = self._head(rule) if i == len(stages) - 1 else None
            if source is None:
                source, record = self._plan_scan(
                    rule, item.atom, linear, head, relations, nodes
                )
                continue
            if isinstance(item, A.AtomItem):
                node, record = self._plan_join(rule, item.atom, record, linear, head)
                relations[item.atom.relation].connect_to(node, 1)
            elif isinstance(item, A.NegAtom):
                node, record = self._plan_antijoin(
                    rule, item.atom, record, linear, head, relations, nodes
                )
            else:
                node, record = self._plan_aggregate(rule, item, record, linear, head)
            source.connect_to(node, 0)
            nodes.append(node)
            source = node
        source.connect_to(target, 0)
        return nodes

    def _head(self, rule: A.Rule) -> List[A.Expr]:
        return self.checked.head_exprs[id(rule)]

    def _stretch(self, slots: Slots, items, head, width: Optional[int]):
        """Compile the linear ``items`` over ``slots`` (the stage's
        input already bound) into ``(step, record)``.

        ``step(frame, weight, out)`` runs the items and then adds to
        ``out`` the head row (``head``, its expressions) or, with
        ``head`` None, the record of every variable bound so far —
        ``record`` names them.  When the frame is the stage's input
        tuple as it stands (``width`` is its length, ``None`` if the
        stage always builds a list) and would be added unchanged, the
        terminal is :func:`emit` — and with no items, so is the step."""
        links = [compile_body_step(self.evaluator, item, slots) for item in items]
        record = None
        if head is None:
            record = [
                name
                for name in sorted(slots.bound(), key=slots.index.__getitem__)
                if not name.startswith(_COLUMN)
            ]
            head = [A.Var(name) for name in record]
        project = self.evaluator.compile_tuple(head, slots)
        if width == len(slots) and [
            slots.index.get(e.name) if isinstance(e, A.Var) else None
            for e in head
        ] == list(range(width)):
            step = emit
        else:

            def step(frame, weight, out):
                row = project(frame)
                new = out.get(row, 0) + weight
                if new:
                    out[row] = new
                else:
                    del out[row]

        for link in reversed(links):
            step = link(step)
        return step, record

    def _record_fn(self, exprs: Sequence[A.Expr], record: Sequence[str]):
        """``fn(record) -> tuple`` of ``exprs`` over a record holding
        the ``record`` variables — copied into a bigger frame only when
        the code needs one (match-arm bindings)."""
        slots = Slots(record)
        fn = self.evaluator.compile_tuple(exprs, slots)
        if len(slots) == len(record):
            return fn
        frame_of = _frame_of(len(slots) - len(record))
        return lambda row: fn(frame_of(row))

    def _plan_scan(self, rule, atom: A.Atom, linear, head, relations, nodes):
        """The first atom's stretch, read from its relation: no node
        when it passes every row through unchanged."""
        relation = relations[atom.relation]
        slots = Slots()
        if _simple_pvar_positions(atom.args) is None:
            # Literals, repeated variables, structured patterns: the
            # match can fail and binds into a list frame.
            match = compile_row_match(
                self.evaluator, atom.args, range(len(atom.args)), slots
            )
            step, record = self._stretch(slots, linear, head, None)
            frame_of = _frame_of(len(slots))

            def scan(row, weight, out):
                frame = frame_of(())
                if match(row, frame):
                    step(frame, weight, out)

        else:
            # The row is the frame.
            _bind_row(slots, atom.args, ())
            width = len(slots)
            step, record = self._stretch(slots, linear, head, width)
            if step is emit:
                return relation, record
            scan = _framed(step, len(slots) - width)
        node = ScanNode(scan, name=f"{rule.name}:scan({atom.relation})")
        relation.connect_to(node, 0)
        nodes.append(node)
        return node, record

    def _plan_join(self, rule, atom: A.Atom, record, linear, head):
        keys, residual = classify_args(atom.args, set(record))
        left_key = self._record_fn([e for _, e in keys], record)
        right_key = _tuple_getter([pos for pos, _ in keys])
        slots = Slots(record)
        # Key equality already covers the keyable positions, so only
        # the residual ones are matched.  When they are fresh, distinct
        # plain variables the match cannot fail: the frame is the left
        # record followed by the right one.
        if _simple_pvar_positions([atom.args[p] for p in residual]) is None:
            match = compile_row_match(self.evaluator, atom.args, residual, slots)
            step, out_record = self._stretch(slots, linear, head, None)
            frame_of = _frame_of(len(slots) - len(record))

            def pair(left, right, weight, out):
                frame = frame_of(left)
                if match(right, frame):
                    step(frame, weight, out)

        else:
            _bind_row(slots, atom.args, set(record))
            width = len(slots)
            step, out_record = self._stretch(slots, linear, head, width)
            step = _framed(step, len(slots) - width)

            def pair(left, right, weight, out):
                step(left + right, weight, out)

        node = JoinNode(
            left_key, right_key, pair, name=f"{rule.name}:join({atom.relation})"
        )
        return node, out_record

    def _plan_antijoin(self, rule, atom: A.Atom, record, linear, head, relations, nodes):
        keys, residual = classify_args(atom.args, set(record))
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
        positions = [pos for pos, _ in keys]
        key_of = _tuple_getter(positions)
        relation = relations[atom.relation]
        if residual:
            slots = Slots()
            match = compile_row_match(self.evaluator, atom.args, residual, slots)
            frame_of = _frame_of(len(slots))

            def key_step(row, weight, out):
                if match(row, frame_of(())):
                    emit(key_of(row), weight, out)

        elif positions != list(range(len(atom.args))):

            def key_step(row, weight, out):
                emit(key_of(row), weight, out)

        else:
            key_step = None  # the key is the whole row
        if key_step is not None:
            projector = ScanNode(key_step, name=f"{rule.name}:negkey({atom.relation})")
            relation.connect_to(projector, 0)
            nodes.append(projector)
            relation = projector
        left_key = self._record_fn([e for _, e in keys], record)
        slots = Slots(record)
        step, out_record = self._stretch(slots, linear, head, len(record))
        node = AntiJoinNode(
            left_key,
            _framed(step, len(slots) - len(record)),
            name=f"{rule.name}:antijoin({atom.relation})",
        )
        relation.connect_to(node, 1)
        return node, out_record

    def _plan_aggregate(self, rule, item: A.AggregateItem, record, linear, head):
        key_fn = _tuple_getter([record.index(k) for k in item.group_by])
        args_fn = self._record_fn(item.args, record)
        slots = Slots([*item.group_by, item.var])
        width = len(slots)
        step, out_record = self._stretch(slots, linear, head, width)
        agg = AGGREGATES[item.func]
        node = AggregateNode(
            key_fn,
            args_fn,
            agg.fn,
            _framed(step, len(slots) - width),
            name=f"aggregate({item.func})",
            select=agg.select,
        )
        return node, out_record
