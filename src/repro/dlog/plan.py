"""Compilation of rules into incremental dataflow.

Every body item is generated into the Python function of the stretch
or variant that runs it (:mod:`repro.dlog.interp`): the rule's
variables are locals, and the rest of the rule runs once per way the
item holds — a test for a guard or a pattern, a ``for`` for a FlatMap
(:func:`open_body_item`), binds and tests for an atom's pattern
(:func:`open_row_match`).  The recursive-stratum evaluator builds its
variants from the same pieces.

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

A stretch is one generated function ``step(record, weight, out)`` (a
join's takes both sides: ``step(left, right, weight, out)``) that ends
by adding ``weight`` to the head row, or to the record the next node
reads (the variables bound so far), in the node's output dict ``out``.
Where a scan's arguments or a join's residual ones are plain distinct
variables (so the match cannot fail) the row unpacks straight into
locals, with no tests; a stretch whose output is its input record adds
the record itself, and one with no items is :func:`emit`.  Body-less
rules (facts) run their generated stretch once, at plan time.

The classification helpers (:func:`pattern_vars`, :func:`classify_args`)
are shared with the recursive-stratum evaluator, which plans the same
information for its semi-naive join orders.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.dlog import ast as A
from repro.dlog.interp import Code, Evaluator, Slots, slot, tuple_text
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


def _tuple_getter(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """A ``row -> (row[p0], row[p1], ...)`` selector, in C: fewer than
    two positions select a slice of the row (a tuple)."""
    if not positions:
        return itemgetter(slice(0, 0))
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


def open_row_match(
    evaluator: Evaluator,
    code: Code,
    args: Sequence[A.Pattern],
    positions: Sequence[int],
    slots: Slots,
    row: str,
) -> None:
    """Match ``row[p]`` (``row`` a local of ``code``) against
    ``args[p]`` for each of ``positions`` in order, as statements: a
    variable bound earlier — in ``slots`` or at an earlier position — is
    compared, a new one binds its slot, and the rest of the rule runs
    only where every test holds (:meth:`Code.require`)."""
    for p in positions:
        code.match(evaluator.pattern(code, args[p], slots, f"{row}[{p}]"))


def open_body_item(
    evaluator: Evaluator, code: Code, item: A.BodyItem, slots: Slots
) -> None:
    """A guard, assignment or FlatMap over ``slots`` as statements in
    ``code``, binding the variables it introduces: the rest of the rule
    runs once per way the item holds."""
    value = evaluator.expr(code, item.expr, slots)
    if isinstance(item, A.Guard):
        code.require(value)
        return
    if isinstance(item, A.Assignment):
        code.match(evaluator.pattern(code, item.pattern, slots, value))
        return
    # A FlatMap: a variable bound already (a head variable, top-down) is
    # an equality constraint, like any pattern variable.
    elems, elem = code.temp(), code.temp()
    code.line(f"{elems} = {value}")
    code.open(
        f"for {elem} in ({elems}.pairs if isinstance({elems}, _MapValue) else {elems}):",
        loop=True,
    )
    code.match(evaluator.pattern(code, A.PVar(item.var), slots, elem))


def unpack(code: Code, start: int, stop: int, row: str) -> None:
    """Assign the columns of ``row`` to slots ``start..stop-1``."""
    if stop > start:
        code.line(f"{', '.join(slot(i) for i in range(start, stop))}, = {row}")


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


class Planner:
    """Compiles the rules of a checked program that run as dataflow.

    A rule is planned as its stateful nodes joined by *linear
    stretches*: each relation atom after the first is a
    :class:`JoinNode`, each negated atom an :class:`AntiJoinNode`, each
    aggregate an :class:`AggregateNode`, and the linear items after one
    of them — with the head after the last — run inside it as a
    generated step (see :mod:`repro.dlog.dataflow.operators`).  The
    first atom's stretch, and a negated atom's key projection, read a
    relation directly: a :class:`ScanNode`, or no node at all when it
    passes the relation's rows through unchanged.  Records between
    stages hold the variables bound so far, in binding order."""

    def __init__(self, checked: CheckedProgram, evaluator: Optional[Evaluator] = None):
        self.checked = checked
        self.evaluator = evaluator or Evaluator(checked)

    def fact_rows(self, rule: A.Rule) -> Optional[Dict[tuple, int]]:
        """A rule without body atoms (a fact), evaluated now as a
        generated stretch ending in its head: its rows, each with the
        number of ways the body holds; ``None`` for a rule with a body
        atom."""
        if any(isinstance(item, A.AtomItem) for item in rule.body):
            return None
        for item in rule.body:
            if not isinstance(item, _LINEAR):
                raise TypeCheckError(
                    f"rule {rule.name}: {type(item).__name__} requires at "
                    "least one preceding relation atom"
                )
        code = rule_code(rule, "fact")
        step, _ = self._stretch(code, Slots(), rule.body, self._head(rule), ("weight", "out"))
        rows: Dict[tuple, int] = {}
        step(1, rows)
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

    def _stretch(self, code: Code, slots: Slots, items, head, params, width=None):
        """Generate the linear ``items`` over ``slots`` (the stage's
        input already bound in ``code``) as ``(step, record)``.

        ``step(*params)`` runs the items and then adds ``weight`` to
        ``out`` for the head row (``head``, its expressions) or, with
        ``head`` None, for the record of every variable bound so far —
        ``record`` names them.  ``width`` is the length of the input
        record when slots ``0..width-1`` hold it, as the step's first
        parameter: a row that is that record as it stands is added
        itself, and with no items the step is :func:`emit`."""
        for item in items:
            open_body_item(self.evaluator, code, item, slots)
        record = None
        if head is None:
            record = [
                name
                for name in sorted(slots.bound(), key=slots.index.__getitem__)
                if not name.startswith(_COLUMN)
            ]
            head = [A.Var(name) for name in record]
        if width == len(slots) and [
            slots.index.get(e.name) if isinstance(e, A.Var) else None
            for e in head
        ] == list(range(width)):
            if not items:
                return emit, record
            row = params[0]
        else:
            row = self.evaluator.tuple_expr(code, head, slots)
        _add_row(code, row)
        return code.function("step", params), record

    def _record_fn(self, rule, variant: str, exprs: Sequence[A.Expr], record: Sequence[str]):
        """``fn(record) -> tuple`` of ``exprs`` over a record holding
        the ``record`` variables: a plain selection when every
        expression is one of them."""
        slots = Slots(record)
        idx = [
            slots.index.get(e.name) if isinstance(e, A.Var) else None
            for e in exprs
        ]
        if None not in idx:
            return _tuple_getter(idx)
        code = rule_code(rule, variant)
        row = self.evaluator.tuple_expr(code, exprs, slots)
        code.load("record", len(record))
        code.line(f"return {row}")
        return code.function("record", ["record"])

    def _plan_scan(self, rule, atom: A.Atom, linear, head, relations, nodes):
        """The first atom's stretch, read from its relation: no node
        when it passes every row through unchanged."""
        relation = relations[atom.relation]
        slots = Slots()
        code = rule_code(rule, f"scan({atom.relation})")
        width = None
        if _simple_pvar_positions(atom.args) is None:
            # Literals, repeated variables, structured patterns: the
            # match can fail.
            open_row_match(
                self.evaluator, code, atom.args, range(len(atom.args)), slots, "record"
            )
        else:
            _bind_row(slots, atom.args, ())
            width = len(slots)
            unpack(code, 0, width, "record")
        step, record = self._stretch(
            code, slots, linear, head, ("record", "weight", "out"), width
        )
        if step is emit:
            return relation, record
        node = ScanNode(step, name=f"{rule.name}:scan({atom.relation})")
        relation.connect_to(node, 0)
        nodes.append(node)
        return node, record

    def _plan_join(self, rule, atom: A.Atom, record, linear, head):
        keys, residual = classify_args(atom.args, set(record))
        variant = f"join({atom.relation})"
        left_key = self._record_fn(rule, f"{variant} key", [e for _, e in keys], record)
        right_key = _tuple_getter([pos for pos, _ in keys])
        slots = Slots(record)
        code = rule_code(rule, variant)
        unpack(code, 0, len(record), "left")
        # Key equality already covers the keyable positions, so only
        # the residual ones are matched.  When they are fresh, distinct
        # plain variables the match cannot fail: the right row unpacks.
        if _simple_pvar_positions([atom.args[p] for p in residual]) is None:
            open_row_match(self.evaluator, code, atom.args, residual, slots, "right")
        else:
            start = len(slots)
            _bind_row(slots, atom.args, set(record))
            unpack(code, start, len(slots), "right")
        pair, out_record = self._stretch(
            code, slots, linear, head, ("left", "right", "weight", "out")
        )
        node = JoinNode(left_key, right_key, pair, name=f"{rule.name}:{variant}")
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
        relation = relations[atom.relation]
        if residual or positions != list(range(len(atom.args))):
            # The negated relation projected to the key.
            code = rule_code(rule, f"negkey({atom.relation})")
            open_row_match(self.evaluator, code, atom.args, residual, Slots(), "record")
            _add_row(code, tuple_text([f"record[{p}]" for p in positions]))
            projector = ScanNode(
                code.function("negkey", ("record", "weight", "out")),
                name=f"{rule.name}:negkey({atom.relation})",
            )
            relation.connect_to(projector, 0)
            nodes.append(projector)
            relation = projector
        variant = f"antijoin({atom.relation})"
        left_key = self._record_fn(rule, f"{variant} key", [e for _, e in keys], record)
        slots = Slots(record)
        code = rule_code(rule, variant)
        unpack(code, 0, len(record), "record")
        step, out_record = self._stretch(
            code, slots, linear, head, ("record", "weight", "out"), len(record)
        )
        node = AntiJoinNode(left_key, step, name=f"{rule.name}:{variant}")
        relation.connect_to(node, 1)
        return node, out_record

    def _plan_aggregate(self, rule, item: A.AggregateItem, record, linear, head):
        key_fn = _tuple_getter([record.index(k) for k in item.group_by])
        args_fn = self._record_fn(rule, f"aggregate({item.func}) args", item.args, record)
        slots = Slots([*item.group_by, item.var])
        width = len(slots)
        code = rule_code(rule, f"aggregate({item.func})")
        unpack(code, 0, width, "record")
        step, out_record = self._stretch(
            code, slots, linear, head, ("record", "weight", "out"), width
        )
        agg = AGGREGATES[item.func]
        node = AggregateNode(
            key_fn,
            args_fn,
            agg.fn,
            step,
            name=f"aggregate({item.func})",
            select=agg.select,
        )
        return node, out_record


def rule_code(rule: A.Rule, variant: str) -> Code:
    """A function of ``rule``'s, filed as ``<dlog rule NAME: VARIANT>``."""
    return Code(f"<dlog rule {rule.name}: {variant}>")


def _add_row(code: Code, row: str) -> None:
    """End a step: add ``weight`` to the row ``row`` (an expression) in
    ``out``, dropping the entry when the sum is zero (:func:`emit`,
    inline)."""
    if not row.isidentifier():
        local = code.temp()
        code.line(f"{local} = {row}")
        row = local
    new = code.temp()
    code.line(f"{new} = out.get({row}, 0) + weight")
    code.open(f"if {new}:")
    code.line(f"out[{row}] = {new}")
    code.close()
    code.open("else:")
    code.line(f"del out[{row}]")
    code.close()
