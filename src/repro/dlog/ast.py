"""Abstract syntax for the control-plane language.

A program is a list of declarations:

* ``typedef`` — named structs/unions;
* ``function`` — pure functions usable in expressions;
* ``input relation`` / ``output relation`` / ``relation`` — typed
  relations (inputs are fed by transactions, outputs are observable,
  plain relations are internal views);
* rules — ``Head(args) :- body.``

Rule bodies are sequences of :class:`BodyItem`:

* :class:`Atom` — positive literal; argument *patterns* bind variables;
* :class:`NegAtom` — negated literal (``not R(...)``);
* :class:`Guard` — boolean expression over bound variables;
* :class:`Assignment` — ``var x = expr``;
* :class:`FlatMapItem` — ``var x = FlatMap(expr)`` iterates a Vec/Map;
* :class:`AggregateItem` — ``var x = Aggregate((k1, k2), func(expr))``.

All nodes carry a source position for diagnostics.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.dlog import types as T
from repro.syntax import Pos

NOPOS = Pos()


class Node:
    """Base AST node."""

    __slots__ = ("pos",)

    def __init__(self, pos: Pos = NOPOS):
        self.pos = pos


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    __slots__ = ()


class Lit(Expr):
    """A literal constant (bool, int, float, or string)."""

    __slots__ = ("value", "width")

    def __init__(self, value, width: Optional[int] = None, pos: Pos = NOPOS):
        super().__init__(pos)
        self.value = value
        self.width = width  # explicit bit width for e.g. 32'd5, else None

    def __repr__(self):
        return f"Lit({self.value!r})"


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str, pos: Pos = NOPOS):
        super().__init__(pos)
        self.name = name

    def __repr__(self):
        return f"Var({self.name})"


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr, pos: Pos = NOPOS):
        super().__init__(pos)
        self.op = op
        self.left = left
        self.right = right

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class UnaryOp(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr, pos: Pos = NOPOS):
        super().__init__(pos)
        self.op = op
        self.operand = operand


class Field(Expr):
    """Field access ``e.name`` (structs) or ``e.0`` (tuples)."""

    __slots__ = ("expr", "name")

    def __init__(self, expr: Expr, name: str, pos: Pos = NOPOS):
        super().__init__(pos)
        self.expr = expr
        self.name = name


class Call(Expr):
    """Function call ``f(a, b)``; method sugar ``x.f(a)`` == ``f(x, a)``."""

    __slots__ = ("func", "args")

    def __init__(self, func: str, args: Sequence[Expr], pos: Pos = NOPOS):
        super().__init__(pos)
        self.func = func
        self.args = list(args)

    def __repr__(self):
        return f"{self.func}({', '.join(map(repr, self.args))})"


class TupleExpr(Expr):
    __slots__ = ("elems",)

    def __init__(self, elems: Sequence[Expr], pos: Pos = NOPOS):
        super().__init__(pos)
        self.elems = list(elems)


class VecExpr(Expr):
    """Vector literal ``[e1, e2, ...]``."""

    __slots__ = ("elems",)

    def __init__(self, elems: Sequence[Expr], pos: Pos = NOPOS):
        super().__init__(pos)
        self.elems = list(elems)


class StructExpr(Expr):
    """Constructor application ``Ctor{f1: e1, ...}`` or ``Ctor(e1, ...)``.

    ``fields`` is a list of ``(name_or_None, expr)``; names are either
    all present (named form) or all absent (positional form).
    """

    __slots__ = ("ctor", "fields")

    def __init__(
        self,
        ctor: str,
        fields: Sequence[Tuple[Optional[str], Expr]],
        pos: Pos = NOPOS,
    ):
        super().__init__(pos)
        self.ctor = ctor
        self.fields = list(fields)


class IfExpr(Expr):
    __slots__ = ("cond", "then", "els")

    def __init__(self, cond: Expr, then: Expr, els: Expr, pos: Pos = NOPOS):
        super().__init__(pos)
        self.cond = cond
        self.then = then
        self.els = els


class MatchExpr(Expr):
    """``match (e) { pat -> expr, ... }``."""

    __slots__ = ("subject", "arms")

    def __init__(
        self,
        subject: Expr,
        arms: Sequence[Tuple["Pattern", Expr]],
        pos: Pos = NOPOS,
    ):
        super().__init__(pos)
        self.subject = subject
        self.arms = list(arms)


class Cast(Expr):
    """``e as type`` — numeric width/sign conversion."""

    __slots__ = ("expr", "type")

    def __init__(self, expr: Expr, type: T.Type, pos: Pos = NOPOS):
        super().__init__(pos)
        self.expr = expr
        self.type = type


# ---------------------------------------------------------------------------
# Patterns (match arms and atom arguments)
# ---------------------------------------------------------------------------


class Pattern(Node):
    __slots__ = ()


class PWildcard(Pattern):
    __slots__ = ()

    def __repr__(self):
        return "_"


class PVar(Pattern):
    __slots__ = ("name",)

    def __init__(self, name: str, pos: Pos = NOPOS):
        super().__init__(pos)
        self.name = name

    def __repr__(self):
        return self.name


class PLit(Pattern):
    __slots__ = ("value",)

    def __init__(self, value, pos: Pos = NOPOS):
        super().__init__(pos)
        self.value = value

    def __repr__(self):
        return repr(self.value)


class PTuple(Pattern):
    __slots__ = ("elems",)

    def __init__(self, elems: Sequence[Pattern], pos: Pos = NOPOS):
        super().__init__(pos)
        self.elems = list(elems)


class PStruct(Pattern):
    """Constructor pattern ``Ctor{f: pat, ...}`` or ``Ctor(pat, ...)``."""

    __slots__ = ("ctor", "fields")

    def __init__(
        self,
        ctor: str,
        fields: Sequence[Tuple[Optional[str], Pattern]],
        pos: Pos = NOPOS,
    ):
        super().__init__(pos)
        self.ctor = ctor
        self.fields = list(fields)


class PExpr(Pattern):
    """An arbitrary expression used as an atom argument.

    If the expression is evaluable from already-bound variables it acts
    as an equality constraint on that argument position.
    """

    __slots__ = ("expr",)

    def __init__(self, expr: Expr, pos: Pos = NOPOS):
        super().__init__(pos)
        self.expr = expr


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


class Atom(Node):
    __slots__ = ("relation", "args")

    def __init__(self, relation: str, args: Sequence[Pattern], pos: Pos = NOPOS):
        super().__init__(pos)
        self.relation = relation
        self.args = list(args)

    def __repr__(self):
        return f"{self.relation}({', '.join(map(repr, self.args))})"


class BodyItem(Node):
    __slots__ = ()


class AtomItem(BodyItem):
    __slots__ = ("atom",)

    def __init__(self, atom: Atom, pos: Pos = NOPOS):
        super().__init__(pos)
        self.atom = atom


class NegAtom(BodyItem):
    __slots__ = ("atom",)

    def __init__(self, atom: Atom, pos: Pos = NOPOS):
        super().__init__(pos)
        self.atom = atom


class Guard(BodyItem):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr, pos: Pos = NOPOS):
        super().__init__(pos)
        self.expr = expr


class Assignment(BodyItem):
    """``var x = expr`` — binds a new variable."""

    __slots__ = ("pattern", "expr")

    def __init__(self, pattern: Pattern, expr: Expr, pos: Pos = NOPOS):
        super().__init__(pos)
        self.pattern = pattern
        self.expr = expr


class FlatMapItem(BodyItem):
    """``var x = FlatMap(expr)`` — binds x to each element of a Vec/Map."""

    __slots__ = ("var", "expr")

    def __init__(self, var: str, expr: Expr, pos: Pos = NOPOS):
        super().__init__(pos)
        self.var = var
        self.expr = expr


class AggregateItem(BodyItem):
    """``var out = Aggregate((k1, ...), func(expr...))``.

    Groups the tuples produced by the preceding body items by the key
    variables and applies the aggregate function to each group.  After
    this item, only the key variables and ``out`` remain in scope.
    """

    __slots__ = ("var", "group_by", "func", "args")

    def __init__(
        self,
        var: str,
        group_by: Sequence[str],
        func: str,
        args: Sequence[Expr],
        pos: Pos = NOPOS,
    ):
        super().__init__(pos)
        self.var = var
        self.group_by = list(group_by)
        self.func = func
        self.args = list(args)


class Rule(Node):
    __slots__ = ("head", "body", "name")

    def __init__(
        self,
        head: Atom,
        body: Sequence[BodyItem],
        pos: Pos = NOPOS,
        name: Optional[str] = None,
    ):
        super().__init__(pos)
        self.head = head
        self.body = list(body)
        self.name = name or f"rule@{pos.line}"

    def __repr__(self):
        return f"{self.head!r} :- ..."


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class RelationDecl(Node):
    """``input relation R(col: type, ...)`` etc.

    ``role`` is one of ``"input"``, ``"output"``, ``"internal"``.
    """

    __slots__ = ("name", "columns", "role")

    def __init__(
        self,
        name: str,
        columns: Sequence[Tuple[str, T.Type]],
        role: str,
        pos: Pos = NOPOS,
    ):
        super().__init__(pos)
        self.name = name
        self.columns = list(columns)
        self.role = role

    @property
    def arity(self) -> int:
        return len(self.columns)

    def column_names(self) -> List[str]:
        return [c for c, _ in self.columns]

    def column_types(self) -> List[T.Type]:
        return [t for _, t in self.columns]

    def __repr__(self):
        cols = ", ".join(f"{n}: {t}" for n, t in self.columns)
        return f"{self.role} relation {self.name}({cols})"


class FunctionDecl(Node):
    """``function f(a: T1, b: T2): T3 { expr }``."""

    __slots__ = ("name", "params", "return_type", "body")

    def __init__(
        self,
        name: str,
        params: Sequence[Tuple[str, T.Type]],
        return_type: T.Type,
        body: Expr,
        pos: Pos = NOPOS,
    ):
        super().__init__(pos)
        self.name = name
        self.params = list(params)
        self.return_type = return_type
        self.body = body


class Program(Node):
    """A parsed program: typedefs, functions, relations, and rules."""

    __slots__ = ("typedefs", "functions", "relations", "rules")

    def __init__(
        self,
        typedefs: Sequence[T.TypeDef] = (),
        functions: Sequence[FunctionDecl] = (),
        relations: Sequence[RelationDecl] = (),
        rules: Sequence[Rule] = (),
        pos: Pos = NOPOS,
    ):
        super().__init__(pos)
        self.typedefs = list(typedefs)
        self.functions = list(functions)
        self.relations = list(relations)
        self.rules = list(rules)

    def relation(self, name: str) -> RelationDecl:
        for r in self.relations:
            if r.name == name:
                return r
        raise KeyError(name)
