"""Recursive-descent parser for the control-plane language.

Surface syntax (a DDlog-flavoured dialect)::

    typedef vlan_mode_t = Access | Trunk{native: bit<12>}

    function default_tag(mode: vlan_mode_t): bit<12> {
        match (mode) { Access -> 1, Trunk{n} -> n }
    }

    input relation Port(id: bit<32>, mode: string, tag: bit<12>)
    output relation InVlan(port: bit<32>, vlan: bit<12>)

    InVlan(p, v) :- Port(p, "access", v).
    InVlan(p, v) :- Port(p, mode, v), mode != "access", v > 0.

Bodies may also contain ``var x = expr`` assignments,
``var x = FlatMap(vec_expr)`` iteration, negated atoms ``not R(...)``,
and grouping ``var n = Aggregate((key), count())``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro import syntax
from repro.dlog import ast as A
from repro.dlog import types as T
from repro.dlog.lexer import tokenize
from repro.errors import ParseError
from repro.syntax import Token, describe, precedence

AGGREGATE_FUNCS = {
    "count",
    "sum",
    "min",
    "max",
    "avg",
    "group_to_vec",
    "group_to_set",
    "group_to_map",
}


# Binary operators, loosest first.  ``not`` binds between the two
# tables: ``not a == b`` is ``not (a == b)``.
_LOGIC = precedence(("left", "or"), ("left", "and"))
_ARITH = precedence(
    ("none", "==", "!=", "<=", ">=", "<", ">"),
    ("left", "|"),
    ("left", "^"),
    ("left", "&"),
    ("left", "<<", ">>"),
    ("left", "++"),
    ("left", "+", "-"),
    ("left", "*", "/", "%"),
)


class Parser(syntax.Parser):
    def __init__(self, text: str, source: str = "<input>"):
        super().__init__(tokenize(text, source), source)

    def expect(self, kind: str, value=None, what: Optional[str] = None) -> Token:
        tok = self.peek()
        if value == ">" and tok.kind == "op" and tok.value == ">>":
            # Split `>>` so nested generics like Map<string, bit<32>> close.
            tok.value = ">"
            return Token("op", ">", tok.line, tok.column)
        return super().expect(kind, value, what)

    def _listed(self, item, close: str) -> list:
        """``item()``s separated by ``,``, possibly none, then ``close``."""
        items = []
        if not self.at("op", close):
            items.append(item())
            while self.accept("op", ","):
                items.append(item())
        self.expect("op", close)
        return items

    # -- program ----------------------------------------------------------

    def parse_program(self) -> A.Program:
        typedefs: List[T.TypeDef] = []
        functions: List[A.FunctionDecl] = []
        relations: List[A.RelationDecl] = []
        rules: List[A.Rule] = []
        while self.peek().kind != "eof":
            if self.at("keyword", "typedef"):
                typedefs.append(self.parse_typedef())
            elif self.at("keyword", "function"):
                functions.append(self.parse_function())
            elif (
                self.at("keyword", "input")
                or self.at("keyword", "output")
                or self.at("keyword", "relation")
            ):
                relations.append(self.parse_relation_decl())
            else:
                rules.append(self.parse_rule())
        return A.Program(typedefs, functions, relations, rules)

    # -- declarations ------------------------------------------------------

    def parse_typedef(self) -> T.TypeDef:
        self.expect("keyword", "typedef")
        name = self.expect("ident", what="typedef name").value
        params: List[str] = []
        if self.accept("op", "<"):
            params.append(self.expect("ident", what="type parameter").value)
            while self.accept("op", ","):
                params.append(self.expect("ident", what="type parameter").value)
            self.expect("op", ">")
        self.expect("op", "=")
        ctors = [self.parse_constructor()]
        while self.accept("op", "|"):
            ctors.append(self.parse_constructor())
        # A "typedef name = type" alias form: single anonymous constructor
        # is not supported; a struct with the typedef's name is the common
        # case and is written "typedef t = T{...}".
        return T.TypeDef(name, params, ctors)

    def parse_constructor(self) -> T.Constructor:
        name = self.expect("ident", what="constructor name").value
        fields: List[T.Field] = []
        if self.accept("op", "{"):
            fields = self._listed(self.parse_field, "}")
        return T.Constructor(name, fields)

    def parse_field(self) -> T.Field:
        name = self.expect("ident", what="field name").value
        self.expect("op", ":")
        return T.Field(name, self.parse_type())

    def parse_function(self) -> A.FunctionDecl:
        pos = self.pos()
        self.expect("keyword", "function")
        name = self.expect("ident", what="function name").value
        self.expect("op", "(")
        params: List[Tuple[str, T.Type]] = self._listed(self._parse_param, ")")
        self.expect("op", ":")
        ret = self.parse_type()
        self.expect("op", "{")
        body = self.parse_expr()
        self.expect("op", "}")
        return A.FunctionDecl(name, params, ret, body, pos)

    def _parse_param(self) -> Tuple[str, T.Type]:
        name = self.expect("ident", what="parameter name").value
        self.expect("op", ":")
        return name, self.parse_type()

    def parse_relation_decl(self) -> A.RelationDecl:
        pos = self.pos()
        role = "internal"
        if self.at("keyword", "input"):
            self.next()
            role = "input"
        elif self.at("keyword", "output"):
            self.next()
            role = "output"
        self.expect("keyword", "relation")
        name = self.expect("ident", what="relation name").value
        self.expect("op", "(")
        columns: List[Tuple[str, T.Type]] = self._listed(self._parse_param, ")")
        return A.RelationDecl(name, columns, role, pos)

    # -- types --------------------------------------------------------------

    def parse_type(self) -> T.Type:
        tok = self.peek()
        if tok.kind == "keyword":
            if tok.value == "bool":
                self.next()
                return T.BOOL
            if tok.value == "string":
                self.next()
                return T.STRING
            if tok.value == "bigint":
                self.next()
                return T.BIGINT
            if tok.value == "float":
                self.next()
                return T.FLOAT
            if tok.value in ("bit", "signed"):
                self.next()
                self.expect("op", "<")
                width_tok = self.peek()
                if width_tok.kind != "int":
                    raise self.error("expected integer width")
                self.next()
                width = width_tok.value[0]
                self.expect("op", ">")
                return T.TBit(width) if tok.value == "bit" else T.TSigned(width)
            raise self.error(f"unexpected keyword {tok.value!r} in type")
        if self.accept("op", "("):
            elems = [self.parse_type()]
            while self.accept("op", ","):
                elems.append(self.parse_type())
            self.expect("op", ")")
            return elems[0] if len(elems) == 1 else T.TTuple(elems)
        if tok.kind == "ident":
            name = self.next().value
            args: List[T.Type] = []
            if self.accept("op", "<"):
                args.append(self.parse_type())
                while self.accept("op", ","):
                    args.append(self.parse_type())
                self.expect("op", ">")
            if name == "Vec":
                if len(args) != 1:
                    raise self.error("Vec takes exactly one type parameter")
                return T.TVec(args[0])
            if name == "Map":
                if len(args) != 2:
                    raise self.error("Map takes exactly two type parameters")
                return T.TMap(args[0], args[1])
            return T.TUser(name, args)
        raise self.error(f"expected type, found {describe(tok)}")

    # -- rules ---------------------------------------------------------------

    def parse_rule(self) -> A.Rule:
        pos = self.pos()
        head = self.parse_atom()
        body: List[A.BodyItem] = []
        if self.accept("op", ":-"):
            body.append(self.parse_body_item())
            while self.accept("op", ","):
                body.append(self.parse_body_item())
        self.expect("op", ".")
        return A.Rule(head, body, pos)

    def parse_atom(self) -> A.Atom:
        pos = self.pos()
        name_tok = self.expect("ident", what="relation name")
        self.expect("op", "(")
        args: List[A.Pattern] = self._listed(self.parse_arg, ")")
        return A.Atom(name_tok.value, args, pos)

    def parse_body_item(self) -> A.BodyItem:
        pos = self.pos()
        if self.at("keyword", "not"):
            # Negated atom (`not R(...)`) or a boolean guard (`not expr`).
            mark = self.i
            self.next()
            if self._looks_like_atom():
                return A.NegAtom(self.parse_atom(), pos)
            self.i = mark
            return A.Guard(self.parse_expr(), pos)
        if self.at("keyword", "var"):
            return self._parse_var_item(pos)
        if self._looks_like_atom():
            return A.AtomItem(self.parse_atom(), pos)
        return A.Guard(self.parse_expr(), pos)

    def _looks_like_atom(self) -> bool:
        """True if the next tokens are ``Uppercase(``, i.e. a relation atom."""
        tok = self.peek()
        nxt = self.peek(1)
        return (
            tok.kind == "ident"
            and tok.value[:1].isupper()
            and nxt.kind == "op"
            and nxt.value == "("
        )

    def _parse_var_item(self, pos: A.Pos) -> A.BodyItem:
        self.expect("keyword", "var")
        # Assignment LHS may be a pattern (tuple destructuring), but
        # FlatMap/Aggregate require a simple variable.
        lhs_pattern = self.parse_pattern()
        self.expect("op", "=")
        tok = self.peek()
        if tok.kind == "ident" and tok.value == "FlatMap":
            if not isinstance(lhs_pattern, A.PVar):
                raise self.error("FlatMap binds a single variable")
            self.next()
            self.expect("op", "(")
            expr = self.parse_expr()
            self.expect("op", ")")
            return A.FlatMapItem(lhs_pattern.name, expr, pos)
        if tok.kind == "ident" and tok.value == "Aggregate":
            if not isinstance(lhs_pattern, A.PVar):
                raise self.error("Aggregate binds a single variable")
            self.next()
            self.expect("op", "(")
            self.expect("op", "(")
            keys: List[str] = self._listed(
                lambda: self.expect("ident", what="group-by variable").value, ")"
            )
            self.expect("op", ",")
            func = self.expect("ident", what="aggregate function").value
            if func not in AGGREGATE_FUNCS:
                raise self.error(
                    f"unknown aggregate function {func!r}; "
                    f"expected one of {sorted(AGGREGATE_FUNCS)}"
                )
            self.expect("op", "(")
            args: List[A.Expr] = self._listed(self.parse_expr, ")")
            self.expect("op", ")")
            return A.AggregateItem(lhs_pattern.name, keys, func, args, pos)
        return A.Assignment(lhs_pattern, self.parse_expr(), pos)

    def parse_arg(self) -> A.Pattern:
        """Parse one atom argument: a pattern, or an expression constraint."""
        mark = self.i
        try:
            pat = self.parse_pattern()
            if self.at("op", ",") or self.at("op", ")"):
                return pat
        except ParseError:
            pass
        self.i = mark
        pos = self.pos()
        return A.PExpr(self.parse_expr(), pos)

    # -- patterns -------------------------------------------------------------

    def parse_pattern(self) -> A.Pattern:
        pos = self.pos()
        tok = self.peek()
        if tok.kind == "op" and tok.value == "_":
            self.next()
            return A.PWildcard(pos)
        if tok.kind == "keyword" and tok.value in ("true", "false"):
            self.next()
            return A.PLit(tok.value == "true", pos)
        if tok.kind == "int":
            self.next()
            return A.PLit(tok.value[0], pos)
        if tok.kind == "string":
            self.next()
            return A.PLit(tok.value, pos)
        if tok.kind == "op" and tok.value == "-" and self.peek(1).kind == "int":
            self.next()
            value_tok = self.next()
            return A.PLit(-value_tok.value[0], pos)
        if self.accept("op", "("):
            elems = [self.parse_pattern()]
            while self.accept("op", ","):
                elems.append(self.parse_pattern())
            self.expect("op", ")")
            if len(elems) == 1:
                return elems[0]
            return A.PTuple(elems, pos)
        if tok.kind == "ident":
            name = self.next().value
            if name[:1].isupper():
                fields: List[Tuple[Optional[str], A.Pattern]] = []
                if self.accept("op", "{"):
                    fields = self._listed(
                        lambda: self._parse_struct_field(self.parse_pattern), "}"
                    )
                return A.PStruct(name, fields, pos)
            return A.PVar(name, pos)
        raise self.error(f"expected pattern, found {describe(tok)}")

    def _parse_struct_field(self, parse) -> Tuple[Optional[str], A.Node]:
        """A struct field, named (``field: x``) or positional (``x``);
        ``parse`` reads the ``x``, a pattern or an expression."""
        tok = self.peek()
        if (
            tok.kind == "ident"
            and self.peek(1).kind == "op"
            and self.peek(1).value == ":"
        ):
            name = self.next().value
            self.next()  # ':'
            return name, parse()
        return None, parse()

    # -- expressions ------------------------------------------------------------

    def parse_expr(self) -> A.Expr:
        return self.binary(_LOGIC, self._parse_not, A.BinOp)

    def _parse_not(self) -> A.Expr:
        if self.at("keyword", "not"):
            pos = self.pos()
            self.next()
            return A.UnaryOp("not", self._parse_not(), pos)
        return self.binary(_ARITH, self._parse_unary, A.BinOp)

    def _parse_unary(self) -> A.Expr:
        pos = self.pos()
        if self.accept("op", "-"):
            return A.UnaryOp("-", self._parse_unary(), pos)
        if self.accept("op", "~"):
            return A.UnaryOp("~", self._parse_unary(), pos)
        return self._parse_cast()

    def _parse_cast(self) -> A.Expr:
        expr = self._parse_postfix()
        while self.at("keyword", "as"):
            pos = self.pos()
            self.next()
            expr = A.Cast(expr, self.parse_type(), pos)
        return expr

    def _is_field_access_ahead(self) -> bool:
        """Distinguish ``e.field`` from a rule-terminating ``.``.

        Field and method names are lowercase by convention (relations and
        constructors are uppercase), and tuple indices are integers; a
        ``.`` followed by anything else terminates the rule.
        """
        nxt = self.peek(1)
        if nxt.kind == "int":
            return True
        return nxt.kind == "ident" and nxt.value[:1].islower()

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while self.at("op", ".") and self._is_field_access_ahead():
            pos = self.pos()
            self.next()
            tok = self.peek()
            if tok.kind == "int":
                self.next()
                expr = A.Field(expr, str(tok.value[0]), pos)
                continue
            name = self.expect("ident", what="field or method name").value
            if self.accept("op", "("):
                expr = A.Call(name, [expr] + self._listed(self.parse_expr, ")"), pos)
            else:
                expr = A.Field(expr, name, pos)
        return expr

    def _parse_primary(self) -> A.Expr:
        pos = self.pos()
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            value, width = tok.value
            return A.Lit(value, width, pos)
        if tok.kind == "float":
            self.next()
            return A.Lit(tok.value, None, pos)
        if tok.kind == "string":
            self.next()
            return A.Lit(tok.value, None, pos)
        if tok.kind == "keyword":
            if tok.value == "true":
                self.next()
                return A.Lit(True, None, pos)
            if tok.value == "false":
                self.next()
                return A.Lit(False, None, pos)
            if tok.value == "if":
                return self._parse_if(pos)
            if tok.value == "match":
                return self._parse_match(pos)
            raise self.error(f"unexpected keyword {tok.value!r} in expression")
        if self.accept("op", "("):
            elems = [self.parse_expr()]
            while self.accept("op", ","):
                elems.append(self.parse_expr())
            self.expect("op", ")")
            return elems[0] if len(elems) == 1 else A.TupleExpr(elems, pos)
        if self.accept("op", "["):
            elems: List[A.Expr] = self._listed(self.parse_expr, "]")
            return A.VecExpr(elems, pos)
        if tok.kind == "ident":
            name = self.next().value
            if self.at("op", "{") and name[:1].isupper():
                return self._parse_struct_expr(name, pos)
            if self.accept("op", "("):
                args: List[A.Expr] = self._listed(self.parse_expr, ")")
                if name[:1].isupper():
                    return A.StructExpr(name, [(None, a) for a in args], pos)
                return A.Call(name, args, pos)
            if name[:1].isupper():
                # Nullary constructor reference, e.g. `None`.
                return A.StructExpr(name, [], pos)
            return A.Var(name, pos)
        raise self.error(f"expected expression, found {describe(tok)}")

    def _parse_struct_expr(self, name: str, pos: A.Pos) -> A.Expr:
        self.expect("op", "{")
        fields: List[Tuple[Optional[str], A.Expr]] = self._listed(
            lambda: self._parse_struct_field(self.parse_expr), "}"
        )
        return A.StructExpr(name, fields, pos)

    def _parse_if(self, pos: A.Pos) -> A.Expr:
        self.expect("keyword", "if")
        self.expect("op", "(")
        cond = self.parse_expr()
        self.expect("op", ")")
        then = self._parse_braced_or_expr()
        self.expect("keyword", "else")
        if self.at("keyword", "if"):
            els = self._parse_if(self.pos())
        else:
            els = self._parse_braced_or_expr()
        return A.IfExpr(cond, then, els, pos)

    def _parse_braced_or_expr(self) -> A.Expr:
        if self.accept("op", "{"):
            expr = self.parse_expr()
            self.expect("op", "}")
            return expr
        return self.parse_expr()

    def _parse_match(self, pos: A.Pos) -> A.Expr:
        self.expect("keyword", "match")
        self.expect("op", "(")
        subject = self.parse_expr()
        self.expect("op", ")")
        self.expect("op", "{")
        arms: List[Tuple[A.Pattern, A.Expr]] = []
        while not self.at("op", "}"):
            pat = self.parse_pattern()
            self.expect("op", "->")
            arms.append((pat, self.parse_expr()))
            if not self.accept("op", ","):
                break
        self.expect("op", "}")
        if not arms:
            raise self.error("match expression needs at least one arm")
        return A.MatchExpr(subject, arms, pos)


def parse_program(text: str, source: str = "<input>") -> A.Program:
    """Parse a whole program; raise :class:`ParseError` on bad syntax."""
    return Parser(text, source).parse_program()


def parse_type(text: str, source: str = "<type>") -> T.Type:
    """Parse a single type expression (used by codegen round-trips)."""
    parser = Parser(text, source)
    ty = parser.parse_type()
    if parser.peek().kind != "eof":
        raise parser.error("trailing input after type")
    return ty
