"""Parser for the P4-16 subset.

Grammar (informal)::

    program     := (header | struct | const | parser | control)*
    header      := "header" NAME "{" (type name ";")* "}"
    struct      := "struct" NAME "{" (type name ";")* "}"
    const       := "const" type name "=" expr ";"
    parser      := "parser" NAME "(" params ")" "{" state+ "}"
    state       := "state" name "{" extract* transition "}"
    extract     := name "." "extract" "(" path ")" ";"
    transition  := "transition" (name ";"
                   | "select" "(" expr ")" "{" case* "}")
    case        := (int ["&&&" int] | "default") ":" name ";"
    control     := "control" NAME "(" params ")" "{"
                       (action | table)* "apply" block "}"
    action      := "action" name "(" [type name, ...] ")" block
    table       := "table" name "{"
                       "key" "=" "{" (path ":" matchkind ";")* "}"
                       "actions" "=" "{" name ";" ... "}"
                       ["default_action" "=" name ["(" args ")"] ";"]
                       ["size" "=" int ";"] "}"
    block       := "{" statement* "}"
    statement   := path "=" expr ";"
                 | name ".apply()" ";"
                 | "if" "(" expr ")" block ["else" (block | if-stmt)]
                 | "mark_to_drop()" ";" | "mark_to_drop(" path ")" ";"
                 | "digest(" NAME "," "{" expr, ... "}" ")" ";"
                 | path ".setValid()" ";" | path ".setInvalid()" ";"
                 | name "(" args ")" ";"          (direct action call)
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.p4 import ast as P
from repro.syntax import Parser, Scan, describe, precedence, tokenizer

KEYWORDS = {
    "header",
    "struct",
    "parser",
    "control",
    "state",
    "transition",
    "select",
    "default",
    "action",
    "table",
    "key",
    "actions",
    "default_action",
    "size",
    "apply",
    "if",
    "else",
    "bit",
    "bool",
    "true",
    "false",
    "const",
    "exact",
    "lpm",
    "ternary",
    "in",
    "out",
    "inout",
}

OPERATORS = [
    "&&&",
    "&&",
    "||",
    "==",
    "!=",
    "<=",
    ">=",
    "<<",
    ">>",
    "(",
    ")",
    "{",
    "}",
    "<",
    ">",
    ";",
    ":",
    ",",
    ".",
    "=",
    "!",
    "&",
    "|",
    "^",
    "~",
    "+",
    "-",
    "*",
    "/",
    "%",
]


def _literal(scan: Scan, ch: str):
    """An integer, or a width literal: ``8w255``, ``16w0xFFFF``."""
    if not ch.isdigit():
        return None
    value, base = scan.integer()
    if base != 10 or scan.peek() != "w":
        return "int", (value, None)
    scan.pos += 1
    return "int", (scan.integer(binary=False)[0], value)


tokenize = tokenizer(KEYWORDS, OPERATORS, _literal, "<p4>")

# Binary operators, loosest first.
_BINARY = precedence(
    ("left", "||"),
    ("left", "&&"),
    ("left", "==", "!="),
    ("none", "<", "<=", ">", ">="),
    ("left", "|"),
    ("left", "^"),
    ("left", "&"),
    ("left", "<<", ">>"),
    ("left", "+", "-"),
    ("left", "*", "/", "%"),
)


class P4Parser(Parser):
    def __init__(self, text: str, source: str = "<p4>"):
        super().__init__(tokenize(text, source), source)

    # -- program -----------------------------------------------------------------

    def parse(self) -> P.P4Program:
        headers, structs, parsers, controls = [], [], [], []
        constants = {}
        while not self.at("eof"):
            if self.at("keyword", "header"):
                headers.append(self._parse_header())
            elif self.at("keyword", "struct"):
                structs.append(self._parse_struct())
            elif self.at("keyword", "parser"):
                parsers.append(self._parse_parser())
            elif self.at("keyword", "control"):
                controls.append(self._parse_control())
            elif self.at("keyword", "const"):
                name, value = self._parse_const()
                constants[name] = value
            else:
                raise self.error(
                    f"expected declaration, found {describe(self.peek())}"
                )
        return P.P4Program(headers, structs, parsers, controls, constants)

    def _parse_type(self) -> P.P4Type:
        if self.accept("keyword", "bit"):
            self.expect("op", "<")
            width = self.expect("int").value[0]
            self.expect("op", ">")
            return P.BitType(width)
        if self.accept("keyword", "bool"):
            return P.BOOL
        tok = self.expect("ident")
        return P.NamedType(tok.value)

    def _parse_fields(self) -> List[P.FieldDecl]:
        self.expect("op", "{")
        fields = []
        while not self.accept("op", "}"):
            ftype = self._parse_type()
            fname = self.expect("ident").value
            self.expect("op", ";")
            fields.append(P.FieldDecl(fname, ftype))
        return fields

    def _parse_header(self) -> P.HeaderDecl:
        pos = self.pos()
        self.expect("keyword", "header")
        name = self.expect("ident").value
        return P.HeaderDecl(name, self._parse_fields(), pos)

    def _parse_struct(self) -> P.StructDecl:
        pos = self.pos()
        self.expect("keyword", "struct")
        name = self.expect("ident").value
        return P.StructDecl(name, self._parse_fields(), pos)

    def _parse_const(self) -> Tuple[str, int]:
        self.expect("keyword", "const")
        self._parse_type()
        name = self.expect("ident").value
        self.expect("op", "=")
        value = self.expect("int").value[0]
        self.expect("op", ";")
        return name, value

    def _parse_params(self) -> List[P.Param]:
        self.expect("op", "(")
        params: List[P.Param] = []
        while not self.accept("op", ")"):
            if params:
                self.expect("op", ",")
            direction = "none"
            tok = self.peek()
            if tok.kind == "keyword" and tok.value in ("in", "out", "inout"):
                direction = self.next().value
            ptype = self._parse_type()
            pname = self.expect("ident").value
            params.append(P.Param(direction, ptype, pname))
        return params

    # -- parser decl ------------------------------------------------------------------

    def _parse_parser(self) -> P.ParserDecl:
        pos = self.pos()
        self.expect("keyword", "parser")
        name = self.expect("ident").value
        params = self._parse_params()
        self.expect("op", "{")
        states = []
        while not self.accept("op", "}"):
            states.append(self._parse_state())
        if not any(s.name == "start" for s in states):
            raise self.error(f"parser {name} has no 'start' state")
        return P.ParserDecl(name, params, states, pos)

    def _parse_state(self) -> P.ParserState:
        pos = self.pos()
        self.expect("keyword", "state")
        name = self.expect("ident").value
        self.expect("op", "{")
        statements = []
        transition = None
        while not self.accept("op", "}"):
            if self.at("keyword", "transition"):
                transition = self._parse_transition()
            else:
                statements.append(self._parse_extract())
        if transition is None:
            raise self.error(f"state {name} has no transition")
        return P.ParserState(name, statements, transition, pos)

    def _parse_extract(self) -> P.ExtractStmt:
        pos = self.pos()
        self.expect("ident")  # packet variable name (by convention 'pkt')
        self.expect("op", ".")
        method = self.expect("ident").value
        if method != "extract":
            raise self.error(f"only extract() is supported in states, got {method}")
        self.expect("op", "(")
        target = self._parse_path()
        self.expect("op", ")")
        self.expect("op", ";")
        return P.ExtractStmt(target, pos)

    def _parse_transition(self) -> P.Transition:
        pos = self.pos()
        self.expect("keyword", "transition")
        if self.accept("keyword", "select"):
            self.expect("op", "(")
            expr = self._parse_expr()
            self.expect("op", ")")
            self.expect("op", "{")
            cases: List[P.SelectCase] = []
            while not self.accept("op", "}"):
                if self.accept("keyword", "default"):
                    value: Optional[Tuple[int, Optional[int]]] = None
                else:
                    v = self.expect("int").value[0]
                    mask = None
                    if self.accept("op", "&&&"):
                        mask = self.expect("int").value[0]
                    value = (v, mask)
                self.expect("op", ":")
                state = self._parse_state_ref()
                self.expect("op", ";")
                cases.append(P.SelectCase(value, state))
            return P.Transition(select_expr=expr, cases=cases, pos=pos)
        target = self._parse_state_ref()
        self.expect("op", ";")
        return P.Transition(target=target, pos=pos)

    def _parse_state_ref(self) -> str:
        tok = self.peek()
        if tok.kind in ("ident",):
            return self.next().value
        raise self.error(f"expected state name, found {describe(tok)}")

    # -- control decl ----------------------------------------------------------------------

    def _parse_control(self) -> P.ControlDecl:
        pos = self.pos()
        self.expect("keyword", "control")
        name = self.expect("ident").value
        params = self._parse_params()
        self.expect("op", "{")
        actions, tables = [], []
        apply_block = None
        while not self.accept("op", "}"):
            if self.at("keyword", "action"):
                actions.append(self._parse_action())
            elif self.at("keyword", "table"):
                tables.append(self._parse_table())
            elif self.at("keyword", "apply"):
                self.next()
                apply_block = self._parse_block()
            else:
                raise self.error(
                    f"expected action/table/apply, found {describe(self.peek())}"
                )
        if apply_block is None:
            raise self.error(f"control {name} has no apply block")
        return P.ControlDecl(name, params, actions, tables, apply_block, pos)

    def _parse_action(self) -> P.ActionDecl:
        pos = self.pos()
        self.expect("keyword", "action")
        name = self.expect("ident").value
        self.expect("op", "(")
        params: List[Tuple[P.P4Type, str]] = []
        while not self.accept("op", ")"):
            if params:
                self.expect("op", ",")
            ptype = self._parse_type()
            pname = self.expect("ident").value
            params.append((ptype, pname))
        body = self._parse_block()
        return P.ActionDecl(name, params, body, pos)

    def _parse_table(self) -> P.TableDecl:
        pos = self.pos()
        self.expect("keyword", "table")
        name = self.expect("ident").value
        self.expect("op", "{")
        keys: List[P.KeyElement] = []
        actions: List[str] = []
        default_action = None
        default_args: List[P.Expr] = []
        size = 1024
        while not self.accept("op", "}"):
            if self.accept("keyword", "key"):
                self.expect("op", "=")
                self.expect("op", "{")
                while not self.accept("op", "}"):
                    path = self._parse_path()
                    self.expect("op", ":")
                    kind_tok = self.peek()
                    if kind_tok.kind == "keyword" and kind_tok.value in (
                        "exact",
                        "lpm",
                        "ternary",
                    ):
                        self.next()
                    else:
                        raise self.error(
                            f"expected match kind, found {describe(kind_tok)}"
                        )
                    self.expect("op", ";")
                    keys.append(P.KeyElement(path, kind_tok.value))
            elif self.accept("keyword", "actions"):
                self.expect("op", "=")
                self.expect("op", "{")
                while not self.accept("op", "}"):
                    actions.append(self.expect("ident").value)
                    self.expect("op", ";")
            elif self.accept("keyword", "default_action"):
                self.expect("op", "=")
                default_action = self.expect("ident").value
                if self.accept("op", "("):
                    while not self.accept("op", ")"):
                        if default_args:
                            self.expect("op", ",")
                        default_args.append(self._parse_expr())
                self.expect("op", ";")
            elif self.accept("keyword", "size"):
                self.expect("op", "=")
                size = self.expect("int").value[0]
                self.expect("op", ";")
            else:
                raise self.error(
                    f"unexpected table property {self.peek().value!r}"
                )
        if not actions:
            raise self.error(f"table {name} declares no actions")
        return P.TableDecl(name, keys, actions, default_action, default_args, size, pos)

    # -- statements ---------------------------------------------------------------------------

    def _parse_block(self) -> List[P.Statement]:
        self.expect("op", "{")
        statements = []
        while not self.accept("op", "}"):
            statements.append(self._parse_statement())
        return statements

    def _parse_statement(self) -> P.Statement:
        pos = self.pos()
        if self.at("keyword", "if"):
            return self._parse_if()
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(f"expected statement, found {describe(tok)}")
        # Look ahead to classify.
        if tok.value == "mark_to_drop":
            self.next()
            self.expect("op", "(")
            if not self.at("op", ")"):
                self._parse_path()  # standard_metadata argument (v1model)
            self.expect("op", ")")
            self.expect("op", ";")
            return P.MarkToDropStmt(pos)
        if tok.value == "clone_port":
            self.next()
            self.expect("op", "(")
            port = self._parse_expr()
            self.expect("op", ")")
            self.expect("op", ";")
            return P.ClonePortStmt(port, pos)
        if tok.value == "digest":
            self.next()
            self.expect("op", "(")
            struct_name = self.expect("ident").value
            self.expect("op", ",")
            self.expect("op", "{")
            fields = []
            while not self.accept("op", "}"):
                if fields:
                    self.expect("op", ",")
                fields.append(self._parse_expr())
            self.expect("op", ")")
            self.expect("op", ";")
            return P.DigestStmt(struct_name, fields, pos)

        path = self._parse_path(allow_calls=True)
        # path may have consumed a trailing method call marker via
        # _parse_path's return convention; handle the cases below.
        if isinstance(path, tuple):
            base, method = path
            if method == "apply":
                self.expect("op", ";")
                if len(base.parts) != 1:
                    raise self.error("apply() on a non-table")
                return P.ApplyTableStmt(base.parts[0], pos)
            if method in ("setValid", "setInvalid"):
                self.expect("op", ";")
                return P.SetValidStmt(base, method == "setValid", pos)
            if method == "call":
                # direct action invocation: name(args);
                args = []
                while not self.accept("op", ")"):
                    if args:
                        self.expect("op", ",")
                    args.append(self._parse_expr())
                self.expect("op", ";")
                if len(base.parts) != 1:
                    raise self.error("action call on dotted path")
                return P.CallActionStmt(base.parts[0], args, pos)
            raise self.error(f"unsupported method {method!r}")
        self.expect("op", "=")
        value = self._parse_expr()
        self.expect("op", ";")
        return P.AssignStmt(path, value, pos)

    def _parse_if(self) -> P.IfStmt:
        pos = self.pos()
        self.expect("keyword", "if")
        self.expect("op", "(")
        cond = self._parse_expr()
        self.expect("op", ")")
        then_block = self._parse_block()
        else_block: List[P.Statement] = []
        if self.accept("keyword", "else"):
            if self.at("keyword", "if"):
                else_block = [self._parse_if()]
            else:
                else_block = self._parse_block()
        return P.IfStmt(cond, then_block, else_block, pos)

    def _parse_path(self, allow_calls: bool = False):
        """Parse a dotted path.

        With ``allow_calls``, a trailing ``.method(`` or a direct
        ``name(`` returns ``(Path, method_name)`` — ``"call"`` for the
        direct form (the '(' is consumed, args pending).
        """
        pos = self.pos()
        parts = [self.expect("ident").value]
        if allow_calls and self.at("op", "("):
            self.next()
            return (P.Path(parts, pos), "call")
        while self.at("op", "."):
            nxt = self.peek(1)
            # `apply` is a keyword but also the table-application method.
            if nxt.kind != "ident" and not (
                nxt.kind == "keyword" and nxt.value == "apply"
            ):
                break
            self.next()
            name = self.next().value
            if self.at("op", "(") and allow_calls:
                self.next()
                self.expect("op", ")")
                return (P.Path(parts, pos), name)
            if self.at("op", "(") and name == "isValid":
                self.next()
                self.expect("op", ")")
                # Caller wanted a plain path; isValid is an expression —
                # only _parse_primary passes through here.
                return P.IsValidExpr(P.Path(parts, pos), pos)
            parts.append(name)
        return P.Path(parts, pos)

    # -- expressions ---------------------------------------------------------------------------

    def _parse_expr(self) -> P.Expr:
        return self.binary(_BINARY, self._parse_unary, P.BinaryExpr)

    def _parse_unary(self) -> P.Expr:
        pos = self.pos()
        if self.accept("op", "!"):
            return P.UnaryExpr("!", self._parse_unary(), pos)
        if self.accept("op", "~"):
            return P.UnaryExpr("~", self._parse_unary(), pos)
        if self.accept("op", "-"):
            return P.UnaryExpr("-", self._parse_unary(), pos)
        return self._parse_primary()

    def _parse_primary(self) -> P.Expr:
        pos = self.pos()
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            value, width = tok.value
            return P.IntLit(value, width, pos)
        if tok.kind == "keyword" and tok.value in ("true", "false"):
            self.next()
            return P.BoolLit(tok.value == "true", pos)
        if self.accept("op", "("):
            expr = self._parse_expr()
            self.expect("op", ")")
            return expr
        if tok.kind == "ident":
            result = self._parse_path()
            return result  # Path or IsValidExpr
        raise self.error(f"expected expression, found {describe(tok)}")


def parse_p4(text: str, source: str = "<p4>") -> P.P4Program:
    """Parse P4-subset source text."""
    return P4Parser(text, source).parse()
