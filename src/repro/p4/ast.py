"""Abstract syntax for the P4-16 subset.

The subset covers what the paper's data planes need (and what the
``snvs`` switch uses): header/struct declarations, one parser with
``select``-based state machines, controls containing actions and
match-action tables, and an ``apply`` block with assignments,
conditionals, table applications, ``mark_to_drop()``, ``digest()``, and
header validity operations.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.syntax import Pos

NOPOS = Pos("<p4>")


# -- types -------------------------------------------------------------------


class P4Type:
    pass


class BitType(P4Type):
    __slots__ = ("width",)

    def __init__(self, width: int):
        self.width = width

    def __eq__(self, other):
        return isinstance(other, BitType) and self.width == other.width

    def __hash__(self):
        return hash(("bit", self.width))

    def __repr__(self):
        return f"bit<{self.width}>"


class BoolType(P4Type):
    def __eq__(self, other):
        return isinstance(other, BoolType)

    def __hash__(self):
        return hash("bool")

    def __repr__(self):
        return "bool"


class NamedType(P4Type):
    """Reference to a header or struct type by name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, NamedType) and self.name == other.name

    def __hash__(self):
        return hash(("named", self.name))

    def __repr__(self):
        return self.name


BOOL = BoolType()


# -- declarations ----------------------------------------------------------------


class FieldDecl:
    __slots__ = ("name", "type")

    def __init__(self, name: str, type: P4Type):
        self.name = name
        self.type = type

    def __repr__(self):
        return f"{self.type} {self.name}"


class HeaderDecl:
    __slots__ = ("name", "fields", "pos")

    def __init__(self, name: str, fields: Sequence[FieldDecl], pos=NOPOS):
        self.name = name
        self.fields = list(fields)
        self.pos = pos

    def field(self, name: str) -> FieldDecl:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(name)


class StructDecl:
    __slots__ = ("name", "fields", "pos")

    def __init__(self, name: str, fields: Sequence[FieldDecl], pos=NOPOS):
        self.name = name
        self.fields = list(fields)
        self.pos = pos

    def field(self, name: str) -> FieldDecl:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(name)


class Param:
    __slots__ = ("direction", "type", "name")

    def __init__(self, direction: str, type: P4Type, name: str):
        self.direction = direction  # "in" | "out" | "inout" | "none"
        self.type = type
        self.name = name


# -- expressions ---------------------------------------------------------------------


class Expr:
    __slots__ = ("pos",)

    def __init__(self, pos=NOPOS):
        self.pos = pos


class IntLit(Expr):
    __slots__ = ("value", "width")

    def __init__(self, value: int, width: Optional[int] = None, pos=NOPOS):
        super().__init__(pos)
        self.value = value
        self.width = width

    def __repr__(self):
        return str(self.value)


class BoolLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: bool, pos=NOPOS):
        super().__init__(pos)
        self.value = value


class Path(Expr):
    """A dotted lvalue/rvalue path: ``hdr.eth.dst``, ``meta.vlan``."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[str], pos=NOPOS):
        super().__init__(pos)
        self.parts = tuple(parts)

    def __repr__(self):
        return ".".join(self.parts)


class BinaryExpr(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr, pos=NOPOS):
        super().__init__(pos)
        self.op = op
        self.left = left
        self.right = right


class UnaryExpr(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr, pos=NOPOS):
        super().__init__(pos)
        self.op = op
        self.operand = operand


class IsValidExpr(Expr):
    """``hdr.vlan.isValid()``"""

    __slots__ = ("header",)

    def __init__(self, header: Path, pos=NOPOS):
        super().__init__(pos)
        self.header = header


# -- parser section ---------------------------------------------------------------------


class ExtractStmt:
    __slots__ = ("target", "pos")

    def __init__(self, target: Path, pos=NOPOS):
        self.target = target
        self.pos = pos


class SelectCase:
    __slots__ = ("value", "state")

    def __init__(self, value: Optional[Tuple[int, Optional[int]]], state: str):
        # value None = default; else (value, mask_or_None)
        self.value = value
        self.state = state


class Transition:
    __slots__ = ("select_expr", "cases", "target", "pos")

    def __init__(
        self,
        target: Optional[str] = None,
        select_expr: Optional[Expr] = None,
        cases: Optional[List[SelectCase]] = None,
        pos=NOPOS,
    ):
        self.target = target  # direct transition when not a select
        self.select_expr = select_expr
        self.cases = cases or []
        self.pos = pos


class ParserState:
    __slots__ = ("name", "statements", "transition", "pos")

    def __init__(self, name, statements, transition, pos=NOPOS):
        self.name = name
        self.statements = statements
        self.transition = transition
        self.pos = pos


class ParserDecl:
    __slots__ = ("name", "params", "states", "pos")

    def __init__(self, name, params, states, pos=NOPOS):
        self.name = name
        self.params = params
        self.states = {s.name: s for s in states}
        self.pos = pos


# -- control section -----------------------------------------------------------------------


class Statement:
    __slots__ = ("pos",)

    def __init__(self, pos=NOPOS):
        self.pos = pos


class AssignStmt(Statement):
    __slots__ = ("target", "value")

    def __init__(self, target: Path, value: Expr, pos=NOPOS):
        super().__init__(pos)
        self.target = target
        self.value = value


class ApplyTableStmt(Statement):
    __slots__ = ("table",)

    def __init__(self, table: str, pos=NOPOS):
        super().__init__(pos)
        self.table = table


class CallActionStmt(Statement):
    """Direct invocation of an action from the apply block."""

    __slots__ = ("action", "args")

    def __init__(self, action: str, args: List[Expr], pos=NOPOS):
        super().__init__(pos)
        self.action = action
        self.args = args


class IfStmt(Statement):
    __slots__ = ("cond", "then_block", "else_block")

    def __init__(self, cond, then_block, else_block, pos=NOPOS):
        super().__init__(pos)
        self.cond = cond
        self.then_block = then_block
        self.else_block = else_block


class MarkToDropStmt(Statement):
    pass


class DigestStmt(Statement):
    """``digest(digest_struct_name, {expr, expr, ...});``"""

    __slots__ = ("struct_name", "fields")

    def __init__(self, struct_name: str, fields: List[Expr], pos=NOPOS):
        super().__init__(pos)
        self.struct_name = struct_name
        self.fields = fields


class SetValidStmt(Statement):
    __slots__ = ("header", "valid")

    def __init__(self, header: Path, valid: bool, pos=NOPOS):
        super().__init__(pos)
        self.header = header
        self.valid = valid


class ClonePortStmt(Statement):
    """``clone_port(expr);`` — emit a copy of the packet to a port.

    A simplified stand-in for BMv2's clone sessions: the clone carries
    the post-ingress packet state and goes through egress like any
    replica.  Used for port mirroring.
    """

    __slots__ = ("port",)

    def __init__(self, port: Expr, pos=NOPOS):
        super().__init__(pos)
        self.port = port


class NoOpStmt(Statement):
    pass


class ActionDecl:
    __slots__ = ("name", "params", "body", "pos")

    def __init__(self, name, params, body, pos=NOPOS):
        self.name = name
        self.params = params  # [(type, name)]
        self.body = body
        self.pos = pos


class KeyElement:
    __slots__ = ("expr", "match_kind", "name")

    def __init__(self, expr: Path, match_kind: str, name: Optional[str] = None):
        self.expr = expr
        self.match_kind = match_kind  # exact | lpm | ternary
        self.name = name or repr(expr)


class TableDecl:
    __slots__ = ("name", "keys", "actions", "default_action", "default_args", "size", "pos")

    def __init__(
        self,
        name,
        keys,
        actions,
        default_action=None,
        default_args=None,
        size=1024,
        pos=NOPOS,
    ):
        self.name = name
        self.keys = keys
        self.actions = actions  # action names, may include "NoAction"
        self.default_action = default_action
        self.default_args = default_args or []
        self.size = size
        self.pos = pos


class ControlDecl:
    __slots__ = ("name", "params", "actions", "tables", "apply_block", "pos")

    def __init__(self, name, params, actions, tables, apply_block, pos=NOPOS):
        self.name = name
        self.params = params
        self.actions = {a.name: a for a in actions}
        self.tables = {t.name: t for t in tables}
        self.apply_block = apply_block
        self.pos = pos


class P4Program:
    __slots__ = ("headers", "structs", "parsers", "controls", "constants", "pos")

    def __init__(self, headers, structs, parsers, controls, constants, pos=NOPOS):
        self.headers = {h.name: h for h in headers}
        self.structs = {s.name: s for s in structs}
        self.parsers = {p.name: p for p in parsers}
        self.controls = {c.name: c for c in controls}
        self.constants = dict(constants)
        self.pos = pos
