"""Compilation of a parsed P4 program into an executable pipeline.

``compile_p4`` validates the program against the subset's rules (every
path resolves, widths are known, table keys/actions exist, digest
structs match their emitted fields) and produces a :class:`Pipeline`:
the parser state machine, the ingress/egress controls, and the
:class:`~repro.p4.p4info.P4Info` runtime contract.

Role conventions (v1model-flavored):

* exactly one ``parser``; its ``out`` struct parameter is the headers
  struct; a parameter of type ``standard_metadata_t`` (if any) is the
  standard metadata; the remaining ``inout`` struct is user metadata;
* one or two ``control`` declarations: the first is ingress, the
  optional second is egress.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import DataPlaneError
from repro.p4 import ast as P
from repro.p4.p4info import ActionParam, MatchField, P4Info
from repro.p4.parser import parse_p4

STANDARD_METADATA = "standard_metadata_t"

# Fields of the built-in standard metadata and their widths.  Port ids
# are 16 bits (PSA-style) rather than v1model's 9: the paper's own
# scalability evaluation adds 2,000 ports, which cannot exist in a
# 9-bit port space.
STD_FIELDS: Dict[str, int] = {
    "ingress_port": 16,
    "egress_spec": 16,
    "egress_port": 16,
    "mcast_grp": 16,
    "instance_type": 32,
    "packet_length": 32,
}


class ControlBinding:
    """Maps a control's parameter names onto runtime roles."""

    def __init__(self, headers_param: str, meta_param: Optional[str], std_param: Optional[str]):
        self.headers_param = headers_param
        self.meta_param = meta_param
        self.std_param = std_param


class Pipeline:
    """A validated, executable P4 program."""

    def __init__(
        self,
        program: P.P4Program,
        parser: P.ParserDecl,
        ingress: P.ControlDecl,
        egress: Optional[P.ControlDecl],
        headers_struct: P.StructDecl,
        meta_struct: Optional[P.StructDecl],
        parser_binding: ControlBinding,
        ingress_binding: ControlBinding,
        egress_binding: Optional[ControlBinding],
        p4info: P4Info,
    ):
        self.program = program
        self.parser = parser
        self.ingress = ingress
        self.egress = egress
        self.headers_struct = headers_struct
        self.meta_struct = meta_struct
        self.parser_binding = parser_binding
        self.ingress_binding = ingress_binding
        self.egress_binding = egress_binding
        self.p4info = p4info


def _err(pos, message) -> DataPlaneError:
    return DataPlaneError(f"{pos}: {message}")


class _Compiler:
    def __init__(self, program: P.P4Program):
        self.program = program
        self.p4info = P4Info()

    def compile(self) -> Pipeline:
        program = self.program
        if len(program.parsers) != 1:
            raise DataPlaneError(
                f"expected exactly one parser, found {len(program.parsers)}"
            )
        parser = next(iter(program.parsers.values()))
        controls = list(program.controls.values())
        if not 1 <= len(controls) <= 2:
            raise DataPlaneError(
                f"expected one or two controls (ingress[, egress]), "
                f"found {len(controls)}"
            )
        ingress = controls[0]
        egress = controls[1] if len(controls) > 1 else None

        headers_struct, parser_binding = self._bind_parser(parser)
        meta_struct = self._find_meta_struct(parser, headers_struct)
        ingress_binding = self._bind_control(ingress, headers_struct, meta_struct)
        egress_binding = (
            self._bind_control(egress, headers_struct, meta_struct)
            if egress is not None
            else None
        )

        self._validate_parser(parser, parser_binding, headers_struct)
        for control, binding in (
            [(ingress, ingress_binding)]
            + ([(egress, egress_binding)] if egress else [])
        ):
            self._validate_control(control, binding, headers_struct, meta_struct)

        return Pipeline(
            program,
            parser,
            ingress,
            egress,
            headers_struct,
            meta_struct,
            parser_binding,
            ingress_binding,
            egress_binding,
            self.p4info,
        )

    # -- binding ---------------------------------------------------------------

    def _struct_of(self, ty: P.P4Type) -> Optional[P.StructDecl]:
        if isinstance(ty, P.NamedType):
            return self.program.structs.get(ty.name)
        return None

    def _bind_parser(self, parser: P.ParserDecl) -> Tuple[P.StructDecl, ControlBinding]:
        headers_param = None
        headers_struct = None
        meta_param = None
        std_param = None
        for param in parser.params:
            if isinstance(param.type, P.NamedType) and param.type.name == STANDARD_METADATA:
                std_param = param.name
            elif param.direction == "out":
                struct = self._struct_of(param.type)
                if struct is None:
                    raise DataPlaneError(
                        f"parser 'out' parameter {param.name} must be a struct"
                    )
                headers_param, headers_struct = param.name, struct
            elif param.direction == "inout":
                meta_param = param.name
        if headers_struct is None:
            raise DataPlaneError("parser needs an 'out' headers struct parameter")
        return headers_struct, ControlBinding(headers_param, meta_param, std_param)

    def _find_meta_struct(
        self, parser: P.ParserDecl, headers_struct: P.StructDecl
    ) -> Optional[P.StructDecl]:
        for param in parser.params:
            if param.direction == "inout":
                struct = self._struct_of(param.type)
                if struct is not None and struct.name != headers_struct.name:
                    return struct
        # Fall back to any control's metadata parameter.
        for control in self.program.controls.values():
            for param in control.params:
                struct = self._struct_of(param.type)
                if (
                    struct is not None
                    and struct.name != headers_struct.name
                    and not (
                        isinstance(param.type, P.NamedType)
                        and param.type.name == STANDARD_METADATA
                    )
                ):
                    return struct
        return None

    def _bind_control(
        self,
        control: P.ControlDecl,
        headers_struct: P.StructDecl,
        meta_struct: Optional[P.StructDecl],
    ) -> ControlBinding:
        headers_param = None
        meta_param = None
        std_param = None
        for param in control.params:
            if isinstance(param.type, P.NamedType):
                if param.type.name == STANDARD_METADATA:
                    std_param = param.name
                elif param.type.name == headers_struct.name:
                    headers_param = param.name
                elif meta_struct is not None and param.type.name == meta_struct.name:
                    meta_param = param.name
        if headers_param is None:
            raise DataPlaneError(
                f"control {control.name} has no headers parameter of type "
                f"{headers_struct.name}"
            )
        return ControlBinding(headers_param, meta_param, std_param)

    # -- path typing ---------------------------------------------------------------

    def path_width(
        self,
        path: P.Path,
        binding: ControlBinding,
        headers_struct: P.StructDecl,
        meta_struct: Optional[P.StructDecl],
        action_params: Optional[Dict[str, P.P4Type]] = None,
    ) -> Optional[int]:
        """Width in bits of the value at ``path`` (None for bool)."""
        root = path.parts[0]
        if action_params and root in action_params and len(path.parts) == 1:
            ty = action_params[root]
            if isinstance(ty, P.BitType):
                return ty.width
            if isinstance(ty, P.BoolType):
                return None
            raise _err(path.pos, f"action parameter {root} must be bit<N> or bool")
        if binding.std_param is not None and root == binding.std_param:
            if len(path.parts) != 2 or path.parts[1] not in STD_FIELDS:
                raise _err(path.pos, f"unknown standard metadata field {path!r}")
            return STD_FIELDS[path.parts[1]]
        if root == binding.headers_param:
            return self._resolve_struct_path(path, 1, headers_struct)
        if binding.meta_param is not None and root == binding.meta_param:
            if meta_struct is None:
                raise _err(path.pos, "program has no metadata struct")
            return self._resolve_struct_path(path, 1, meta_struct)
        raise _err(path.pos, f"unknown name {root!r} in {path!r}")

    def _resolve_struct_path(
        self, path: P.Path, index: int, struct: P.StructDecl
    ) -> Optional[int]:
        if index >= len(path.parts):
            raise _err(path.pos, f"path {path!r} names a struct, not a field")
        part = path.parts[index]
        try:
            field = struct.field(part)
        except KeyError:
            raise _err(
                path.pos, f"{struct.name} has no field {part!r}"
            ) from None
        ty = field.type
        if isinstance(ty, P.BitType):
            if index != len(path.parts) - 1:
                raise _err(path.pos, f"{path!r}: {part} is a scalar field")
            return ty.width
        if isinstance(ty, P.BoolType):
            if index != len(path.parts) - 1:
                raise _err(path.pos, f"{path!r}: {part} is a scalar field")
            return None
        if isinstance(ty, P.NamedType):
            if ty.name in self.program.headers:
                header = self.program.headers[ty.name]
                if index == len(path.parts) - 1:
                    raise _err(
                        path.pos,
                        f"path {path!r} names header {ty.name}, not a field",
                    )
                fname = path.parts[index + 1]
                try:
                    hfield = header.field(fname)
                except KeyError:
                    raise _err(
                        path.pos, f"header {ty.name} has no field {fname!r}"
                    ) from None
                if index + 1 != len(path.parts) - 1:
                    raise _err(path.pos, f"{path!r}: too many components")
                if isinstance(hfield.type, P.BitType):
                    return hfield.type.width
                if isinstance(hfield.type, P.BoolType):
                    return None
                raise _err(path.pos, "header fields must be bit<N> or bool")
            if ty.name in self.program.structs:
                return self._resolve_struct_path(
                    path, index + 1, self.program.structs[ty.name]
                )
        raise _err(path.pos, f"cannot resolve {path!r}")

    def header_path(self, path: P.Path, binding: ControlBinding) -> Optional[str]:
        """If ``path`` names a header member of the headers struct
        (``hdr.vlan``), return the header type name."""
        if path.parts[0] != binding.headers_param or len(path.parts) != 2:
            return None
        return path.parts[1]

    # -- validation --------------------------------------------------------------------

    def _validate_parser(self, parser, binding, headers_struct) -> None:
        for state in parser.states.values():
            for stmt in state.statements:
                target = stmt.target
                if target.parts[0] != binding.headers_param or len(target.parts) != 2:
                    raise _err(
                        stmt.pos, f"extract target must be hdr.<member>, got {target!r}"
                    )
                member = target.parts[1]
                try:
                    field = headers_struct.field(member)
                except KeyError:
                    raise _err(
                        stmt.pos,
                        f"{headers_struct.name} has no member {member!r}",
                    ) from None
                if (
                    not isinstance(field.type, P.NamedType)
                    or field.type.name not in self.program.headers
                ):
                    raise _err(stmt.pos, f"{member} is not a header")
            transition = state.transition
            targets = (
                [transition.target]
                if transition.target
                else [c.state for c in transition.cases]
            )
            for target_state in targets:
                if target_state in ("accept", "reject"):
                    continue
                if target_state not in parser.states:
                    raise _err(
                        transition.pos, f"transition to unknown state {target_state!r}"
                    )
            if transition.select_expr is not None:
                self._validate_expr(
                    transition.select_expr, binding, headers_struct, None
                )

    def _validate_control(self, control, binding, headers_struct, meta_struct) -> None:
        for action in control.actions.values():
            params = {name: ty for ty, name in action.params}
            param_info = []
            for ty, name in action.params:
                if not isinstance(ty, P.BitType):
                    raise _err(
                        action.pos,
                        f"action {action.name}: parameter {name} must be bit<N>",
                    )
                param_info.append(ActionParam(name, ty.width))
            self.p4info.add_action(action.name, param_info)
            self._validate_block(
                action.body, control, binding, headers_struct, meta_struct, params
            )
        self.p4info.add_action("NoAction", [])

        for table in control.tables.values():
            match_fields = []
            for key in table.keys:
                width = self.path_width(
                    key.expr, binding, headers_struct, meta_struct
                )
                if width is None:
                    raise _err(table.pos, f"table key {key.expr!r} must be bit<N>")
                match_fields.append(
                    MatchField(repr(key.expr), width, key.match_kind)
                )
            for action_name in table.actions:
                if action_name != "NoAction" and action_name not in control.actions:
                    raise _err(
                        table.pos,
                        f"table {table.name} references unknown action "
                        f"{action_name!r}",
                    )
            default = table.default_action
            default_params: List[int] = []
            if default is not None and default != "NoAction":
                if default not in control.actions:
                    raise _err(
                        table.pos,
                        f"default_action {default!r} is not an action",
                    )
                want = len(control.actions[default].params)
                if len(table.default_args) != want:
                    raise _err(
                        table.pos,
                        f"default_action {default} expects {want} argument(s)",
                    )
                for arg in table.default_args:
                    default_params.append(self._const_value(arg))
            self.p4info.add_table(
                table.name,
                match_fields,
                list(table.actions),
                default,
                table.size,
                default_params,
            )

        self._validate_block(
            control.apply_block, control, binding, headers_struct, meta_struct, None
        )

    def _validate_block(
        self, block, control, binding, headers_struct, meta_struct, action_params
    ) -> None:
        for stmt in block:
            if isinstance(stmt, P.AssignStmt):
                self.path_width(
                    stmt.target, binding, headers_struct, meta_struct, action_params
                )
                self._validate_expr(
                    stmt.value, binding, headers_struct, meta_struct, action_params
                )
            elif isinstance(stmt, P.ApplyTableStmt):
                if stmt.table not in control.tables:
                    raise _err(stmt.pos, f"unknown table {stmt.table!r}")
            elif isinstance(stmt, P.CallActionStmt):
                if stmt.action not in control.actions:
                    raise _err(stmt.pos, f"unknown action {stmt.action!r}")
                want = len(control.actions[stmt.action].params)
                if len(stmt.args) != want:
                    raise _err(
                        stmt.pos,
                        f"action {stmt.action} expects {want} argument(s)",
                    )
                for arg in stmt.args:
                    self._validate_expr(
                        arg, binding, headers_struct, meta_struct, action_params
                    )
            elif isinstance(stmt, P.IfStmt):
                self._validate_expr(
                    stmt.cond, binding, headers_struct, meta_struct, action_params
                )
                self._validate_block(
                    stmt.then_block, control, binding, headers_struct,
                    meta_struct, action_params,
                )
                self._validate_block(
                    stmt.else_block, control, binding, headers_struct,
                    meta_struct, action_params,
                )
            elif isinstance(stmt, P.DigestStmt):
                self._validate_digest(
                    stmt, binding, headers_struct, meta_struct, action_params
                )
            elif isinstance(stmt, P.SetValidStmt):
                if self.header_path(stmt.header, binding) is None:
                    raise _err(
                        stmt.pos, f"setValid target {stmt.header!r} is not a header"
                    )
            elif isinstance(stmt, P.ClonePortStmt):
                self._validate_expr(
                    stmt.port, binding, headers_struct, meta_struct, action_params
                )
            elif isinstance(stmt, (P.MarkToDropStmt, P.NoOpStmt)):
                pass
            else:  # pragma: no cover
                raise _err(stmt.pos, f"unsupported statement {stmt!r}")

    def _validate_digest(
        self, stmt, binding, headers_struct, meta_struct, action_params
    ) -> None:
        struct = self.program.structs.get(stmt.struct_name)
        if struct is None:
            raise _err(stmt.pos, f"unknown digest struct {stmt.struct_name!r}")
        if len(struct.fields) != len(stmt.fields):
            raise _err(
                stmt.pos,
                f"digest {stmt.struct_name} has {len(struct.fields)} field(s), "
                f"{len(stmt.fields)} given",
            )
        fields = []
        for field, expr in zip(struct.fields, stmt.fields):
            if not isinstance(field.type, P.BitType):
                raise _err(stmt.pos, "digest fields must be bit<N>")
            self._validate_expr(
                expr, binding, headers_struct, meta_struct, action_params
            )
            fields.append(ActionParam(field.name, field.type.width))
        self.p4info.add_digest(stmt.struct_name, fields)

    def _const_value(self, expr) -> int:
        """Evaluate a compile-time constant (default-action argument)."""
        if isinstance(expr, P.IntLit):
            return expr.value
        if isinstance(expr, P.BoolLit):
            return 1 if expr.value else 0
        if isinstance(expr, P.Path) and len(expr.parts) == 1:
            name = expr.parts[0]
            if name in self.program.constants:
                return self.program.constants[name]
        raise _err(
            expr.pos, f"default_action arguments must be constants, got {expr!r}"
        )

    def _validate_expr(
        self, expr, binding, headers_struct, meta_struct, action_params=None
    ) -> None:
        if isinstance(expr, (P.IntLit, P.BoolLit)):
            return
        if isinstance(expr, P.Path):
            self.path_width(expr, binding, headers_struct, meta_struct, action_params)
            return
        if isinstance(expr, P.IsValidExpr):
            if self.header_path(expr.header, binding) is None:
                raise _err(
                    expr.pos, f"isValid() on non-header {expr.header!r}"
                )
            return
        if isinstance(expr, P.BinaryExpr):
            self._validate_expr(
                expr.left, binding, headers_struct, meta_struct, action_params
            )
            self._validate_expr(
                expr.right, binding, headers_struct, meta_struct, action_params
            )
            return
        if isinstance(expr, P.UnaryExpr):
            self._validate_expr(
                expr.operand, binding, headers_struct, meta_struct, action_params
            )
            return
        raise _err(expr.pos, f"unsupported expression {expr!r}")  # pragma: no cover


def compile_p4(text_or_program, source: str = "<p4>") -> Pipeline:
    """Compile P4 source text (or a parsed program) into a pipeline."""
    if isinstance(text_or_program, str):
        program = parse_p4(text_or_program, source)
    else:
        program = text_or_program
    return _Compiler(program).compile()
