"""A BMv2-like behavioral model executing compiled pipelines.

The simulator runs real packet bytes through the program's own parser,
ingress (and optional egress) controls, and a deparser, with:

* match-action tables whose contents are written at runtime (the
  P4Runtime layer, or tests, call :meth:`Simulator.table`);
* multicast groups for flooding (``std.mcast_grp``);
* digests queued for the control plane (MAC learning's feedback loop);
* per-port tx/rx counters.

Deparsing emits the *valid* headers in the declaration order of the
headers struct, then the payload — the order BMv2 programs almost
always encode explicitly in their deparser.
Reading a field of an invalid header yields 0 (BMv2 leaves it
undefined; zero keeps runs reproducible).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.errors import DataPlaneError
from repro.p4 import ast as P
from repro.p4.ir import STD_FIELDS, ControlBinding, Pipeline
from repro.p4.packet import BitReader, BitWriter
from repro.p4.tables import TableState


class HeaderInstance:
    __slots__ = ("decl", "fields", "valid")

    def __init__(self, decl: P.HeaderDecl):
        self.decl = decl
        self.fields: Dict[str, int] = {f.name: 0 for f in decl.fields}
        self.valid = False

    def copy(self) -> "HeaderInstance":
        out = HeaderInstance(self.decl)
        out.fields = dict(self.fields)
        out.valid = self.valid
        return out


class DigestMessage:
    __slots__ = ("name", "values", "update_id")

    def __init__(
        self,
        name: str,
        values: Tuple[int, ...],
        update_id: Optional[str] = None,
    ):
        self.name = name
        self.values = values
        # The update-id of the config change that last wrote this
        # device (its ``config_epoch``), linking digest feedback back
        # to the originating trace.
        self.update_id = update_id

    def __repr__(self):
        return f"Digest({self.name}, {self.values})"


class _Context:
    """Per-packet execution state."""

    __slots__ = ("headers", "meta", "std", "payload", "drop", "clone_ports")

    def __init__(self, headers, meta, std, payload):
        self.headers = headers
        self.meta = meta
        self.std = std
        self.payload = payload
        self.drop = False
        self.clone_ports: List[int] = []

    def clone(self) -> "_Context":
        out = _Context(
            {name: h.copy() for name, h in self.headers.items()},
            dict(self.meta),
            dict(self.std),
            self.payload,
        )
        out.drop = self.drop
        return out


class Simulator:
    """One simulated programmable switch running one pipeline."""

    def __init__(
        self,
        pipeline: Pipeline,
        n_ports: int = 64,
        digest_callback: Optional[Callable[[DigestMessage], None]] = None,
        cpu_port: Optional[int] = None,
    ):
        self.pipeline = pipeline
        self.n_ports = n_ports
        self.tables: Dict[str, TableState] = {
            name: TableState(info)
            for name, info in pipeline.p4info.tables.items()
        }
        self.multicast_groups: Dict[int, List[int]] = {}
        self.digests: List[DigestMessage] = []
        self.digest_callback = digest_callback
        # Packets forwarded to the CPU port become packet-ins for the
        # control plane instead of egressing (BMv2's CPU-port pattern).
        self.cpu_port = cpu_port
        self.packet_ins: List[Tuple[int, bytes]] = []
        self.packet_in_callback: Optional[Callable[[int, bytes], None]] = None
        self.rx_count: Dict[int, int] = {}
        self.tx_count: Dict[int, int] = {}
        self.dropped = 0
        # Update-id of the most recent control-plane write batch (set
        # by DeviceService.write); stamped onto emitted digests.
        self.config_epoch: Optional[str] = None

    # -- control-plane surface ----------------------------------------------

    def table(self, name: str) -> TableState:
        try:
            return self.tables[name]
        except KeyError:
            raise DataPlaneError(f"no table {name!r}") from None

    def set_multicast_group(self, group_id: int, ports: List[int]) -> None:
        if group_id <= 0:
            raise DataPlaneError("multicast group ids are positive")
        self.multicast_groups[group_id] = list(ports)

    def delete_multicast_group(self, group_id: int) -> None:
        self.multicast_groups.pop(group_id, None)

    def drain_digests(self) -> List[DigestMessage]:
        out = self.digests
        self.digests = []
        return out

    # -- packet processing ----------------------------------------------------

    def inject(self, port: int, data: bytes) -> List[Tuple[int, bytes]]:
        """Process one packet; returns ``[(egress_port, bytes), ...]``."""
        if not 0 <= port < self.n_ports:
            raise DataPlaneError(f"no port {port}")
        self.rx_count[port] = self.rx_count.get(port, 0) + 1
        if obs.ENABLED:
            obs.REGISTRY.counter("dataplane_packets_total").inc()

        ctx = self._parse(port, data)
        if ctx is None:
            self.dropped += 1
            return []

        self._run_control(
            self.pipeline.ingress, self.pipeline.ingress_binding, ctx
        )
        # Clones survive an ingress drop of the original (mirroring taps
        # traffic even when the switch decides to drop it).
        clone_replicas = []
        for p in ctx.clone_ports:
            cloned = ctx.clone()
            cloned.drop = False  # the clone is independent of the verdict
            clone_replicas.append((p, cloned))
        if ctx.drop:
            self.dropped += 1
            replicas = clone_replicas
        else:
            replicas: List[Tuple[int, _Context]] = []
            mcast = ctx.std.get("mcast_grp", 0)
            if mcast:
                for out_port in self.multicast_groups.get(mcast, []):
                    replicas.append((out_port, ctx.clone()))
            else:
                out_port = ctx.std.get("egress_spec", 0)
                replicas.append((out_port, ctx))
            replicas.extend(clone_replicas)

        outputs: List[Tuple[int, bytes]] = []
        for out_port, rctx in replicas:
            rctx.std["egress_port"] = out_port
            if self.pipeline.egress is not None:
                self._run_control(
                    self.pipeline.egress, self.pipeline.egress_binding, rctx
                )
                if rctx.drop:
                    self.dropped += 1
                    continue
            if self.cpu_port is not None and out_port == self.cpu_port:
                frame = self._deparse(rctx)
                ingress = rctx.std.get("ingress_port", 0)
                self.packet_ins.append((ingress, frame))
                if self.packet_in_callback is not None:
                    self.packet_in_callback(ingress, frame)
                continue
            if not 0 <= out_port < self.n_ports:
                self.dropped += 1
                continue
            outputs.append((out_port, self._deparse(rctx)))
            self.tx_count[out_port] = self.tx_count.get(out_port, 0) + 1
        return outputs

    def drain_packet_ins(self) -> List[Tuple[int, bytes]]:
        out = self.packet_ins
        self.packet_ins = []
        return out

    # -- parser --------------------------------------------------------------------

    def _parse(self, port: int, data: bytes) -> Optional[_Context]:
        pipeline = self.pipeline
        headers = {}
        for field in pipeline.headers_struct.fields:
            if (
                isinstance(field.type, P.NamedType)
                and field.type.name in pipeline.program.headers
            ):
                headers[field.name] = HeaderInstance(
                    pipeline.program.headers[field.type.name]
                )
        meta: Dict[str, object] = {}
        if pipeline.meta_struct is not None:
            for field in pipeline.meta_struct.fields:
                meta[field.name] = False if isinstance(field.type, P.BoolType) else 0
        std: Dict[str, int] = {name: 0 for name in STD_FIELDS}
        std["ingress_port"] = port
        std["packet_length"] = len(data)

        ctx = _Context(headers, meta, std, b"")
        reader = BitReader(data)
        state_name = "start"
        steps = 0
        while state_name not in ("accept", "reject"):
            steps += 1
            if steps > 1000:
                raise DataPlaneError("parser loop exceeded 1000 states")
            state = self.pipeline.parser.states.get(state_name)
            if state is None:
                return None
            try:
                for stmt in state.statements:
                    self._extract(ctx, reader, stmt.target)
                state_name = self._transition(ctx, state.transition)
            except DataPlaneError:
                state_name = "reject"
        if state_name == "reject":
            return None
        try:
            ctx.payload = reader.rest()
        except DataPlaneError:
            ctx.payload = b""
        return ctx

    def _extract(self, ctx: _Context, reader: BitReader, target: P.Path) -> None:
        member = target.parts[1]
        instance = ctx.headers[member]
        for field in instance.decl.fields:
            if isinstance(field.type, P.BitType):
                instance.fields[field.name] = reader.read(field.type.width)
            else:
                instance.fields[field.name] = bool(reader.read(1))
        instance.valid = True

    def _transition(self, ctx: _Context, transition: P.Transition) -> str:
        if transition.target is not None:
            return transition.target
        value = self._eval(ctx, transition.select_expr, None, None)
        default = "reject"
        for case in transition.cases:
            if case.value is None:
                default = case.state
                continue
            case_value, mask = case.value
            if mask is None:
                if value == case_value:
                    return case.state
            elif (value & mask) == (case_value & mask):
                return case.state
        return default

    # -- controls --------------------------------------------------------------------

    def _run_control(
        self, control: P.ControlDecl, binding: ControlBinding, ctx: _Context
    ) -> None:
        self._run_block(control.apply_block, control, binding, ctx, None)

    def _run_block(self, block, control, binding, ctx, action_env) -> None:
        for stmt in block:
            if isinstance(stmt, P.AssignStmt):
                value = self._eval(ctx, stmt.value, binding, action_env)
                self._assign(ctx, stmt.target, value, binding, action_env)
            elif isinstance(stmt, P.ApplyTableStmt):
                self._apply_table(control, binding, ctx, stmt.table)
            elif isinstance(stmt, P.CallActionStmt):
                args = [
                    self._eval(ctx, a, binding, action_env) for a in stmt.args
                ]
                self._run_action(control, binding, ctx, stmt.action, args)
            elif isinstance(stmt, P.IfStmt):
                if self._eval(ctx, stmt.cond, binding, action_env):
                    self._run_block(
                        stmt.then_block, control, binding, ctx, action_env
                    )
                else:
                    self._run_block(
                        stmt.else_block, control, binding, ctx, action_env
                    )
            elif isinstance(stmt, P.MarkToDropStmt):
                ctx.drop = True
            elif isinstance(stmt, P.DigestStmt):
                values = tuple(
                    int(self._eval(ctx, f, binding, action_env))
                    for f in stmt.fields
                )
                message = DigestMessage(
                    stmt.struct_name, values, update_id=self.config_epoch
                )
                self.digests.append(message)
                if obs.ENABLED:
                    obs.REGISTRY.counter(
                        "dataplane_digests_total", digest=stmt.struct_name
                    ).inc()
                if self.digest_callback is not None:
                    self.digest_callback(message)
            elif isinstance(stmt, P.ClonePortStmt):
                port = int(self._eval(ctx, stmt.port, binding, action_env))
                ctx.clone_ports.append(port)
            elif isinstance(stmt, P.SetValidStmt):
                member = stmt.header.parts[1]
                ctx.headers[member].valid = stmt.valid
            elif isinstance(stmt, P.NoOpStmt):
                pass
            else:  # pragma: no cover
                raise DataPlaneError(f"unsupported statement {stmt!r}")

    def _apply_table(self, control, binding, ctx, table_name: str) -> None:
        table_decl = control.tables[table_name]
        state = self.tables[table_name]
        values = [
            int(self._eval(ctx, key.expr, binding, None))
            for key in table_decl.keys
        ]
        action, params, _hit = state.lookup(values)
        if action is None or action == "NoAction":
            return
        self._run_action(control, binding, ctx, action, list(params))

    def _run_action(self, control, binding, ctx, action_name: str, args) -> None:
        if action_name == "NoAction":
            return
        action = control.actions[action_name]
        env = {}
        for (ptype, pname), value in zip(action.params, args):
            if isinstance(ptype, P.BitType):
                value = int(value) & ((1 << ptype.width) - 1)
            env[pname] = value
        self._run_block(action.body, control, binding, ctx, env)

    # -- expressions --------------------------------------------------------------------

    def _eval(self, ctx, expr, binding, action_env):
        if isinstance(expr, P.IntLit):
            return expr.value
        if isinstance(expr, P.BoolLit):
            return expr.value
        if isinstance(expr, P.Path):
            return self._read_path(ctx, expr, binding, action_env)
        if isinstance(expr, P.IsValidExpr):
            member = expr.header.parts[1]
            return ctx.headers[member].valid
        if isinstance(expr, P.UnaryExpr):
            value = self._eval(ctx, expr.operand, binding, action_env)
            if expr.op == "!":
                return not value
            if expr.op == "~":
                return ~int(value)
            return -int(value)
        if isinstance(expr, P.BinaryExpr):
            op = expr.op
            if op == "&&":
                return bool(
                    self._eval(ctx, expr.left, binding, action_env)
                ) and bool(self._eval(ctx, expr.right, binding, action_env))
            if op == "||":
                return bool(
                    self._eval(ctx, expr.left, binding, action_env)
                ) or bool(self._eval(ctx, expr.right, binding, action_env))
            left = self._eval(ctx, expr.left, binding, action_env)
            right = self._eval(ctx, expr.right, binding, action_env)
            if op == "==":
                return left == right
            if op == "!=":
                return left != right
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
            left, right = int(left), int(right)
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    raise DataPlaneError("division by zero in data plane")
                return left // right
            if op == "%":
                if right == 0:
                    raise DataPlaneError("modulo by zero in data plane")
                return left % right
            if op == "&":
                return left & right
            if op == "|":
                return left | right
            if op == "^":
                return left ^ right
            if op == "<<":
                return left << right
            if op == ">>":
                return left >> right
        raise DataPlaneError(f"unsupported expression {expr!r}")  # pragma: no cover

    def _read_path(self, ctx, path: P.Path, binding, action_env):
        root = path.parts[0]
        if action_env is not None and root in action_env and len(path.parts) == 1:
            return action_env[root]
        if binding is None:
            binding = self.pipeline.parser_binding
        if binding.std_param is not None and root == binding.std_param:
            return ctx.std.get(path.parts[1], 0)
        if root == binding.headers_param:
            member = path.parts[1]
            instance = ctx.headers.get(member)
            if instance is None:
                raise DataPlaneError(f"unknown header member {member!r}")
            if len(path.parts) == 2:
                raise DataPlaneError(f"{path!r} names a header, not a field")
            if not instance.valid:
                return 0
            return instance.fields.get(path.parts[2], 0)
        if binding.meta_param is not None and root == binding.meta_param:
            return ctx.meta.get(path.parts[1], 0)
        raise DataPlaneError(f"cannot read {path!r}")

    def _assign(self, ctx, path: P.Path, value, binding, action_env) -> None:
        root = path.parts[0]
        if binding.std_param is not None and root == binding.std_param:
            field = path.parts[1]
            width = STD_FIELDS.get(field)
            if width is None:
                raise DataPlaneError(f"unknown std field {field!r}")
            ctx.std[field] = int(value) & ((1 << width) - 1)
            return
        if root == binding.headers_param:
            member = path.parts[1]
            instance = ctx.headers[member]
            field = instance.decl.field(path.parts[2])
            if isinstance(field.type, P.BitType):
                instance.fields[field.name] = int(value) & (
                    (1 << field.type.width) - 1
                )
            else:
                instance.fields[field.name] = bool(value)
            return
        if binding.meta_param is not None and root == binding.meta_param:
            field_name = path.parts[1]
            meta_struct = self.pipeline.meta_struct
            field = meta_struct.field(field_name) if meta_struct else None
            if field is not None and isinstance(field.type, P.BitType):
                ctx.meta[field_name] = int(value) & ((1 << field.type.width) - 1)
            else:
                ctx.meta[field_name] = (
                    bool(value) if isinstance(value, bool) or (
                        field is not None and isinstance(field.type, P.BoolType)
                    ) else value
                )
            return
        raise DataPlaneError(f"cannot assign to {path!r}")

    # -- deparser -----------------------------------------------------------------------

    def _deparse(self, ctx: _Context) -> bytes:
        writer = BitWriter()
        for field in self.pipeline.headers_struct.fields:
            instance = ctx.headers.get(field.name)
            if instance is None or not instance.valid:
                continue
            for hfield in instance.decl.fields:
                if isinstance(hfield.type, P.BitType):
                    writer.write(
                        instance.fields[hfield.name], hfield.type.width
                    )
                else:
                    writer.write(1 if instance.fields[hfield.name] else 0, 1)
        return writer.to_bytes() + ctx.payload

    # -- stats --------------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "rx": dict(self.rx_count),
            "tx": dict(self.tx_count),
            "dropped": self.dropped,
            "tables": {name: len(t) for name, t in self.tables.items()},
        }
