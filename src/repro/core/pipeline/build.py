"""``nerpa_build``: compile the whole stack as one unit.

Takes the three artifacts the network programmer writes, generates the
bridging declarations, and typechecks everything together — the paper's
claim that "in the compilation process, Nerpa typechecks the data
definitions and database schema, ensuring that only well-formed
messages are exchanged" lands here: a P4 table whose key width doesn't
match what the rules produce, a rule writing a column that doesn't
exist, or a digest consumed with the wrong arity all fail the build
with a source-located diagnostic.
"""

from __future__ import annotations

from typing import Dict

from repro.core.codegen import GeneratedBindings, generate_declarations
from repro.dlog.engine import CompiledProgram, compile_program
from repro.errors import TypeCheckError
from repro.mgmt.schema import DatabaseSchema
from repro.p4.ir import Pipeline, compile_p4


class NerpaProject:
    """A compiled full-stack program.

    Attributes:
        schema: the management-plane schema.
        pipeline: the compiled data-plane pipeline (shared P4Info).
        program: the compiled control-plane program (generated
            declarations + the programmer's rules).
        bindings: runtime value-conversion metadata.
        generated_source: the dlog text codegen produced (for LoC
            accounting and debugging).
        user_source: the programmer's dlog text.
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        pipeline: Pipeline,
        program: CompiledProgram,
        bindings: GeneratedBindings,
        generated_source: str,
        user_source: str,
    ):
        self.schema = schema
        self.pipeline = pipeline
        self.program = program
        self.bindings = bindings
        self.generated_source = generated_source
        self.user_source = user_source

    def new_simulator(self, n_ports: int = 64, **kwargs):
        """Convenience: a fresh data plane running this project's pipeline."""
        from repro.p4.simulator import Simulator

        return Simulator(self.pipeline, n_ports=n_ports, **kwargs)

    def loc_report(self) -> Dict[str, int]:
        """Non-blank source lines per artifact (the §4.3 accounting)."""
        from repro.analysis.loc import count_loc

        return {
            "dlog_rules": count_loc(self.user_source, kind="dlog"),
            "dlog_generated": count_loc(self.generated_source, kind="dlog"),
            # Reserved "_" tables (e.g. the lease table a Database
            # injects in place) are runtime infrastructure, not part of
            # the application the paper's accounting measures.
            "schema_tables": sum(
                1
                for name in self.schema.tables
                if not name.startswith("_")
            ),
        }


def nerpa_build(
    ovsdb_schema,
    dlog_source: str,
    p4_source: str,
    dlog_name: str = "<rules>",
    p4_name: str = "<p4>",
) -> NerpaProject:
    """Compile a full-stack program.

    ``ovsdb_schema`` may be a :class:`DatabaseSchema` or its JSON dict.
    Raises :class:`~repro.errors.TypeCheckError` (or a parse error) if
    any plane — or any *seam between planes* — is ill-typed.
    """
    if isinstance(ovsdb_schema, dict):
        ovsdb_schema = DatabaseSchema.from_json(ovsdb_schema)

    pipeline = compile_p4(p4_source, p4_name)
    generated, bindings = generate_declarations(ovsdb_schema, pipeline.p4info)

    full_source = generated + "\n" + dlog_source
    program = compile_program(full_source, source=dlog_name)

    _check_outputs_covered(program, bindings)
    return NerpaProject(
        ovsdb_schema, pipeline, program, bindings, generated, dlog_source
    )


# Output relations the controller interprets itself rather than mapping
# to a P4 table.  MulticastGroup(group, port) configures packet
# replication (flooding), which P4Runtime models as separate config.
MULTICAST_RELATION = "MulticastGroup"


def _check_outputs_covered(
    program: CompiledProgram, bindings: GeneratedBindings
) -> None:
    for name in program.output_relations:
        if name in bindings.table_relations:
            continue
        if name == MULTICAST_RELATION:
            decl = program.relation_decl(name)
            if decl.arity != 2:
                raise TypeCheckError(
                    f"{MULTICAST_RELATION} must have exactly two columns "
                    "(group, port)"
                )
            continue
        raise TypeCheckError(
            f"output relation {name} does not correspond to any P4 table "
            "(tables present: "
            f"{sorted(bindings.table_relations)}); declare it as a plain "
            "'relation' if it is internal"
        )
