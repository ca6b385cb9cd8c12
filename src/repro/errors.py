"""Exception hierarchy shared by every plane of the stack.

Keeping one root (:class:`ReproError`) lets callers of the full stack —
e.g. the Nerpa controller, which touches all three planes in one code
path — catch domain failures without catching programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of all domain errors raised by this package."""


class SourceError(ReproError):
    """An error tied to a position in user-provided source text.

    Carries enough context (source name, line, column) to format a
    compiler-style diagnostic.
    """

    def __init__(self, message, source="<input>", line=None, column=None):
        self.message = message
        self.source = source
        self.line = line
        self.column = column
        super().__init__(self._format())

    def _format(self):
        where = self.source
        if self.line is not None:
            where = f"{where}:{self.line}"
            if self.column is not None:
                where = f"{where}:{self.column}"
        return f"{where}: {self.message}"


class LexError(SourceError):
    """Invalid token in source text."""


class ParseError(SourceError):
    """Syntactically invalid source text."""


class TypeCheckError(SourceError):
    """A type error detected at compilation time (any plane)."""


class EvalError(ReproError):
    """A runtime error while evaluating a control-plane expression."""


class StratificationError(ReproError):
    """The rule set has negation or aggregation through recursion."""


class TransactionError(ReproError):
    """A management- or control-plane transaction could not commit."""


class SchemaError(ReproError):
    """Invalid database schema, or data that violates it."""


class ProtocolError(ReproError):
    """Malformed or unexpected message on a wire protocol."""


class ConnectionLostError(ProtocolError):
    """The transport under a wire protocol died (and could not be
    re-established in time)."""


class DataPlaneError(ReproError):
    """Error while compiling or executing a data-plane program."""


class RuntimeApiError(ReproError):
    """A P4Runtime-style request was rejected by the target."""
