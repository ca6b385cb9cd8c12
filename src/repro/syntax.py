"""The front end both source languages share.

DDlog rules (:mod:`repro.dlog`) and P4 programs (:mod:`repro.p4`)
differ in their keywords, their operators and a few literal forms.
Everything else is here: :class:`Token` and :class:`Pos`, whitespace
and ``//`` / ``/* */`` comments, identifiers, hex / binary / underscored
integers, maximal-munch operators, and a recursive-descent
:class:`Parser` base with one table-driven binary-operator loop.
A language describes its dialect as data, :func:`tokenizer` turns that
into its ``tokenize``, and its parser subclasses :class:`Parser`.
"""

from __future__ import annotations

import re
from typing import Callable, Collection, Dict, List, Optional, Tuple

from repro.errors import LexError, ParseError


class Pos:
    """Source position (name, 1-based line/column)."""

    __slots__ = ("source", "line", "column")

    def __init__(self, source: str = "<input>", line: int = 0, column: int = 0):
        self.source = source
        self.line = line
        self.column = column

    def __repr__(self):
        return f"{self.source}:{self.line}:{self.column}"


class Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind: str, value, line: int, column: int):
        self.kind = kind  # 'ident' | 'keyword' | 'int' | 'float' | 'string' | 'op' | 'eof'
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r} @{self.line}:{self.column})"


# Whitespace and comments; a ``/*`` left in front of a token is one
# that never closes.
_TRIVIA = re.compile(r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*", re.S)
# ``\w`` is exactly ``str.isalnum()`` or ``_``.
_WORD = re.compile(r"\w+")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF_")
_BINARY_DIGITS = frozenset("01_")


class Scan:
    """A cursor over one source text, for a dialect's literal readers.

    ``pos`` is the offset; ``line`` and ``bol`` (the offset its line
    begins at) follow it through :meth:`move`.  A reader may also set
    ``pos`` directly over text that holds no newline.
    """

    __slots__ = ("text", "source", "pos", "line", "bol")

    def __init__(self, text: str, source: str):
        self.text = text
        self.source = source
        self.pos = 0
        self.line = 1
        self.bol = 0

    def peek(self, offset: int = 0) -> str:
        """The character ``offset`` past ``pos``; ``""`` past the end."""
        i = self.pos + offset
        return self.text[i : i + 1]

    def move(self, end: int) -> None:
        """Advance to ``end``, counting the newlines passed over."""
        newlines = self.text.count("\n", self.pos, end)
        if newlines:
            self.line += newlines
            self.bol = self.text.rindex("\n", self.pos, end) + 1
        self.pos = end

    def skip(self, accept: Callable[[str], bool]) -> None:
        """Advance over the characters ``accept`` admits (no newline)."""
        text, pos, end = self.text, self.pos, len(self.text)
        while pos < end and accept(text[pos]):
            pos += 1
        self.pos = pos

    def word(self) -> str:
        """Advance over, and return, a run of ``\\w`` characters."""
        match = _WORD.match(self.text, self.pos)
        if match is None:
            return ""
        self.pos = match.end()
        return match.group()

    def integer(self) -> Tuple[int, int]:
        """Read an integer: ``0x`` hex, ``0b`` binary or decimal, each
        with ``_`` separators.  Returns the value and its base; raises
        :class:`LexError` where the digits should start if there are
        none."""
        prefix = self.text[self.pos : self.pos + 2]
        if prefix in ("0x", "0X"):
            base, digit = 16, _HEX_DIGITS.__contains__
        elif prefix in ("0b", "0B"):
            base, digit = 2, _BINARY_DIGITS.__contains__
        else:
            base, digit = 10, _decimal_digit
        if base != 10:
            self.pos += 2
        start = self.pos
        self.skip(digit)
        digits = self.text[start : self.pos].replace("_", "")
        if not digits:
            self.pos = start
            raise self.error("integer literal missing digits")
        return int(digits, base), base

    def error(self, message: str) -> LexError:
        return LexError(message, self.source, self.line, self.pos - self.bol + 1)


def _decimal_digit(ch: str) -> bool:
    return ch.isdecimal() or ch == "_"


#: A dialect's literal reader: called at the start of every token with
#: the scan at that token and its first character, it reads a literal
#: and returns ``(kind, value)``, or returns None to leave the token to
#: the shared rules (identifiers, keywords, operators).
Literals = Callable[[Scan, str], Optional[Tuple[str, object]]]


def tokenizer(
    keywords: Collection[str],
    operators: Collection[str],
    literals: Literals,
    default_source: str,
) -> Callable[..., List[Token]]:
    """Build a dialect's ``tokenize(text, source=default_source)``.

    A word (a letter or ``_``, then letters, digits and ``_``) is a
    keyword, an operator (DDlog's ``_``) or an identifier.  Operators
    are matched longest first.  ``literals`` reads everything else a
    dialect has, numbers included: ``Scan.integer`` reads the forms
    both languages share.
    """
    keywords = frozenset(keywords)
    words = frozenset(operators)
    by_first: Dict[str, List[str]] = {}
    for op in sorted(operators, key=len, reverse=True):
        by_first.setdefault(op[0], []).append(op)

    def tokenize(text: str, source: str = default_source) -> List[Token]:
        """Tokenize ``text``; the last token is always ``eof``."""
        scan = Scan(text, source)
        tokens: List[Token] = []
        while True:
            scan.move(_TRIVIA.match(text, scan.pos).end())
            pos = scan.pos
            line, column = scan.line, pos - scan.bol + 1
            if pos == len(text):
                tokens.append(Token("eof", None, line, column))
                return tokens
            if text.startswith("/*", pos):
                scan.move(len(text))
                raise scan.error("unterminated block comment")
            ch = text[pos]
            literal = literals(scan, ch)
            if literal is not None:
                kind, value = literal
            elif ch.isalpha() or ch == "_":
                value = scan.word()
                kind = "keyword" if value in keywords else "op" if value in words else "ident"
            else:
                for value in by_first.get(ch, ()):
                    if text.startswith(value, pos):
                        break
                else:
                    raise scan.error(f"unexpected character {ch!r}")
                scan.pos = pos + len(value)
                kind = "op"
            tokens.append(Token(kind, value, line, column))

    return tokenize


def describe(tok: Token) -> str:
    """A token as a parse error names what it found."""
    return "end of input" if tok.kind == "eof" else repr(tok.value)


#: A binary-operator table for :meth:`Parser.binary`: operator -> (rank,
#: chains).
Precedence = Dict[str, Tuple[int, bool]]


def precedence(*levels: Tuple[str, ...]) -> Precedence:
    """A binary-operator table from its levels, loosest first.

    A level is ``("left", op, ...)``, whose operators chain left to
    right, or ``("none", op, ...)``, which joins two operands once:
    ``a < b < c`` does not parse.
    """
    return {
        op: (rank, assoc == "left")
        for rank, (assoc, *ops) in enumerate(levels, 1)
        for op in ops
    }


class Parser:
    """Recursive descent over one token list; a language's parser
    subclasses it with its grammar."""

    def __init__(self, toks: List[Token], source: str):
        self.source = source
        self.toks = toks
        self.i = 0

    def peek(self, offset: int = 0) -> Token:
        return self.toks[min(self.i + offset, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, kind: str, value=None) -> bool:
        tok = self.toks[self.i]
        return tok.kind == kind and (value is None or tok.value == value)

    def accept(self, kind: str, value=None) -> bool:
        if self.at(kind, value):
            self.next()
            return True
        return False

    def expect(self, kind: str, value=None, what: Optional[str] = None) -> Token:
        """The next token, which must be a ``kind`` (of ``value``);
        the error names ``what`` if given, else the value or kind."""
        if not self.at(kind, value):
            want = what or repr(kind if value is None else value)
            raise self.error(f"expected {want}, found {describe(self.peek())}")
        return self.next()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, self.source, tok.line, tok.column)

    def pos(self) -> Pos:
        tok = self.peek()
        return Pos(self.source, tok.line, tok.column)

    def binary(self, table: Precedence, operand, make, lowest: int = 1):
        """Parse operands (``operand()``) joined by ``table``'s
        operators of rank ``lowest`` and up, tighter ranks first;
        ``make(op, left, right, pos)`` builds each node, ``pos`` the
        operator's."""
        left = operand()
        ceiling = len(table)  # no rank is above the operator count
        while True:
            tok = self.toks[self.i]
            entry = table.get(tok.value) if tok.kind in ("op", "keyword") else None
            if entry is None or not lowest <= entry[0] <= ceiling:
                return left
            rank, chains = entry
            pos = self.pos()
            self.next()
            right = self.binary(table, operand, make, rank + 1)
            left = make(tok.value, left, right, pos)
            ceiling = rank if chains else rank - 1
