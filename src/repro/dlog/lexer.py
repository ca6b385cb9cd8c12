"""The control-plane language's dialect of :mod:`repro.syntax`.

Beyond the shared tokens: the sized literal (``32'd5``, ``8'hFF``),
floats, strings with escapes, and ``_`` as an operator (the wildcard).
``tokenize(text, source)`` returns a list of tokens ending in ``eof``;
the parser indexes into it.
"""

from __future__ import annotations

import re
from typing import List

from repro.syntax import Scan, tokenizer

KEYWORDS = {
    "input",
    "output",
    "relation",
    "typedef",
    "function",
    "var",
    "not",
    "and",
    "or",
    "if",
    "else",
    "match",
    "as",
    "true",
    "false",
    "bit",
    "signed",
    "bigint",
    "bool",
    "string",
    "float",
}

OPERATORS = [
    ":-",
    "==",
    "!=",
    "<=",
    ">=",
    "<<",
    ">>",
    "->",
    "++",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ",",
    ".",
    ":",
    ";",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "&",
    "|",
    "^",
    "~",
    "!",
    "_",
    "#",
    "@",
]


_BASES = {"d": 10, "h": 16, "x": 16, "b": 2, "o": 8}
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\", "0": "\0"}
_STRING_RUN = re.compile(r'[^"\\]*')


def _literal(scan: Scan, ch: str):
    if ch == '"':
        return "string", _string(scan)
    if not ch.isdigit():
        return None
    start = scan.pos
    value, base = scan.integer()
    if base != 10:
        return "int", (value, None)
    nxt = scan.peek()
    if nxt == "'":
        # Width-annotated literal: 32'd5, 8'hFF, 4'b1010.
        scan.pos += 1
        radix = _BASES.get(scan.peek())
        if radix is None:
            raise scan.error(f"bad base character {scan.peek()!r} in sized literal")
        scan.pos += 1
        raw = scan.word().replace("_", "")
        if not raw:
            raise scan.error("sized literal missing digits")
        try:
            return "int", (int(raw, radix), value)
        except ValueError:
            raise scan.error(f"bad digits {raw!r} for base {radix}")
    after = scan.peek(1)
    if nxt == "." and after.isdigit():
        scan.pos += 1
        scan.skip(str.isdigit)
    elif not (
        nxt in ("e", "E")
        and (after.isdigit() or after in ("+", "-") and scan.peek(2).isdigit())
    ):
        return "int", (value, None)
    if scan.peek() in ("e", "E"):
        scan.pos += 1
        if scan.peek() in ("+", "-"):
            scan.pos += 1
        scan.skip(str.isdigit)
    return "float", float(scan.text[start : scan.pos])


def _string(scan: Scan) -> str:
    text = scan.text
    chars: List[str] = []
    pos = scan.pos + 1  # past the opening quote
    while True:
        end = _STRING_RUN.match(text, pos).end()
        chars.append(text[pos:end])
        if end == len(text):
            scan.move(end)
            raise scan.error("unterminated string literal")
        if text[end] == '"':
            scan.move(end + 1)
            return "".join(chars)
        esc = text[end + 1 : end + 2]
        if esc not in _ESCAPES:
            scan.move(end + 1)
            raise scan.error(f"bad escape \\{esc}")
        chars.append(_ESCAPES[esc])
        pos = end + 2


tokenize = tokenizer(KEYWORDS, OPERATORS, _literal, "<input>")
