"""Unit tests for the two tokenizers: the control-plane language's
(``repro.dlog.lexer``) and P4's (``repro.p4.parser``).

The cases both dialects share live in the uncollected base classes
(``BasicTokens``, ``Integers``, ``Comments``, ``Positions``,
``Operators``); each dialect's ``Test*`` class runs them through its own
``tokenize`` and adds the cases that belong to it alone.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dlog.lexer import tokenize
from repro.dlog.parser import parse_program
from repro.errors import LexError, ReproError
from repro.p4.parser import parse_p4
from repro.p4.parser import tokenize as p4_tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class Dialect:
    tokenize = staticmethod(tokenize)

    def values(self, text):
        return [t.value for t in self.tokenize(text)[:-1]]

    def position(self, text):
        """Where lexing ``text`` fails, as (line, column)."""
        with pytest.raises(LexError) as caught:
            self.tokenize(text)
        return caught.value.line, caught.value.column


class BasicTokens(Dialect):
    def test_empty_input_yields_eof(self):
        toks = self.tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == "eof"


class TestBasicTokens(BasicTokens):
    def test_identifiers_and_keywords(self):
        toks = tokenize("input relation Port port_id")
        assert [t.kind for t in toks[:-1]] == ["keyword", "keyword", "ident", "ident"]
        assert values("input relation Port port_id") == [
            "input",
            "relation",
            "Port",
            "port_id",
        ]

    def test_underscore_is_operator(self):
        toks = tokenize("_")
        assert toks[0].kind == "op"
        assert toks[0].value == "_"

    def test_underscore_prefixed_identifier(self):
        toks = tokenize("_x")
        assert toks[0].kind == "ident"
        assert toks[0].value == "_x"

    def test_rule_operator(self):
        assert values("Label(n, l) :- Edge(n).") == [
            "Label",
            "(",
            "n",
            ",",
            "l",
            ")",
            ":-",
            "Edge",
            "(",
            "n",
            ")",
            ".",
        ]


class Integers(Dialect):
    def test_decimal(self):
        toks = self.tokenize("42")
        assert toks[0].kind == "int"
        assert toks[0].value == (42, None)

    def test_decimal_with_underscores(self):
        assert self.tokenize("1_000_000")[0].value == (1000000, None)

    def test_hex(self):
        assert self.tokenize("0xFF")[0].value == (255, None)
        assert self.tokenize("0XdE_aD")[0].value == (0xDEAD, None)

    def test_binary(self):
        assert self.tokenize("0b1010")[0].value == (10, None)
        assert self.tokenize("0B1_0")[0].value == (2, None)

    #: Literals whose digits are missing, each with where the error is
    #: reported: where the digits should start.
    NO_DIGITS = {"0x": (1, 3), "0b": (1, 3), "x 0X_": (1, 5), "0b2": (1, 3)}

    def test_literal_with_no_digits_is_a_lex_error(self):
        for text, where in self.NO_DIGITS.items():
            assert self.position(text) == where, text


class TestNumbers(Integers):
    NO_DIGITS = {**Integers.NO_DIGITS, "1.5e": (1, 5), "1.5e+": (1, 6)}

    def test_sized_decimal(self):
        assert tokenize("32'd5")[0].value == (5, 32)

    def test_sized_hex(self):
        assert tokenize("8'hFF")[0].value == (255, 8)

    def test_sized_binary(self):
        assert tokenize("4'b1010")[0].value == (10, 4)

    def test_float(self):
        tok = tokenize("3.25")[0]
        assert tok.kind == "float"
        assert tok.value == 3.25

    def test_float_exponent(self):
        assert tokenize("1.5e3")[0].value == 1500.0
        assert tokenize("2e2")[0].value == 200.0

    def test_integer_then_dot_is_not_float(self):
        # `1.` must lex as int then op (rule terminator), not a float.
        toks = tokenize("R(1).")
        assert [t.kind for t in toks[:-1]] == ["ident", "op", "int", "op", "op"]

    def test_bad_sized_literal_base(self):
        with pytest.raises(LexError):
            tokenize("8'q12")

    def test_sized_literal_missing_digits(self):
        with pytest.raises(LexError):
            tokenize("8'd")


class TestStrings:
    def test_simple_string(self):
        tok = tokenize('"hello"')[0]
        assert tok.kind == "string"
        assert tok.value == "hello"

    def test_escapes(self):
        assert tokenize(r'"a\nb\t\"c\\"')[0].value == 'a\nb\t"c\\'

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_bad_escape(self):
        with pytest.raises(LexError):
            tokenize(r'"\q"')


class Comments(Dialect):
    def test_line_comment(self):
        assert self.values("a // comment\n b") == ["a", "b"]

    def test_block_comment(self):
        assert self.values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        # Reported where the input ends, not where the comment opened.
        assert self.position("a /* oops\n  x") == (2, 4)

    def test_slash_star_slash_does_not_close(self):
        assert self.position("/*/ a") == (1, 6)
        assert self.values("/**/ a") == ["a"]


class TestComments(Comments):
    pass


class Positions(Dialect):
    def test_line_and_column_tracking(self):
        toks = self.tokenize("a\n  b")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_lex_error_position(self):
        assert self.position("abc\n   $") == (2, 4)

    def test_position_after_a_multi_line_comment(self):
        toks = self.tokenize("a /* one\ntwo\n  three */ b\n\tc")
        assert [(t.line, t.column) for t in toks] == [(1, 1), (3, 12), (4, 2), (4, 3)]


class TestPositions(Positions):
    def test_position_after_a_multi_line_string(self):
        toks = tokenize('x "one\ntwo" y')
        assert [(t.line, t.column) for t in toks] == [(1, 1), (1, 3), (2, 6), (2, 7)]

    def test_string_error_positions(self):
        assert self.position('"ab\ncd') == (2, 3)
        assert self.position('"a\n b\\q"') == (2, 4)


class Operators(Dialect):
    def test_maximal_munch(self):
        assert self.values("a<<b <= c << d") == ["a", "<<", "b", "<=", "c", "<<", "d"]


class TestOperators(Operators):
    def test_concat_vs_plus(self):
        assert values("a ++ b + c") == ["a", "++", "b", "+", "c"]


class TestP4BasicTokens(BasicTokens):
    tokenize = staticmethod(p4_tokenize)

    def test_underscore_is_an_identifier(self):
        assert [(t.kind, t.value) for t in p4_tokenize("_ _x")[:-1]] == [
            ("ident", "_"),
            ("ident", "_x"),
        ]

    def test_keywords(self):
        assert kinds("header hdr") == ["ident", "ident", "eof"]
        assert [t.kind for t in p4_tokenize("header hdr")] == ["keyword", "ident", "eof"]


class TestP4Numbers(Integers):
    tokenize = staticmethod(p4_tokenize)
    NO_DIGITS = {**Integers.NO_DIGITS, "8w": (1, 3), "8w0x": (1, 5)}

    def test_width_literal(self):
        assert p4_tokenize("8w255")[0].value == (255, 8)

    def test_width_literal_in_hex(self):
        assert p4_tokenize("16w0xFFFF")[0].value == (0xFFFF, 16)

    def test_width_literal_in_binary(self):
        assert self.values("8w0b101 8w0B1_1") == [(5, 8), (3, 8)]
        assert parse_p4("const bit<8> X = 8w0b101;").constants == {"X": 5}

    def test_no_float_and_no_sized_literal(self):
        assert [t.kind for t in p4_tokenize("1.5")] == ["int", "op", "int", "eof"]
        assert self.position("8'd5") == (1, 2)


class TestP4Comments(Comments):
    tokenize = staticmethod(p4_tokenize)


class TestP4Positions(Positions):
    tokenize = staticmethod(p4_tokenize)


class TestP4Operators(Operators):
    tokenize = staticmethod(p4_tokenize)

    def test_ternary_mask(self):
        assert self.values("a &&& b && c & d") == ["a", "&&&", "b", "&&", "c", "&", "d"]


#: What a fuzzed source is glued from: literal prefixes and suffixes,
#: digits, a little punctuation, and short runs of any text.
_FRAGMENTS = st.one_of(
    st.sampled_from(
        ["0", "7", "0x", "0b", "_", "e", "+", ".", "w", "'", "d", "h", "R",
         " ", "\n", "(", ")", ";", ",", "<", ">", '"', "//", "/*", "*/"]
    ),
    st.text(max_size=3),
)


def _texts():
    return st.lists(_FRAGMENTS, max_size=12).map("".join)


@given(_texts())
def test_any_text_parses_or_raises_a_repro_error(text):
    try:
        parse_program(text)
    except ReproError:
        pass


@given(_texts())
def test_any_p4_text_parses_or_raises_a_repro_error(text):
    try:
        parse_p4(text)
    except ReproError:
        pass
