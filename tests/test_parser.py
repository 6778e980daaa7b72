"""Reader tests: tokens -> datum trees."""

import pytest

from repro.reader.datum import Char, Symbol, VectorDatum, datum_to_string
from repro.reader.parser import ParseError, read, read_all


class TestAtoms:
    def test_number(self):
        assert read("42") == 42

    def test_negative_number(self):
        assert read("-7") == -7

    def test_symbol(self):
        assert read("foo") is Symbol("foo")

    def test_true(self):
        assert read("#t") is True

    def test_false(self):
        assert read("#f") is False

    def test_string(self):
        assert read('"hi"') == "hi"

    def test_char(self):
        assert read("#\\a") == Char("a")


class TestLists:
    def test_empty_list(self):
        assert read("()") == ()

    def test_flat_list(self):
        assert read("(1 2 3)") == (1, 2, 3)

    def test_nested_list(self):
        assert read("(a (b c) d)") == (
            Symbol("a"),
            (Symbol("b"), Symbol("c")),
            Symbol("d"),
        )

    def test_square_bracket_list(self):
        assert read("[1 2]") == (1, 2)

    def test_mismatched_brackets(self):
        with pytest.raises(ParseError):
            read("(1 2]")

    def test_unterminated_list(self):
        with pytest.raises(ParseError):
            read("(1 2")

    def test_stray_close(self):
        with pytest.raises(ParseError):
            read(")")

    def test_dotted_pair_rejected(self):
        with pytest.raises(ParseError):
            read("(1 . 2)")


class TestSugar:
    def test_quote(self):
        assert read("'x") == (Symbol("quote"), Symbol("x"))

    def test_quoted_list(self):
        assert read("'(1 2)") == (Symbol("quote"), (1, 2))

    def test_quasiquote(self):
        assert read("`x") == (Symbol("quasiquote"), Symbol("x"))

    def test_unquote(self):
        assert read(",x") == (Symbol("unquote"), Symbol("x"))

    def test_vector(self):
        assert read("#(1 2)") == VectorDatum((1, 2))

    def test_datum_comment_skips_next_datum(self):
        assert read("#;(ignored here) 42") == 42

    def test_datum_comment_inside_list(self):
        assert read("(1 #;2 3)") == (1, 3)

    def test_datum_comment_before_closing_parenthesis(self):
        assert read_all("(a #;b)") == [(Symbol("a"),)]

    def test_datum_comment_at_end_of_input(self):
        assert read_all("#;x") == []


class TestReadAll:
    def test_multiple_datums(self):
        assert read_all("1 2 3") == [1, 2, 3]

    def test_empty(self):
        assert read_all("") == []

    def test_read_rejects_multiple(self):
        with pytest.raises(ParseError):
            read("1 2")

    def test_read_rejects_empty(self):
        with pytest.raises(ParseError):
            read("")


class TestRoundTrip:
    CASES = [
        "42",
        "-7",
        "#t",
        "#f",
        "foo",
        "(1 2 3)",
        "(a (b (c)) d)",
        "()",
        "#(1 2 3)",
        '"hello"',
        "#\\a",
        "#\\space",
        "(quote x)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_print_then_read(self, text):
        datum = read(text)
        assert read(datum_to_string(datum)) == datum


class TestSymbolInterning:
    def test_same_name_same_object(self):
        assert Symbol("abc") is Symbol("abc")

    def test_symbols_hashable(self):
        assert {Symbol("a"): 1}[Symbol("a")] == 1

    def test_symbol_immutable(self):
        with pytest.raises(AttributeError):
            Symbol("a").name = "b"
