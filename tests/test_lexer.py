"""Tokenizer tests."""

import pytest

from repro.reader.lexer import LexError, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def texts(text):
    return [t.text for t in tokenize(text)]


class TestBasicTokens:
    def test_empty_input(self):
        assert tokenize("") == []

    def test_whitespace_only(self):
        assert tokenize("  \t\n\r  ") == []

    def test_parens(self):
        assert kinds("()") == ["LPAREN", "RPAREN"]

    def test_square_brackets(self):
        assert kinds("[]") == ["LPAREN", "RPAREN"]

    def test_number(self):
        assert kinds("42") == ["NUMBER"]
        assert texts("42") == ["42"]

    def test_negative_number(self):
        assert kinds("-42") == ["NUMBER"]

    def test_positive_sign_number(self):
        assert kinds("+42") == ["NUMBER"]

    def test_non_ascii_digits_are_symbols(self):
        # str.isdigit accepts these; int() does not.
        assert kinds("\u00b2 -\u00b2 \u0663") == ["SYMBOL"] * 3

    def test_plus_alone_is_symbol(self):
        assert kinds("+") == ["SYMBOL"]

    def test_minus_alone_is_symbol(self):
        assert kinds("-") == ["SYMBOL"]

    def test_symbol(self):
        assert kinds("foo") == ["SYMBOL"]

    def test_symbol_with_special_chars(self):
        assert kinds("list->vector") == ["SYMBOL"]
        assert kinds("set!") == ["SYMBOL"]
        assert kinds("even?") == ["SYMBOL"]

    def test_booleans(self):
        assert texts("#t #f") == ["#t", "#f"]
        assert kinds("#t #f") == ["BOOLEAN", "BOOLEAN"]

    def test_uppercase_booleans(self):
        assert texts("#T #F") == ["#t", "#f"]

    def test_dot_token(self):
        assert kinds(".") == ["DOT"]


class TestQuotation:
    def test_quote_sugar(self):
        assert kinds("'x") == ["QUOTE", "SYMBOL"]

    def test_quasiquote_sugar(self):
        assert kinds("`x") == ["QUASIQUOTE", "SYMBOL"]

    def test_unquote(self):
        assert kinds(",x") == ["UNQUOTE", "SYMBOL"]

    def test_unquote_splicing(self):
        assert kinds(",@x") == ["UNQUOTE_SPLICING", "SYMBOL"]

    def test_vector_open(self):
        assert kinds("#(1)") == ["VECTOR_OPEN", "NUMBER", "RPAREN"]

    def test_datum_comment(self):
        assert kinds("#;") == ["DATUM_COMMENT"]


class TestStrings:
    def test_simple_string(self):
        assert texts('"hello"') == ["hello"]

    def test_empty_string(self):
        assert texts('""') == [""]

    def test_escaped_quote(self):
        assert texts(r'"a\"b"') == ['a"b']

    def test_escaped_newline(self):
        assert texts(r'"a\nb"') == ["a\nb"]

    def test_escaped_backslash(self):
        assert texts(r'"a\\b"') == ["a\\b"]

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_bad_escape(self):
        with pytest.raises(LexError):
            tokenize(r'"a\qb"')


class TestCharacters:
    def test_simple_char(self):
        assert texts("#\\a") == ["a"]
        assert kinds("#\\a") == ["CHAR"]

    def test_named_space(self):
        assert texts("#\\space") == [" "]

    def test_named_newline(self):
        assert texts("#\\newline") == ["\n"]

    def test_named_tab(self):
        assert texts("#\\tab") == ["\t"]

    def test_digit_char(self):
        assert texts("#\\7") == ["7"]

    def test_paren_char(self):
        assert texts("#\\(") == ["("]

    def test_unknown_char_name(self):
        with pytest.raises(LexError):
            tokenize("#\\bogus")


class TestComments:
    def test_line_comment(self):
        assert kinds("; a comment\n42") == ["NUMBER"]

    def test_line_comment_at_eof(self):
        assert kinds("42 ; trailing") == ["NUMBER"]

    def test_block_comment(self):
        assert kinds("#| anything |# 7") == ["NUMBER"]

    def test_nested_block_comment(self):
        assert kinds("#| outer #| inner |# outer |# 7") == ["NUMBER"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("#| oops")


class TestPositions:
    def test_line_and_column(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_error_carries_position(self):
        with pytest.raises(LexError) as info:
            tokenize('\n"open')
        assert info.value.line == 2


class TestErrors:
    def test_unsupported_hash_syntax(self):
        with pytest.raises(LexError):
            tokenize("#x1F")

    def test_boolean_requires_delimiter(self):
        with pytest.raises(LexError):
            tokenize("#true")
