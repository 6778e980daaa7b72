"""Tokenizer for the Scheme surface syntax accepted by this reproduction.

Handles parentheses (round and square), quotation sugar, booleans,
exact integers (including negative and radix-10 only), strings,
characters, symbols, ``;`` line comments, ``#|...|#`` block comments,
and ``#;`` datum comments (the datum-skip itself is handled by the
parser).

The whole scan is one compiled regular expression: each match is a run
of atmosphere followed by one token, so :func:`scan` does one regex
step and a few comparisons per token.  Only nested block comments and
character names leave the regex; each is finished in Python and the
scan restarts after it.  A raw token is ``(kind, text, offset)``; its
line and column are worked out from the offset only when something
asks for them (:func:`tokenize`, an error message).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, List, Tuple


class LexError(SyntaxError):
    """Raised when the source text cannot be tokenized."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    """One lexical token.

    ``kind`` is one of: LPAREN, RPAREN, QUOTE, QUASIQUOTE, UNQUOTE,
    UNQUOTE_SPLICING, VECTOR_OPEN, DATUM_COMMENT, BOOLEAN, NUMBER,
    STRING, CHAR, SYMBOL, DOT.
    """

    kind: str
    text: str
    line: int
    column: int


#: (kind, text, offset): a token before its position is resolved.
RawToken = Tuple[str, str, int]

_DELIMITERS = set('()[]"; \t\n\r')

#: A string's body: any character but a quote or a backslash, or one of
#: the escapes of ``_STRING_ESCAPES``.
_STRING_BODY = r'(?:[^"\\]|\\[nrt"\\])*'

#: Atmosphere (whitespace and line comments), then one token.  Every
#: character that does not begin atmosphere begins exactly one of the
#: alternatives and the last one matches the end of the text, so a
#: match never fails and never backtracks into the atmosphere.  A
#: string whose body holds a bad escape or lacks its closing quote
#: fails its alternative and matches ``BADSTRING``.
_TOKEN = re.compile(
    rf"""[ \t\n\r]*(?:;[^\n]*[ \t\n\r]*)*
    (?:
        (?P<LPAREN>[(\[])
      | (?P<RPAREN>[)\]])
      | (?P<ATOM>[^()\[\]";\ \t\n\r'`,\#][^()\[\]";\ \t\n\r]*)
      | "(?P<STRING>{_STRING_BODY})"
      | (?P<SUGAR>,@|[',`])
      | \#(?P<HASH>[\s\S]?)
      | (?P<BADSTRING>")
      | (?P<END>)\Z
    )""",
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\(.)")
_BLOCK_MARK = re.compile(r"\|#|#\|")
_ATOM_REST = re.compile(r'[^()\[\]"; \t\n\r]*')

_SUGAR = {
    "'": "QUOTE",
    "`": "QUASIQUOTE",
    ",": "UNQUOTE",
    ",@": "UNQUOTE_SPLICING",
}

_NAMED_CHARS = {
    "space": " ",
    "newline": "\n",
    "tab": "\t",
    "nul": "\0",
    "return": "\r",
}

_STRING_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    '"': '"',
    "\\": "\\",
}


def position(text: str, offset: int) -> Tuple[int, int]:
    """The (line, column) of *offset* in *text*, both from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _error(message: str, text: str, offset: int) -> LexError:
    return LexError(message, *position(text, offset))


def scan(text: str) -> Iterator[RawToken]:
    """Yield every token of *text* as ``(kind, text, offset)``."""
    size = len(text)
    pos = 0
    while True:
        for match in _TOKEN.finditer(text, pos):
            kind = match.lastgroup
            value = match.group(kind)
            start = match.start(kind)
            if kind == "ATOM":
                if value == ".":
                    kind = "DOT"
                elif value.isdigit() or (
                    value[0] in "+-" and value[1:].isdigit()
                ):
                    kind = "NUMBER"
                else:
                    kind = "SYMBOL"
                yield kind, value, start
            elif kind == "LPAREN" or kind == "RPAREN":
                yield kind, value, start
            elif kind == "STRING":
                if "\\" in value:
                    value = _ESCAPE.sub(
                        lambda escape: _STRING_ESCAPES[escape.group(1)], value
                    )
                yield kind, value, start - 1
            elif kind == "SUGAR":
                yield _SUGAR[value], value, start
            elif kind == "HASH":
                start -= 1
                end = match.end()
                if value == "(":
                    yield "VECTOR_OPEN", "#(", start
                elif value == ";":
                    yield "DATUM_COMMENT", "#;", start
                elif value in ("t", "T", "f", "F"):
                    if end < size and text[end] not in _DELIMITERS:
                        raise _error("expected delimiter after literal",
                                     text, start)
                    yield "BOOLEAN", "#t" if value in "tT" else "#f", start
                elif value == "\\":
                    char, pos = _char(text, start, end)
                    yield "CHAR", char, start
                    break
                elif value == "|":
                    pos = _block_comment(text, start, end)
                    break
                else:
                    raise _error(f"unsupported # syntax: #{value}", text, start)
            elif kind == "BADSTRING":
                raise _bad_string(text, start)
            else:  # END
                return
        else:
            return


def _char(text: str, start: int, end: int) -> Tuple[str, int]:
    """The character literal ``#\\...`` at *start* (its body begins at
    *end*): (character, offset just past the literal)."""
    if end >= len(text):
        raise _error("unterminated character literal", text, start)
    first = text[end]
    stop = end + 1
    if first.isalpha():
        stop = _ATOM_REST.match(text, stop).end()
    name = text[end:stop]
    if len(name) == 1:
        return name, stop
    char = _NAMED_CHARS.get(name.lower())
    if char is None:
        raise _error(f"unknown character name #\\{name}", text, start)
    return char, stop


def _block_comment(text: str, start: int, end: int) -> int:
    """Skip the (nesting) ``#|...|#`` comment opened at *start*; the
    offset just past it."""
    depth = 1
    for mark in _BLOCK_MARK.finditer(text, end):
        depth += 1 if mark.group() == "#|" else -1
        if depth == 0:
            return mark.end()
    raise _error("unterminated block comment", text, start)


def _bad_string(text: str, start: int) -> LexError:
    """Why the string opened at *start* does not scan: its first bad
    escape, or its missing end."""
    end = re.compile(_STRING_BODY).match(text, start + 1).end()
    if end >= len(text):
        return _error("unterminated string", text, start)
    # The body stopped at a backslash: a closing quote would have
    # completed the string.
    if end + 1 >= len(text):
        return _error("unterminated string escape", text, start)
    return _error(f"bad string escape \\{text[end + 1]}", text, start)


def tokenize(text: str) -> List[Token]:
    """Tokenize *text* into a list of tokens with their positions."""
    tokens = []
    line, line_start, last = 1, 0, 0
    for kind, token_text, offset in scan(text):
        newlines = text.count("\n", last, offset)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", last, offset) + 1
        last = offset
        tokens.append(Token(kind, token_text, line, offset - line_start + 1))
    return tokens
