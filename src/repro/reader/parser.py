"""S-expression reader: token stream -> datum trees.

The reader supports the quotation sugar of full Scheme (``'x`` reads as
``(quote x)``; quasiquote and unquote read as their canonical list
forms so that the expander can reject them with a clear error), datum
comments ``#;``, and vector literals ``#(...)``.

Dotted pairs are rejected: section 12 of the paper forbids compound
constants, and none of the paper's programs use dotted source syntax.

The reader is one loop over the token list with an explicit stack of
open forms, so nesting depth costs heap, not Python frames.  A datum
comment ``#;`` and the datum after it are atmosphere, as in R7RS: the
skipped datum is dropped where it completes, so ``(a #;b)`` reads as
``(a)`` and ``#;x`` as nothing.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from .datum import Datum, Char, Symbol, VectorDatum
from .lexer import LexError, RawToken, Token, position, scan


class ParseError(SyntaxError):
    """Raised when the token stream is not a well-formed datum."""

    def __init__(self, message: str, token: Optional[Token] = None):
        if token is not None:
            message = f"{message} at line {token.line}, column {token.column}"
        super().__init__(message)
        self.token = token


_SUGAR = {
    "QUOTE": Symbol("quote"),
    "QUASIQUOTE": Symbol("quasiquote"),
    "UNQUOTE": Symbol("unquote"),
    "UNQUOTE_SPLICING": Symbol("unquote-splicing"),
}

#: The tag of an open ``#;``: the next datum to complete is dropped.
_SKIP = object()

_CLOSER = {"(": ")", "[": "]"}


def _datums(tokens: List[RawToken], text: str) -> Iterator[Datum]:
    """Yield each top-level datum of *tokens* (scanned from *text*).

    ``frames`` holds one ``(tag, items, index)`` per open form, *index*
    being its opening token's: a list (tag ``(`` or ``[``) or vector
    (tag ``#(``) with the items read so far, or a prefix waiting for
    one datum — a quotation sugar (tag: its symbol) or a datum comment
    (tag :data:`_SKIP`), with items None.  ``items`` is the innermost
    frame's item list, or None when that frame is a prefix or no form
    is open."""

    def fail(message: str, index: Optional[int] = None) -> ParseError:
        if index is None:
            return ParseError(message)
        kind, token_text, offset = tokens[index]
        line, column = position(text, offset)
        return ParseError(message, Token(kind, token_text, line, column))

    symbol = Symbol
    frames = []
    items = None
    for index, (kind, value, _) in enumerate(tokens):
        if kind == "SYMBOL":
            datum = symbol(value)
        elif kind == "LPAREN":
            items = []
            frames.append((value, items, index))
            continue
        elif kind == "RPAREN":
            if items is None:
                raise fail("unexpected closing parenthesis", index)
            tag = frames.pop()[0]
            if tag == "#(":
                datum = VectorDatum(tuple(items))
            elif _CLOSER[tag] != value:
                raise fail(f"mismatched brackets: {tag} closed by {value}",
                           index)
            else:
                datum = tuple(items)
            items = frames[-1][1] if frames else None
        elif kind == "NUMBER":
            datum = int(value)
        elif kind == "VECTOR_OPEN":
            items = []
            frames.append(("#(", items, index))
            continue
        elif kind == "DATUM_COMMENT" or kind in _SUGAR:
            frames.append((_SUGAR.get(kind, _SKIP), None, index))
            items = None
            continue
        elif kind == "BOOLEAN":
            datum = value == "#t"
        elif kind == "STRING":
            datum = value
        elif kind == "CHAR":
            datum = Char(value)
        elif kind == "DOT":
            raise fail("dotted pairs are not supported", index)
        else:
            raise fail(f"unexpected token {kind}", index)
        # Hand the datum to the innermost open form.
        if items is not None:
            items.append(datum)
            continue
        while frames:
            tag, parent_items, _ = frames[-1]
            if parent_items is not None:
                parent_items.append(datum)
                items = parent_items
                break
            frames.pop()
            if tag is _SKIP:
                items = frames[-1][1] if frames else None
                break
            datum = (tag, datum)
        else:
            yield datum
    if frames:
        tag, items, opener = frames[-1]
        if items is None:
            raise fail("unexpected end of input")
        form = "vector" if tag == "#(" else "list"
        raise fail(f"unterminated {form}", opener)


class Parser:
    """The reader over one source text: every token is scanned up
    front (so a lexical error anywhere is reported before any
    syntactic one), then datums are read on demand."""

    def __init__(self, text: str):
        self._datums = _datums(list(scan(text)), text)

    def read(self) -> Optional[Datum]:
        """Read one datum, or return None at end of input."""
        return next(self._datums, None)

    def read_all(self) -> List[Datum]:
        """Read every datum in the input."""
        return list(self._datums)


def read(text: str) -> Datum:
    """Read exactly one datum from *text*.

    Raises ParseError when the text contains zero or multiple datums.
    """
    parser = Parser(text)
    datum = parser.read()
    if datum is None:
        raise ParseError("no datum in input")
    if parser.read() is not None:
        raise ParseError("more than one datum in input")
    return datum


def read_all(text: str) -> List[Datum]:
    """Read every datum from *text*."""
    return Parser(text).read_all()


__all__ = ["Parser", "ParseError", "LexError", "read", "read_all"]
