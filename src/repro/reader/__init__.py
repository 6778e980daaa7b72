"""Reader: Scheme surface text -> datum trees."""

from .datum import Char, Datum, Symbol, VectorDatum, datum_to_string, is_list
from .lexer import LexError, Token, tokenize
from .parser import ParseError, Parser, read, read_all

__all__ = [
    "Char",
    "Datum",
    "Symbol",
    "VectorDatum",
    "datum_to_string",
    "is_list",
    "LexError",
    "Token",
    "tokenize",
    "ParseError",
    "Parser",
    "read",
    "read_all",
]
