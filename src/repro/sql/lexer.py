"""SQL tokenizer and statement shapes.

One compiled master regex does all the scanning.  Keywords and
identifiers are case-insensitive (identifiers are lowered); string
literals use single quotes with ``''`` as the escape, and ``--`` starts
a line comment.  Every token records the offset where it starts.

The same scan yields a statement's *shape*, the plan cache's key: its
token sequence with every INT/FLOAT/STRING literal replaced by a typed
slot (``LIMIT``'s count stays in the shape), plus the literal values in
slot order.  Texts with one shape parse to one template and differ only
in the values bound at execution.  An INT literal past the INT type's
range is refused here, with a :class:`~repro.errors.LexError`, so no
plan ever holds one.
"""

from __future__ import annotations

import enum
import re
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..errors import LexError
from ..types import TYPES, SQLType


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    OP = "op"
    EOF = "eof"


KEYWORDS = frozenset(
    """
    select from where group by order asc desc limit and or not null is
    insert into values update set delete create drop table index on
    function returns language design entry callbacks cost selectivity as
    true false distinct count sum avg min max like between in exists
    inner join cross using fuel memory explain analyze
    """.split()
)

#: One match per token; ``findall`` yields ``(word, op, number, string,
#: stray)`` with exactly one field set, or all empty at the end of the
#: text.  Whitespace and comments ride in front of the token they
#: precede and are never backtracked into; ``.`` is an operator only
#: when no digit follows.  The string body is possessive, so ``'a''``
#: is one unterminated literal (a stray ``'`` where it starts), not
#: ``'a'`` followed by a stray ``'``.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|--[^\n]*)*+
    (?:
      ([^\W\d]\w*)
    | (<=|>=|<>|!=|[-=<>+*/%(),;]|\.(?!\d))
    | ((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    | ('(?:[^']++|'')*+')
    | (.)
    | \Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)


#: An INT literal is a digit string, so at most the INT type's largest
#: value: ``-9223372036854775808`` is the negation of a literal one past
#: it, and is written ``-9223372036854775807 - 1``.
_INT_MAX = TYPES[SQLType.INT].domain[1]
_INT_DIGITS = len(str(_INT_MAX))

#: A slot's mark in a shape key: ``?`` starts no token, so a mark never
#: collides with a keyword, identifier or operator.
_SLOT_MARKS = {
    TokenType.INT: "?int", TokenType.FLOAT: "?float",
    TokenType.STRING: "?str",
}


class Token(NamedTuple):
    type: TokenType
    value: str
    position: int

    def matches(self, token_type: TokenType, value: str = None) -> bool:
        if self.type is not token_type:
            return False
        return value is None or self.value == value


#: ``Token(...)`` without the generated ``__new__``'s Python frame.
_new_token = tuple.__new__


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    shape(text, tokens)
    return tokens


def shape(
    text: str, tokens: Optional[List[Token]] = None
) -> Tuple[str, tuple, Dict[int, int]]:
    """Scan ``text`` once: ``(key, values, slots)``.

    ``key`` is the shape and ``values`` the literals in slot order, each
    converted exactly as the parser converts it.  When a ``tokens`` list
    is given, every token (EOF last) is appended to it and ``slots``
    maps each slotted token's index to its slot number, as
    :func:`~repro.sql.parser.parse_tokens` needs; otherwise ``slots`` is
    empty.
    """
    parts: List[str] = []
    values: list = []
    slots: Dict[int, int] = {}
    if tokens is None:
        found = _TOKEN_RE.findall(text)
    else:
        matches = list(_TOKEN_RE.finditer(text))
        found = map(re.Match.groups, matches)
        starts = [match.start(match.lastindex or 0) for match in matches]
    after_limit = False
    for word, op, number, string, stray in found:
        if word:
            value = word.lower()
            parts.append(value)
            after_limit = value == "limit"
            if tokens is not None:
                tokens.append(_new_token(Token, (
                    TokenType.KEYWORD if value in KEYWORDS
                    else TokenType.IDENT,
                    value, starts[len(tokens)],
                )))
            continue
        slotted = False
        if op:
            token_type, value = TokenType.OP, op
        elif number:
            value = number
            if not number.isdigit():
                token_type, slotted = TokenType.FLOAT, True
                values.append(float(number))
            else:
                if len(number) >= _INT_DIGITS and int(number) > _INT_MAX:
                    _raise_int_range(text)
                # LIMIT's count is part of the plan, so of the shape.
                token_type, slotted = TokenType.INT, not after_limit
                if slotted:
                    values.append(int(number))
        elif string:
            value = string[1:-1].replace("''", "'")
            token_type, slotted = TokenType.STRING, True
            values.append(value)
        elif stray:
            _raise_stray(text)
        else:
            break
        parts.append(_SLOT_MARKS[token_type] if slotted else value)
        after_limit = False
        if tokens is not None:
            if slotted:
                slots[len(tokens)] = len(values) - 1
            tokens.append(_new_token(
                Token, (token_type, value, starts[len(tokens)])
            ))
    if tokens is not None:
        tokens.append(Token(TokenType.EOF, "", len(text)))
    return " ".join(parts), tuple(values), slots


def _raise_int_range(text: str) -> None:
    """Raise the LexError for the first INT literal in ``text`` past the
    INT type's range."""
    for match in _TOKEN_RE.finditer(text):
        number = match.group(3)
        if number and number.isdigit() and int(number) > _INT_MAX:
            raise LexError(
                f"integer literal {number} is outside the 64-bit INT range",
                match.start(3),
            )


def _raise_stray(text: str) -> None:
    """Raise the LexError for the first stray character in ``text``."""
    for match in _TOKEN_RE.finditer(text):
        stray = match.group(5)
        if stray == "'":
            raise LexError("unterminated string literal", match.start(5))
        if stray:
            raise LexError(f"unexpected character {stray!r}", match.start(5))
