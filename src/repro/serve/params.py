"""Statement templates: each ``?`` text is lexed and parsed once.

A :class:`Template` holds what every execution of one statement text
shares: its token count (the simulated front-end charge basis), the
plan-cache key with one open slot per ``?``, and the parsed tree, in
which each ``?`` is a :class:`~repro.sql.ast.Param` node.  Executing
binds values without touching the text again:

* :meth:`Template.check` validates the values the way the grammar would
  have taken them as literal tokens (count, type, and the kind of token
  each ``?`` position needs — a string for ``LIKE ?``, an int for
  ``LIMIT ?``), raising a positioned :class:`ParseError`;
* :meth:`Template.key` fills the key's slots: the key is the statement's
  token stream with every bound value in place, so whitespace does not
  matter but every literal does;
* :meth:`Template.bind` returns a fresh tree with each ``Param``
  replaced — only needed when the plan cache misses.

Binding into the tree (instead of rendering SQL text) keeps it
injection-proof by construction: a string value becomes one string
literal, whatever characters it contains.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.errors import ParseError
from repro.sql.ast import Lit, Param, Statement
from repro.sql.lexer import TokenType, tokenize
from repro.sql.parser import Slot, parse_template

__all__ = ["Template"]

_NUMBER = TokenType.NUMBER.value
_NULL_KEY = (TokenType.KEYWORD.value, "null")
_TRUE_KEY = (TokenType.KEYWORD.value, "true")
_FALSE_KEY = (TokenType.KEYWORD.value, "false")


def _token_key(token_type: TokenType, value: object) -> tuple:
    """The plan-cache key of one token.

    A number's key carries its Python type and exact bits: ``1 == 1.0``
    and ``0.0 == -0.0`` in Python, but each yields a different result
    value, so they must not share a cached plan.
    """
    if token_type is TokenType.NUMBER:
        if isinstance(value, float):
            return (_NUMBER, type(value), value.hex())
        return (_NUMBER, type(value), value)
    return (token_type.value, value)


def _value_key(value: object) -> tuple:
    """Key of a bound value: the key of the literal token it stands for."""
    if value is None:
        return _NULL_KEY
    if value is True:
        return _TRUE_KEY
    if value is False:
        return _FALSE_KEY
    if isinstance(value, str):
        return (TokenType.STRING.value, value)
    return _token_key(TokenType.NUMBER, value)


def _token_text(value: object) -> str:
    """How a bound value reads in a parser message (as its token would)."""
    if value is None:
        return "'null'"
    if isinstance(value, bool):
        return "'true'" if value else "'false'"
    return repr(value)


def _slot_takes(kind: str, value: object) -> bool:
    """Whether the grammar takes *value*'s literal at a *kind* slot."""
    if kind in ("expr", "literal"):
        return True
    if kind == "null":
        return value is None
    if kind == "pattern":
        return isinstance(value, str)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return kind == "negative" or isinstance(value, int)


class Template:
    """One statement text, lexed and parsed once, bound many times."""

    def __init__(self, sql: str):
        tokens = tokenize(sql)
        statement, slots = parse_template(tokens)
        self.sql = sql
        #: Tokens in the text, EOF included: a ``?`` and the literal
        #: bound to it are one token each, so this is the count of the
        #: bound statement too.
        self.token_count = len(tokens)
        self.statement = statement
        self.slots: tuple[Slot, ...] = tuple(slots)
        skeleton: list[tuple | None] = []
        positions: list[int] = []
        for token in tokens[:-1]:  # the last is EOF
            if token.matches(TokenType.OPERATOR, "?"):
                positions.append(len(skeleton))
                skeleton.append(None)
            else:
                skeleton.append(_token_key(token.type, token.value))
        self._skeleton = tuple(skeleton)
        self._positions = tuple(positions)
        #: Nodes ``bind`` rebuilds: every list, every mutable statement
        #: node, and every node with a ``Param`` below it.  The rest
        #: (frozen, placeholder-free) is shared by all bound trees.
        self._rebuilt: frozenset[int] = frozenset(_rebuilt_nodes(statement))

    def check(self, params: Sequence | None) -> tuple:
        """The values to bind, validated as the grammar would take them.

        The count must equal the number of ``?`` exactly — binding too
        many or too few values is a programming error, not something to
        pad silently.  Each value must be an int, float, str, bool or
        None, of the kind of literal its ``?`` position takes.
        """
        values = tuple(params or ())
        slots = self.slots
        for index, slot in enumerate(slots):
            if index >= len(values):
                raise ParseError(
                    f"statement has more placeholders than the"
                    f" {len(values)} bound parameter(s)",
                    slot.line,
                    slot.column,
                )
            value = values[index]
            if value is not None and not isinstance(value, (int, float, str)):
                raise ParseError(
                    f"cannot bind a {type(value).__name__} parameter"
                    " (int, float, str, bool, or None)",
                    slot.line,
                    slot.column,
                )
        if len(values) != len(slots):
            raise ParseError(
                f"{len(values)} parameter(s) bound but the statement has"
                f" only {len(slots)} placeholder(s)"
            )
        for slot, value in zip(slots, values):
            if not _slot_takes(slot.kind, value):
                raise ParseError(
                    f"{slot.expected} (found {_token_text(value)})",
                    slot.line,
                    slot.column,
                )
        return values

    def key(self, values: tuple) -> tuple:
        """Plan-cache key of this text bound to *values* (from ``check``)."""
        key = list(self._skeleton)
        for position, value in zip(self._positions, values):
            key[position] = _value_key(value)
        return tuple(key)

    def bind(self, values: tuple) -> Statement:
        """A fresh tree with each ``Param`` replaced by its value."""
        substitutes: list[Any] = []
        for slot, value in zip(self.slots, values):
            if slot.kind == "expr":
                substitutes.append(Lit(value))
            elif slot.kind == "negative":
                substitutes.append(-value)
            else:
                substitutes.append(value)
        return _rebuild(self.statement, substitutes, self._rebuilt)


def _rebuilt_nodes(root: object) -> list[int]:
    """Ids of the nodes under *root* that binding must rebuild."""
    rebuilt: list[int] = []

    def visit(node: object) -> bool:
        kind = type(node)
        if kind is Param:
            rebuilt.append(id(node))
            return True
        if kind is list or kind is tuple:
            children = list(node)  # type: ignore[call-overload]
            needed = kind is list
        elif hasattr(kind, "__dataclass_fields__"):
            children = [getattr(node, name) for name in kind.__dataclass_fields__]
            needed = not kind.__dataclass_params__.frozen  # type: ignore[attr-defined]
        else:
            return False
        for child in children:
            needed = visit(child) or needed
        if needed:
            rebuilt.append(id(node))
        return needed

    visit(root)
    return rebuilt


def _rebuild(node: Any, substitutes: list[Any], rebuilt: frozenset[int]) -> Any:
    if id(node) not in rebuilt:
        return node
    kind = type(node)
    if kind is Param:
        return substitutes[node.index]
    if kind is list:
        return [_rebuild(item, substitutes, rebuilt) for item in node]
    if kind is tuple:
        return tuple(_rebuild(item, substitutes, rebuilt) for item in node)
    return kind(
        *[
            _rebuild(getattr(node, name), substitutes, rebuilt)
            for name in kind.__dataclass_fields__
        ]
    )
