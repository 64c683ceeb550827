"""Row-at-a-time reference operators that tests compare the engine against.

The engine runs every selection, projection and aggregation through a
batch kernel (:mod:`repro.exec.batch`).  These are the plain per-row
loops those kernels replace, kept only as oracles: a kernel must give
the same rows in the same order, and the same closed-form charges.
:func:`merge_join` is an independent (sort-based) algorithm for the
hash joins to agree with, as a multiset.

:func:`validate_row` and :func:`row_bytes` are the plain per-column
loops behind :class:`~repro.storage.schema.Schema`'s cached row plan:
the schema must give the same row, size and error as these.

:func:`splice_parse` is the serving layer's former binding path: splice
each bound value into the template's token list as a literal token and
parse the result.  :class:`~repro.serve.params.Template` must give the
same tree, the same plan-cache key (:func:`statement_key`) and the same
errors without re-lexing or re-parsing.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.errors import ExecutionError, ParseError, StorageError
from repro.exec.operators import AGGREGATE_FUNCTIONS, WorkMeter
from repro.sql.ast import Statement
from repro.sql.lexer import Token, TokenType, tokenize
from repro.sql.parser import parse_tokens
from repro.storage.schema import Schema

Row = tuple
KeyFn = Callable[[Row], tuple]


def select_rows(
    rows: Sequence[Row],
    predicate: Callable[[Row], bool],
    meter: WorkMeter,
    eval_weight: float = 1.0,
) -> list[Row]:
    """Filter *rows*; *eval_weight* is comparisons charged per evaluation."""
    meter.tuples += len(rows)
    meter.compares += len(rows) * eval_weight
    try:
        return [row for row in rows if predicate(row)]
    except (TypeError, ZeroDivisionError) as exc:
        raise ExecutionError(f"predicate failed: {exc}") from None


def project_rows(
    rows: Sequence[Row],
    projector: Callable[[Row], Row],
    meter: WorkMeter,
    eval_weight: float = 1.0,
) -> list[Row]:
    meter.tuples += len(rows)
    meter.compares += len(rows) * eval_weight
    try:
        return [projector(row) for row in rows]
    except (TypeError, ZeroDivisionError) as exc:
        raise ExecutionError(f"projection failed: {exc}") from None


def merge_join(
    left: Sequence[Row], right: Sequence[Row], left_key: KeyFn, right_key: KeyFn
) -> list[Row]:
    """Inner equi-join by sorting both inputs then merging equal-key runs.

    NULL keys are dropped first (SQL semantics).  Output order follows
    the sorted keys, so compare it with a hash join as a multiset.
    """
    left_sorted = sorted(
        (row for row in left if None not in left_key(row)), key=left_key
    )
    right_sorted = sorted(
        (row for row in right if None not in right_key(row)), key=right_key
    )
    output: list[Row] = []
    i = j = 0
    while i < len(left_sorted) and j < len(right_sorted):
        lkey = left_key(left_sorted[i])
        rkey = right_key(right_sorted[j])
        if lkey < rkey:
            i += 1
        elif lkey > rkey:
            j += 1
        else:
            i_end = i
            while i_end < len(left_sorted) and left_key(left_sorted[i_end]) == lkey:
                i_end += 1
            j_end = j
            while j_end < len(right_sorted) and right_key(right_sorted[j_end]) == rkey:
                j_end += 1
            for li in range(i, i_end):
                for rj in range(j, j_end):
                    output.append(left_sorted[li] + right_sorted[rj])
            i, j = i_end, j_end
    return output


@dataclass(frozen=True)
class AggSpec:
    """One aggregate in a GROUP BY: ``func(arg)`` with optional DISTINCT.

    ``arg`` is a row -> value callable, or ``None`` for ``COUNT(*)``.
    """

    func: str
    arg: Callable[[Row], Any] | None = None
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCTIONS:
            raise ExecutionError(f"unknown aggregate {self.func!r}")
        if self.func != "count" and self.arg is None:
            raise ExecutionError(f"{self.func.upper()} needs an argument")


class _AggState:
    __slots__ = ("count", "total", "minimum", "maximum", "seen")

    def __init__(self, distinct: bool):
        self.count = 0
        self.total: Any = None
        self.minimum: Any = None
        self.maximum: Any = None
        self.seen: set | None = set() if distinct else None

    def feed(self, value: Any) -> None:
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        self.total = value if self.total is None else self.total + value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def result(self, func: str) -> Any:
        if func == "count":
            return self.count
        if func == "sum":
            return self.total
        if func == "avg":
            return None if self.count == 0 else self.total / self.count
        if func == "min":
            return self.minimum
        return self.maximum


def aggregate_rows(
    rows: Sequence[Row],
    group_key: KeyFn | None,
    specs: Sequence[AggSpec],
    meter: WorkMeter,
) -> list[Row]:
    """Hash aggregation, one state object per (group, aggregate).

    Output rows are ``group_key_values + aggregate_values``.  With
    ``group_key=None`` a single global row is produced even for empty
    input (COUNT gives 0, the others NULL) — SQL semantics.
    """
    meter.hashes += len(rows)
    meter.tuples += len(rows)
    groups: dict[tuple, list[_AggState]] = {}

    def new_states() -> list[_AggState]:
        return [_AggState(spec.distinct) for spec in specs]

    if group_key is None:
        groups[()] = new_states()

    try:
        for row in rows:
            key = group_key(row) if group_key is not None else ()
            states = groups.get(key)
            if states is None:
                states = new_states()
                groups[key] = states
            for spec, state in zip(specs, states):
                if spec.func == "count" and spec.arg is None:
                    state.count += 1
                else:
                    assert spec.arg is not None
                    state.feed(spec.arg(row))
    except (TypeError, ZeroDivisionError) as exc:
        raise ExecutionError(f"aggregate argument failed: {exc}") from None

    output = [
        tuple(key) + tuple(state.result(spec.func) for spec, state in zip(specs, states))
        for key, states in groups.items()
    ]
    meter.tuples += len(output)
    return output


def validate_row(schema: Schema, row: Sequence[Any]) -> Row:
    """Coerce *row* column by column; raises on arity/type/null errors."""
    if len(row) != len(schema.columns):
        raise StorageError(
            f"row has {len(row)} values, schema has {len(schema.columns)} columns"
        )
    coerced = []
    for column, value in zip(schema.columns, row):
        if value is None and not column.nullable:
            raise StorageError(f"column {column.name!r} is not nullable")
        coerced.append(column.data_type.coerce(value))
    return tuple(coerced)


def row_bytes(schema: Schema, row: Sequence[Any]) -> int:
    """Storage footprint of one row: the sum of its values' sizes."""
    return sum(
        column.data_type.size_of(value) for column, value in zip(schema.columns, row)
    )


def _literal_token(value: object, at: Token) -> Token:
    # bool before int: it is an int subclass but binds as a keyword.
    if value is None:
        return Token(TokenType.KEYWORD, "null", at.line, at.column)
    if isinstance(value, bool):
        word = "true" if value else "false"
        return Token(TokenType.KEYWORD, word, at.line, at.column)
    if isinstance(value, (int, float)):
        return Token(TokenType.NUMBER, value, at.line, at.column)
    if isinstance(value, str):
        return Token(TokenType.STRING, value, at.line, at.column)
    raise ParseError(
        f"cannot bind a {type(value).__name__} parameter"
        " (int, float, str, bool, or None)",
        at.line,
        at.column,
    )


def bind_parameters(tokens: list[Token], params: Sequence | None) -> list[Token]:
    """Replace each ``?`` in *tokens* with the matching literal token."""
    values = tuple(params or ())
    bound: list[Token] = []
    next_param = 0
    for token in tokens:
        if token.type is TokenType.OPERATOR and token.value == "?":
            if next_param >= len(values):
                raise ParseError(
                    f"statement has more placeholders than the"
                    f" {len(values)} bound parameter(s)",
                    token.line,
                    token.column,
                )
            bound.append(_literal_token(values[next_param], token))
            next_param += 1
        else:
            bound.append(token)
    if next_param != len(values):
        raise ParseError(
            f"{len(values)} parameter(s) bound but the statement has"
            f" only {next_param} placeholder(s)"
        )
    return bound


def statement_key(tokens: list[Token]) -> tuple:
    """Plan-cache key of a bound token stream: every token's type and
    value, source positions excluded; a number also by its Python type
    and exact bits (``1``, ``1.0`` and ``-0.0`` are three keys)."""
    key = []
    for token in tokens:
        if token.type is TokenType.EOF:
            continue
        if token.type is TokenType.NUMBER:
            value = token.value
            exact = value.hex() if isinstance(value, float) else value
            key.append((token.type.value, type(value), exact))
        else:
            key.append((token.type.value, token.value))
    return tuple(key)


def splice_parse(sql: str, params: Sequence | None) -> tuple[Statement, tuple, int]:
    """Lex *sql*, splice *params* in as tokens, parse: (tree, key, tokens)."""
    bound = bind_parameters(tokenize(sql), params)
    return parse_tokens(bound), statement_key(bound), len(bound)
