"""Property tests for the storage write path.

Two claims are checked against brute force:

* a :class:`~repro.storage.schema.Schema` validates and sizes rows
  exactly like the plain per-column loops in :mod:`tests.oracles` —
  same row, same value types, same exception type and message;
* a :class:`~repro.storage.indexes.HashIndex`'s maintained entry count,
  and every footprint built on it, equal a recount over the buckets
  after any sequence of table mutations, including rejected ones.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.machine.memory import MemoryAccount
from repro.storage import DataType, Schema, Table
from repro.storage.indexes import HashIndex
from repro.storage.schema import Column
from tests import oracles


class Text(str):
    """A ``str`` subclass: valid in a STRING column, but not its exact type."""


def outcome(fn, *args):
    """``("ok", value, value types)`` or ``("raised", type, message)``."""
    try:
        result = fn(*args)
    except Exception as exc:  # the exception is the outcome
        return ("raised", type(exc), str(exc))
    types = tuple(map(type, result)) if isinstance(result, tuple) else type(result)
    return ("ok", result, types)


def check_equivalent(schema: Schema, row: tuple) -> None:
    assert outcome(schema.validate_row, row) == outcome(oracles.validate_row, schema, row)
    assert outcome(schema.row_bytes, row) == outcome(oracles.row_bytes, schema, row)


# -- fast-path equivalence ---------------------------------------------------------

_columns = st.lists(
    st.tuples(st.sampled_from(list(DataType)), st.booleans()), min_size=1, max_size=5
)
_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.text(max_size=6).map(Text),
    st.sampled_from([b"raw", [1], 2j]),
)


@st.composite
def schemas_and_rows(draw):
    spec = draw(_columns)
    schema = Schema(
        Column(f"c{i}", data_type, nullable) for i, (data_type, nullable) in enumerate(spec)
    )
    # Mostly well-typed values for each column, so the fast path is taken
    # often; sometimes anything at all; sometimes the wrong arity.
    row = []
    for data_type, _nullable in spec:
        typed = {
            DataType.INT: st.integers(-(2**40), 2**40),
            DataType.FLOAT: st.floats(allow_nan=False),
            DataType.STRING: st.text(max_size=6),
            DataType.BOOL: st.booleans(),
            DataType.ANY: _values,
        }[data_type]
        row.append(draw(st.one_of(typed, _values)))
    arity = draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    if arity > 0:
        row.append(draw(_values))
    elif arity < 0:
        row.pop()
    return schema, tuple(row)


@given(case=schemas_and_rows())
@settings(max_examples=400, deadline=None)
def test_row_plan_matches_per_column_loops(case):
    schema, row = case
    check_equivalent(schema, row)


MIXED = Schema(
    [
        Column("i", DataType.INT, nullable=False),
        Column("f", DataType.FLOAT),
        Column("s", DataType.STRING),
        Column("b", DataType.BOOL),
        Column("a", DataType.ANY),
    ]
)


@pytest.mark.parametrize(
    "row",
    [
        (1, 2.5, "x", True, 3),  # every value already exact
        (True, 2.5, "x", True, 3),  # bool in an INT column
        (1, 2, "x", True, 3),  # int in a FLOAT column
        (1, 2.5, Text("sub"), True, 3),  # str subclass in a STRING column
        (None, 2.5, "x", True, 3),  # None in a NOT NULL column
        (1, None, None, None, None),  # None in nullable columns
        (1, 2.5, "x", True, "any-text"),  # ANY column holding a string
        (1, 2.5, "x", True, b"raw"),  # ANY column holding an unstorable value
        (1, 2.5, "héllo wörld ✓", False, "日本"),  # non-ASCII strings
        (1, 2.5, "x", True),  # too few values
        (1, 2.5, "x", True, 3, 4),  # too many values
        [1, 2.5, "x", True, 3],  # a list, not a tuple
    ],
)
def test_row_plan_edge_cases(row):
    check_equivalent(MIXED, row)


def test_int_in_float_column_becomes_float():
    row = MIXED.validate_row((1, 2, "x", True, 3))
    assert row[1] == 2.0 and type(row[1]) is float


def test_validated_and_stored_rows_are_fresh_tuples():
    # No ANY column, so every value has its column's exact type.
    schema = Schema.of(i=DataType.INT, f=DataType.FLOAT, s=DataType.STRING, b=DataType.BOOL)
    row = (1, 2.5, "x", True)
    assert schema.validate_row(row) == row
    assert schema.validate_row(row) is not row
    table = Table("t", schema)
    rid = table.insert(row)
    assert table.get(rid) == row
    assert table.get(rid) is not row


# -- entry-count invariant ---------------------------------------------------------

ROWS = Schema.of(id=DataType.INT, g=DataType.INT, s=DataType.STRING)

_steps = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 6), st.integers(0, 3), st.text(max_size=3)),
        st.tuples(st.just("delete"), st.integers(0, 20)),
        st.tuples(st.just("delete_absent"), st.integers(0, 3)),
        st.tuples(st.just("update"), st.integers(0, 20), st.integers(0, 6), st.integers(0, 3)),
        st.just(("truncate",)),
    ),
    max_size=40,
)


def index_bytes(index) -> int:
    """An index's footprint recomputed from a full recount of its entries."""
    if isinstance(index, HashIndex):
        keys = list(index.keys())
        entries = sum(len(index.lookup(key)) for key in keys)
        assert len(index) == entries
        return 64 + 48 * len(keys) + 8 * entries
    return 64 + 40 * len(index)


def check_counts(table: Table, memory: MemoryAccount) -> None:
    rows = dict(table.scan())
    index_total = 0
    for index in table.indexes.values():
        expected = index_bytes(index)
        assert index.estimated_bytes() == expected
        index_total += expected
        assert len(index) == len(rows)
        for rid, row in rows.items():
            assert rid in index.lookup(index.key_of(row))
    data = sum(oracles.row_bytes(table.schema, row) for row in rows.values())
    assert table.data_bytes == data
    assert table.footprint_bytes() == data + index_total == memory.used


@given(steps=_steps)
@settings(max_examples=150, deadline=None)
def test_index_count_matches_brute_force(steps):
    memory = MemoryAccount(1_000_000)
    table = Table("t", ROWS, memory=memory)
    table.create_hash_index("by_g", ["g"])
    table.create_hash_index("u_id", ["id"], unique=True)
    table.create_ordered_index("by_id", ["id"])
    for step in steps:
        rids = [rid for rid, _ in table.scan()]
        kind = step[0]
        if kind == "insert":
            _, key, g, s = step
            try:
                table.insert((key, g, s))
            except StorageError:
                pass  # duplicate key: rejected with nothing left behind
        elif kind == "delete" and rids:
            table.delete(rids[step[1] % len(rids)])
        elif kind == "delete_absent":
            # A rid no index holds: must not change any count.
            absent = max(rids, default=0) + 1
            for index in table.indexes.values():
                index.delete(absent, (step[1], step[1], ""))
        elif kind == "update" and rids:
            _, pick, key, g = step
            rid = rids[pick % len(rids)]
            try:
                table.update(rid, (key, g, table.get(rid)[2]))
            except StorageError:
                pass  # duplicate key: old row and entries restored
        elif kind == "truncate":
            table.truncate()
        check_counts(table, memory)
