"""Relation schemas: named, typed column lists.

A :class:`Schema` validates and coerces rows (plain Python tuples),
computes their storage footprint, and supports the structural operations
the algebra needs — projection, concatenation for joins, renaming.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import is_
from typing import Any

from repro.errors import StorageError
from repro.storage.types import DataType

Row = tuple


@dataclass(frozen=True)
class Column:
    """One column: a name, a type, and nullability."""

    name: str
    data_type: DataType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise StorageError("column name must be non-empty")

    def with_name(self, name: str) -> "Column":
        return Column(name, self.data_type, self.nullable)


@dataclass(frozen=True)
class _RowPlan:
    """What a schema precomputes for its per-row work.

    *types* holds each column's exact Python type (``object`` for ANY
    columns, which no value has, so those rows always take the general
    path); *fixed_bytes* is the summed width of the INT/FLOAT/BOOL
    columns; *sized* pairs the position and type of every STRING/ANY
    column, whose size depends on the value.
    """

    types: tuple[type, ...]
    fixed_bytes: int
    sized: tuple[tuple[int, DataType], ...]


class Schema:
    """An ordered list of columns with unique names.

    >>> schema = Schema([Column("id", DataType.INT), Column("name", DataType.STRING)])
    >>> schema.index_of("name")
    1
    >>> schema.validate_row((1, "ada"))
    (1, 'ada')
    """

    def __init__(self, columns: Iterable[Column]):
        self.columns: tuple[Column, ...] = tuple(columns)
        if not self.columns:
            raise StorageError("schema needs at least one column")
        self._index: dict[str, int] = {}
        for position, column in enumerate(self.columns):
            if column.name in self._index:
                raise StorageError(f"duplicate column name {column.name!r}")
            self._index[column.name] = position

    # -- construction helpers -------------------------------------------------

    @classmethod
    def of(cls, **columns: DataType) -> "Schema":
        """Shorthand: ``Schema.of(id=DataType.INT, name=DataType.STRING)``."""
        return cls(Column(name, data_type) for name, data_type in columns.items())

    # -- lookups ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def names(self) -> list[str]:
        return [column.name for column in self.columns]

    def has_column(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise StorageError(
                f"no column {name!r}; have {', '.join(self.names())}"
            ) from None

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def types(self) -> list[DataType]:
        return [column.data_type for column in self.columns]

    # -- row operations -----------------------------------------------------------

    @cached_property
    def _row_plan(self) -> _RowPlan:
        # Built on first use, not in __init__: the planner makes many
        # short-lived schemas that never see a row.
        sized = []
        fixed_bytes = 0
        for position, column in enumerate(self.columns):
            if column.data_type in (DataType.STRING, DataType.ANY):
                sized.append((position, column.data_type))
            else:
                fixed_bytes += column.data_type.size_of(0)  # width is value-independent
        return _RowPlan(
            tuple(column.data_type.python_type for column in self.columns),
            fixed_bytes,
            tuple(sized),
        )

    def validate_row(self, row: Sequence[Any]) -> Row:
        """Coerce *row* to this schema; raises on arity/type/null errors.

        Always returns a new tuple, never *row* itself.
        """
        types = self._row_plan.types
        if len(row) == len(types) and all(map(is_, map(type, row), types)):
            # Every value already has its column's exact type: nothing to
            # coerce, and no None, so no nullability to check.
            return (*row,)
        if len(row) != len(self.columns):
            raise StorageError(
                f"row has {len(row)} values, schema has {len(self.columns)} columns"
            )
        coerced = []
        for column, value in zip(self.columns, row):
            if value is None and not column.nullable:
                raise StorageError(f"column {column.name!r} is not nullable")
            coerced.append(column.data_type.coerce(value))
        return tuple(coerced)

    def row_bytes(self, row: Sequence[Any]) -> int:
        """Storage footprint of one row under the size model."""
        plan = self._row_plan
        if len(row) == len(plan.types) and None not in row:
            return plan.fixed_bytes + sum(
                data_type.size_of(row[position]) for position, data_type in plan.sized
            )
        return sum(
            column.data_type.size_of(value)
            for column, value in zip(self.columns, row)
        )

    def average_row_bytes(self) -> int:
        """A width estimate used by the optimizer before data exists."""
        total = 0
        for column in self.columns:
            if column.data_type is DataType.STRING:
                total += 2 + 16  # assume short strings
            else:
                total += column.data_type.size_of(0 if column.data_type is not DataType.BOOL else False)
        return total

    # -- structural operations -------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Schema":
        return Schema(self.column(name) for name in names)

    def project_indexes(self, indexes: Sequence[int]) -> "Schema":
        return Schema(self.columns[i] for i in indexes)

    def concat(self, other: "Schema", disambiguate: bool = True) -> "Schema":
        """Schema of a join result; clashing names get a ``_r`` suffix."""
        taken = set(self.names())
        merged = list(self.columns)
        for column in other.columns:
            name = column.name
            if name in taken:
                if not disambiguate:
                    raise StorageError(f"duplicate column {name!r} in concat")
                suffix = 1
                candidate = f"{name}_r"
                while candidate in taken:
                    suffix += 1
                    candidate = f"{name}_r{suffix}"
                name = candidate
            taken.add(name)
            merged.append(column.with_name(name))
        return Schema(merged)

    def rename(self, mapping: dict[str, str]) -> "Schema":
        return Schema(
            column.with_name(mapping.get(column.name, column.name))
            for column in self.columns
        )

    def prefixed(self, prefix: str) -> "Schema":
        return Schema(
            column.with_name(f"{prefix}.{column.name}") for column in self.columns
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{c.name}:{c.data_type.value}" for c in self.columns)
        return f"Schema({cols})"
