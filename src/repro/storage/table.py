"""In-memory tables (relation fragments).

A :class:`Table` stores one relation fragment entirely in main memory:
an insertion-ordered map from *row id* to tuple, plus any number of
secondary indexes.  Row ids are stable for the life of a row, which is
what cursors, markings, and the write-ahead log key on.

When the table is bound to a :class:`~repro.machine.memory.MemoryAccount`
(a processing element's 16 MByte budget), every mutation re-accounts the
footprint, so overfilling an element raises
:class:`~repro.errors.OutOfMemoryError` — placement has real consequences.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from repro.errors import StorageError
from repro.machine.memory import MemoryAccount
from repro.storage.indexes import HashIndex, Index, OrderedIndex
from repro.storage.schema import Row, Schema


class Table:
    """One main-memory relation fragment."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        memory: MemoryAccount | None = None,
    ):
        self.name = name
        self.schema = schema
        self.memory = memory
        self._rows: dict[int, Row] = {}
        self._next_rid = 0
        self._data_bytes = 0
        self.indexes: dict[str, Index] = {}
        self._memory_tag = f"table:{name}"

    # -- memory accounting ----------------------------------------------------

    @property
    def data_bytes(self) -> int:
        """Bytes of row data (excluding index structures)."""
        return self._data_bytes

    def footprint_bytes(self) -> int:
        """Current storage footprint: rows + index structures."""
        index_bytes = sum(index.estimated_bytes() for index in self.indexes.values())
        return self._data_bytes + index_bytes

    def _reaccount(self) -> None:
        if self.memory is not None:
            self.memory.resize(self._memory_tag, self.footprint_bytes())

    def release_memory(self) -> None:
        """Drop this table's memory reservation (on OFM termination)."""
        if self.memory is not None:
            self.memory.free(self._memory_tag)

    # -- mutation ---------------------------------------------------------------

    def insert(self, row: Sequence[Any]) -> int:
        """Validate and store *row*; returns its new row id."""
        validated = self.schema.validate_row(row)
        rid = self._next_rid
        # Index first: a unique violation must not leave a stored row.
        self._index_row(rid, validated)
        self._next_rid += 1
        self._rows[rid] = validated
        self._data_bytes += self.schema.row_bytes(validated)
        try:
            self._reaccount()
        except Exception:
            # Roll the insert back so memory exhaustion is clean.
            for index in self.indexes.values():
                index.delete(rid, validated)
            del self._rows[rid]
            self._data_bytes -= self.schema.row_bytes(validated)
            raise
        return rid

    def _index_row(self, rid: int, row: Row) -> None:
        """Add *rid* to every index, or to none: if one index rejects the
        row (a unique violation), the entries already added are removed."""
        added: list[Index] = []
        try:
            for index in self.indexes.values():
                index.insert(rid, row)
                added.append(index)
        except Exception:
            for index in added:
                index.delete(rid, row)
            raise

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> list[int]:
        return [self.insert(row) for row in rows]

    def insert_with_rid(self, rid: int, row: Sequence[Any]) -> None:
        """Re-insert a row under a known id (recovery/undo path)."""
        if rid in self._rows:
            raise StorageError(f"row id {rid} already present in {self.name!r}")
        validated = self.schema.validate_row(row)
        self._index_row(rid, validated)
        self._rows[rid] = validated
        self._next_rid = max(self._next_rid, rid + 1)
        self._data_bytes += self.schema.row_bytes(validated)
        self._reaccount()

    def delete(self, rid: int) -> Row:
        """Remove and return the row under *rid*."""
        row = self.get(rid)
        for index in self.indexes.values():
            index.delete(rid, row)
        del self._rows[rid]
        self._data_bytes -= self.schema.row_bytes(row)
        self._reaccount()
        return row

    def update(self, rid: int, new_row: Sequence[Any]) -> Row:
        """Replace the row under *rid*; returns the old row."""
        old_row = self.get(rid)
        validated = self.schema.validate_row(new_row)
        for index in self.indexes.values():
            index.delete(rid, old_row)
        try:
            self._index_row(rid, validated)
        except Exception:
            # Restore old index entries before propagating.
            self._index_row(rid, old_row)
            raise
        self._rows[rid] = validated
        self._data_bytes += self.schema.row_bytes(validated) - self.schema.row_bytes(old_row)
        self._reaccount()
        return old_row

    def truncate(self) -> int:
        """Delete all rows; returns how many were removed."""
        removed = len(self._rows)
        self._rows.clear()
        self._data_bytes = 0
        for name, index in list(self.indexes.items()):
            self.indexes[name] = _fresh_index(index)
        self._reaccount()
        return removed

    # -- reading -------------------------------------------------------------------

    def get(self, rid: int) -> Row:
        try:
            return self._rows[rid]
        except KeyError:
            raise StorageError(f"no row {rid} in table {self.name!r}") from None

    def has_rid(self, rid: int) -> bool:
        return rid in self._rows

    def scan(self) -> Iterator[tuple[int, Row]]:
        """All ``(rid, row)`` pairs in insertion order."""
        return iter(self._rows.items())

    def rows(self) -> Iterator[Row]:
        return iter(self._rows.values())

    def __len__(self) -> int:
        return len(self._rows)

    # -- indexes --------------------------------------------------------------------

    def create_hash_index(
        self, name: str, columns: Sequence[str], unique: bool = False
    ) -> HashIndex:
        return self._add_index(
            HashIndex(name, [self.schema.index_of(c) for c in columns], unique)
        )

    def create_ordered_index(
        self, name: str, columns: Sequence[str], unique: bool = False
    ) -> OrderedIndex:
        return self._add_index(
            OrderedIndex(name, [self.schema.index_of(c) for c in columns], unique)
        )

    def _add_index(self, index: Index) -> Index:
        if index.name in self.indexes:
            raise StorageError(f"index {index.name!r} already exists on {self.name!r}")
        for rid, row in self._rows.items():
            index.insert(rid, row)
        self.indexes[index.name] = index
        self._reaccount()
        return index

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise StorageError(f"no index {name!r} on table {self.name!r}")
        del self.indexes[name]
        self._reaccount()

    def index_on(self, columns: Sequence[str]) -> Index | None:
        """An existing index whose key is exactly *columns*, if any."""
        positions = tuple(self.schema.index_of(c) for c in columns)
        for index in self.indexes.values():
            if index.key_positions == positions:
                return index
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={len(self)}, bytes={self.footprint_bytes()})"


def _fresh_index(index: Index) -> Index:
    if isinstance(index, HashIndex):
        return HashIndex(index.name, index.key_positions, index.unique)
    return OrderedIndex(index.name, index.key_positions, index.unique)
