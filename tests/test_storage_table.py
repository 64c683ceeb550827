"""Tests for in-memory tables, including memory accounting."""

import pytest

from repro.errors import OutOfMemoryError, StorageError
from repro.machine.memory import MemoryAccount
from repro.storage import DataType, Schema, Table
from repro.storage.indexes import DuplicateKeyError


@pytest.fixture
def schema():
    return Schema.of(id=DataType.INT, name=DataType.STRING)


class TestBasicOperations:
    def test_insert_assigns_increasing_rids(self, schema):
        table = Table("t", schema)
        rids = table.insert_many([(1, "a"), (2, "b")])
        assert rids == [0, 1]
        assert len(table) == 2

    def test_get_and_scan(self, schema):
        table = Table("t", schema)
        table.insert((1, "a"))
        assert table.get(0) == (1, "a")
        assert list(table.scan()) == [(0, (1, "a"))]
        assert list(table.rows()) == [(1, "a")]

    def test_get_missing_raises(self, schema):
        table = Table("t", schema)
        with pytest.raises(StorageError):
            table.get(0)

    def test_delete_returns_row_and_frees_rid(self, schema):
        table = Table("t", schema)
        table.insert_many([(1, "a"), (2, "b")])
        assert table.delete(0) == (1, "a")
        assert not table.has_rid(0)
        assert len(table) == 1
        # rid is NOT reused: next insert gets a fresh id.
        assert table.insert((3, "c")) == 2

    def test_update_replaces_and_returns_old(self, schema):
        table = Table("t", schema)
        table.insert((1, "a"))
        old = table.update(0, (1, "z"))
        assert old == (1, "a")
        assert table.get(0) == (1, "z")

    def test_truncate(self, schema):
        table = Table("t", schema)
        table.insert_many([(1, "a"), (2, "b")])
        assert table.truncate() == 2
        assert len(table) == 0

    def test_insert_validates_schema(self, schema):
        table = Table("t", schema)
        with pytest.raises(StorageError):
            table.insert(("one", "a"))

    def test_insert_with_rid_for_recovery(self, schema):
        table = Table("t", schema)
        table.insert_with_rid(7, (1, "a"))
        assert table.get(7) == (1, "a")
        # Fresh inserts continue past the restored rid.
        assert table.insert((2, "b")) == 8
        with pytest.raises(StorageError):
            table.insert_with_rid(7, (9, "z"))


class TestIndexMaintenance:
    def test_hash_index_follows_mutations(self, schema):
        table = Table("t", schema)
        table.insert_many([(1, "a"), (2, "b")])
        index = table.create_hash_index("byid", ["id"])
        assert index.lookup((2,)) == [1]
        table.update(1, (5, "b"))
        assert index.lookup((2,)) == []
        assert index.lookup((5,)) == [1]
        table.delete(1)
        assert index.lookup((5,)) == []

    def test_unique_violation_rolls_back_insert(self, schema):
        table = Table("t", schema)
        table.create_hash_index("pk", ["id"], unique=True)
        table.insert((1, "a"))
        with pytest.raises(DuplicateKeyError):
            table.insert((1, "b"))
        assert len(table) == 1

    def test_unique_violation_leaves_no_entry_in_earlier_indexes(self, schema):
        table = Table("t", schema)
        by_name = table.create_hash_index("by_name", ["name"])
        by_id = table.create_ordered_index("by_id", ["id"])
        table.create_hash_index("pk", ["id"], unique=True)
        table.insert((1, "a"))
        with pytest.raises(DuplicateKeyError):
            table.insert((1, "b"))
        for index in table.indexes.values():
            assert len(index) == len(table) == 1
        # The rejected row's rid is reused; no index may map it to "b".
        rid = table.insert((2, "c"))
        assert by_name.lookup(("b",)) == []
        assert by_id.lookup((1,)) == [0]
        assert by_name.lookup(("c",)) == [rid]

    def test_unique_violation_on_insert_with_rid_leaves_no_entry(self, schema):
        table = Table("t", schema)
        by_name = table.create_hash_index("by_name", ["name"])
        table.create_hash_index("pk", ["id"], unique=True)
        table.insert((1, "a"))
        with pytest.raises(DuplicateKeyError):
            table.insert_with_rid(5, (1, "b"))
        assert len(by_name) == len(table) == 1
        assert by_name.lookup(("b",)) == []

    def test_unique_violation_on_update_restores_old_entries(self, schema):
        table = Table("t", schema)
        table.create_hash_index("pk", ["id"], unique=True)
        table.insert_many([(1, "a"), (2, "b")])
        with pytest.raises(DuplicateKeyError):
            table.update(1, (1, "b"))
        # Old state fully restored.
        assert table.get(1) == (2, "b")
        assert table.indexes["pk"].lookup((2,)) == [1]

    def test_index_backfills_existing_rows(self, schema):
        table = Table("t", schema)
        table.insert_many([(1, "a"), (2, "b")])
        index = table.create_ordered_index("byid", ["id"])
        assert index.lookup((1,)) == [0]

    def test_duplicate_index_name_rejected(self, schema):
        table = Table("t", schema)
        table.create_hash_index("i", ["id"])
        with pytest.raises(StorageError):
            table.create_ordered_index("i", ["id"])

    def test_drop_index(self, schema):
        table = Table("t", schema)
        table.create_hash_index("i", ["id"])
        table.drop_index("i")
        assert table.indexes == {}
        with pytest.raises(StorageError):
            table.drop_index("i")

    def test_index_on_finds_matching_key(self, schema):
        table = Table("t", schema)
        index = table.create_hash_index("i", ["name"])
        assert table.index_on(["name"]) is index
        assert table.index_on(["id"]) is None

    def test_truncate_clears_indexes(self, schema):
        table = Table("t", schema)
        table.insert((1, "a"))
        index = table.create_hash_index("i", ["id"])
        table.truncate()
        assert table.indexes["i"].lookup((1,)) == []
        table.insert((1, "x"))
        assert table.indexes["i"].lookup((1,)) == [0 + 1]


class TestMemoryAccounting:
    def test_footprint_grows_and_shrinks(self, schema):
        memory = MemoryAccount(10_000, owner="PE0")
        table = Table("t", schema, memory=memory)
        table.insert((1, "abc"))
        used_after_insert = memory.used
        assert used_after_insert == table.footprint_bytes() > 0
        table.delete(0)
        assert memory.used == 0

    def test_out_of_memory_rejects_insert_cleanly(self, schema):
        memory = MemoryAccount(40, owner="PE0")
        table = Table("t", schema, memory=memory)
        table.insert((1, "ab"))
        with pytest.raises(OutOfMemoryError):
            table.insert((2, "this-row-is-way-too-large-to-fit"))
        # The failed row is not half-inserted.
        assert len(table) == 1
        assert memory.used == table.footprint_bytes()

    def test_indexes_count_against_memory(self, schema):
        memory = MemoryAccount(100_000)
        table = Table("t", schema, memory=memory)
        table.insert_many([(i, "x") for i in range(50)])
        before = memory.used
        table.create_hash_index("i", ["id"])
        assert memory.used > before

    def test_release_memory(self, schema):
        memory = MemoryAccount(10_000)
        table = Table("t", schema, memory=memory)
        table.insert((1, "a"))
        table.release_memory()
        assert memory.used == 0
