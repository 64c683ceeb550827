"""Tests for the physical relational operators."""

import pytest

from repro.errors import ExecutionError
from repro.exec.batch import compile_agg_kernel
from repro.exec.evaluation import Evaluator
from repro.exec.expressions import col
from repro.exec.operators import (
    JoinKind,
    WorkMeter,
    aggregate_batch,
    difference_rows,
    distinct_rows,
    hash_join,
    intersect_rows,
    limit_rows,
    nested_loop_join,
    project_batch,
    select_batch,
    sort_rows,
    union_all_rows,
    union_rows,
)
from tests.oracles import merge_join


def key0(row):
    return (row[0],)


class TestSelectProject:
    def test_select_filters_and_meters(self):
        meter = WorkMeter()
        out = select_batch(
            [(1,), (2,), (3,)], lambda rows: [r for r in rows if r[0] > 1], meter
        )
        assert out == [(2,), (3,)]
        assert meter.tuples == 3

    def test_select_eval_weight_scales_compares(self):
        meter = WorkMeter()
        select_batch([(1,)] * 10, list, meter, eval_weight=3.0)
        assert meter.compares == 30.0

    def test_select_wraps_runtime_faults(self):
        with pytest.raises(ExecutionError):
            select_batch(
                [(1,)], lambda rows: [r for r in rows if r[0] < "x"], WorkMeter()
            )

    def test_project(self):
        meter = WorkMeter()
        out = project_batch(
            [(1, "a")], lambda rows: [(r[1], r[0] * 2) for r in rows], meter
        )
        assert out == [("a", 2)]

    def test_project_wraps_faults(self):
        with pytest.raises(ExecutionError):
            project_batch(
                [(1,)], lambda rows: [(r[0] / 0,) for r in rows], WorkMeter()
            )


class TestHashJoin:
    LEFT = [(1, "a"), (2, "b"), (3, "c")]
    RIGHT = [(1, "x"), (1, "y"), (4, "z")]

    def test_inner(self):
        out = hash_join(self.LEFT, self.RIGHT, key0, key0, WorkMeter())
        assert sorted(out) == [(1, "a", 1, "x"), (1, "a", 1, "y")]

    def test_left_outer_pads_with_nulls(self):
        out = hash_join(
            self.LEFT, self.RIGHT, key0, key0, WorkMeter(),
            kind=JoinKind.LEFT_OUTER, right_width=2,
        )
        assert (2, "b", None, None) in out
        assert (3, "c", None, None) in out
        assert len(out) == 4

    def test_left_outer_requires_width(self):
        with pytest.raises(ExecutionError):
            hash_join(self.LEFT, self.RIGHT, key0, key0, WorkMeter(),
                      kind=JoinKind.LEFT_OUTER)

    def test_semi_and_anti(self):
        semi = hash_join(self.LEFT, self.RIGHT, key0, key0, WorkMeter(),
                         kind=JoinKind.SEMI)
        assert semi == [(1, "a")]
        anti = hash_join(self.LEFT, self.RIGHT, key0, key0, WorkMeter(),
                         kind=JoinKind.ANTI)
        assert anti == [(2, "b"), (3, "c")]

    def test_null_keys_never_match(self):
        left = [(None, "l")]
        right = [(None, "r")]
        assert hash_join(left, right, key0, key0, WorkMeter()) == []

    def test_residual_condition(self):
        out = hash_join(
            self.LEFT, self.RIGHT, key0, key0, WorkMeter(),
            residual=lambda row: row[3] == "y",
        )
        assert out == [(1, "a", 1, "y")]

    def test_meter_counts_hash_work(self):
        meter = WorkMeter()
        hash_join(self.LEFT, self.RIGHT, key0, key0, meter)
        assert meter.hashes == len(self.LEFT) + len(self.RIGHT)


class TestOtherJoins:
    def test_nested_loop_non_equi(self):
        left = [(1,), (5,)]
        right = [(3,), (4,)]
        out = nested_loop_join(left, right, lambda row: row[0] < row[1], WorkMeter())
        assert sorted(out) == [(1, 3), (1, 4)]

    def test_nested_loop_cross_product(self):
        out = nested_loop_join([(1,), (2,)], [("a",)], None, WorkMeter())
        assert sorted(out) == [(1, "a"), (2, "a")]

    def test_nested_loop_left_outer(self):
        out = nested_loop_join(
            [(1,), (9,)], [(3,)], lambda row: row[0] < row[1], WorkMeter(),
            kind=JoinKind.LEFT_OUTER, right_width=1,
        )
        assert sorted(out, key=repr) == [(1, 3), (9, None)]

    def test_nested_loop_semi_anti(self):
        left = [(1,), (9,)]
        right = [(3,)]
        condition = lambda row: row[0] < row[1]  # noqa: E731
        assert nested_loop_join(left, right, condition, WorkMeter(),
                                kind=JoinKind.SEMI) == [(1,)]
        assert nested_loop_join(left, right, condition, WorkMeter(),
                                kind=JoinKind.ANTI) == [(9,)]

    def test_merge_join_matches_hash_join(self):
        left = [(i % 5, i) for i in range(20)]
        right = [(i % 3, -i) for i in range(15)]
        merged = merge_join(left, right, key0, key0)
        hashed = hash_join(left, right, key0, key0, WorkMeter())
        assert sorted(merged) == sorted(hashed)

    def test_merge_join_drops_null_keys(self):
        out = merge_join([(None, 1), (2, 2)], [(2, 9)], key0, key0)
        assert out == [(2, 2, 2, 9)]


class TestSort:
    def test_single_key_ascending(self):
        out = sort_rows([(3,), (1,), (2,)], [0])
        assert out == [(1,), (2,), (3,)]

    def test_descending(self):
        out = sort_rows([(3,), (1,), (2,)], [0], descending=[True])
        assert out == [(3,), (2,), (1,)]

    def test_mixed_directions(self):
        rows = [(1, "b"), (2, "a"), (1, "a"), (2, "b")]
        out = sort_rows(rows, [0, 1], descending=[False, True])
        assert out == [(1, "b"), (1, "a"), (2, "b"), (2, "a")]

    def test_nulls_sort_first(self):
        out = sort_rows([(2,), (None,), (1,)], [0])
        assert out == [(None,), (1,), (2,)]

    def test_sort_is_stable(self):
        rows = [(1, "first"), (1, "second")]
        assert sort_rows(rows, [0]) == rows

    def test_direction_length_mismatch(self):
        with pytest.raises(ExecutionError):
            sort_rows([(1,)], [0], descending=[True, False])


class TestDistinctLimitSetOps:
    def test_distinct_preserves_first_occurrence_order(self):
        out = distinct_rows([(2,), (1,), (2,), (3,), (1,)], WorkMeter())
        assert out == [(2,), (1,), (3,)]

    def test_limit_offset(self):
        rows = [(i,) for i in range(10)]
        assert limit_rows(rows, 3) == [(0,), (1,), (2,)]
        assert limit_rows(rows, 3, offset=8) == [(8,), (9,)]
        assert limit_rows(rows, None, offset=7) == [(7,), (8,), (9,)]
        with pytest.raises(ExecutionError):
            limit_rows(rows, -1)

    def test_limit_charges_touched_rows(self):
        rows = [(i,) for i in range(10)]
        meter = WorkMeter()
        limit_rows(rows, 3, meter=meter)
        assert meter.tuples == 3  # stops at the cap, not the full input
        meter = WorkMeter()
        limit_rows(rows, 3, offset=8, meter=meter)
        assert meter.tuples == 10  # offset walks the skipped rows too
        meter = WorkMeter()
        limit_rows(rows, None, offset=7, meter=meter)
        assert meter.tuples == 10  # no cap: the whole input is touched

    def test_union_deduplicates(self):
        out = union_rows([(1,), (2,)], [(2,), (3,)], WorkMeter())
        assert sorted(out) == [(1,), (2,), (3,)]

    def test_union_all_keeps_duplicates(self):
        out = union_all_rows([(1,)], [(1,)], WorkMeter())
        assert out == [(1,), (1,)]

    def test_intersect(self):
        out = intersect_rows([(1,), (2,), (2,)], [(2,), (3,)], WorkMeter())
        assert out == [(2,)]

    def test_difference(self):
        out = difference_rows([(1,), (2,), (1,)], [(2,)], WorkMeter())
        assert out == [(1,)]


def _aggregate(rows, group_cols, aggregates):
    """Aggregate through the kernel of both back-ends; they must agree."""
    outputs = []
    for compiled in (True, False):
        kernel = Evaluator(compiled=compiled).agg_kernel(group_cols, aggregates)
        outputs.append(aggregate_batch(rows, kernel, WorkMeter()))
    assert outputs[0] == outputs[1]
    return outputs[0]


class TestAggregation:
    ROWS = [("eng", 100.0), ("eng", 80.0), ("hr", 50.0)]

    def test_group_by_with_all_functions(self):
        out = _aggregate(
            self.ROWS,
            (0,),
            [
                ("count", None, False),
                ("sum", col(1), False),
                ("avg", col(1), False),
                ("min", col(1), False),
                ("max", col(1), False),
            ],
        )
        by_group = {row[0]: row[1:] for row in out}
        assert by_group["eng"] == (2, 180.0, 90.0, 80.0, 100.0)
        assert by_group["hr"] == (1, 50.0, 50.0, 50.0, 50.0)

    def test_global_aggregate_on_empty_input(self):
        out = _aggregate(
            [], (),
            [("count", None, False), ("sum", col(0), False), ("min", col(0), False)],
        )
        assert out == [(0, None, None)]

    def test_group_by_empty_input_has_no_groups(self):
        out = _aggregate([], (0,), [("count", None, False)])
        assert out == []

    def test_nulls_ignored_by_aggregates(self):
        rows = [(1,), (None,), (3,)]
        out = _aggregate(
            rows, (),
            [("count", col(0), False), ("sum", col(0), False), ("avg", col(0), False)],
        )
        assert out == [(2, 4, 2.0)]

    def test_count_star_counts_nulls(self):
        out = _aggregate([(None,), (1,)], (), [("count", None, False)])
        assert out == [(2,)]

    def test_distinct_aggregate(self):
        rows = [(1,), (1,), (2,)]
        out = _aggregate(
            rows, (), [("count", col(0), True), ("sum", col(0), True)]
        )
        assert out == [(2, 3)]

    def test_invalid_specs_rejected(self):
        with pytest.raises(ExecutionError):
            compile_agg_kernel((), [("median", col(0), False)])
        with pytest.raises(ExecutionError):
            compile_agg_kernel((), [("sum", None, False)])
