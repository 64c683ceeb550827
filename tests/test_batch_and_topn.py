"""Batch kernels + fused heap top-N.

Four layers of coverage:

* batch kernels against the row-at-a-time oracles of
  :mod:`tests.oracles` on randomized mixed-type data (the kernels'
  contract is *identical rows, identical order, identical charges*),
  in both expression back-ends, including DISTINCT aggregates and an
  end-to-end DISTINCT aggregate query checked against stdlib
  ``sqlite3``;
* ``top_n_rows`` against the ``sort_rows`` + ``limit_rows`` oracle
  across key types, tie-breaking, direction mixes, and offsets, plus
  the LIMIT/OFFSET edge cases and charge accounting;
* plan-level rewrites (``fuse_sort_limit``, limit/top-N pushdown) and
  the distributed payoff: a fused top-N ships strictly fewer bytes
  than sort-then-limit for LIMIT < partition size.
"""

import math
import random
import sqlite3

import pytest

from repro.core.database import MachineConfig, PrismaDB
from repro.errors import ExecutionError
from repro.exec.batch import (
    batchable_projection,
    compile_agg_kernel,
    compile_batch_predicate,
    compile_batch_projector,
    compile_join_kernel,
)
from repro.exec.evaluation import Evaluator
from repro.exec.expressions import Arithmetic, Comparison, col, eq, lit
from repro.exec.interpreter import evaluate
from repro.exec.operators import (
    JoinKind,
    WorkMeter,
    aggregate_batch,
    hash_join,
    limit_rows,
    sort_rows,
    top_n_rows,
)
from repro.algebra.local_exec import LocalExecutor
from repro.algebra.plan import (
    AggExpr,
    AggregateNode,
    JoinNode,
    LimitNode,
    ProjectNode,
    ScanNode,
    SelectNode,
    SortNode,
    TopNNode,
)
from repro.algebra.rules import KNOWLEDGE_BASE, apply_rules
from repro.storage import DataType, Schema
from repro.workloads.wisconsin import load_wisconsin
from tests.oracles import AggSpec, aggregate_rows, project_rows, select_rows

# ---------------------------------------------------------------------------
# Batch kernels vs row-at-a-time references
# ---------------------------------------------------------------------------


def _mixed_rows(seed, n=300, width=4):
    rng = random.Random(seed)

    def value():
        kind = rng.randrange(5)
        if kind == 0:
            return None
        if kind == 1:
            return rng.randrange(-50, 50)
        if kind == 2:
            return round(rng.uniform(-5, 5), 3)
        if kind == 3:
            return rng.choice("abcdef")
        return rng.randrange(10)

    return [tuple(value() for _ in range(width)) for _ in range(n)]


class TestBatchKernels:
    def test_predicate_matches_row_filter(self):
        rows = [(i, i % 7) for i in range(200)]
        expr = Comparison(">", col(1), lit(3))
        kernel = compile_batch_predicate(expr)
        fn, _ = Evaluator().predicate(expr)
        assert kernel(rows) == select_rows(rows, fn, WorkMeter())

    def test_projector_matches_row_projector(self):
        rows = [(i, i + 1, "x") for i in range(50)]
        exprs = [Arithmetic("+", col(0), col(1)), col(2)]
        kernel = compile_batch_projector(exprs)
        fn, _ = Evaluator().projector(exprs)
        assert kernel(rows) == project_rows(rows, fn, WorkMeter())

    @pytest.mark.parametrize("indices", [(1,), (2, 0), (0, 1, 2)])
    def test_pass_through_projector(self, indices):
        rows = [(i, str(i), i * 0.5) for i in range(40)]
        exprs = [col(i) for i in indices]
        assert batchable_projection(exprs) == tuple(indices)
        kernel = compile_batch_projector(exprs)
        assert kernel(rows) == [tuple(row[i] for i in indices) for row in rows]

    def test_computed_projection_is_not_batchable(self):
        assert batchable_projection([Arithmetic("+", col(0), lit(1))]) is None

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_join_kernel_matches_hash_join_single_key(self, seed):
        rng = random.Random(seed)
        left = [(rng.randrange(20), i) for i in range(80)]
        right = [(rng.randrange(20), -i) for i in range(60)]
        left += [(None, 999)]
        right += [(None, -999)]
        kernel = compile_join_kernel((0,), (0,))
        expected = hash_join(
            left, right, lambda r: (r[0],), lambda r: (r[0],), WorkMeter()
        )
        assert kernel(left, right) == expected

    def test_join_kernel_matches_hash_join_multi_key(self):
        rng = random.Random(7)
        left = [(rng.randrange(4), rng.randrange(4), i) for i in range(60)]
        right = [(rng.randrange(4), rng.randrange(4), -i) for i in range(60)]
        left += [(None, 1, 0), (1, None, 0)]
        right += [(None, 1, 0), (1, None, 0)]
        kernel = compile_join_kernel((0, 1), (0, 1))
        expected = hash_join(
            left,
            right,
            lambda r: (r[0], r[1]),
            lambda r: (r[0], r[1]),
            WorkMeter(),
        )
        assert kernel(left, right) == expected

    @pytest.mark.parametrize("seed", [11, 12])
    def test_agg_kernel_matches_aggregate_rows_grouped(self, seed):
        rng = random.Random(seed)
        rows = [
            (rng.randrange(5), rng.choice([None, rng.randrange(100)]))
            for _ in range(300)
        ]
        aggregates = [
            ("count", None, False),
            ("count", col(1), False),
            ("sum", col(1), False),
            ("avg", col(1), False),
            ("min", col(1), False),
            ("max", col(1), False),
        ]
        kernel = compile_agg_kernel((0,), aggregates)
        specs = [
            AggSpec(func, None if arg is None else (lambda r: r[1]))
            for func, arg, _distinct in aggregates
        ]
        expected = aggregate_rows(rows, lambda r: (r[0],), specs, WorkMeter())
        assert kernel(rows) == expected

    def test_agg_kernel_global_empty_input(self):
        aggregates = [("count", None, False), ("sum", col(0), False), ("min", col(0), False)]
        kernel = compile_agg_kernel((), aggregates)
        specs = [
            AggSpec(func, None if arg is None else (lambda r: r[0]))
            for func, arg, _distinct in aggregates
        ]
        expected = aggregate_rows([], None, specs, WorkMeter())
        assert kernel([]) == expected == [(0, None, None)]

    def test_count_star_shortcut_counts_rows(self):
        kernel = compile_agg_kernel((), [("count", None, False)])
        assert kernel([]) == [(0,)]
        assert kernel([(None,), (1,), (2,)]) == [(3,)]
        twice = compile_agg_kernel((), [("count", None, False), ("count", None, True)])
        assert twice([(1,)] * 5) == [(5, 5)]


# ---------------------------------------------------------------------------
# One aggregation kernel, both back-ends, vs the per-row oracle
# ---------------------------------------------------------------------------


def _agg_rows(seed, n):
    """(g1, v, g2) rows: v mixes ints, floats and NULLs with repeats, so
    DISTINCT has duplicates to drop."""
    rng = random.Random(seed)

    def value():
        kind = rng.randrange(4)
        if kind == 0:
            return None
        if kind == 1:
            return rng.randrange(-6, 6)
        if kind == 2:
            return rng.choice([0.5, -1.25, 2.0, 3.75])
        return round(rng.uniform(-9, 9), 3)

    return [(rng.randrange(4), value(), rng.randrange(2)) for _ in range(n)]


#: ``(func, arg, distinct)`` over every function, with and without
#: DISTINCT, plus a computed argument the interpreter must walk.
_AGG_SPECS = [("count", None, False), ("count", None, True)] + [
    (func, arg, distinct)
    for func in ("count", "sum", "avg", "min", "max")
    for arg in (col(1), Arithmetic("*", col(1), lit(2)))
    for distinct in (False, True)
]


class TestAggKernelVsOracle:
    @pytest.mark.parametrize("compiled", [True, False])
    @pytest.mark.parametrize("group_cols", [(0,), (0, 2), ()], ids=["g1", "g1g2", "global"])
    @pytest.mark.parametrize("seed,n", [(1, 400), (2, 400), (3, 0)])
    def test_kernel_matches_oracle(self, compiled, group_cols, seed, n):
        rows = _agg_rows(seed, n)
        kernel = Evaluator(compiled=compiled).agg_kernel(group_cols, _AGG_SPECS)
        meter = WorkMeter()
        got = aggregate_batch(rows, kernel, meter)
        specs = [
            AggSpec(func, None if arg is None else (lambda r, _e=arg: evaluate(_e, r)), distinct)
            for func, arg, distinct in _AGG_SPECS
        ]
        group_key = (lambda r: tuple(r[c] for c in group_cols)) if group_cols else None
        oracle_meter = WorkMeter()
        expected = aggregate_rows(rows, group_key, specs, oracle_meter)
        assert got == expected
        assert meter.stats() == oracle_meter.stats()
        if n == 0:
            assert len(got) == (0 if group_cols else 1)

    def test_distinct_drops_repeats_per_group(self):
        rows = [(1, 2), (1, 2), (1, 3), (2, 2), (2, None)]
        for compiled in (True, False):
            kernel = Evaluator(compiled=compiled).agg_kernel(
                (0,),
                [("count", col(1), True), ("sum", col(1), True), ("avg", col(1), True)],
            )
            assert kernel(rows) == [(1, 2, 5, 2.5), (2, 1, 2, 2.0)]

    def test_back_ends_cache_separately(self):
        evaluator = Evaluator()
        specs = [("sum", col(1), False)]
        assert evaluator.agg_kernel((0,), specs) is evaluator.agg_kernel((0,), specs)
        interpreted = evaluator.cache.agg_kernel((0,), specs, True)
        assert interpreted is not evaluator.agg_kernel((0,), specs)
        assert "_interp" in interpreted.__prisma_source__


class TestDistinctAggregateSQL:
    """End to end through SQL, checked against stdlib ``sqlite3``."""

    @pytest.mark.parametrize("compiled", [True, False])
    def test_matches_sqlite(self, compiled):
        rng = random.Random(17)
        rows = []
        for i in range(240):
            kind = rng.randrange(4)
            # Floats are exact binary fractions, so SUM is independent of
            # the order either engine adds the distinct values in.
            v = (
                None if kind == 0
                else rng.randrange(-8, 8) if kind < 3
                else rng.choice([0.5, 1.5, -2.25, 3.0])
            )
            rows.append((i, rng.randrange(5), v))
        db = PrismaDB(
            MachineConfig(n_nodes=8, disk_nodes=(0,)), compiled_expressions=compiled
        )
        db.execute(
            "CREATE TABLE t (id INT PRIMARY KEY, g INT, v FLOAT)"
            " FRAGMENTED BY HASH(id) INTO 4"
        )
        db.bulk_load("t", rows)
        oracle = sqlite3.connect(":memory:")
        try:
            oracle.execute("CREATE TABLE t (id INTEGER, g INTEGER, v REAL)")
            oracle.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
            for sql in (
                "SELECT g, COUNT(DISTINCT v), SUM(DISTINCT v), MIN(v), MAX(v)"
                " FROM t GROUP BY g",
                "SELECT COUNT(DISTINCT v), SUM(DISTINCT v), AVG(DISTINCT v) FROM t",
            ):
                got = sorted(db.execute(sql).rows)
                want = sorted(oracle.execute(sql).fetchall())
                assert got == want, sql
        finally:
            oracle.close()


# ---------------------------------------------------------------------------
# Compiled vs interpreted at the local-executor level
# ---------------------------------------------------------------------------


class TestBatchRowEquivalence:
    """Both back-ends run every operator through the same batch shape:
    compiled kernels inline the expression code, interpreted ones walk
    the tree per row.  Rows and tuple/hash charges must be identical;
    only compares carry the interpretation penalty."""

    T = Schema.of(k=DataType.INT, g=DataType.INT, v=DataType.FLOAT)
    U = Schema.of(k2=DataType.INT, w=DataType.INT)

    @pytest.mark.parametrize("distinct", [True, False])
    def test_same_rows_same_charges(self, distinct):
        rng = random.Random(5)
        t_rows = [
            (rng.randrange(40), rng.randrange(6), round(rng.uniform(0, 9), 2))
            for _ in range(250)
        ]
        u_rows = [(rng.randrange(40), rng.randrange(3)) for _ in range(60)]
        join = JoinNode(ScanNode("t", self.T), ScanNode("u", self.U), eq(col(0), col(3)))
        selected = SelectNode(join, Comparison(">", col(2), lit(2.0)))
        aggregated = AggregateNode(
            selected,
            [1],
            [
                AggExpr("count", None),
                AggExpr("sum", col(4), distinct),
                AggExpr("avg", Arithmetic("*", col(2), lit(2)), distinct),
                AggExpr("max", col(2), distinct),
            ],
        )
        plan = SortNode(
            ProjectNode(aggregated, [col(0), col(1), col(2), col(3), col(4)]),
            [(0, False)],
        )
        results = {}
        for compiled in (True, False):
            meter = WorkMeter()
            executor = LocalExecutor(
                {"t": t_rows, "u": u_rows},
                evaluator=Evaluator(compiled=compiled),
                meter=meter,
            )
            results[compiled] = (executor.run(plan), meter.tuples, meter.hashes)
            if compiled:
                compiled_compares = meter.compares
            else:
                assert meter.compares > compiled_compares
        assert results[True] == results[False]
        assert results[True][0]


# ---------------------------------------------------------------------------
# top_n_rows vs the sort+limit oracle
# ---------------------------------------------------------------------------


def _oracle(rows, positions, limit, offset, descending):
    return limit_rows(
        sort_rows(rows, positions, descending), limit, offset
    )


class TestTopNOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_sort_limit_on_mixed_types(self, seed):
        rows = _mixed_rows(seed, n=120)
        rng = random.Random(seed + 100)
        positions = rng.sample(range(4), rng.randrange(1, 4))
        descending = [rng.random() < 0.5 for _ in positions]
        limit = rng.randrange(0, 140)
        offset = rng.choice([0, 1, 5, 130])
        expected = _oracle(rows, positions, limit, offset, descending)
        got = top_n_rows(rows, positions, limit, offset, descending)
        assert got == expected

    def test_ties_keep_original_order(self):
        # Every key equal: top-N must behave like a stable sort prefix.
        rows = [(1, i) for i in range(20)]
        assert top_n_rows(rows, [0], 5) == rows[:5]
        assert top_n_rows(rows, [0], 5, descending=[True]) == rows[:5]
        assert top_n_rows(rows, [0], 5, offset=3) == rows[3:8]

    def test_nulls_sort_first_ascending_last_descending(self):
        rows = [(3,), (None,), (1,), (None,), (2,)]
        assert top_n_rows(rows, [0], 3) == [(None,), (None,), (1,)]
        assert top_n_rows(rows, [0], 3, descending=[True]) == [
            (3,),
            (2,),
            (1,),
        ]

    def test_limit_zero_and_offset_past_end(self):
        rows = [(2,), (1,)]
        assert top_n_rows(rows, [0], 0) == []
        assert top_n_rows(rows, [0], 5, offset=10) == []

    def test_negative_limit_or_offset_raises(self):
        with pytest.raises(ExecutionError):
            top_n_rows([(1,)], [0], -1)
        with pytest.raises(ExecutionError):
            top_n_rows([(1,)], [0], 1, offset=-2)

    def test_mismatched_directions_raise(self):
        with pytest.raises(ExecutionError):
            top_n_rows([(1, 2)], [0, 1], 1, descending=[True])

    def test_charges_bounded_heap_not_full_sort(self):
        rows = [(i,) for i in range(1000)]
        meter = WorkMeter()
        top_n_rows(rows, [0], 10, meter=meter)
        assert meter.tuples == 1000
        assert meter.compares == pytest.approx(1000 * math.log2(10))
        # Degenerate keep >= n charges the full-sort formula.
        full = WorkMeter()
        top_n_rows(rows, [0], 5000, meter=full)
        assert full.compares == pytest.approx(1000 * math.log2(1000))
        # A bounded heap is strictly cheaper than sorting everything.
        sort_meter = WorkMeter()
        sort_rows(rows, [0], meter=sort_meter)
        assert meter.compares < sort_meter.compares


# ---------------------------------------------------------------------------
# limit_rows / LimitNode edge cases (satellite: charge accounting)
# ---------------------------------------------------------------------------


class TestLimitEdgeCases:
    ROWS = [(i,) for i in range(10)]

    def test_offset_past_end_is_empty_and_charges_len(self):
        meter = WorkMeter()
        assert limit_rows(self.ROWS, 3, offset=50, meter=meter) == []
        # The slice never runs past the rows that exist.
        assert meter.tuples == 10

    def test_offset_plus_limit_overflow_clamps(self):
        meter = WorkMeter()
        out = limit_rows(self.ROWS, 10**9, offset=8, meter=meter)
        assert out == [(8,), (9,)]
        assert meter.tuples == 10

    def test_limit_zero_touches_nothing(self):
        meter = WorkMeter()
        assert limit_rows(self.ROWS, 0, meter=meter) == []
        assert meter.tuples == 0

    def test_charge_equals_rows_touched(self):
        meter = WorkMeter()
        limit_rows(self.ROWS, 3, offset=2, meter=meter)
        assert meter.tuples == 5  # offset rows + emitted rows
        unlimited = WorkMeter()
        limit_rows(self.ROWS, None, meter=unlimited)
        assert unlimited.tuples == 10

    def test_limit_node_runs_edge_cases(self):
        schema = Schema.of(x=DataType.INT)
        scan = ScanNode("t", schema)
        executor = LocalExecutor({"t": self.ROWS})
        assert executor.run(LimitNode(scan, 0)) == []
        assert executor.run(LimitNode(scan, 3, offset=50)) == []
        assert executor.run(LimitNode(scan, 10**6, offset=8)) == [(8,), (9,)]


# ---------------------------------------------------------------------------
# Rewrite rules: fusion and pushdown
# ---------------------------------------------------------------------------

EMP = Schema.of(id=DataType.INT, dept=DataType.STRING, sal=DataType.FLOAT)
TABLES = {
    "emp": [
        (1, "eng", 120.0),
        (2, "eng", 95.0),
        (3, "sales", 80.0),
        (4, "sales", 85.0),
        (5, "hr", 70.0),
    ]
}


def emp():
    return ScanNode("emp", EMP)


def run(plan):
    return LocalExecutor(TABLES).run(plan)


class TestTopNRules:
    def test_fuse_sort_limit(self):
        plan = LimitNode(SortNode(emp(), [(2, True)]), 2)
        rewritten, fired = apply_rules(plan)
        assert "fuse_sort_limit" in fired
        top = [n for n in rewritten.walk() if isinstance(n, TopNNode)]
        assert len(top) == 1
        assert top[0].keys == ((2, True),)
        assert top[0].limit == 2
        assert run(rewritten) == run(plan) == [(1, "eng", 120.0), (2, "eng", 95.0)]

    def test_unbounded_limit_not_fused(self):
        plan = LimitNode(SortNode(emp(), [(0, False)]), None, offset=1)
        rewritten, fired = apply_rules(plan)
        assert "fuse_sort_limit" not in fired
        assert not any(isinstance(n, TopNNode) for n in rewritten.walk())
        assert run(rewritten) == run(plan)

    def test_push_limit_below_project(self):
        # Non-narrowing computed projection: width 3 in, width 3 out.
        plan = LimitNode(
            ProjectNode(
                emp(), [col(0), col(1), Arithmetic("*", col(2), lit(2.0))]
            ),
            2,
        )
        rewritten, fired = apply_rules(plan)
        assert "push_limit_below_project" in fired
        # The projection is now outermost: limit applies before the
        # multiply, so only 2 rows are ever projected.
        assert isinstance(rewritten, ProjectNode)
        assert run(rewritten) == run(plan)

    def test_push_topn_below_plain_projection(self):
        # Full-width permutation: pushing below it costs no shipped
        # width, and the heap then cuts rows before any copying.
        plan = LimitNode(
            SortNode(
                ProjectNode(emp(), [col(2), col(0), col(1)]), [(0, True)]
            ),
            2,
        )
        rewritten, fired = apply_rules(plan)
        assert "fuse_sort_limit" in fired
        assert "push_topn_below_project" in fired
        # TopN now sits under the projection, keyed by the source column.
        projects = [n for n in rewritten.walk() if isinstance(n, ProjectNode)]
        assert projects and isinstance(projects[0].child, TopNNode)
        assert projects[0].child.keys == ((2, True),)
        assert run(rewritten) == run(plan)

    def test_topn_not_pushed_below_computed_projection(self):
        plan = TopNNode(
            ProjectNode(
                emp(), [Arithmetic("*", col(2), lit(-1.0)), col(0), col(1)]
            ),
            [(0, False)],
            2,
        )
        rewritten, fired = apply_rules(plan)
        assert "push_topn_below_project" not in fired
        assert run(rewritten) == run(plan)

    def test_pushes_blocked_below_narrowing_projection(self):
        # Cutting below a narrowing projection would make every site
        # ship wide pre-projection rows: both pushes must stay put.
        narrow = ProjectNode(emp(), [col(2)])
        limit_plan = LimitNode(narrow, 2)
        _, fired = apply_rules(limit_plan)
        assert "push_limit_below_project" not in fired
        topn_plan = TopNNode(ProjectNode(emp(), [col(2)]), [(0, False)], 2)
        rewritten, fired = apply_rules(topn_plan)
        assert "push_topn_below_project" not in fired
        assert run(rewritten) == run(topn_plan)


# ---------------------------------------------------------------------------
# Distributed: fused top-N ships fewer bytes than sort-then-limit
# ---------------------------------------------------------------------------


def _small_db():
    db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0,)))
    load_wisconsin(db, "wisc", 400, fragments=4, seed=3)
    db.quiesce()
    return db


def _without_topn_rules():
    dropped = {"fuse_sort_limit", "push_limit_below_project", "push_topn_below_project"}
    return tuple(r for r in KNOWLEDGE_BASE if r.name not in dropped)


class TestDistributedTopN:
    SQL = "SELECT unique1 FROM wisc ORDER BY unique1 LIMIT 10"

    def _run(self, monkeypatch, rules):
        import repro.core.gdh as gdh_module
        from repro.algebra.optimizer import Optimizer

        real = Optimizer
        monkeypatch.setattr(
            gdh_module,
            "Optimizer",
            lambda stats, options: real(stats, options, rules=rules),
        )
        db = _small_db()
        result = db.execute(self.SQL)
        return result

    def test_fused_ships_strictly_less(self, monkeypatch):
        fused = self._run(monkeypatch, KNOWLEDGE_BASE)
        unfused = self._run(monkeypatch, _without_topn_rules())
        assert fused.rows == unfused.rows
        assert len(fused.rows) == 10
        assert "TopN" in fused.report.plan_text
        assert "TopN" not in unfused.report.plan_text
        # Each site ships only its best 10 rows instead of a full
        # 100-row partition: strictly fewer bytes on the wire.
        assert fused.report.bytes_shipped < unfused.report.bytes_shipped

    def test_offset_and_ties_match_unfused_plan(self, monkeypatch):
        sql = "SELECT ten, unique1 FROM wisc ORDER BY ten LIMIT 7 OFFSET 5"
        import repro.core.gdh as gdh_module
        from repro.algebra.optimizer import Optimizer

        real = Optimizer
        monkeypatch.setattr(
            gdh_module,
            "Optimizer",
            lambda stats, options: real(stats, options, rules=KNOWLEDGE_BASE),
        )
        db = _small_db()
        fused = db.execute(sql)
        monkeypatch.setattr(
            gdh_module,
            "Optimizer",
            lambda stats, options, _r=_without_topn_rules(): real(
                stats, options, rules=_r
            ),
        )
        db2 = _small_db()
        unfused = db2.execute(sql)
        # `ten` has 40 ties per value: global stability across sites
        # must reproduce the unfused stable sort exactly.
        assert fused.rows == unfused.rows
