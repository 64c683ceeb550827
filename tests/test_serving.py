"""Tests for the serving layer (ISSUE 8): DBAPI surface, plan cache,
admission control, and the session-lifecycle bugfixes that ride along
(post-crash commit/rollback, quiesce over all sessions, execute_script
routed through the one statement entry point)."""

import pytest

from repro import MachineConfig, PrismaDB
from repro.errors import (
    InterfaceError,
    ParseError,
    TransactionAborted,
    TransactionError,
)
from repro.core.workload import (
    ConcurrentSessionDriver,
    ServingWorkloadSpec,
    ZipfSampler,
)
from repro.serve import (
    AdmissionQueue,
    PlanCache,
    Template,
    install_serving,
)


def small_db():
    return PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0, 4)))


def loaded_db(n_rows: int = 64):
    db = small_db()
    db.execute(
        "CREATE TABLE kv (id INT PRIMARY KEY, v INT)"
        " FRAGMENTED BY HASH(id) INTO 4"
    )
    db.bulk_load("kv", [(i, i * 10) for i in range(n_rows)])
    return db


# ---------------------------------------------------------------------------
# Parameter binding.
# ---------------------------------------------------------------------------


class TestParams:
    def test_every_scalar_type_binds(self):
        db = loaded_db()
        conn = db.connect()
        conn.execute("INSERT INTO kv VALUES (?, ?)", (900, None))
        assert conn.execute(
            "SELECT id FROM kv WHERE v IS NULL"
        ).fetchall() == [(900,)]
        assert conn.execute(
            "SELECT COUNT(*) FROM kv WHERE v = ?", (100,)
        ).fetchone() == (1,)
        assert conn.execute(
            "SELECT COUNT(*) FROM kv WHERE v > ?", (0.5,)
        ).fetchone() == (63,)

    def test_string_param_is_injection_proof(self):
        db = small_db()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        conn = db.connect()
        hostile = "x'; DROP TABLE t; --"
        conn.execute("INSERT INTO t VALUES (?, ?)", (1, hostile))
        assert conn.execute(
            "SELECT name FROM t WHERE id = ?", (1,)
        ).fetchone() == (hostile,)

    def test_param_count_mismatch_raises(self):
        template = Template("SELECT v FROM kv WHERE id = ?")
        with pytest.raises(ParseError, match="placeholder"):
            template.check(())
        with pytest.raises(ParseError, match="placeholder"):
            template.check((1, 2))
        with pytest.raises(ParseError, match="cannot bind"):
            template.check(([1],))

    def test_statement_key_ignores_whitespace_not_literals(self):
        def key(sql):
            return Template(sql).key(())

        one = key("SELECT v FROM kv WHERE id = 1")
        spaced = key("SELECT   v  FROM kv\n WHERE id = 1")
        other = key("SELECT v FROM kv WHERE id = 2")
        assert one == spaced
        assert one != other
        bound = Template("SELECT v FROM kv WHERE id = ?")
        assert bound.key(bound.check((1,))) == one


# ---------------------------------------------------------------------------
# DBAPI surface.
# ---------------------------------------------------------------------------


class TestCursor:
    def test_fetch_interface(self):
        db = loaded_db(8)
        cursor = db.connect().cursor()
        cursor.execute("SELECT id, v FROM kv ORDER BY id")
        assert [column[0] for column in cursor.description] == ["id", "v"]
        assert cursor.rowcount == 8
        assert cursor.fetchone() == (0, 0)
        assert cursor.fetchmany(3) == [(1, 10), (2, 20), (3, 30)]
        rest = cursor.fetchall()
        assert len(rest) == 4
        assert cursor.fetchone() is None
        assert cursor.fetchall() == []

    def test_iteration_and_arraysize(self):
        db = loaded_db(5)
        cursor = db.connect().cursor()
        cursor.execute("SELECT id FROM kv ORDER BY id")
        assert list(cursor) == [(0,), (1,), (2,), (3,), (4,)]
        cursor.execute("SELECT id FROM kv ORDER BY id")
        assert cursor.fetchmany() == [(0,)]  # arraysize defaults to 1

    def test_dml_rowcount_and_executemany(self):
        db = loaded_db()
        cursor = db.connect().cursor()
        cursor.execute("INSERT INTO kv VALUES (?, ?)", (200, 1))
        assert cursor.rowcount == 1
        assert cursor.description is None
        cursor.executemany(
            "INSERT INTO kv VALUES (?, ?)", [(201, 1), (202, 2), (203, 3)]
        )
        assert cursor.rowcount == 3
        assert db.query("SELECT COUNT(*) FROM kv WHERE id >= 200") == [(4,)]

    def test_closed_surfaces_raise(self):
        db = loaded_db()
        conn = db.connect()
        cursor = conn.cursor()
        cursor.close()
        with pytest.raises(InterfaceError):
            cursor.execute("SELECT 1 FROM kv")
        conn.close()
        with pytest.raises(InterfaceError):
            conn.cursor()
        conn.close()  # idempotent

    def test_multi_statement_text_rejected(self):
        db = loaded_db()
        with pytest.raises(ParseError):
            db.connect().execute("SELECT v FROM kv; SELECT id FROM kv")


class TestConnection:
    def test_autocommit_default(self):
        db = loaded_db()
        conn = db.connect()
        conn.execute("INSERT INTO kv VALUES (?, ?)", (300, 0))
        assert not conn.in_transaction
        assert db.query("SELECT COUNT(*) FROM kv WHERE id = 300") == [(1,)]

    def test_manual_mode_rolls_back(self):
        db = loaded_db()
        conn = db.connect(autocommit=False)
        conn.execute("INSERT INTO kv VALUES (?, ?)", (400, 0))
        assert conn.in_transaction
        conn.rollback()
        assert db.query("SELECT COUNT(*) FROM kv WHERE id = 400") == [(0,)]
        conn.execute("INSERT INTO kv VALUES (?, ?)", (401, 0))
        conn.commit()
        assert db.query("SELECT COUNT(*) FROM kv WHERE id = 401") == [(1,)]

    def test_close_aborts_open_transaction(self):
        db = loaded_db()
        conn = db.connect(autocommit=False)
        conn.execute("INSERT INTO kv VALUES (?, ?)", (500, 0))
        session_id = conn.session.session_id
        conn.close()
        assert session_id not in db.gdh.sessions
        assert db.query("SELECT COUNT(*) FROM kv WHERE id = 500") == [(0,)]

    def test_prepared_statement_reuse(self):
        db = loaded_db()
        conn = db.connect()
        prepared = conn.prepare("SELECT v FROM kv WHERE id = ?")
        assert prepared.execute((3,)).fetchone() == (30,)
        assert prepared.execute((4,)).fetchone() == (40,)
        assert prepared.execute((3,)).fetchone() == (30,)
        # The third execute repeats a key: an exact-match cache hit.
        assert db.gdh.plan_cache.hits >= 1


# ---------------------------------------------------------------------------
# Plan cache.
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_repeat_statement_hits(self):
        db = loaded_db()
        conn = db.connect()
        for _ in range(5):
            conn.execute("SELECT v FROM kv WHERE id = ?", (7,))
        stats = db.gdh.plan_cache.stats()
        assert stats["lookups"] == 5
        assert stats["hits"] == 4
        assert stats["hit_rate"] == pytest.approx(0.8)

    def test_hit_charges_less_than_miss(self):
        db = loaded_db()
        conn = db.connect()
        session = conn.session
        before = session.clock
        conn.execute("SELECT v FROM kv WHERE id = ?", (7,))
        miss_cost = session.clock - before
        before = session.clock
        conn.execute("SELECT v FROM kv WHERE id = ?", (7,))
        hit_cost = session.clock - before
        assert hit_cost < miss_cost

    def test_ddl_invalidates(self):
        db = loaded_db()
        conn = db.connect()
        conn.execute("SELECT v FROM kv WHERE id = ?", (1,))
        assert len(db.gdh.plan_cache) > 0
        conn.execute("DROP TABLE kv")
        assert len(db.gdh.plan_cache) == 0
        assert db.gdh.plan_cache.invalidations >= 1
        # Same statement text against a *new* table must re-prepare
        # against the new catalog, not replay the dropped table's plan.
        conn.execute("CREATE TABLE kv (id INT PRIMARY KEY, v INT)")
        conn.execute("INSERT INTO kv VALUES (?, ?)", (1, 111))
        assert conn.execute(
            "SELECT v FROM kv WHERE id = ?", (1,)
        ).fetchone() == (111,)

    def test_create_index_invalidates(self):
        db = loaded_db()
        conn = db.connect()
        conn.execute("SELECT v FROM kv WHERE id = ?", (1,))
        epoch = db.gdh.ddl_epoch
        conn.execute("CREATE INDEX kv_v ON kv (v)")
        assert db.gdh.ddl_epoch == epoch + 1
        assert len(db.gdh.plan_cache) == 0

    def test_capacity_bound_evicts_fifo(self):
        cache = PlanCache(capacity=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.put(("c",), 3)
        assert cache.evictions == 1
        assert cache.get(("a",)) is None
        assert cache.get(("b",)) == 2
        assert cache.get(("c",)) == 3

    def test_snapshot_protocol(self):
        cache = PlanCache()
        cache.put(("a",), 1)
        cache.get(("a",))
        fingerprint = cache.fingerprint()
        assert cache.stats()["hits"] == 1
        cache.reset()
        assert cache.stats()["lookups"] == 0
        assert cache.fingerprint() != fingerprint


class TestPlanCacheLiteralTypes:
    """A cached plan is reused only for the literal it was compiled for:
    ``1 == 1.0 == True`` and ``0.0 == -0.0`` in Python, but each value
    must come back with the type (and sign) it was bound or written with."""

    @staticmethod
    def cursor():
        db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0,)))
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, x FLOAT)")
        db.execute("INSERT INTO t VALUES (1, 2.0)")
        return db.connect().cursor()

    @staticmethod
    def exact(rows):
        return [tuple((type(v), repr(v)) for v in row) for row in rows]

    def test_bound_int_then_float(self):
        cur = self.cursor()
        assert self.exact(cur.execute("SELECT ?, x FROM t", (1,)).fetchall()) == (
            self.exact([(1, 2.0)])
        )
        assert self.exact(cur.execute("SELECT ?, x FROM t", (1.0,)).fetchall()) == (
            self.exact([(1.0, 2.0)])
        )

    def test_literal_int_then_float(self):
        cur = self.cursor()
        assert self.exact(cur.execute("SELECT 1 FROM t").fetchall()) == self.exact([(1,)])
        assert self.exact(cur.execute("SELECT 1.0 FROM t").fetchall()) == (
            self.exact([(1.0,)])
        )

    def test_signed_zeros_and_int_zero(self):
        cur = self.cursor()
        for value in (0.0, -0.0, 0):
            rows = cur.execute("SELECT ?", (value,)).fetchall()
            assert self.exact(rows) == self.exact([(value,)])


# ---------------------------------------------------------------------------
# Admission control.
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_saturation_queues_fifo(self):
        class FakeSession:
            def __init__(self, clock):
                self.clock = clock

        queue = AdmissionQueue(slots=2)
        first = FakeSession(0.0)
        slot_a = queue.admit(first)
        queue.release(slot_a, 10.0)
        second = FakeSession(0.0)
        slot_b = queue.admit(second)
        queue.release(slot_b, 12.0)
        # Both slots busy until 10.0/12.0: the third arrival waits for
        # the earliest release.
        third = FakeSession(1.0)
        queue.admit(third)
        assert third.clock == 10.0
        assert queue.delayed == 1
        assert queue.total_wait_s == pytest.approx(9.0)

    def test_statements_funnel_through_admission(self):
        db = loaded_db()
        install_serving(db, admission_slots=4)
        conn = db.connect()
        conn.execute("SELECT v FROM kv WHERE id = ?", (1,))
        db.execute("SELECT COUNT(*) FROM kv")
        db.execute_script("INSERT INTO kv VALUES (700, 0); DELETE FROM kv WHERE id = 700")
        assert db.gdh.admission.admitted == 4

    def test_observatory_sources_registered(self):
        db = loaded_db()
        install_serving(db, admission_slots=4)
        observatory = db.observe()
        assert "plan_cache" in observatory.sources()
        assert "admission" in observatory.sources()
        assert observatory.source("admission").stats()["slots"] == 4
        install_serving(db, admission_slots=4)  # idempotent

    def test_two_same_seed_runs_fingerprint_identical(self):
        def run(seed):
            db = loaded_db(n_rows=32)
            install_serving(db, admission_slots=4)
            db.quiesce()
            spec = ServingWorkloadSpec(
                n_sessions=12, ops_per_session=4, seed=seed, n_keys=32
            )
            outcome = ConcurrentSessionDriver(db, spec).run()
            return outcome.fingerprint(), db.gdh.admission.fingerprint()

        assert run(5) == run(5)
        assert run(5) != run(6)


# ---------------------------------------------------------------------------
# Session-lifecycle bugfixes.
# ---------------------------------------------------------------------------


class TestCrashLifecycle:
    def test_post_crash_commit_raises_transaction_aborted(self):
        db = loaded_db()
        session = db.session()
        session.begin()
        session.execute("INSERT INTO kv VALUES (600, 0)")
        db.crash()
        with pytest.raises(TransactionAborted):
            session.commit()
        # The stale pointer is gone: a second commit is "no transaction".
        with pytest.raises(TransactionError, match="no transaction"):
            session.commit()

    def test_post_crash_rollback_raises_transaction_aborted(self):
        db = loaded_db()
        session = db.session()
        session.begin()
        session.execute("INSERT INTO kv VALUES (601, 0)")
        db.crash()
        with pytest.raises(TransactionAborted):
            session.rollback()

    def test_post_crash_statement_raises_then_session_recovers(self):
        db = loaded_db()
        db.checkpoint()
        first = db.session()
        second = db.session()
        first.begin()
        first.execute("UPDATE kv SET v = v + 1 WHERE id = 1")
        second.begin()
        second.execute("UPDATE kv SET v = v + 1 WHERE id = 2")
        db.crash()
        db.restart()
        with pytest.raises(TransactionAborted):
            first.execute("SELECT COUNT(*) FROM kv")
        with pytest.raises(TransactionAborted):
            second.commit()
        # Both sessions are clean again: the uncommitted updates are
        # gone and new work proceeds.
        assert first.query("SELECT v FROM kv WHERE id = 1") == [(10,)]
        second.begin()
        second.execute("UPDATE kv SET v = v + 5 WHERE id = 2")
        second.commit()
        assert second.query("SELECT v FROM kv WHERE id = 2") == [(25,)]

    def test_crash_aborts_connection_transaction(self):
        db = loaded_db()
        conn = db.connect(autocommit=False)
        conn.execute("INSERT INTO kv VALUES (?, ?)", (602, 0))
        db.crash()
        db.restart()
        with pytest.raises(TransactionAborted):
            conn.commit()
        assert not conn.in_transaction


class TestQuiesce:
    def test_quiesce_advances_every_open_session(self):
        db = loaded_db()
        lagging = db.session()
        db.execute("SELECT COUNT(*) FROM kv")  # default session advances
        horizon = db.quiesce()
        assert lagging.clock == horizon
        assert db.session().clock >= horizon  # new sessions start current

    def test_closed_sessions_are_forgotten(self):
        db = loaded_db()
        session = db.session()
        session_id = session.session_id
        assert session_id in db.gdh.sessions
        session.close()
        assert session_id not in db.gdh.sessions


class TestExecuteScriptRouting:
    def test_script_statements_are_accounted(self):
        db = loaded_db()
        state = db._default_session._state
        before = state.statements
        db.execute_script(
            "INSERT INTO kv VALUES (800, 0);"
            " UPDATE kv SET v = 1 WHERE id = 800;"
            " SELECT v FROM kv WHERE id = 800"
        )
        assert state.statements == before + 3


# ---------------------------------------------------------------------------
# Workload pieces.
# ---------------------------------------------------------------------------


class TestServingWorkload:
    def test_zipf_sampler_is_skewed_and_deterministic(self):
        import random

        sampler = ZipfSampler(100, 1.3)
        rng = random.Random(1)
        draws = [sampler.sample(rng) for _ in range(2000)]
        assert draws == [
            sampler.sample(random.Random(1)) for _ in range(1)
        ] + draws[1:]  # same seed, same first draw
        assert all(0 <= draw < 100 for draw in draws)
        hot = sum(1 for draw in draws if draw < 10)
        assert hot > len(draws) * 0.5  # top-10 ranks dominate

    def test_driver_report_percentiles(self):
        from repro.core.workload import ServingReport

        outcome = ServingReport()
        for latency in (0.1, 0.2, 0.3, 0.4):
            outcome.record("read", latency)
        assert outcome.percentile("read", 50.0) == 0.2
        assert outcome.percentile("read", 99.0) == 0.4
        assert outcome.percentile("missing", 50.0) == 0.0

    def test_driver_runs_all_operations(self):
        db = loaded_db(n_rows=32)
        install_serving(db)
        db.quiesce()
        spec = ServingWorkloadSpec(
            n_sessions=6, ops_per_session=3, seed=11, n_keys=32
        )
        outcome = ConcurrentSessionDriver(db, spec).run()
        assert outcome.operations == 18
        assert outcome.statements == 18
        assert outcome.finished_at > outcome.started_at
        assert outcome.throughput_ops > 0
        # All driver connections were closed again.
        assert len(db.gdh.sessions) == 1  # just the facade's default
