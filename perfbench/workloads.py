"""The benchmark's four workloads and the oracles that check them.

Every workload drives the program only through its public API and
hands it only SQL text and parameters; the statement streams, the
generated data and the expected answers all come from this file.  A
workload is a sequence of *rounds*.  A round is one set-up (machine
build, DDL, load) followed by a stream of :class:`Op`; the runner times
each ``Op.run`` call and nothing else.

* ``oltp`` and ``ingest`` rebuild their database every round, so every
  round does the same amount of work: the tables do not grow with the
  speed of the host, and every round yields another set-up sample.
* ``analytics`` sets up once (the 24k-row load is seconds long) and
  streams read-only queries until the run ends.
* ``netsim`` builds one packet network per round and runs one load
  point on it.

Operation kinds are dealt from shuffled decks with fixed contents, so
the mix of every round is exact and only the order, keys and parameters
depend on the seed; that keeps medians comparable across seeds.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import sqlite3
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from heapq import heappop, heappush

from repro import MachineConfig, PrismaDB
from repro.machine import PacketNetwork
from repro.machine.traffic import run_load_point
from repro.serve import install_serving


class OracleMismatch(AssertionError):
    """The program's output disagrees with the benchmark's oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleMismatch(message)


def rng_for(seed: int, *labels: object) -> random.Random:
    """An independent, reproducible random stream per (seed, labels)."""
    return random.Random("/".join(str(part) for part in (seed, *labels)))


def rows_digest(rows: object) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def user_bytes(row: tuple) -> int:
    """Bytes of the values a client supplied: 8 per number, UTF-8 text."""
    return sum(
        len(value.encode()) if isinstance(value, str) else 8 for value in row
    )


@dataclass
class Op:
    """One operation: ``run`` is the timed call into the program.

    ``check`` runs after the timing stops.  It compares ``run``'s result
    with the oracle, updates the oracle's model, and returns the
    operation's simulated record ``(sim_latency_s, units, sim_detail)``:
    *units* is what ``ops_per_s`` counts (1 statement, or the delivered
    packets of a load point) and *sim_detail* goes into ``sim.digest``.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[float, int, object]]


class Deck:
    """Deals operation kinds from reshuffled copies of a fixed deck."""

    def __init__(self, contents: list[str], rng: random.Random):
        self._contents = contents
        self._rng = rng
        self._hand: list[str] = []

    def deal(self) -> str:
        if not self._hand:
            self._hand = list(self._contents)
            self._rng.shuffle(self._hand)
        return self._hand.pop()


class Zipf:
    """Rank sampler with weights ``1/r**alpha`` over ``n`` keys."""

    def __init__(self, n: int, alpha: float):
        total = 0.0
        self._cumulative = []
        for rank in range(1, n + 1):
            total += rank ** -alpha
            self._cumulative.append(total)
        self._total = total

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cumulative, rng.random() * self._total)


class Round:
    """One set-up database (or network) and the operations run on it."""

    db: PrismaDB | None = None
    #: Rows the program returned or changed, for the examined/returned ratio.
    rows_returned = 0

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def verify(self) -> None:
        """End-of-round oracle check (outside the timing)."""

    def counters(self) -> dict[str, float]:
        """Cumulative work counters from the program's public stats."""
        if self.db is None:
            return {}
        return {**db_counters(self.db), "rows_returned": self.rows_returned}


def db_counters(db: PrismaDB) -> dict[str, float]:
    observatory = db.observe()
    runtime = observatory.source("runtime").stats()
    nodes = observatory.source("nodes").stats()
    expressions = observatory.source("expressions").stats()
    counters = {
        "messages": runtime["messages"],
        "bytes": runtime["bytes_moved"],
        "processes": runtime["processes_spawned"],
        "tuples": nodes["tuples_processed"],
        "expr_hits": expressions["hits"],
        "expr_compilations": expressions["compilations"],
        "lock_conflicts": db.gdh.locks.conflicts,
        "deadlocks": db.gdh.locks.deadlocks_detected,
    }
    wal_bytes = storage_bytes = 0
    for ofm in db.gdh.fragment_ofms.values():
        storage_bytes += ofm.table.footprint_bytes()
        if ofm.wal is not None:
            wal_bytes += ofm.wal.durable_bytes()
    counters["wal_bytes"] = wal_bytes
    counters["storage_bytes"] = storage_bytes
    cache = db.gdh.plan_cache
    if cache is not None:
        stats = cache.stats()
        counters["plan_lookups"] = stats["lookups"]
        counters["plan_hits"] = stats["hits"]
        counters["plan_evictions"] = stats["evictions"]
    admission = db.gdh.admission
    if admission is not None:
        stats = admission.stats()
        counters["admitted"] = stats["admitted"]
        counters["delayed"] = stats["delayed"]
        counters["admission_wait_s"] = stats["total_wait_s"]
    return counters


class Workload:
    """A named workload: how to set up a round, and how to read it."""

    name = ""
    #: The percentile ``op_tail_ms`` reports, and enough operations
    #: (``min_ops``) that at least ten samples lie beyond it.
    tail_pct = 99.0
    min_ops = 1100
    #: Operations per throughput slice; ``ops_per_s`` is the median
    #: over whole slices.
    slice_ops = 800
    #: Set-ups made and discarded before the timed rounds, for
    #: workloads whose rounds are too few to give a set-up median.
    extra_setups = 0
    #: How many leading operations ``sim.*`` and the traced run cover.
    digest_ops = 800

    def setup(self, seed: int, index: int) -> Round:
        raise NotImplementedError

    def finish(self, rnd: Round) -> dict[str, float]:
        """After the last round, outside the timing."""
        return {}


# ---------------------------------------------------------------------------
# oltp: the serving point — 100 DBAPI sessions over a 128-key table.
# ---------------------------------------------------------------------------


class _SessionsRound(Round):
    """DBAPI connections interleaved by simulated clock.

    The next operation always goes to the connection whose clock, after
    an exponential think time, is earliest (lowest index on ties), so
    the interleaving is a deterministic function of the seed.
    """

    think_mean_s = 0.002

    def _interleave(
        self, connections, ops_each: int, rng: random.Random, make_op
    ) -> Iterator[Op]:
        ready: list[tuple[float, int]] = []
        remaining = [ops_each] * len(connections)

        def think(index: int) -> None:
            session = connections[index].session
            session.advance_clock(rng.expovariate(1.0 / self.think_mean_s))
            heappush(ready, (session.clock, index))

        for index in range(len(connections)):
            think(index)
        while ready:
            _clock, index = heappop(ready)
            yield make_op(index)
            remaining[index] -= 1
            if remaining[index]:
                think(index)


class OltpRound(_SessionsRound):
    READ = "SELECT v FROM kv WHERE id = ?"
    UPDATE = "UPDATE kv SET v = v + ? WHERE id = ?"
    INSERT = "INSERT INTO kv VALUES (?, ?)"
    AGGREGATE = "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM kv"
    #: 60% point read, 25% point update, 5% fresh insert, 10% aggregate.
    DECK = ["read"] * 12 + ["update"] * 5 + ["insert"] + ["aggregate"] * 2

    def __init__(self, seed: int, index: int, size: dict):
        self.size = size
        self.rng = rng_for(seed, "oltp", index)
        self.db = PrismaDB(MachineConfig(n_nodes=32, disk_nodes=(0, 16)))
        self.db.execute(
            "CREATE TABLE kv (id INT PRIMARY KEY, v INT)"
            " FRAGMENTED BY HASH(id) INTO 8"
        )
        self.model = {key: key * 3 for key in range(size["keys"])}
        self.db.bulk_load("kv", sorted(self.model.items()))
        install_serving(self.db, admission_slots=8)
        self.db.quiesce()
        self.connections = [self.db.connect() for _ in range(size["sessions"])]
        self.cursors = [c.cursor() for c in self.connections]
        self.deck = Deck(self.DECK, self.rng)
        self.zipf = Zipf(size["keys"], 1.3)
        self.next_key = 1_000_000_000
        self.written = 0

    def ops(self) -> Iterator[Op]:
        return self._interleave(
            self.connections, self.size["ops_per_session"], self.rng, self._op
        )

    def _op(self, index: int) -> Op:
        cursor = self.cursors[index]
        session = self.connections[index].session
        issued = session.clock
        kind = self.deck.deal()
        model = self.model
        if kind == "read":
            key = self.zipf.sample(self.rng)
            sql, params = self.READ, (key,)

            def check(cur):
                expect(cur.fetchall() == [(model[key],)], f"kv read {key}")
                return finish(cur)
        elif kind == "update":
            # A constant increment, as in the serving point: the hot
            # updates then repeat and the plan cache can serve them.
            key = self.zipf.sample(self.rng)
            sql, params = self.UPDATE, (1, key)

            def check(cur):
                expect(cur.rowcount == 1, f"kv update {key}: {cur.rowcount}")
                model[key] += 1
                self.written += 16
                return finish(cur)
        elif kind == "insert":
            self.next_key += 1
            key, value = self.next_key, self.rng.randrange(1000)
            sql, params = self.INSERT, (key, value)

            def check(cur):
                expect(cur.rowcount == 1, f"kv insert {key}: {cur.rowcount}")
                model[key] = value
                self.written += 16
                return finish(cur)
        else:
            sql, params = self.AGGREGATE, None

            def check(cur):
                values = list(model.values())
                want = [(len(values), sum(values), min(values), max(values))]
                expect(cur.fetchall() == want, "kv aggregate")
                return finish(cur)

        def finish(cur):
            latency = session.clock - issued
            self.rows_returned += max(cur.rowcount, 0)
            return latency, 1, (kind, latency, rows_digest(cur.result.rows))

        return Op(kind, lambda: cursor.execute(sql, params), check)

    def verify(self) -> None:
        rows = sorted(self.db.query("SELECT id, v FROM kv"))
        expect(rows == sorted(self.model.items()), "kv final contents")

    def counters(self) -> dict[str, float]:
        counters = super().counters()
        counters["user_bytes_written"] = self.written
        counters["user_bytes_stored"] = 16 * len(self.model)
        return counters


class Oltp(Workload):
    name = "oltp"
    tail_pct = 99.0
    min_ops = 1600
    slice_ops = 800
    digest_ops = 800
    SIZES = {
        "full": {"sessions": 100, "ops_per_session": 8, "keys": 128},
        "tiny": {"sessions": 10, "ops_per_session": 4, "keys": 32},
    }

    def __init__(self, scale: str = "full"):
        self.size = self.SIZES[scale]
        if scale == "tiny":
            self.min_ops = self.slice_ops = self.digest_ops = 40

    def setup(self, seed: int, index: int) -> Round:
        return OltpRound(seed, index, self.size)


# ---------------------------------------------------------------------------
# ingest: write-heavy autocommit mix on an indexed, initially empty table.
# ---------------------------------------------------------------------------


class IngestRound(_SessionsRound):
    INSERT1 = "INSERT INTO ev VALUES (?, ?, ?, ?)"
    UPDATE = "UPDATE ev SET amt = amt + ? WHERE id = ?"
    DELETE = "DELETE FROM ev WHERE id = ?"
    SUM = "SELECT SUM(amt) FROM ev WHERE acct = ?"
    #: 50% single-row insert, 20% multi-row insert, 15% point update,
    #: 10% point delete, 5% per-account sum through the secondary index.
    DECK = ["insert"] * 10 + ["insert_many"] * 4 + ["update"] * 3 + ["delete"] * 2 + ["sum"]

    def __init__(self, seed: int, index: int, size: dict):
        self.size = size
        self.rng = rng_for(seed, "ingest", index)
        self.db = PrismaDB(MachineConfig(n_nodes=32, disk_nodes=(0, 16)))
        self.db.execute(
            "CREATE TABLE ev (id INT PRIMARY KEY, acct INT, amt INT, tag STRING)"
            " FRAGMENTED BY HASH(id) INTO 8"
        )
        self.db.execute("CREATE INDEX ev_acct ON ev (acct)")
        self.db.quiesce()
        self.connections = [self.db.connect() for _ in range(size["sessions"])]
        self.cursors = [c.cursor() for c in self.connections]
        self.deck = Deck(self.DECK, self.rng)
        self.insert_many_sql = "INSERT INTO ev VALUES " + ", ".join(
            ["(?, ?, ?, ?)"] * size["batch"]
        )
        self.model: dict[int, tuple] = {}
        self.live: list[int] = []
        self.where: dict[int, int] = {}
        self.next_id = 0
        self.written = 0

    # -- the host-side committed-row model ------------------------------------

    def _add(self, row: tuple) -> None:
        self.model[row[0]] = row
        self.where[row[0]] = len(self.live)
        self.live.append(row[0])
        self.written += user_bytes(row)

    def _remove(self, key: int) -> None:
        del self.model[key]
        slot = self.where.pop(key)
        last = self.live.pop()
        if last != key:
            self.live[slot] = last
            self.where[last] = slot

    def _fresh_row(self) -> tuple:
        self.next_id += 1
        rng = self.rng
        return (
            self.next_id,
            rng.randrange(self.size["accounts"]),
            rng.randrange(1, 1000),
            f"t{rng.randrange(100_000)}",
        )

    def _existing_key(self) -> int:
        # An empty table makes the statement match nothing (rowcount 0).
        return self.live[self.rng.randrange(len(self.live))] if self.live else -1

    # -- operations -------------------------------------------------------------------

    def ops(self) -> Iterator[Op]:
        return self._interleave(
            self.connections, self.size["ops_per_session"], self.rng, self._op
        )

    def _op(self, index: int) -> Op:
        cursor = self.cursors[index]
        session = self.connections[index].session
        issued = session.clock
        kind = self.deck.deal()
        model = self.model
        if kind in ("insert", "insert_many"):
            count = 1 if kind == "insert" else self.size["batch"]
            rows = [self._fresh_row() for _ in range(count)]
            sql = self.INSERT1 if count == 1 else self.insert_many_sql
            params = [value for row in rows for value in row]

            def check(cur):
                expect(cur.rowcount == count, f"ev insert: {cur.rowcount}")
                for row in rows:
                    self._add(row)
                return finish(cur)
        elif kind == "update":
            key = self._existing_key()
            delta = self.rng.randrange(1, 100)
            sql, params = self.UPDATE, (delta, key)

            def check(cur):
                expect(cur.rowcount == (key in model), f"ev update {key}")
                if key in model:
                    row = model[key]
                    model[key] = (row[0], row[1], row[2] + delta, row[3])
                    self.written += user_bytes(model[key])
                return finish(cur)
        elif kind == "delete":
            key = self._existing_key()
            sql, params = self.DELETE, (key,)

            def check(cur):
                expect(cur.rowcount == (key in model), f"ev delete {key}")
                if key in model:
                    self._remove(key)
                return finish(cur)
        else:
            account = self.rng.randrange(self.size["accounts"])
            sql, params = self.SUM, (account,)

            def check(cur):
                amounts = [row[2] for row in model.values() if row[1] == account]
                want = [(sum(amounts) if amounts else None,)]
                expect(cur.fetchall() == want, f"ev sum for account {account}")
                return finish(cur)

        def finish(cur):
            latency = session.clock - issued
            self.rows_returned += max(cur.rowcount, 0)
            return latency, 1, (kind, latency, cur.rowcount)

        return Op(kind, lambda: cursor.execute(sql, params), check)

    def verify(self) -> None:
        rows = sorted(self.db.query("SELECT id, acct, amt, tag FROM ev"))
        expect(rows == sorted(self.model.values()), "ev committed rows")

    def counters(self) -> dict[str, float]:
        counters = super().counters()
        counters["user_bytes_written"] = self.written
        counters["user_bytes_stored"] = sum(map(user_bytes, self.model.values()))
        return counters


class Ingest(Workload):
    name = "ingest"
    tail_pct = 99.0
    min_ops = 1600
    slice_ops = 800
    digest_ops = 800
    SIZES = {
        "full": {"sessions": 4, "ops_per_session": 200, "batch": 20, "accounts": 256},
        "tiny": {"sessions": 2, "ops_per_session": 20, "batch": 5, "accounts": 8},
    }

    def __init__(self, scale: str = "full"):
        self.size = self.SIZES[scale]
        if scale == "tiny":
            self.min_ops = self.slice_ops = self.digest_ops = 40

    def setup(self, seed: int, index: int) -> Round:
        return IngestRound(seed, index, self.size)

    def finish(self, rnd: Round) -> dict[str, float]:
        """Crash the last round's machine and check every committed row
        survives the restart."""
        rnd.verify()
        started = time.perf_counter()
        rnd.db.crash()
        rnd.db.restart()
        restart_s = time.perf_counter() - started
        rnd.verify()
        return {"restart_host_s": restart_s}


# ---------------------------------------------------------------------------
# analytics: the E4 query set plus closure over a loaded Wisconsin table.
# ---------------------------------------------------------------------------


WISCONSIN_COLUMNS = [
    ("unique1", "INT NOT NULL"), ("unique2", "INT PRIMARY KEY"),
    ("two", "INT"), ("four", "INT"), ("ten", "INT"), ("twenty", "INT"),
    ("onepercent", "INT"), ("tenpercent", "INT"), ("twentypercent", "INT"),
    ("fiftypercent", "INT"), ("unique3", "INT"), ("evenonepercent", "INT"),
    ("oddonepercent", "INT"), ("stringu1", "STRING"), ("stringu2", "STRING"),
    ("string4", "STRING"),
]


def wisconsin_rows(n: int, rng: random.Random) -> list[tuple]:
    """Wisconsin-benchmark tuples: a shuffled unique1 against unique2."""

    def text(value: int) -> str:
        letters = []
        for _ in range(7):
            letters.append(chr(ord("A") + value % 26))
            value //= 26
        return "".join(reversed(letters))

    unique1 = list(range(n))
    rng.shuffle(unique1)
    return [
        (
            u1, u2, u1 % 2, u1 % 4, u1 % 10, u1 % 20, u1 % 100, u1 % 10,
            u1 % 5, u1 % 2, u1, (u1 % 100) * 2, (u1 % 100) * 2 + 1,
            text(u1), text(u2), ("AAAA", "HHHH", "OOOO", "VVVV")[u2 % 4],
        )
        for u2, u1 in enumerate(unique1)
    ]


def random_dag(vertices: int, edges: int, rng: random.Random) -> list[tuple]:
    """Distinct edges from a lower to a higher vertex id."""
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < edges:
        src = rng.randrange(vertices - 1)
        chosen.add((src, rng.randrange(src + 1, vertices)))
    return sorted(chosen)


CLOSURE_SQL = "SELECT COUNT(*) FROM CLOSURE(e)"
CLOSURE_ORACLE = (
    "WITH RECURSIVE c(src, dst) AS (SELECT src, dst FROM e"
    " UNION SELECT c.src, e.dst FROM c JOIN e ON c.dst = e.src)"
    " SELECT COUNT(*) FROM c"
)


class AnalyticsRound(Round):
    #: Seven query kinds, one of each per deck; every sixth deck also
    #: runs the closure, so it stays rare and lands in the tail.
    DECK = ["selection", "aggregate", "cojoin", "repjoin", "distinct", "topn", "point"]
    CLOSURE_EVERY = 6

    def __init__(self, seed: int, size: dict):
        self.size = size
        self.rng = rng_for(seed, "analytics", "stream")
        self.db = PrismaDB(MachineConfig(n_nodes=64, disk_nodes=(0, 32)))
        self.db.gdh.executor.distributed_closure = True
        columns = ", ".join(f"{name} {kind}" for name, kind in WISCONSIN_COLUMNS)
        self.db.execute(
            f"CREATE TABLE wisc ({columns}) FRAGMENTED BY HASH(unique2) INTO 16"
        )
        self.rows = wisconsin_rows(size["rows"], rng_for(seed, "analytics", "rows"))
        self.db.bulk_load("wisc", self.rows)
        self.db.execute(
            "CREATE TABLE e (src INT, dst INT) FRAGMENTED BY HASH(src) INTO 8"
        )
        self.edges = random_dag(
            size["vertices"], size["edges"], rng_for(seed, "analytics", "edges")
        )
        self.db.bulk_load("e", self.edges)
        self.results: list[tuple[str, str, bool, list]] = []

    def _query(self, kind: str) -> tuple[str, str, bool]:
        """(program SQL, oracle SQL, ordered?) for one query of *kind*."""
        rng = self.rng
        if kind == "closure":
            return CLOSURE_SQL, CLOSURE_ORACLE, False
        if kind == "selection":
            column = rng.choice(("ten", "twenty", "fiftypercent"))
            sql = f"SELECT COUNT(*) FROM wisc WHERE {column} = {rng.randrange(2)}"
        elif kind == "aggregate":
            sql = (
                "SELECT ten, SUM(unique1), COUNT(*) FROM wisc"
                f" WHERE two = {rng.randrange(2)} GROUP BY ten"
            )
        elif kind == "cojoin":
            sql = (
                "SELECT COUNT(*) FROM wisc a JOIN wisc b ON a.unique2 = b.unique2"
                f" WHERE a.ten = {rng.randrange(10)}"
            )
        elif kind == "repjoin":
            sql = (
                "SELECT COUNT(*) FROM wisc a JOIN wisc b ON a.unique1 = b.unique1"
                f" WHERE b.twenty = {rng.randrange(20)}"
            )
        elif kind == "distinct":
            sql = f"SELECT DISTINCT onepercent FROM wisc WHERE four = {rng.randrange(4)}"
        elif kind == "topn":
            sql = (
                "SELECT unique1, unique2 FROM wisc"
                f" WHERE ten = {rng.randrange(10)}"
                f" ORDER BY unique1 DESC LIMIT {rng.randrange(5, 21)}"
            )
            return sql, sql, True
        else:
            sql = f"SELECT * FROM wisc WHERE unique2 = {rng.randrange(self.size['rows'])}"
        return sql, sql, False

    def ops(self) -> Iterator[Op]:
        deck = Deck(self.DECK, self.rng)
        dealt = 0
        while True:
            kinds = [deck.deal() for _ in self.DECK]
            dealt += 1
            if dealt % self.CLOSURE_EVERY == 0:
                kinds.append("closure")
            for kind in kinds:
                yield self._op(kind)

    def _op(self, kind: str) -> Op:
        sql, oracle_sql, ordered = self._query(kind)

        def check(result):
            self.results.append((sql, oracle_sql, ordered, result.rows))
            self.rows_returned += len(result.rows)
            report = result.report
            return result.response_time, 1, (
                kind, result.response_time, report.messages,
                report.bytes_shipped, rows_digest(result.rows),
            )

        return Op(kind, lambda: self.db.execute(sql), check)

    def verify(self) -> None:
        """Every answer against stdlib sqlite3 over the same rows."""
        oracle = sqlite3.connect(":memory:")
        try:
            columns = ", ".join(name for name, _kind in WISCONSIN_COLUMNS)
            marks = ", ".join("?" * len(WISCONSIN_COLUMNS))
            oracle.execute(f"CREATE TABLE wisc ({columns})")
            oracle.executemany(f"INSERT INTO wisc VALUES ({marks})", self.rows)
            oracle.execute("CREATE INDEX wisc_u1 ON wisc (unique1)")
            oracle.execute("CREATE INDEX wisc_u2 ON wisc (unique2)")
            oracle.execute("CREATE TABLE e (src, dst)")
            oracle.executemany("INSERT INTO e VALUES (?, ?)", self.edges)
            expected: dict[str, list] = {}
            for sql, oracle_sql, ordered, rows in self.results:
                if oracle_sql not in expected:
                    expected[oracle_sql] = oracle.execute(oracle_sql).fetchall()
                want = expected[oracle_sql]
                got = list(rows) if ordered else sorted(rows)
                expect(got == (want if ordered else sorted(want)), f"sqlite3: {sql}")
        finally:
            oracle.close()
        self.results.clear()

    def counters(self) -> dict[str, float]:
        counters = super().counters()
        counters["user_bytes_written"] = 0
        counters["user_bytes_stored"] = sum(map(user_bytes, self.rows)) + 16 * len(
            self.edges
        )
        return counters


class Analytics(Workload):
    name = "analytics"
    tail_pct = 95.0
    min_ops = 215
    slice_ops = 43  # six decks of seven plus one closure
    extra_setups = 4
    digest_ops = 86
    SIZES = {
        "full": {"rows": 24_000, "vertices": 500, "edges": 3_000},
        "tiny": {"rows": 600, "vertices": 40, "edges": 120},
    }

    def __init__(self, scale: str = "full"):
        self.size = self.SIZES[scale]
        if scale == "tiny":
            self.min_ops = self.digest_ops = 43
            self.extra_setups = 0

    def setup(self, seed: int, index: int) -> Round:
        # One database for the whole run: every round index sees the
        # same data and continues the same query stream.
        return AnalyticsRound(seed, self.size)


# ---------------------------------------------------------------------------
# netsim: the E1 acceptance point on the packet-level network.
# ---------------------------------------------------------------------------


class NetsimRound(Round):
    RATE_PPS = 20_000

    def __init__(self, seed: int, index: int, size: dict):
        self.size = size
        self.point_seed = rng_for(seed, "netsim", index).randrange(2**31)
        self.network = PacketNetwork(MachineConfig(n_nodes=64, topology="mesh"))
        self.window_injected = 0
        inject = self.network.inject
        loop = self.network.loop
        window_from = size["warmup_s"]

        def counted_inject(source: int, destination: int):
            # The oracle's own count of packets offered in the window.
            if loop.now >= window_from:
                self.window_injected += 1
            return inject(source, destination)

        self.network.inject = counted_inject
        self.delivered = self.dropped = self.hops = 0

    def ops(self) -> Iterator[Op]:
        network = self.network

        def run():
            point = run_load_point(
                network, self.RATE_PPS, warmup_s=self.size["warmup_s"],
                measure_s=self.size["measure_s"], seed=self.point_seed,
            )
            network.loop.run()  # drain every packet still in flight
            return point

        def check(point):
            stats = network.stats
            in_flight = network.in_flight()
            expect(network.loop.pending == 0 and in_flight == 0, "network drained")
            expect(
                self.window_injected == stats.injected
                == stats.delivered + in_flight + stats.dropped,
                f"packet conservation: offered {self.window_injected},"
                f" injected {stats.injected}, delivered {stats.delivered},"
                f" dropped {stats.dropped}",
            )
            expect(
                sum(stats.delivered_per_node.values()) == stats.delivered,
                "per-node deliveries",
            )
            self.delivered, self.dropped = stats.delivered, stats.dropped
            self.hops = stats.total_hops
            return point["mean_latency_s"], stats.delivered, (
                stats.injected, stats.delivered, stats.dropped,
                stats.total_hops, stats.total_latency_s, point["in_flight"],
            )

        yield Op("load_point", run, check)

    def counters(self) -> dict[str, float]:
        return {
            "events": self.network.loop.events_fired_total,
            "packets_delivered": self.delivered,
            "packets_dropped": self.dropped,
            "hops": self.hops,
        }


class Netsim(Workload):
    name = "netsim"
    tail_pct = 90.0
    min_ops = 110
    slice_ops = 1
    digest_ops = 4
    SIZES = {
        "full": {"warmup_s": 0.002, "measure_s": 0.004},
        "tiny": {"warmup_s": 0.0002, "measure_s": 0.0004},
    }

    def __init__(self, scale: str = "full"):
        self.size = self.SIZES[scale]
        if scale == "tiny":
            self.min_ops = 4

    def setup(self, seed: int, index: int) -> Round:
        return NetsimRound(seed, index, self.size)


WORKLOADS = {cls.name: cls for cls in (Oltp, Analytics, Ingest, Netsim)}
