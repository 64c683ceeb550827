"""Fast checks of the benchmark itself: every workload at a tiny size
through its oracle, the determinism of ``sim.digest``, the traced run's
accounting, and the refusal to run without the program's source.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import LayerTracer  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def tiny(name: str):
    return workloads.WORKLOADS[name]("tiny")


@pytest.mark.parametrize("name", NAMES)
def test_timed_run_passes_its_oracle(name):
    metrics, info, drive = run.timed_run(tiny(name), seed=1, seconds=0.0)
    assert drive.failed == 0 and info["op_fail_ratio"] == 0.0
    assert drive.attempted >= tiny(name).min_ops
    assert set(metrics) == {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mib"}
    assert all(value > 0 for value, _unit in metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_sim_digest_repeats_per_seed_and_moves_with_it(name):
    def digest(seed: int) -> str:
        return run.timed_run(tiny(name), seed, 0.0)[2].sim_metrics()["sim.digest"]

    first = digest(1)
    assert digest(1) == first
    assert digest(2) != first


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_accounts_within_wall_time(name):
    metrics, info, drive = run.traced_run(tiny(name), seed=3)
    assert info["plain_sim_digest"] == drive.sim_metrics()["sim.digest"]
    assert 0 < info["layer_self_sum_s"] <= info["traced_body_s"]
    assert metrics["trace.overhead_ratio"][0] > 0
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {metric["name"] for metric in benchmark["per_layer"]}


def test_tracer_restores_every_wrapped_function():
    from repro.core.database import PrismaDB
    from repro.sql import lexer

    before = (PrismaDB.execute, lexer.tokenize)
    with LayerTracer() as tracer:
        assert lexer.tokenize is not before[1]
        PrismaDB().execute("CREATE TABLE t (a INT)")
    assert (PrismaDB.execute, lexer.tokenize) == before
    layers = dict(zip(tracer.layer_names, tracer.calls))
    assert layers["core"] > 0 and layers["sql"] > 0


def test_oltp_oracle_catches_a_wrong_read():
    rnd = tiny("oltp").setup(1, 0)
    for key in rnd.model:
        rnd.model[key] += 1  # the program is now "wrong" about every key
    with pytest.raises(workloads.OracleMismatch):
        for op in rnd.ops():
            op.check(op.run())


def test_ingest_oracle_catches_a_lost_row():
    rnd = tiny("ingest").setup(1, 0)
    for op in rnd.ops():
        op.check(op.run())
    rnd.db.execute(f"DELETE FROM ev WHERE id = {rnd.live[0]}")
    with pytest.raises(workloads.OracleMismatch):
        rnd.verify()


def test_analytics_oracle_catches_a_wrong_answer():
    rnd = tiny("analytics").setup(1, 0)
    op = next(iter(rnd.ops()))
    op.check(op.run())
    sql, oracle_sql, ordered, rows = rnd.results[0]
    rnd.results[0] = (sql, oracle_sql, ordered, rows + [(-1,)])
    with pytest.raises(workloads.OracleMismatch):
        rnd.verify()


def test_netsim_oracle_catches_a_lost_packet():
    rnd = tiny("netsim").setup(1, 0)
    op = next(iter(rnd.ops()))
    point = op.run()
    rnd.window_injected += 1
    with pytest.raises(workloads.OracleMismatch):
        op.check(point)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oltp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
