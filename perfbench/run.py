"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with nothing added to the program and
reports the end-to-end metrics; ``--trace 1`` runs the first
``digest_ops`` operations once plain and once under
:class:`layertrace.LayerTracer` and reports the per-layer metrics.  Both
check every answer against the workload's oracle and print a
human-readable report, then one JSON object as the last line.  The full
report (with ``sim.*``) and, for traced runs, a Chrome trace are written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import heapq
import json
import math
import pathlib
import resource
import statistics
import sys
import time
from array import array

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TAIL_LADDER = (99.9, 99.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0)


def reference_work() -> int:
    """Fixed pure-Python work in the program's style: heap events, dict
    counters, tuple rows and a filtered sum.  Never changes, so its
    duration measures the host's speed."""
    heap: list[tuple[int, int]] = []
    counts: dict[int, int] = {}
    rows = []
    for i in range(1500):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        key = i & 255
        counts[key] = counts.get(key, 0) + 1
        rows.append((i, key, i * 3))
    total = 0
    while heap:
        _due, i = heapq.heappop(heap)
        total += rows[i][2]
    return total + sum(row[1] for row in rows if row[0] % 3 == 0) + len(counts)


class SpeedProbe:
    """Tracks the host's speed while a workload runs.

    A shared host changes speed by tens of percent over seconds, far
    more than the differences between two commits that the benchmark
    must resolve.  The probe times :func:`reference_work` every
    ``interval_s`` (outside any timed call) and expresses an interval of
    host time in seconds of a host on which the reference takes
    ``NOMINAL_S``: the interval times ``NOMINAL_S`` over the mean of the
    samples taken just before and just after it.
    """

    NOMINAL_S = 0.002

    def __init__(self, interval_s: float = 0.05):
        self.interval_s = interval_s
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        reference_work()
        ended = time.perf_counter()
        self.times.append((started + ended) / 2)
        self.durations.append(ended - started)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= self.interval_s:
            self.sample()

    def scaled(self, start: float, elapsed: float) -> float:
        at = bisect.bisect(self.times, start + elapsed / 2)
        nearest = self.durations[max(0, at - 1) : at + 1]
        return elapsed * self.NOMINAL_S * len(nearest) / math.fsum(nearest)

    def speed(self) -> float:
        """The host's median speed relative to nominal."""
        return self.NOMINAL_S / statistics.median(self.durations)


class Drive:
    """What one pass over a workload did, in host and simulated time.

    Host times are kept raw (``*_raw``) and, after :meth:`run`, scaled
    by the :class:`SpeedProbe` to nominal host speed.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.probe = SpeedProbe()
        # Per-operation records are compact arrays, so that the memory
        # they take barely depends on how many operations a run fits.
        self.setup_start = array("d")
        self.setup_raw = array("d")
        self.op_start = array("d")
        self.op_raw = array("d")
        self.op_units = array("q")
        self.slice_ends: list[int] = []  # op counts at which slices end
        self.setup_s = array("d")
        self.op_s = array("d")
        self.peak_rss_mib = 0.0
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.sim: list[tuple[float, object]] = []
        self.sim_span_s = 0.0
        self.counters: dict[str, float] = {}
        self.digest_counters: dict[str, float] = {}
        self.final: dict[str, float] = {}
        self.layer_body: list[list[float]] = [[], []]
        self.layer_setup: list[list[float]] = [[], []]

    # -- driving -------------------------------------------------------------------

    def setup(self, seed: int, index: int):
        """One timed set-up of round *index*."""
        self.probe.maybe_sample()
        mark = self._mark()
        started = time.perf_counter()
        rnd = self.workload.setup(seed, index)
        self.setup_raw.append(time.perf_counter() - started)
        self.setup_start.append(started)
        self._add_layers(self.layer_setup, mark)
        self.probe.sample()
        return rnd

    def run(self, seed: int, stop) -> object:
        """Set up rounds and run their operations until ``stop(self)``
        returns true at the end of a throughput slice."""
        from repro import PrismaError

        workload = self.workload
        tracer = self.tracer
        probe = self.probe
        index = 0
        while True:
            rnd = self.setup(seed, index)
            before = rnd.counters()
            sim_from = _sim_now(rnd)
            done = False
            for op in rnd.ops():
                in_digest = self.attempted < workload.digest_ops
                self.attempted += 1
                if tracer is not None:
                    tracer.op_id = self.attempted
                probe.maybe_sample()
                mark = self._mark()
                started = time.perf_counter()
                try:
                    outcome = op.run()
                except PrismaError:
                    self.failed += 1
                    continue
                elapsed = time.perf_counter() - started
                self._add_layers(self.layer_body, mark)
                sim_latency, units, detail = op.check(outcome)
                self.op_start.append(started)
                self.op_raw.append(elapsed)
                self.op_units.append(units)
                self.units += units
                if in_digest:
                    self.sim.append((sim_latency, detail))
                    if self.attempted == workload.digest_ops:
                        self.sim_span_s += _sim_now(rnd) - sim_from
                        _accumulate(self.digest_counters, before, rnd.counters())
                if self.attempted % workload.slice_ops == 0:
                    self.slice_ends.append(len(self.op_raw))
                    if stop(self):
                        done = True
                        break
            after = rnd.counters()
            if self.attempted < workload.digest_ops:
                self.sim_span_s += _sim_now(rnd) - sim_from
                _accumulate(self.digest_counters, before, after)
            _accumulate(self.counters, before, after)
            self.final = after
            # Before the oracle runs: its own data is not the program's.
            self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            rnd.verify()
            if done:
                probe.sample()
                self.setup_s = array("d", map(probe.scaled, self.setup_start, self.setup_raw))
                self.op_s = array("d", map(probe.scaled, self.op_start, self.op_raw))
                return rnd
            # The finished round's database is garbage now; collect it
            # here rather than in the middle of a timed operation.
            del rnd
            gc.collect()
            index += 1

    def slice_rates(self) -> list[float]:
        """Units per (scaled) second of program time, per whole slice."""
        rates = []
        begin = 0
        for end in self.slice_ends:
            rates.append(sum(self.op_units[begin:end]) / math.fsum(self.op_s[begin:end]))
            begin = end
        return rates

    def _mark(self):
        if self.tracer is None:
            return None
        return self.tracer.self_times(), list(self.tracer.calls)

    def _add_layers(self, into, mark) -> None:
        if mark is None:
            return
        self_s, calls = mark
        now_self, now_calls = self._mark()
        if not into[0]:
            into[0] = [0.0] * len(self_s)
            into[1] = [0] * len(calls)
        for i in range(len(self_s)):
            into[0][i] += now_self[i] - self_s[i]
            into[1][i] += now_calls[i] - calls[i]

    # -- results --------------------------------------------------------------------

    def sim_metrics(self) -> dict[str, object]:
        latencies = sorted(latency for latency, _detail in self.sim)
        total = math.fsum(latencies)
        wait = self.digest_counters.get("admission_wait_s", 0.0)
        return {
            "sim.op_p50_ms": _nearest_rank(latencies, 50.0) * 1e3,
            "sim.op_p99_ms": _nearest_rank(latencies, 99.0) * 1e3,
            "sim.makespan_s": self.sim_span_s,
            "sim.admission_wait_share": wait / total if total > 0 else 0.0,
            "sim.digest": hashlib.sha256(repr(self.sim).encode()).hexdigest(),
        }


def _sim_now(rnd) -> float:
    if rnd.db is not None:
        return rnd.db.simulated_time()
    return rnd.network.loop.now


def _accumulate(into: dict, before: dict, after: dict) -> None:
    for key in after:
        into[key] = into.get(key, 0) + after[key] - before.get(key, 0)


def _nearest_rank(ordered: list[float], pct: float) -> float:
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def tail(op_s: list[float], preferred: float) -> tuple[float, float]:
    """The highest percentile, from ``preferred`` down, that leaves at
    least ten samples beyond it: returns ``(pct, seconds)``."""
    ordered = sorted(op_s)
    for pct in TAIL_LADDER:
        if pct > preferred:
            continue
        rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return 50.0, _nearest_rank(ordered, 50.0)


# ---------------------------------------------------------------------------
# The two kinds of run.
# ---------------------------------------------------------------------------


def timed_run(workload, seed: int, seconds: float) -> tuple[dict, dict, Drive]:
    """End-to-end metrics in host time, with nothing added to the program."""
    drive = Drive(workload)
    for _ in range(workload.extra_setups):
        drive.setup(seed, 0)
        gc.collect()
    deadline = time.perf_counter() + seconds
    last = drive.run(
        seed,
        lambda d: time.perf_counter() >= deadline and d.attempted >= workload.min_ops,
    )
    extra = workload.finish(last)
    tail_pct, tail_s = tail(drive.op_s, workload.tail_pct)
    metrics = {
        "setup_s": (statistics.median(drive.setup_s), "s"),
        "ops_per_s": (statistics.median(drive.slice_rates()), "ops/s"),
        "op_p50_ms": (statistics.median(drive.op_s) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mib": (drive.peak_rss_mib, "MiB"),
    }
    info = {
        "op_tail_pct": tail_pct,
        "op_samples": len(drive.op_s),
        "setup_samples": len(drive.setup_s),
        "throughput_slices": len(drive.slice_ends),
        "host_speed": drive.probe.speed(),
        "raw_setup_s": statistics.median(drive.setup_raw),
        "raw_op_p50_ms": statistics.median(drive.op_raw) * 1e3,
        "op_fail_ratio": _ratio(drive.failed, drive.attempted),
        **extra,
    }
    return metrics, info, drive


def traced_run(workload, seed: int, trace_path=None) -> tuple[dict, dict, Drive]:
    """Per-layer metrics: the first ``digest_ops`` operations, plain and
    then under the layer tracer (its spans go to *trace_path*)."""
    from layertrace import LayerTracer

    def first_ops(d: Drive) -> bool:
        return d.attempted >= workload.digest_ops

    plain = Drive(workload)
    plain.run(seed, first_ops)
    gc.collect()
    tracer = LayerTracer()
    drive = Drive(workload, tracer)
    with tracer:
        last = drive.run(seed, first_ops)
    extra = workload.finish(last)
    layers = tracer.layer_names
    # Self times scale to nominal host speed like the spans around them.
    traced_s = math.fsum(drive.op_s)
    body_scale = traced_s / math.fsum(drive.op_raw)
    setup_scale = math.fsum(drive.setup_s) / math.fsum(drive.setup_raw)
    body_self = [self_s * body_scale for self_s in drive.layer_body[0]]
    body_calls = drive.layer_body[1]
    setup_self = [self_s * setup_scale for self_s in drive.layer_setup[0]]
    units = drive.units
    c = drive.counters
    metrics: dict[str, tuple[float, str]] = {}
    for i, layer in enumerate(layers):
        metrics[f"{layer}.self_us_per_op"] = (_ratio(body_self[i], units) * 1e6, "us")
        metrics[f"{layer}.calls_per_op"] = (_ratio(body_calls[i], units), "count")
        metrics[f"{layer}.setup_self_s"] = (setup_self[i] / len(drive.setup_s), "s")
    f = drive.final
    metrics.update({
        "storage.bytes_per_user_byte": (_ratio(f.get("storage_bytes", 0), f.get("user_bytes_stored", 0)), "ratio"),
        "serve.plan_cache_hit_ratio": (_ratio(c.get("plan_hits", 0), c.get("plan_lookups", 0)), "ratio"),
        "serve.plan_cache_evictions": (c.get("plan_evictions", 0), "count"),
        "serve.admission_delayed_ratio": (_ratio(c.get("delayed", 0), c.get("admitted", 0)), "ratio"),
        "core.messages_per_op": (_ratio(c.get("messages", 0), units), "count"),
        "core.bytes_per_op": (_ratio(c.get("bytes", 0), units), "B"),
        "core.lock_waits": (c.get("lock_conflicts", 0), "count"),
        "core.deadlocks": (c.get("deadlocks", 0), "count"),
        "core.restart_host_s": (extra.get("restart_host_s", 0.0), "s"),
        "pool.processes_per_op": (_ratio(c.get("processes", 0), units), "count"),
        "exec.rows_examined_per_row_returned": (_ratio(c.get("tuples", 0), c.get("rows_returned", 0)), "ratio"),
        "exec.expr_cache_hit_ratio": (
            _ratio(c.get("expr_hits", 0), c.get("expr_hits", 0) + c.get("expr_compilations", 0)),
            "ratio",
        ),
        "ofm.wal_bytes_per_user_byte": (_ratio(c.get("wal_bytes", 0), c.get("user_bytes_written", 0)), "ratio"),
        "machine.events_per_packet": (_ratio(c.get("events", 0), c.get("packets_delivered", 0)), "count"),
        "machine.mean_hops": (_ratio(c.get("hops", 0), c.get("packets_delivered", 0)), "count"),
        "machine.dropped_ratio": (
            _ratio(c.get("packets_dropped", 0), c.get("packets_delivered", 0) + c.get("packets_dropped", 0)),
            "ratio",
        ),
        "trace.overhead_ratio": (_ratio(traced_s, math.fsum(plain.op_s)), "ratio"),
    })
    body_total = math.fsum(body_self)
    info = {
        "traced_body_s": traced_s,
        "untraced_body_s": math.fsum(plain.op_s),
        "layer_self_sum_s": body_total,
        "body_shares": {layer: round(_ratio(body_self[i], body_total), 4) for i, layer in enumerate(layers)},
        "setup_shares": {
            layer: round(_ratio(setup_self[i], math.fsum(setup_self)), 4) for i, layer in enumerate(layers)
        },
        "plain_sim_digest": plain.sim_metrics()["sim.digest"],
        "spans_kept": len(tracer.spans),
        **extra,
    }
    if trace_path is not None:
        tracer.write_chrome_trace(trace_path)
    return metrics, info, drive


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS, OracleMismatch

    args = parse_args(argv)
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
            metrics, info, drive = traced_run(workload, args.seed, trace_path)
        else:
            metrics, info, drive = timed_run(workload, args.seed, args.seconds)
        sim = drive.sim_metrics()
        correct = True
        problems = []
        if args.trace:
            if info["plain_sim_digest"] != sim["sim.digest"]:
                problems.append("tracing changed the simulated results")
            if info["layer_self_sum_s"] > info["traced_body_s"]:
                problems.append("per-layer self time exceeds the traced wall time")
        correct = not problems
    except OracleMismatch as mismatch:
        print(f"perfbench: oracle mismatch on {args.workload}: {mismatch}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "sim": sim,
        "info": info,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True)
    )
    print(f"== perfbench {args.workload} seed={args.seed} trace={args.trace} ==")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>14.6g} {unit}")
    for name, value in {**sim, **info}.items():
        print(f"{name:40s} {value}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": drive.attempted,
                "failed": drive.failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
