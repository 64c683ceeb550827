"""Measure every workload over several seeds and append the result to
``trajectory.json``.

Usage (from the repository root)::

    python3 perfbench/record.py --seeds 10 --label "what changed"

For each workload it makes ``--seeds`` timed runs (seeds 1..n, one at a
time) and one traced run (seed 1), prints every end-to-end metric (median
and spread) and every per-layer metric by name and unit, and records per
end-to-end metric the median, the quartiles and the spread (interquartile
range over median), the per-layer metrics of the traced run, and
``sim.digest`` per seed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout else {}
    if done.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr}")
    report = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "report": report}


def summarize(values: list[float]) -> dict:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / middle if middle else 0.0,
        "values": values,
    }


def host() -> dict:
    model = ""
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": model or platform.processor(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def commit() -> str:
    done = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    names = [w["name"] for w in benchmark["workloads"]]
    entry = {"commit": commit(), "label": args.label, "run_seconds": seconds,
             "host": host(), "workloads": {}}
    for name in names:
        runs = [run_once(name, seed, seconds, 0) for seed in range(1, args.seeds + 1)]
        end_to_end = {
            metric["name"]: summarize(
                [run["result"]["metrics"][metric["name"]]["value"] for run in runs]
            )
            for metric in benchmark["end_to_end"]
        }
        traced = run_once(name, 1, seconds, 1)
        entry["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer_seed1": {
                key: value["value"] for key, value in traced["result"]["metrics"].items()
            },
            "body_shares_seed1": traced["report"]["info"]["body_shares"],
            "setup_shares_seed1": traced["report"]["info"]["setup_shares"],
            "sim_digest": {
                str(seed): run["report"]["sim"]["sim.digest"]
                for seed, run in enumerate(runs, start=1)
            },
        }
        for metric, summary in end_to_end.items():
            unit = runs[0]["result"]["metrics"][metric]["unit"]
            print(f"{name:10s} {metric:36s} median {summary['median']:.6g} {unit}"
                  f"  spread {summary['spread']:.3f}", flush=True)
        for metric, value in traced["result"]["metrics"].items():
            print(f"{name:10s} {metric:36s} {value['value']:.6g} {value['unit']}", flush=True)
    trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    trajectory.append(entry)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
