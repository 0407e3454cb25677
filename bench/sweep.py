"""Run the benchmark over several seeds and write one result file.

    python3 bench/sweep.py --seeds 1-10 --out bench/results/base.json

Each run is ``bench/run.py --trace 0`` with the run length of BENCHMARK.json;
runs go seed by seed, every workload of BENCHMARK.json per seed, so that a
slow spell of the machine falls on all workloads alike. The result file records the seeds,
the Python version and the CPU count, every run's result line, and per
workload and metric the median, the quartiles and the spread (quartile
distance over median). Compare two result files with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    config = load_config()
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description="Run the benchmark over seeds.")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", required=True, help="result file to write")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    runs = {w: [] for w in names}
    for seed in seeds:
        for workload in names:
            result = run_once(workload, seed, config["run_seconds"])
            runs[workload].append({"seed": seed, **result})
            shown = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
    report = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": config["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for workload, entries in runs.items():
        metrics = {}
        for name in entries[0]["metrics"]:
            values = [e["metrics"][name]["value"] for e in entries]
            metrics[name] = {"unit": entries[0]["metrics"][name]["unit"], **summarize(values)}
        report["workloads"][workload] = {
            "correct": all(e["correct"] for e in entries),
            "failed_share": [e["failed"] / e["attempted"] for e in entries],
            "metrics": metrics,
            "runs": entries,
        }
        for name, s in metrics.items():
            print(f"{workload:14} {name:12} median {s['median']:.6g} {s['unit']:5} "
                  f"spread {s['spread']:.4f} (bound {bounds.get(name)})")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
