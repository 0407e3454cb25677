"""Compare two result files written by sweep.py.

    python3 bench/compare.py bench/results/base.json bench/results/change.json

For every workload and end-to-end metric, prints both medians, the change
of the second against the first, and whether the medians agree within the
metric's bound in BENCHMARK.json (|change| <= bound). A change in the
better direction beyond the bound is shown as "better", in the worse
direction as "WORSE". The share of failed operations must be the same in
both files. Exits 1 when anything disagrees, and 2 when the files do not
hold the same workloads.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sweep result files.")
    parser.add_argument("first")
    parser.add_argument("second")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in config["end_to_end"]}
    a, b = (json.loads(Path(p).read_text()) for p in (args.first, args.second))
    for key in ("python", "cpu_count", "run_seconds"):
        if a.get(key) != b.get(key):
            print(f"note: {key} differs: {a.get(key)} vs {b.get(key)}")
    if set(a["workloads"]) != set(b["workloads"]):
        print(f"the files hold different workloads: {sorted(a['workloads'])} "
              f"vs {sorted(b['workloads'])}", file=sys.stderr)
        return 2
    agree = True
    for workload in sorted(a["workloads"]):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        if not (wa["correct"] and wb["correct"]):
            print(f"{workload}: a run reported wrong outputs")
            agree = False
        shares = (sorted(set(wa["failed_share"])), sorted(set(wb["failed_share"])))
        if shares[0] != shares[1]:
            print(f"{workload}: failed share differs: {shares[0]} vs {shares[1]}")
            agree = False
        for name, spec in metrics.items():
            ma, mb = wa["metrics"][name]["median"], wb["metrics"][name]["median"]
            change = (mb - ma) / ma
            worse = change > 0 if spec["better"] == "lower" else change < 0
            if abs(change) <= spec["bound"]:
                verdict = "agree"
            else:
                verdict = "WORSE" if worse else "better"
                agree = False
            print(f"{workload:14} {name:12} {ma:14.6g} {mb:14.6g} {change:+8.2%} "
                  f"(bound {spec['bound']:.0%}) {verdict}")
    print("medians agree within the bounds" if agree else "medians do NOT all agree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
