"""Run-to-run spread of the end-to-end metrics, the basis of the bounds.

    python3 bench/spread.py --workload all --runs 10 --seconds 20

Runs bench/run.py once per seed (first-seed, first-seed + 1, ...), one run
at a time, and reports for each metric the median and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the bound BENCHMARK.json gives it. A spread under a third of
its bound is steady. The share of failed operations must be the same in
every run. Raw results go to bench/_out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    (HERE / "_out").mkdir(exist_ok=True)
    steady = True
    for workload in names if args.workload == "all" else [args.workload]:
        runs = [run_once(workload, args.first_seed + i, args.seconds)
                for i in range(args.runs)]
        (HERE / "_out" / f"spread-{workload}.json").write_text(json.dumps(runs, indent=1))
        shares = sorted({(r["failed"], r["attempted"]) for r in runs})
        share_values = {f / a for f, a in shares}
        print(f"{workload}: correct {all(r['correct'] for r in runs)}, "
              f"failed share {sorted(share_values)} from {len(runs)} runs")
        steady &= len(share_values) == 1 and all(r["correct"] for r in runs)
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < bounds[name] / 3
            steady &= ok
            print(f"  {name:<14} median {med:<12.6g} spread {spread:7.2%}  "
                  f"bound {bounds[name]:.0%}  {'steady' if ok else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
