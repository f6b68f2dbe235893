"""Run the benchmark over several seeds and summarise it as a baseline.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --label NAME --seeds 1-10 --seconds 20 \\
        [--workloads kernel,graded] [--out perfbench/baseline.json]

For each workload, one untraced run per seed gives each end-to-end metric's
median, quartiles (``statistics.quantiles(values, n=4)``) and spread, the
distance between the quartiles as a share of the median.  Two traced runs,
on the first two seeds, give the per-layer metrics; every count must
repeat exactly between them, or the script exits 1.  Runs go one at a
time.  Without ``--out`` the summary is printed only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from spans import COUNT_METRICS, RATIO_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: incorrect\n{proc.stdout}")
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "n": len(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    names = list(json.loads((HERE / "workloads.json").read_text()))
    if args.workloads:
        names = args.workloads.split(",")
    summary = {
        "label": args.label,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "run_seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    status = 0
    for name in names:
        runs = [run(name, seed, args.seconds, 0) for seed in seeds]
        end_to_end = {
            metric: summarise([r["metrics"][metric]["value"] for r in runs])
            for metric in runs[0]["metrics"]
        }
        for metric, s in end_to_end.items():
            print(f"{name} {metric}: median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}",
                  flush=True)
        traced = [run(name, seed, args.seconds, 1) for seed in seeds[:2]]
        layers = [t["metrics"] for t in traced]
        unsteady = [m for m in COUNT_METRICS + RATIO_METRICS
                    if len({json.dumps(l[m]) for l in layers}) > 1]
        if unsteady:
            print(f"{name}: counts differ between traced runs: {unsteady}")
            status = 1
        summary["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer": {m: [l[m]["value"] for l in layers] for m in layers[0]},
        }
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
