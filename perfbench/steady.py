"""Steadiness check: run workloads repeatedly and report each metric's spread.

Runs ``run.py`` once per seed, one run at a time, and prints per metric the
median, the quartiles and the spread (third minus first quartile, as a
share of the median) next to the metric's bound from BENCHMARK.json.  A
spread should stay below a third of its bound (setup_s is not held to
this).  ``--against`` compares the medians with an earlier ``--out`` file
and flags any metric that got worse by more than its bound.

    python3 perfbench/steady.py --workload natural-timd --seeds 1-10 --out a.json
    python3 perfbench/steady.py --workload natural-timd --seeds 11-20 --against a.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result here as JSON")
    parser.add_argument("--against", help="an earlier --out file to compare medians with")
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in BENCHMARK["workloads"]]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text(encoding="utf-8")) if args.against else {}
    runs: dict[str, list[dict]] = {}
    steady = True
    for workload in workloads:
        runs[workload] = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
            steady &= result["correct"]
        print(f"\n{workload}: {len(seeds)} runs of {args.seconds} s")
        print(f"  {'metric':32s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
        for name in runs[workload][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            median, q1, q3, share = spread(values)
            spec = bounds.get(name)
            line = f"  {name:32s} {median:14.6g} {q1:14.6g} {q3:14.6g} {share:8.2%}"
            if spec:
                line += f" {spec['bound']:6.2f}"
                if name != "setup_s" and share >= spec["bound"] / 3:
                    line += "  SPREAD ABOVE A THIRD OF BOUND"
                    steady = False
                before = earlier.get(workload)
                if before:
                    old = statistics.median(r["metrics"][name]["value"] for r in before)
                    change = (median - old) / old if spec["better"] == "lower" else (old - median) / old
                    line += f"  vs earlier {old:.6g} ({change:+.2%} worse)"
                    if change > spec["bound"]:
                        line += "  WORSE THAN BOUND"
                        steady = False
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(runs) + "\n", encoding="utf-8")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
