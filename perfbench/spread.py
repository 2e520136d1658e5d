#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json bounds.

    python3 perfbench/spread.py --workload broadcast --runs 10 [--first-seed 1]
    python3 perfbench/spread.py --all --runs 10

Runs perfbench/run.py --trace 0 once per seed (first-seed, first-seed+1,
...), then prints, per end-to-end metric, the median and the interquartile
range as a share of the median (statistics.quantiles(values, n=4)), next
to the metric's bound. A spread at or above a third of its bound is marked
"wide", one above the bound "OVER" (setup_s is exempt from the bound but
still listed). Exits non-zero if any run failed or was incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]] if args.all else [args.workload]
    ok = True
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            res = run_once(workload, args.first_seed + i, bench["run_seconds"])
            ok &= bool(res["correct"])
            print(f"{workload} seed {args.first_seed + i}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: {args.runs} runs")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med, iqr = spread(vals)
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                mark = "OVER" if iqr > bound else ("wide" if iqr >= bound / 3 else "ok")
            print(f"  {name:<20} median {med:>14.6g}  iqr/median {iqr:8.4f}  "
                  f"bound {bound}  {mark}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
