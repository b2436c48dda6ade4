#!/usr/bin/env python3
"""Run every BENCHMARK.json workload on several seeds and record the numbers.

Usage, from the root of a qslab checkout:

    python3 perfbench/collect.py --label <label> [--seeds 10] [--first-seed 1]
                                 [--workload NAME ...] [--traced 1]

Runs `run.py` as BENCHMARK.json's command does, once per workload and seed
with --trace 0 (workloads interleaved), then --traced times per workload
with --trace 1.  For every end-to-end metric it prints the median, the
quartiles and their distance as a share of the median beside the metric's
bound, and writes everything, with the environment, to
perfbench/results/BENCH_<label>.json.
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


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"result": json.loads(lines[-1]), "report": json.loads(lines[-2])["report"],
            "seed": seed}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "iqr_over_median": (q3 - q1) / median if median else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--traced", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            runs[workload].append(run_once(bench, workload, seed, 0))
            res = runs[workload][-1]["result"]
            print(f"{workload} seed {seed}: correct {res['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
    traced = {w: [run_once(bench, w, 1000 + i, 1) for i in range(args.traced)]
              for w in workloads}

    record = {"label": args.label, "benchmark": bench,
              "environment": runs[workloads[0]][0]["report"]["environment"], "workloads": {}}
    ok = True
    for workload in workloads:
        entry = record["workloads"][workload] = {
            "correct": all(r["result"]["correct"] for r in runs[workload] + traced[workload]),
            "attempted": sum(r["result"]["attempted"] for r in runs[workload]),
            "failed": sum(r["result"]["failed"] for r in runs[workload]),
            "end_to_end": {}, "per_layer": [r["result"]["metrics"] for r in traced[workload]],
            "runs": [{"seed": r["seed"], "metrics": r["result"]["metrics"],
                      "stats": r["report"]["stats"]} for r in runs[workload]],
        }
        ok &= entry["correct"]
        print(f"\n{workload}: correct {entry['correct']}, attempted {entry['attempted']}, "
              f"failed {entry['failed']}")
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs[workload]]
            stats = entry["end_to_end"][metric["name"]] = spread(values)
            within = stats["iqr_over_median"] is not None and (
                metric["name"] == "setup_s" or stats["iqr_over_median"] <= metric["bound"] / 3)
            print(f"  {metric['name']:<12} median {stats['median']:.6g} {metric['unit']}  "
                  f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                  f"iqr/median {stats['iqr_over_median']:.4f}  bound {metric['bound']}"
                  f"{'' if within else '  ABOVE A THIRD OF THE BOUND'}")
    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
