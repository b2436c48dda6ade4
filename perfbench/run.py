#!/usr/bin/env python3
"""qslab benchmark: one workload, measured for a fixed time, outputs checked.

Usage, from the root of a qslab checkout:

    python3 perfbench/run.py --workload scan-exact --seed 1 --seconds 45 --trace 0

Each operation is one `qslab.scan.run_scan` call on the workload's config, in
a fresh child interpreter (child.py), one child at a time: a closed loop with
one client.  The run keeps starting operations while the next is expected to
end within --seconds; it always makes at least one.  Set-up is measured
separately by SETUP_SAMPLES children that only import qslab and build the
config, after one warm-up child whose figure is dropped.

--trace 0 prints the end-to-end metrics, medians over the run's operations.
--trace 1 alternates untraced and traced operations (at least one of each)
and prints the per-layer metrics of the traced ones; trace.overhead_s is the
traced wall time minus the untraced median.

Every operation's artifacts pass through the correctness gate (gate.py).
Output: a table of medians and quartiles, a `{"report": ...}` line with the
environment and every sample, and, last, the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run exits with code 2, printing no result, when the qslab sources are not
in the checkout or cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import tracer
from workloads import GATES, WORKLOADS, config_dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference" / "scan-exact.json"
RUN_LIMIT_S = 170.0        # a run must end within 180 s
SETUP_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class HarnessError(RuntimeError):
    """The program under test cannot be set up; no result is printed."""


def spawn(mode: str, workload: dict, seed: int, deadline: float):
    """Run child.py once; returns (child result or None, its out dir, tmp dir).

    The caller removes the tmp dir.
    """
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=WORK))
    out_dir = tmp / "out"
    spec = {"src": str(SRC), "mode": mode, "result": str(tmp / "result.json"),
            "config": config_dict(workload, seed, str(out_dir))}
    (tmp / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(tmp / "spec.json")],
                              stdout=sys.stderr, cwd=ROOT, check=False,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {mode} child timed out", file=sys.stderr)
        return None, out_dir, tmp
    result_path = tmp / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        print(f"perfbench: {mode} child exited with {proc.returncode}", file=sys.stderr)
        return None, out_dir, tmp
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["qslab_file"]).resolve().is_relative_to(SRC.resolve()):
        raise HarnessError(f"qslab was imported from {result['qslab_file']}, not from {SRC}")
    return result, out_dir, tmp


def artifact_stats(out_dir: Path) -> tuple[int, int]:
    sizes = [f.stat().st_size for f in out_dir.rglob("*") if f.is_file()]
    return sum(sizes), len(sizes)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def environment(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False, timeout=30)
        commit = proc.stdout.strip() or commit
    return {"git_commit": commit, "seed": seed, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            **{var: os.environ.get(var) for var in THREAD_VARS},
            "loop": "closed, one client, one child process at a time"}


def measure(workload: dict, gate_spec: dict | None, reference: dict | None,
            seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run operations for `seconds`, gate them; the full report."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    seeds = random.Random(seed)
    setups = []
    for i in range(SETUP_SAMPLES + 1):
        result, _, tmp = spawn("setup", workload, seed, deadline)
        shutil.rmtree(tmp, ignore_errors=True)
        if result is None:
            raise HarnessError("qslab could not be imported or configured")
        if i == 0:
            env = {**environment(seed), **result["environment"]}
            expected_ops = len(result["points"]) + result["curve_points"]
        else:
            setups.append(result["setup_s"])

    modes = ["run", "traced"] if trace else ["run"]
    ops, durations = [], []
    measure_start = time.monotonic()
    while True:
        mode = modes[len(ops) % len(modes)]
        op_seed = seeds.randrange(2**31)
        began = time.monotonic()
        result, out_dir, tmp = spawn(mode, workload, op_seed, deadline)
        try:
            op = {"mode": mode, "seed": op_seed, "child": result, "checks": None}
            if result is not None:
                points, curve_points = result["points"], result["curve_points"]
                checks = [gate.check_run(str(out_dir), points, curve_points)]
                if gate_spec is not None:
                    checks.append(gate.compare_reference(str(out_dir), reference, points,
                                                         gate_spec["fields"],
                                                         gate_spec.get("rtol")))
                op["checks"] = gate.merge(*checks)
                op["artifact_bytes"], op["artifact_files"] = artifact_stats(out_dir)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        ops.append(op)
        durations.append(time.monotonic() - began)
        now, typical = time.monotonic(), statistics.median(durations)
        if len(ops) >= len(modes) and now - measure_start + typical > seconds:
            break
        if now + typical > deadline:
            break
    return summarise(ops, setups, env, trace, expected_ops, time.monotonic() - measure_start)


def summarise(ops: list[dict], setups: list[float], env: dict, trace: bool,
              expected: int, measured_s: float) -> dict:
    """Gate counts, medians and quartiles; `expected` operations per call."""
    attempted = failed = 0
    reasons = {}
    for op in ops:
        checks = op["checks"]
        if checks is None:
            attempted, failed = attempted + expected, failed + expected
            reasons[f"seed {op['seed']}"] = ["run_scan did not complete"]
            continue
        attempted += len(checks)
        for label, why in checks.items():
            if why:
                failed += 1
                reasons[f"seed {op['seed']} {label}"] = why

    done = [op["child"] for op in ops if op["child"] is not None]
    untraced = [c for c in done if "spans" not in c]
    samples = {
        "wall_s": [c["wall_s"] for c in untraced],
        "cpu_s": [c["cpu_s"] for c in untraced],
        "peak_rss_mb": [c["peak_rss_mb"] for c in untraced],
        "setup_s": setups + [c["setup_s"] for c in done],
    }
    stats = {name: quartiles(values) + (len(values),)
             for name, values in samples.items() if values}
    metrics = {}
    if not trace:
        for name, unit in END_TO_END_UNITS.items():
            value = 1.0 - failed / attempted if name == "ok_ratio" else stats.get(name, (0.0,))[0]
            metrics[name] = (value, unit)
    else:
        traced = [(op, op["child"]) for op in ops if op["child"] and "spans" in op["child"]]
        per_op = []
        for op, child in traced:
            layer = tracer.layer_metrics(child["spans"])
            layer["scan.artifact_bytes"] = (op["artifact_bytes"], "B")
            layer["scan.artifact_files"] = (op["artifact_files"], "count")
            untraced_s = stats["wall_s"][0] if "wall_s" in stats else child["wall_s"]
            layer["trace.overhead_s"] = (child["wall_s"] - untraced_s, "s")
            per_op.append(layer)
        names = per_op[0] if per_op else {}
        metrics = {name: (statistics.median(layer[name][0] for layer in per_op), unit)
                   for name, (_, unit) in names.items()}
        env["absent_functions"] = sorted({a for _, c in traced for a in c["absent"]})
    return {
        "correct": failed == 0 and bool(done),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": reasons,
        "operations": len(ops),
        "measured_s": measured_s,
        "stats": {name: dict(zip(("median", "q1", "q3", "n"), s)) for name, s in stats.items()},
        "samples": samples,
        "metrics": metrics,
        "environment": env,
    }


def print_report(report: dict) -> None:
    print(f"{'metric':<42} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}")
    for name, s in report["stats"].items():
        print(f"{name:<42} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g} {s['n']:>4}")
    for name, (value, unit) in report["metrics"].items():
        print(f"{name:<42} {value:>14.6g} {unit}")
    print(f"operations {report['operations']}  attempted {report['attempted']}  "
          f"failed {report['failed']}  failed_ratio {report['failed_ratio']:.6g}")
    for label, why in report["failures"].items():
        print(f"FAILED {label}: {'; '.join(why)}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qslab" / "__init__.py").is_file():
        print(f"perfbench: no qslab sources under {SRC}", file=sys.stderr)
        return 2
    gate_spec = GATES.get(args.workload)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if gate_spec else None
    try:
        report = measure(WORKLOADS[args.workload], gate_spec, reference, args.seed,
                         args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report["environment"].update(workload=args.workload, seconds=args.seconds)
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
