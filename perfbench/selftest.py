#!/usr/bin/env python3
"""Self-test of the benchmark harness on a seconds-long smoke config.

Usage, from the root of a qslab checkout:

    python3 perfbench/selftest.py

Checks that an untraced run emits every end-to-end metric of BENCHMARK.json
and a traced run every per-layer metric, each with its unit; that the gate
passes the smoke run against a reference taken from that run; and that a
perturbed reference, and a Ramsey estimate far outside its standard error,
make the gate fail; and that the tracer reports a missing function as absent
and wraps a name another module imported directly.  Exits 0 when every check
holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import time

import gate
import run
import tracer
from workloads import SMOKE

ALL_FIELDS = ("e_Er", "de_Er", "xi_spectral", "abs_A", "curves")


def check(condition: bool, message: str, failures: list) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {message}")
    if not condition:
        failures.append(message)


def emitted(report: dict, declared: list[dict]) -> bool:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit) in report["metrics"].items()}
    return got == want


def main() -> int:
    failures: list[str] = []
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        report = run.measure(SMOKE, None, None, seed=1, seconds=1.0, trace=trace)
        check(report["correct"] and report["failed"] == 0,
              f"smoke run (trace {int(trace)}) passes the gate", failures)
        check(emitted(report, bench[key]),
              f"trace {int(trace)} emits every {key} metric with its unit", failures)

    result, out_dir, tmp = run.spawn("run", SMOKE, 1, time.monotonic() + 120.0)
    try:
        points = result["points"]
        reference = gate.extract_reference(str(out_dir), points, curves=True)

        def failed(ref):
            checks = gate.compare_reference(str(out_dir), ref, points, ALL_FIELDS)
            return sorted(label for label, why in checks.items() if why)

        check(failed(reference) == [], "the gate passes the run's own reference", failures)
        label = gate.point_label(*points[0])
        for what, perturb in (
                ("e_Er by 1e-6 relative", lambda p: p.update(e_Er=p["e_Er"] * (1 + 1e-6))),
                ("de_Er by 1e-6 relative", lambda p: p.update(de_Er=p["de_Er"] * (1 + 1e-6))),
                ("xi_spectral by 1e-4 relative",
                 lambda p: p.update(xi_spectral=p["xi_spectral"] * (1 + 1e-4))),
                ("one abs_A sample by 1e-8", lambda p: p["abs_A"].__setitem__(5, p["abs_A"][5] + 1e-8))):
            ref = copy.deepcopy(reference)
            perturb(ref["points"][label])
            check(failed(ref) == [label], f"a reference {what} fails {label}", failures)
        ref = copy.deepcopy(reference)
        ref["curves"][0][2] *= 1 + 1e-6
        check(failed(ref) == ["curve_0"], "a perturbed curve row fails curve_0", failures)

        rep = gate._read_json(str(out_dir / label / "report.json"))
        est = {"e_Er": rep["e_Er"], "e_err_Er": 1e-3,
               "de_Er": rep["de_Er"] + 10 * 1e-3, "de_err_Er": 1e-3}
        check(bool(gate._estimates(est, rep)),
              "an estimate 10 standard errors off fails", failures)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    sys.path.insert(0, str(run.SRC))
    from qslab import dynamics, eigensolve
    reconstruct = dynamics.reconstruct
    del dynamics.reconstruct
    try:
        probe = tracer.Tracer()
        probe.install()
    finally:
        dynamics.reconstruct = reconstruct
    check(probe.absent == ["dynamics.reconstruct"],
          "a function missing from the program is reported as absent", failures)
    check(dynamics.single_site_eigenstates is eigensolve.single_site_eigenstates
          and hasattr(dynamics.single_site_eigenstates, "__wrapped__"),
          "a name imported into another module is wrapped there too", failures)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
