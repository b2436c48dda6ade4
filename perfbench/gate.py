"""Correctness gate for one run_scan call's artifacts.

An operation is a scan point (labelled as its artifact directory), or a
reference-curve displacement (curve_<i>, the i-th block of fig3_curves.csv)
when the run writes curves.  Every check returns failure reasons per operation;
an operation with no reason passed.

Checks on every run:
  * the point is not in failures.json and its estimates carry no *_error key;
  * the paper's invariants on report.json: min_margin >= -MARGIN_TOL,
    xi_spectral >= 0, regime ML exactly when de > e, and
    tau_c = tau_mt^2 / tau_ml wherever tau_c is defined;
  * with the experiment estimator, the E and dE estimates lie within
    RAMSEY_SIGMAS of their own standard errors of the exact values.
Against the reference recorded from scan-exact (reference/scan-exact.json),
per workload as workloads.GATES names: e_Er, de_Er, xi_spectral, the trace's
abs_A and the fig3_curves.csv rows.
"""

from __future__ import annotations

import csv
import json
import math
import os

MARGIN_TOL = 1e-9          # qsl.BOUND_MARGIN_TOL at the reference commit
TAU_C_RTOL = 1e-9
# Loose enough for an exact change of eigensolver (measured: |dA| ~ 2e-14,
# dE ~ 4e-12, spectral-tail truncation below 1e-15 of the population), tight
# enough that any change of the physics fails: a 1e-6 change of the lattice
# depth moves E by ~5e-7 relative.
REFERENCE_RTOL = {"e_Er": 1e-8, "de_Er": 1e-8, "xi_spectral": 1e-5, "curves": 1e-8}
ABS_A_ATOL = 1e-10
# The dE estimate is biased by about -1.3 of its standard errors (short-time
# polynomial fit); 6 keeps a false failure below ~1e-6 per check for any seed.
RAMSEY_SIGMAS = 6.0
CURVE_SHAPES = 3            # n = 0, 1, 2 rows per curve displacement


def point_label(n: int, dx: float) -> str:
    return f"n{n}_dx{dx:.4f}"


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(value, expected, rtol) -> bool:
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - expected) <= rtol * max(abs(expected), 1e-300))


def _invariants(rep: dict) -> list[str]:
    reasons = []
    if not rep["min_margin"] >= -MARGIN_TOL:
        reasons.append(f"bound violated: min_margin {rep['min_margin']!r}")
    if rep["xi_spectral"] is not None and not rep["xi_spectral"] >= 0.0:
        reasons.append(f"xi_spectral {rep['xi_spectral']!r} < 0")
    expected_regime = "ML" if rep["de_Er"] > rep["e_Er"] else "MT"
    if rep["regime"] != expected_regime:
        reasons.append(f"regime {rep['regime']!r} with de={rep['de_Er']!r}, e={rep['e_Er']!r}")
    tau_c = rep["tau_c_us"]
    if (tau_c is not None) != (expected_regime == "ML"):
        reasons.append(f"tau_c {tau_c!r} defined outside the ML regime or missing in it")
    elif tau_c is not None and not _close(tau_c, rep["tau_mt_us"] ** 2 / rep["tau_ml_us"],
                                          TAU_C_RTOL):
        reasons.append(f"tau_c {tau_c!r} != tau_mt^2/tau_ml")
    return reasons


def _estimates(est: dict, rep: dict) -> list[str]:
    reasons = [f"estimate error {key}: {value}" for key, value in est.items()
               if key.endswith("_error")]
    for key, err_key in (("e_Er", "e_err_Er"), ("de_Er", "de_err_Er")):
        if key not in est or err_key not in est:
            reasons.append(f"estimate {key} missing")
        elif not abs(est[key] - rep[key]) <= RAMSEY_SIGMAS * est[err_key]:
            reasons.append(f"estimate {key} {est[key]!r} +- {est[err_key]!r} is more than "
                           f"{RAMSEY_SIGMAS} standard errors from {rep[key]!r}")
    return reasons


def check_run(out_dir: str, points, curve_points: int) -> dict[str, list[str]]:
    """Failure reasons for every operation of one run_scan call."""
    ops = {point_label(n, dx): [] for n, dx in points}
    failures_path = os.path.join(out_dir, "failures.json")
    if os.path.exists(failures_path):
        for failure in _read_json(failures_path):
            ops.setdefault(failure["point"], []).append(f"failed: {failure['error']}")
    for label, reasons in ops.items():
        pdir = os.path.join(out_dir, label)
        try:
            rep = _read_json(os.path.join(pdir, "report.json"))
            reasons.extend(_invariants(rep))
            est_path = os.path.join(pdir, "estimates.json")
            if os.path.exists(est_path):
                reasons.extend(_estimates(_read_json(est_path), rep))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reasons.append(f"unreadable report: {exc!r}")
    if curve_points:
        ops.update(_check_curves(out_dir, curve_points))
    return ops


def curve_rows(out_dir: str) -> list[list[float]]:
    return [[float(row[k]) for k in ("n", "dx", "inv_tau_ml", "inv_tau_mt")]
            for row in _read_csv(os.path.join(out_dir, "fig3_curves.csv"))]


def _check_curves(out_dir: str, curve_points: int) -> dict[str, list[str]]:
    try:
        rows = curve_rows(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return {f"curve_{i}": [f"unreadable fig3_curves.csv: {exc!r}"]
                for i in range(curve_points)}
    ops = {}
    for i in range(curve_points):
        group = rows[i * CURVE_SHAPES:(i + 1) * CURVE_SHAPES]
        ok = len(group) == CURVE_SHAPES and all(
            math.isfinite(v) and v > 0 for row in group for v in row[2:])
        ops[f"curve_{i}"] = [] if ok else ["missing or non-positive curve rows"]
    return ops


def extract_reference(out_dir: str, points, curves: bool) -> dict:
    """The values compare_reference checks, read from one run's artifacts."""
    ref = {"points": {}}
    for n, dx in points:
        label = point_label(n, dx)
        rep = _read_json(os.path.join(out_dir, label, "report.json"))
        trace = _read_csv(os.path.join(out_dir, label, "trace.csv"))
        ref["points"][label] = {"e_Er": rep["e_Er"], "de_Er": rep["de_Er"],
                                "xi_spectral": rep["xi_spectral"],
                                "abs_A": [float(row["abs_A"]) for row in trace]}
    if curves:
        ref["curves"] = curve_rows(out_dir)
    return ref


def compare_reference(out_dir: str, reference: dict, points, fields,
                      rtol: float | None = None) -> dict[str, list[str]]:
    """Failure reasons per operation against a recorded reference.

    fields names what is compared: any of e_Er, de_Er, xi_spectral (relative,
    REFERENCE_RTOL or rtol), abs_A (absolute, ABS_A_ATOL) and curves.
    """
    ops = {}
    for n, dx in points:
        label = point_label(n, dx)
        reasons = ops[label] = []
        expected = reference["points"].get(label)
        if expected is None:
            reasons.append("point missing from the reference")
            continue
        try:
            rep = _read_json(os.path.join(out_dir, label, "report.json"))
            for key in ("e_Er", "de_Er", "xi_spectral"):
                tol = rtol or REFERENCE_RTOL[key]
                if key in fields and not _close(rep[key], expected[key], tol):
                    reasons.append(f"{key} {rep[key]!r} differs from reference "
                                   f"{expected[key]!r} by more than {tol:g} relative")
            if "abs_A" in fields:
                abs_a = [float(row["abs_A"])
                         for row in _read_csv(os.path.join(out_dir, label, "trace.csv"))]
                dev = max((abs(a - b) for a, b in zip(abs_a, expected["abs_A"])),
                          default=math.inf)
                if len(abs_a) != len(expected["abs_A"]) or not dev <= ABS_A_ATOL:
                    reasons.append(f"abs_A differs from reference by {dev:.3g}")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reasons.append(f"unreadable artifacts: {exc!r}")
    if "curves" in fields:
        expected_rows = reference["curves"]
        try:
            rows = curve_rows(out_dir)
        except (OSError, ValueError, KeyError):
            rows = []
        for i in range(0, len(expected_rows), CURVE_SHAPES):
            group = expected_rows[i:i + CURVE_SHAPES]
            got = rows[i:i + CURVE_SHAPES]
            same = len(got) == len(group) and all(
                a[:2] == b[:2] and all(_close(x, y, REFERENCE_RTOL["curves"])
                                       for x, y in zip(a[2:], b[2:]))
                for a, b in zip(got, group))
            ops[f"curve_{i // CURVE_SHAPES}"] = [] if same else [
                "curve rows differ from reference"]
    return ops


def merge(*checks: dict[str, list[str]]) -> dict[str, list[str]]:
    merged: dict[str, list[str]] = {}
    for check in checks:
        for label, reasons in check.items():
            merged.setdefault(label, []).extend(reasons)
    return merged
