"""Command-line entry points: scan, point, bands, qubit, report."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import eigensolve, qsl, scan
from .errors import ParameterError
from .model import LatticeModel, recoil_hertz


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML configuration file")
    parser.add_argument("--out", help="output directory")


def _build_config(args) -> scan.ScanConfig:
    cfg = scan.load_config(args.config) if args.config else scan.ScanConfig()
    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "estimator", None):
        overrides["estimator"] = args.estimator
    return replace(cfg, **overrides) if overrides else cfg


def cmd_scan(args) -> int:
    cfg = _build_config(args)
    summary = scan.run_scan(cfg)
    print(json.dumps(summary, indent=2, sort_keys=True))
    ok = summary["points_failed"] == 0 and summary["bound_violations"] == 0
    return 0 if ok else 1


def cmd_point(args) -> int:
    cfg = _build_config(args)
    # each flag replaces its half of the state section's point, else of the first scan point
    n, dx = cfg.state_point or cfg.points[0]
    point = (n if args.n is None else args.n, dx if args.dx is None else args.dx)
    scan.check_point("--n/--dx", point)
    # only the point's own directory is written: the fig*.csv, summary.json and
    # failures.json of a scan in the same directory stay as they are
    results, failures = scan.run_points(replace(cfg, points=(point,)))
    if failures:    # a failed point has no report, only its failure record
        print(json.dumps(failures[0], sort_keys=True), file=sys.stderr)
        return 1
    (result,) = results
    with open(os.path.join(cfg.out_dir, result.label, "report.json"), "r",
              encoding="utf-8") as fh:
        print(fh.read().rstrip())
    return 1 if result.min_margin < -qsl.BOUND_MARGIN_TOL else 0


def cmd_bands(args) -> int:
    cfg = _build_config(args)
    modes = cfg.params.sites * cfg.params.points_per_site
    if not 1 <= args.n_levels <= modes:
        raise ParameterError(f"--n-levels must lie in [1, {modes}] (sites x points per "
                             f"site), got {args.n_levels}")
    model = LatticeModel(params=cfg.params)
    q, energies = eigensolve.band_structure(model, args.n_bands, args.q_points)
    out_dir = cfg.out_dir
    scan.make_out_dir(out_dir)
    scan.write_csv(os.path.join(out_dir, "bands.csv"), ["band", "q", "energy_Er"],
                   [np.repeat(np.arange(args.n_bands), q.size), np.tile(q, args.n_bands),
                    energies.T.ravel()])
    eig = eigensolve.decompose(model.depth, cfg.params.sites, cfg.params.points_per_site)
    scan.write_csv(os.path.join(out_dir, "energies.csv"), ["index", "energy_Er"],
                   [np.arange(args.n_levels), eig.spectrum[: args.n_levels]])
    widths = energies.max(axis=0) - energies.min(axis=0)
    # tunneling time tau = 2 pi hbar / bandwidth, in seconds: 1 / (bandwidth * E_R/h);
    # a definition, meaningful at order-of-magnitude level
    print(json.dumps({
        "bandwidths_Er": widths.tolist(),
        "tunneling_times_s": (1.0 / (widths * recoil_hertz(cfg.params.wavelength))).tolist(),
    }, indent=2))
    return 0


def cmd_qubit(args) -> int:
    if args.count < 1:
        raise ParameterError(f"--count must be at least 1, got {args.count}")
    cfg = _build_config(args)
    model = LatticeModel(params=cfg.params)
    omega = model.homega
    zetas = np.linspace(args.zeta_min, args.zeta_max, args.count)
    e, de, xi = qsl.qubit_moments(zetas, omega)
    scan.make_out_dir(cfg.out_dir)
    scan.write_csv(os.path.join(cfg.out_dir, "qubit.csv"), ["zeta", "e_Er", "de_Er", "xi"],
                   [zetas, e, de, xi])
    print(f"wrote {os.path.join(cfg.out_dir, 'qubit.csv')}")
    return 0


def cmd_report(args) -> int:
    if not os.path.isdir(args.dir):
        raise ParameterError(f"--dir: no scan directory {args.dir!r}")
    summary = scan.aggregate_reports(args.dir)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if summary["bound_violations"] == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qslab",
        description="Single-atom optical-lattice laboratory for quantum-speed-limit tests")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="run the full (n, dx) sweep")
    _add_common(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_point = sub.add_parser("point", help="run a single (n, dx) combination")
    _add_common(p_point)
    p_point.add_argument("--n", type=int, help="packet shape (nodes)")
    p_point.add_argument("--dx", type=float, help="displacement in lambda/2 units")
    p_point.set_defaults(func=cmd_point)
    for p_run in (p_scan, p_point):     # the verbs that run scan points
        p_run.add_argument("--seed", type=int, help="RNG seed")
        p_run.add_argument("--estimator", choices=["exact", "experiment"])

    p_bands = sub.add_parser("bands", help="band structure and tunneling times")
    _add_common(p_bands)
    p_bands.add_argument("--n-bands", type=int, default=12)
    p_bands.add_argument("--q-points", type=int, default=64)
    p_bands.add_argument("--n-levels", type=int, default=64,
                         help="lattice eigenvalues to dump")
    p_bands.set_defaults(func=cmd_bands)

    p_qubit = sub.add_parser("qubit", help="two-level reference model curve")
    _add_common(p_qubit)
    p_qubit.add_argument("--zeta-min", type=float, default=0.05)
    p_qubit.add_argument("--zeta-max", type=float, default=np.pi - 0.05)
    p_qubit.add_argument("--count", type=int, default=40)
    p_qubit.set_defaults(func=cmd_qubit)

    p_report = sub.add_parser("report", help="aggregate an existing scan directory")
    p_report.add_argument("--dir", required=True)
    p_report.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:     # bad input from a flag or the config
        print(f"qslab {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
