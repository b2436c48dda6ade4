"""Command-line entry points: scan, point, bands, qubit, report."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import eigensolve, qsl, scan
from .model import LatticeModel


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML configuration file")
    parser.add_argument("--out", help="output directory")


def _build_config(args) -> scan.ScanConfig:
    cfg = scan.load_config(args.config) if args.config else scan.ScanConfig()
    overrides = {}
    if args.out:
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
    if args.dx is not None:
        point = [(args.n, args.dx)]
    elif cfg.state_point is not None:
        point = [cfg.state_point]
    else:
        point = [cfg.points[0]]
    cfg = replace(cfg, points=tuple(point), curves=False)
    summary = scan.run_scan(cfg)
    if summary["points_failed"]:    # a failed point has no report, only its failure record
        with open(os.path.join(cfg.out_dir, "failures.json"), "r", encoding="utf-8") as fh:
            print(fh.read().rstrip(), file=sys.stderr)
        return 1
    label = f"n{point[0][0]}_dx{point[0][1]:.4f}"
    with open(os.path.join(cfg.out_dir, label, "report.json"), "r", encoding="utf-8") as fh:
        print(fh.read().rstrip())
    return 0 if summary["bound_violations"] == 0 else 1


def cmd_bands(args) -> int:
    cfg = _build_config(args)
    model = LatticeModel(params=cfg.params, constants=cfg.constants)
    bands = eigensolve.band_structure(model, args.n_bands, args.q_points)
    out_dir = cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    rows = [(b.band_index, q, e) for b in bands
            for q, e in zip(b.quasimomenta, b.energies)]
    scan.write_csv(os.path.join(out_dir, "bands.csv"), ["band", "q", "energy_Er"], rows)
    eig = eigensolve.decompose(model.potential("down"), model.grid)
    scan.write_csv(os.path.join(out_dir, "energies.csv"), ["index", "energy_Er"],
                   list(enumerate(eig.energies[: args.n_levels])))
    hertz = model.recoil.hertz
    print(json.dumps({
        "bandwidths_Er": [b.bandwidth for b in bands],
        "tunneling_times_s": [b.tunneling_time_s(hertz) for b in bands],
    }, indent=2))
    return 0


def cmd_qubit(args) -> int:
    cfg = _build_config(args)
    model = LatticeModel(params=cfg.params, constants=cfg.constants)
    omega = model.homega
    rows = []
    for zeta in np.linspace(args.zeta_min, args.zeta_max, args.count):
        qb = qsl.qubit_model(zeta, omega)
        rows.append((zeta, qb.e, qb.de, qb.xi))
    os.makedirs(cfg.out_dir, exist_ok=True)
    scan.write_csv(os.path.join(cfg.out_dir, "qubit.csv"),
                   ["zeta", "e_Er", "de_Er", "xi"], rows)
    print(f"wrote {os.path.join(cfg.out_dir, 'qubit.csv')}")
    return 0


def cmd_report(args) -> int:
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
    p_point.add_argument("--n", type=int, default=0, help="packet shape (nodes)")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
