"""Sweep orchestration, figure artifacts, determinism and the CLI."""

import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

from qslab import cli, interferometer, scan
from qslab.errors import EstimationError, ParameterError
from qslab.model import LatticeParams

from conftest import fmt_oracle

SMALL = LatticeParams(sites=9, points_per_site=32)


def small_config(tmp_path, **kw):
    defaults = dict(points=((0, 0.04), (0, 0.16)), params=SMALL,
                    out_dir=str(tmp_path / "out"), curves=False)
    defaults.update(kw)
    return scan.ScanConfig(**defaults)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_default_grid_shape():
    grid = scan.default_grid()
    assert len(grid) == 34
    assert len(set(grid)) == 34
    assert all(0.02 < dx <= 0.5 for _, dx in grid)
    assert {n for n, _ in grid} == {0, 1, 2}
    for probe in ((0, 0.04), (0, 0.08), (0, 0.16)):
        assert probe in [(n, round(dx, 10)) for n, dx in grid]


def test_scan_config_validation():
    with pytest.raises(ParameterError):
        scan.ScanConfig(points=((0, 0.1), (0, 0.1)))
    with pytest.raises(ParameterError):
        scan.ScanConfig(points=((0, 0.0),))
    with pytest.raises(ParameterError):
        scan.ScanConfig(points=((5, 0.1),))
    with pytest.raises(ParameterError):
        scan.ScanConfig(estimator="guess")


def test_config_yaml_round_trip(tmp_path):
    payload = {
        "lattice": {"wavelength_nm": 866.0, "depth_Er": 200.0,
                    "sites": 9, "points_per_site": 32},
        "state": {"n": 1, "dx_halflambda": 0.1},
        "scan": {"points": [[1, 0.1], [0, 0.2]], "estimator": "experiment",
                 "seed": 7, "out": "here", "time_points": 32,
                 "curves": False, "curve_points": 5},
        "ramsey": {"phases": 8, "atoms_per_shot": 10, "repetitions": 5,
                   "loss_fraction": 0.02, "light_shift_slope_rad_per_us": 81.0},
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(payload))
    cfg = scan.load_config(str(path))
    assert cfg.params.depth_at_zero == 200.0
    assert cfg.params.sites == 9
    assert cfg.points == ((1, 0.1), (0, 0.2))
    assert cfg.state_point == (1, 0.1)
    assert cfg.estimator == "experiment"
    assert cfg.seed == 7
    assert cfg.ramsey.phase_grid.size == 8
    assert cfg.ramsey.light_shift_slope == 81.0
    assert (cfg.time_points, cfg.curves, cfg.curve_points) == (32, False, 5)


def test_config_defaults_are_the_dataclass_defaults():
    # every default is set once, on the dataclasses; the config reader adds none
    cfg, ref = scan.config_from_dict({}), scan.ScanConfig()
    for f in dataclasses.fields(scan.ScanConfig):
        if f.name != "ramsey":
            assert getattr(cfg, f.name) == getattr(ref, f.name), f.name
    for f in dataclasses.fields(interferometer.RamseyConfig):
        assert np.array_equal(getattr(cfg.ramsey, f.name), getattr(ref.ramsey, f.name)), f.name


def test_cli_import_loads_no_scipy():
    # scipy serves only as a test oracle, and yaml only load_config; a fresh
    # interpreter shows what the command line pulls in at start-up
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    probe = ("import sys, qslab.cli; "
             "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'yaml'))))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_config_rejects_unknown_keys():
    # a lower-case typo of depth_Er used to run silently at the default 270 E_R
    with pytest.raises(ParameterError, match="lattice.depth_er"):
        scan.config_from_dict({"lattice": {"depth_er": 200.0}})
    with pytest.raises(ParameterError, match="'lattise'"):
        scan.config_from_dict({"lattise": {"sites": 9}})
    with pytest.raises(ParameterError, match="mapping"):
        scan.config_from_dict({"scan": [1, 2]})
    # a wrongly typed value names its key instead of leaking int()'s ValueError
    with pytest.raises(ParameterError, match="lattice.sites"):
        scan.config_from_dict({"lattice": {"sites": "x"}})


def test_config_rejects_non_finite_and_out_of_range_values():
    # NaN passes a "<= 0" check, and every point then failed at solve or
    # sampling time; a negative seed failed every experiment point; a
    # negative curve_points failed after every point had run
    bad = [("lattice", "wavelength_nm", "wavelength"), ("lattice", "depth_Er", "depth"),
           ("ramsey", "light_shift_slope_rad_per_us", "light-shift slope")]
    for section, key, name in bad:
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ParameterError, match=name):
                scan.config_from_dict({section: {key: value}})
    with pytest.raises(ParameterError, match="seed"):
        scan.config_from_dict({"scan": {"seed": -1}})
    for points in (0, -1):
        with pytest.raises(ParameterError, match="curve_points"):
            scan.config_from_dict({"scan": {"curve_points": points}})
    # a state without its displacement was dropped silently, and an
    # out-of-range one failed only when `qslab point` used it
    with pytest.raises(ParameterError, match="state.dx_halflambda"):
        scan.config_from_dict({"state": {"n": 2}})
    for n, dx in ((7, 0.1), (0, 0.9)):
        with pytest.raises(ParameterError, match="state"):
            scan.config_from_dict({"state": {"n": n, "dx_halflambda": dx}})


def test_time_points_fill_the_xi_fit_window(tmp_path):
    # 20 points put 5 samples in (0, 0.3 tau_MT], and every xi fit needs 6
    with pytest.raises(ParameterError, match="time_points"):
        scan.config_from_dict({"scan": {"time_points": 20}})
    for estimator in ("exact", "experiment"):
        cfg = small_config(tmp_path, out_dir=str(tmp_path / estimator), time_points=21,
                           estimator=estimator, points=((0, 0.12),))
        summary = scan.run_scan(cfg)
        assert (summary["points_completed"], summary["points_failed"]) == (1, 0)


INTEGER_KEYS = [("lattice", "sites"), ("lattice", "points_per_site"), ("state", "n"),
                ("scan", "seed"), ("scan", "time_points"), ("scan", "curve_points"),
                ("ramsey", "phases"), ("ramsey", "atoms_per_shot"), ("ramsey", "repetitions")]


@pytest.mark.parametrize("section,key", INTEGER_KEYS)
def test_config_integer_keys_do_not_truncate(section, key):
    # lattice.sites: 3.9 used to run silently at 3 sites
    for bad in (3.9, 8.7, "9", True, None):
        with pytest.raises(ParameterError, match=f"{section}.{key}"):
            scan.config_from_dict({section: {key: bad}})


def test_config_reads_integral_floats_real_booleans():
    # an integral float is the integer it spells
    sites = scan.config_from_dict({"lattice": {"sites": 9.0}}).params.sites
    assert sites == 9 and type(sites) is int
    # a point's dx is a number too: "0.1" and true (1.0) used to be read
    for point in ([0.7, 0.1], [0, "0.1"], [0, True]):
        with pytest.raises(ParameterError, match="scan.points"):
            scan.config_from_dict({"scan": {"points": [point]}})
    # a quoted YAML "false" used to switch the reference curves on
    for bad in ("false", "true", 0, 1, None):
        with pytest.raises(ParameterError, match="scan.curves"):
            scan.config_from_dict({"scan": {"curves": bad}})
    assert scan.config_from_dict({"scan": {"curves": False}}).curves is False


REAL_KEYS = [("lattice", "wavelength_nm", 866), ("lattice", "depth_Er", 270),
             ("state", "dx_halflambda", 0.1), ("ramsey", "loss_fraction", 0),
             ("ramsey", "light_shift_slope_rad_per_us", 81)]


@pytest.mark.parametrize("section,key,good", REAL_KEYS)
def test_config_real_keys_take_numbers_only(section, key, good):
    # lattice.wavelength_nm: true used to run a 1 nm lattice, and a quoted
    # depth_Er: "270" was read as 270
    for bad in (True, False, str(good), None):
        with pytest.raises(ParameterError, match=f"{section}.{key}"):
            scan.config_from_dict({section: {key: bad}})
    scan.config_from_dict({section: {key: good}})   # an int is a number


@pytest.mark.parametrize("key,good", [("out", "results"), ("estimator", "experiment")])
@pytest.mark.parametrize("bad", [None, True, 5, ["a"]], ids=["null", "true", "5", "[a]"])
def test_config_string_keys_take_strings_only(key, good, bad):
    # scan.out left empty (null) used to write into a directory named None,
    # and out: [a] into one named ['a']
    with pytest.raises(ParameterError, match=f"scan.{key}"):
        scan.config_from_dict({"scan": {key: bad}})
    scan.config_from_dict({"scan": {key: good}})


def test_point_labels_are_unique():
    # 0.10001 and 0.10002 both wrote n0_dx0.1000, the second point over the first
    assert scan.point_label(0, 0.10001) == "n0_dx0.1000"
    for points in ([[0, 0.10001], [0, 0.10002]], [[2, 0.1], [2, 0.1000000001]]):
        with pytest.raises(ParameterError, match="duplicate scan point n._dx0.1000"):
            scan.config_from_dict({"scan": {"points": points}})
    assert len(scan.ScanConfig(points=((0, 0.1), (1, 0.1), (0, 0.1001))).points) == 3


def test_scan_runs_on_one_thread_without_a_workers_option():
    # the thread pool is gone; ScanConfig.workers stays only as the constant
    # that perfbench/child.py records
    with pytest.raises(ParameterError, match="scan.workers"):
        scan.config_from_dict({"scan": {"workers": 2}})
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["scan", "--workers", "2"])
    assert exit_info.value.code == 2
    assert "workers" not in {f.name for f in dataclasses.fields(scan.ScanConfig)}
    assert scan.config_from_dict({}).workers == 1


def test_run_scan_artifacts_exact(tmp_path):
    cfg = small_config(tmp_path)
    summary = scan.run_scan(cfg)
    assert summary["points_completed"] == 2
    assert summary["points_failed"] == 0
    assert summary["bound_violations"] == 0
    out = cfg.out_dir
    for fname in ("fig2.csv", "fig3.csv", "fig4.csv", "summary.json"):
        assert os.path.isfile(os.path.join(out, fname))
    for label in ("n0_dx0.0400", "n0_dx0.1600"):
        pdir = os.path.join(out, label)
        assert os.path.isfile(os.path.join(pdir, "trace.csv"))
        with open(os.path.join(pdir, "report.json")) as fh:
            rep = json.load(fh)
        assert set(rep) == {"e_Er", "de_Er", "tau_mt_us", "tau_ml_us", "tau_c_us",
                            "regime", "xi_spectral", "xi_fit", "min_margin"}
        assert rep["min_margin"] >= -1e-9
        with open(os.path.join(pdir, "diagnostics.json")) as fh:
            diag = json.load(fh)
        assert set(diag) == {"quadrature_defect", "e_n_Er", "depth_Er", "homega_Er",
                             "theta_rad"}
        assert 0.0 < diag["quadrature_defect"] <= 1e-10
    header = read(os.path.join(out, "n0_dx0.0400", "trace.csv")).decode().splitlines()[0]
    assert header == "t_us,re_A,im_A,abs_A,fs_distance"


def test_run_scan_experiment_mode_artifacts(tmp_path):
    cfg = small_config(tmp_path, estimator="experiment", points=((0, 0.12),))
    summary = scan.run_scan(cfg)
    assert summary["points_failed"] == 0
    pdir = os.path.join(cfg.out_dir, "n0_dx0.1200")
    assert os.path.isfile(os.path.join(pdir, "fringes.csv"))
    with open(os.path.join(pdir, "fits.json")) as fh:
        fits = json.load(fh)
    assert {"t_us", "v", "v_err", "phi", "phi_err"} == set(fits[0])
    with open(os.path.join(pdir, "estimates.json")) as fh:
        est = json.load(fh)
    assert "de_Er" in est
    lines = read(os.path.join(pdir, "fringes.csv")).decode().splitlines()
    assert lines[0] == "t_us,phi_r,n_total,n_down"
    assert len(lines) == 1 + cfg.time_points * cfg.ramsey.phase_grid.size


def test_write_csv_matches_per_cell_formatting(tmp_path):
    # a column that is not an ndarray is printed cell by cell as the per-cell
    # formatter did: numpy and Python floats by repr, integers by str, and a
    # column mixing ints and floats cell by cell ("1", not "1.0")
    rows = [
        (np.float64(0.1), 1e-300, np.int64(7), 3, True, "n0_dx0.0400", "", 1, np.float32(0.1)),
        (1e16, np.float64(-0.0), 2**70, np.int64(-4), np.bool_(False), "MT", 1.5, 2.5, 2.0),
        (-0.0, np.float64(1e16), np.int32(0), 0, False, "ML", np.float64(3.25), np.int64(1),
         np.float16(0.5)),
    ]
    header = [f"c{i}" for i in range(len(rows[0]))]
    path = str(tmp_path / "cells.csv")
    scan.write_csv(path, header, [list(column) for column in zip(*rows)])
    want = [",".join(header)] + [",".join(fmt_oracle(v) for v in row) for row in rows]
    assert read(path).decode() == "\n".join(want) + "\n"
    assert want[1].split(",")[7] == "1" and want[2].split(",")[7] == "2.5"
    scan.write_csv(path, header, [[] for _ in header])
    assert read(path).decode() == ",".join(header) + "\n"


TEXT_CELL = re.compile(r"n[012]_dx\d\.\d{4}|MT|ML|")   # point labels, regimes, no tau_c


def csv_columns(path) -> dict:
    header, *rows = (line.split(",") for line in read(path).decode().splitlines())
    return dict(zip(header, map(list, zip(*rows))))


def is_shortest_text(cell: str) -> bool:
    """Whether a cell is the shortest text that reads back as its int or float."""
    for kind, show in ((int, str), (float, repr)):
        try:
            return show(kind(cell)) == cell
        except ValueError:
            pass
    return False


def test_csv_cells_are_shortest_round_trip(tmp_path, capsys):
    # every numeric cell of every CSV artifact is printed in full and once:
    # no fixed precision such as %.12g, and no numpy scalar repr
    cfg = small_config(tmp_path, estimator="experiment", curves=True, curve_points=2,
                       points=((0, 0.04), (2, 0.16)))
    scan.run_scan(cfg)
    cfgfile = write_small_yaml(tmp_path)
    for argv in (["bands", "--n-bands", "3", "--q-points", "8", "--n-levels", "8"],
                 ["qubit", "--count", "5"]):
        assert cli.main([*argv, "--config", cfgfile, "--out", str(tmp_path / argv[0])]) == 0
    capsys.readouterr()
    paths = [os.path.join(root, name) for root, _, files in os.walk(tmp_path)
             for name in files if name.endswith(".csv")]
    assert len(paths) == 2 * 2 + 6 + 3
    for path in paths:
        cells = [cell for line in read(path).decode().splitlines()[1:] for cell in line.split(",")]
        assert cells, path
        assert [c for c in cells if not (TEXT_CELL.fullmatch(c) or is_shortest_text(c))] == [], path
    # a value that several artifacts share is printed in full in each: the fits'
    # times down fringes.csv (over the phase grid), trace.csv and fig2.csv, and
    # the report's tau_c_us down fig2.csv and in fig3.csv
    label = "n0_dx0.0400"    # ML regime: its tau_c_us is a number
    pdir = os.path.join(cfg.out_dir, label)
    with open(os.path.join(pdir, "fits.json")) as fh:
        times = [repr(fit["t_us"]) for fit in json.load(fh)]
    with open(os.path.join(pdir, "report.json")) as fh:
        tau_c = repr(json.load(fh)["tau_c_us"])
    phases = [repr(phi) for phi in cfg.ramsey.phase_grid.tolist()]
    fringes = csv_columns(os.path.join(pdir, "fringes.csv"))
    assert fringes["t_us"] == [t for t in times for _ in phases]
    assert fringes["phi_r"] == phases * len(times)
    assert csv_columns(os.path.join(pdir, "trace.csv"))["t_us"] == times
    fig2 = csv_columns(os.path.join(cfg.out_dir, "fig2.csv"))
    rows = [i for i, point in enumerate(fig2["point"]) if point == label]
    assert [fig2["t_us"][i] for i in rows] == times
    assert {fig2["tau_c_us"][i] for i in rows} == {tau_c}
    assert csv_columns(os.path.join(cfg.out_dir, "fig3.csv"))["tau_c_us"][0] == tau_c


def test_scan_byte_identical_reruns(tmp_path):
    cfg_a = small_config(tmp_path, estimator="experiment",
                         out_dir=str(tmp_path / "a"), seed=11)
    cfg_b = small_config(tmp_path, estimator="experiment",
                         out_dir=str(tmp_path / "b"), seed=11)
    scan.run_scan(cfg_a)
    scan.run_scan(cfg_b)
    for root, _, files in os.walk(cfg_a.out_dir):
        rel = os.path.relpath(root, cfg_a.out_dir)
        for fname in files:
            a = read(os.path.join(root, fname))
            b = read(os.path.join(cfg_b.out_dir, rel, fname))
            assert a == b, f"{rel}/{fname} differs between identical runs"


def test_scan_different_seed_changes_experiment(tmp_path):
    cfg_a = small_config(tmp_path, estimator="experiment",
                         out_dir=str(tmp_path / "a"), seed=1, points=((0, 0.12),))
    cfg_b = small_config(tmp_path, estimator="experiment",
                         out_dir=str(tmp_path / "b"), seed=2, points=((0, 0.12),))
    scan.run_scan(cfg_a)
    scan.run_scan(cfg_b)
    a = read(os.path.join(cfg_a.out_dir, "n0_dx0.1200", "fringes.csv"))
    b = read(os.path.join(cfg_b.out_dir, "n0_dx0.1200", "fringes.csv"))
    assert a != b


def test_failure_manifest_and_continue(tmp_path, monkeypatch):
    # a point whose own run raises, and every point of a displacement whose
    # solve raises, is recorded with its stage and exception type; the rest run
    cfg = small_config(tmp_path, points=((0, 0.04), (1, 0.04), (0, 0.16), (2, 0.16)))
    real_point, real_solve = scan.run_point, scan.solve_displacement

    def flaky(n, dx, config, solved=None, point_index=0):
        if (n, dx) == (0, 0.04):
            raise RuntimeError("synthetic failure")
        return real_point(n, dx, config, solved, point_index)

    def unsolvable(dx, params):
        if dx == 0.16:
            raise ValueError("synthetic solve failure")
        return real_solve(dx, params)

    monkeypatch.setattr(scan, "run_point", flaky)
    monkeypatch.setattr(scan, "solve_displacement", unsolvable)
    summary = scan.run_scan(cfg)
    assert summary["points_failed"] == 3
    assert summary["points_completed"] == 1
    with open(os.path.join(cfg.out_dir, "failures.json")) as fh:
        failures = json.load(fh)
    assert failures[0]["point"] == "n0_dx0.0400"
    assert "synthetic failure" in failures[0]["error"]
    assert [(f["point"], f["stage"], f["type"], f["error"]) for f in failures] == [
        ("n0_dx0.0400", "point", "RuntimeError", "synthetic failure"),
        ("n0_dx0.1600", "solve", "ValueError", "synthetic solve failure"),
        ("n2_dx0.1600", "solve", "ValueError", "synthetic solve failure")]
    assert all(set(f) == {"point", "stage", "type", "error"} for f in failures)


def test_clean_rerun_removes_stale_failure_manifest(tmp_path):
    # a 2 E_R lattice binds no n = 2 packet, so its point fails at the solve;
    # a clean rerun into the same directory must not leave that record beside
    # a summary that counts no failures
    shallow = dataclasses.replace(SMALL, depth_at_zero=2.0)
    assert scan.run_scan(small_config(tmp_path, params=shallow))["points_failed"] == 2
    manifest = os.path.join(tmp_path, "out", "failures.json")
    assert os.path.isfile(manifest)
    assert scan.run_scan(small_config(tmp_path))["points_failed"] == 0
    assert not os.path.exists(manifest)


def test_figures_take_estimates_where_de_was_estimated(tmp_path, monkeypatch):
    # an experiment point enters fig3.csv and fig4.csv through its estimates;
    # one whose dE estimate failed falls back to its exact report
    cfg = small_config(tmp_path, estimator="experiment", points=((0, 0.12),))
    pdir = os.path.join(cfg.out_dir, "n0_dx0.1200")

    def figure_values():
        scan.run_scan(cfg)
        fig3, fig4 = (read(os.path.join(cfg.out_dir, name)).decode().splitlines()[1].split(",")
                      for name in ("fig3.csv", "fig4.csv"))
        files = []
        for name in ("diagnostics.json", "report.json", "estimates.json"):
            with open(os.path.join(pdir, name)) as fh:
                files.append(json.load(fh))
        return (float(fig3[2]), float(fig3[3]), float(fig4[3])), *files

    def expected(source, homega):
        return (4.0 * source["e_Er"] / homega, 4.0 * source["de_Er"] / homega,
                max(source["xi_fit"], 0.0))

    values, diag, rep, est = figure_values()
    assert est["de_Er"] != rep["de_Er"]
    assert values == expected(est, diag["homega_Er"])

    def unresolved(*args, **kwargs):
        raise EstimationError("synthetic flat visibility")

    monkeypatch.setattr(interferometer, "extract_uncertainty", unresolved)
    values, diag, rep, est = figure_values()
    assert "de_error" in est and "e_Er" in est and "xi_fit" in est
    assert values == expected(rep, diag["homega_Er"])


def test_reference_curves():
    alphas = np.array([0.1, 0.5, 1.0, 2.0])
    curve = scan.coherent_reference_curve(alphas)
    # crossing of the two reciprocal times exactly at alpha = 1
    assert curve[2, 0] == pytest.approx(curve[2, 1])
    assert np.all(curve[:2, 0] < curve[:2, 1])   # small alpha: crossover regime
    assert np.all(curve[3:, 0] > curve[3:, 1])   # large alpha: uncertainty regime
    zetas = np.array([1e-3, 0.3, np.pi / 2 - 1e-9])
    qcurve = scan.qubit_reference_curve(zetas)
    # small angle: inv_tau_ml ~ zeta^2 vanishes faster than inv_tau_mt ~ 2 zeta
    assert qcurve[0, 0] == pytest.approx(zetas[0] ** 2, rel=1e-5)
    assert qcurve[0, 1] == pytest.approx(2 * zetas[0], rel=1e-5)
    assert np.all(qcurve[:, 0] < qcurve[:, 1])   # entirely in the crossover region
    assert qcurve[-1, 1] == pytest.approx(2.0, rel=1e-6)  # maximal two-level speed
    with pytest.raises(ParameterError):
        scan.qubit_reference_curve(np.array([2.0]))


def test_points_sit_on_lattice_theory_curve(tmp_path):
    cfg = small_config(tmp_path, points=((0, 0.1), (1, 0.1), (2, 0.1)))
    scan.run_scan(cfg)
    rows = scan.lattice_reference_curves(cfg, np.array([0.1]))
    with open(os.path.join(cfg.out_dir, "fig3.csv")) as fh:
        lines = fh.read().splitlines()[1:]
    for line in lines:
        n, dx, inv_ml, inv_mt = line.split(",")[:4]
        match = [r for r in rows if r["n"] == int(n)][0]
        assert float(inv_ml) == pytest.approx(match["inv_tau_ml"], abs=1e-6)
        assert float(inv_mt) == pytest.approx(match["inv_tau_mt"], abs=1e-6)


def test_reference_curves_match_spectral_moments(solver, monkeypatch):
    # the curves take E and dE from the half-zone Bloch blocks applied to
    # each packet; the Bloch solve, populations and spectral moments are
    # their oracle
    dx_values = np.array([0.025, 0.16, 0.5])
    for dx in dx_values:
        solver.solve(dx)
    calls = []
    decompose = scan.eigensolve.decompose
    monkeypatch.setattr(scan.eigensolve, "decompose",
                        lambda *a: calls.append(a) or decompose(*a))
    rows = scan.lattice_reference_curves(scan.ScanConfig(params=solver.params), dx_values)
    assert calls == []
    for row in rows:
        model, *_, moms = solver.spectral_point(row["n"], row["dx"])
        assert row["inv_tau_ml"] == pytest.approx(4.0 * moms.e / model.homega, rel=1e-10)
        assert row["inv_tau_mt"] == pytest.approx(4.0 * moms.de / model.homega, rel=1e-10)
    assert len(rows) == 9
    # sqrt(20 E_R)/2 ~ 2.2 bound levels cannot hold the n = 2 packet
    shallow = scan.ScanConfig(params=LatticeParams(depth_at_zero=20.0, sites=9,
                                                   points_per_site=32))
    with pytest.raises(ParameterError, match="bound levels"):
        scan.lattice_reference_curves(shallow, np.array([0.1]))


def test_aggregate_reports(tmp_path):
    cfg = small_config(tmp_path)
    scan.run_scan(cfg)
    summary = scan.aggregate_reports(cfg.out_dir)
    assert summary["points"] == 2
    assert summary["bound_violations"] == 0
    assert os.path.isfile(os.path.join(cfg.out_dir, "aggregate.json"))


def write_small_yaml(tmp_path, **scan_extra):
    payload = {
        "lattice": {"sites": 9, "points_per_site": 32},
        "state": {"n": 0, "dx_halflambda": 0.1},
        "scan": {"points": [[0, 0.1]], "curves": False,
                 **scan_extra},
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def test_cli_point_and_report(tmp_path, capsys):
    cfgfile = write_small_yaml(tmp_path)
    out = str(tmp_path / "cliout")
    # the state section of the config supplies (n, dx) when flags are absent
    rc = cli.main(["point", "--config", cfgfile, "--out", out])
    assert rc == 0
    captured = capsys.readouterr().out
    assert '"regime"' in captured
    assert os.path.isdir(os.path.join(out, "n0_dx0.1000"))
    rc = cli.main(["report", "--dir", out])
    assert rc == 0
    capsys.readouterr()
    # a directory that does not exist is one line naming the flag, not a traceback
    missing = str(tmp_path / "nonexistent")
    assert cli.main(["report", "--dir", missing]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qslab report: error: --dir") and err.count("\n") == 1
    assert missing in err
    # a truncated report.json used to end in a JSONDecodeError traceback, and
    # one that parses but holds no report in a TypeError ([1, 2]) or in
    # KeyError: 'min_margin' ({})
    rpath = os.path.join(out, "n0_dx0.1000", "report.json")
    with open(rpath, "r", encoding="utf-8") as fh:
        truncated = fh.read(10)
    for text in (truncated, "[1, 2]", "{}"):
        with open(rpath, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert cli.main(["report", "--dir", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qslab report: error: report file {rpath!r}: ")
        assert err.count("\n") == 1


def test_cli_point_flags_replace_half_of_the_point(tmp_path, capsys):
    # each of --n and --dx replaces its half of the state section's point, else
    # of the first scan point; --n alone used to be ignored
    lattice = {"sites": 9, "points_per_site": 32}
    for state, flags, label in (
            (None, ["--n", "2"], "n2_dx0.0400"),
            ({"n": 1, "dx_halflambda": 0.1}, ["--n", "2"], "n2_dx0.1000"),
            ({"n": 1, "dx_halflambda": 0.1}, ["--dx", "0.2"], "n1_dx0.2000")):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"lattice": lattice, **({"state": state} if state else {})}))
        out = tmp_path / label
        assert cli.main(["point", "--config", str(path), "--out", str(out), *flags]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == [label]


def test_cli_point_prints_the_failure_of_a_failed_point(tmp_path, capsys):
    # a 20 E_R well binds fewer than 3 levels; the point has no report.json,
    # which used to end in FileNotFoundError
    path = tmp_path / "shallow.yaml"
    path.write_text(yaml.safe_dump({"lattice": {"depth_Er": 20.0, "sites": 9,
                                                "points_per_site": 32}}))
    rc = cli.main(["point", "--config", str(path), "--out", str(tmp_path / "out"),
                   "--dx", "0.1"])
    assert rc == 1
    assert "bound levels" in capsys.readouterr().err


def test_cli_bad_input_prints_one_line_and_exits_2(tmp_path, capsys):
    # a value out of range on the command line or in the config is an error
    # message naming where it came from, not a traceback
    out = str(tmp_path / "out")
    for flags, text in ((["--dx", "0.9"], "--n/--dx: displacement must lie in (0, 0.5]"),
                        (["--n", "4", "--dx", "0.1"], "--n/--dx: packet shape n")):
        assert cli.main(["point", "--out", out, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qslab point: error: ") and text in err
        assert err.count("\n") == 1 and "scan.points" not in err
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"scan": {"time_points": 5}}))
    assert cli.main(["scan", "--config", str(path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "time_points must be at least 21" in err
    assert not os.path.exists(out)
    # two points per site cannot hold the three packet states, which used to
    # end in an IndexError; a well too shallow for the reference curves used to
    # leave fig2-4.csv behind with no summary.json
    for lattice, argv, text in (
            ({"points_per_site": 2}, ["point", "--n", "2", "--dx", "0.1"],
             "points_per_site must be at least 4"),
            ({"depth_Er": 5.0}, ["scan"], "need 3 bound levels")):
        path.write_text(yaml.safe_dump({"lattice": lattice}))
        assert cli.main([*argv, "--config", str(path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qslab {argv[0]}: error: ") and text in err
        assert err.count("\n") == 1
        assert not os.path.exists(out)
    # a config file that cannot be read or parsed, that is not UTF-8 or that
    # holds an impossible date used to end in a traceback
    broken = tmp_path / "broken.yaml"
    broken.write_text("scan: [1, 2\n")
    latin = tmp_path / "latin.yaml"
    latin.write_bytes(b'scan:\n  out: "\xff\xfe"\n')
    dated = tmp_path / "dated.yaml"
    dated.write_text("scan:\n  seed: 2020-13-45\n")
    for config in (str(tmp_path / "missing.yaml"), str(broken), str(latin), str(dated)):
        assert cli.main(["scan", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qslab scan: error: config file {config!r}: ")
        assert err.count("\n") == 1
        assert not os.path.exists(out)
    # a file that holds false, 0 or [] used to run the default scan; only an
    # empty file means the defaults
    for text in ("false\n", "0\n", "[]\n"):
        path.write_text(text)
        assert cli.main(["scan", "--config", str(path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qslab scan: error: config must be a mapping")
        assert err.count("\n") == 1
        assert not os.path.exists(out)
    path.write_text("")
    assert scan.load_config(str(path)).points == scan.ScanConfig().points
    # an output directory that cannot be created used to end in FileExistsError,
    # or in FileNotFoundError for an empty scan.out
    small = tmp_path / "small.yaml"
    small.write_text(yaml.safe_dump({"lattice": {"sites": 9, "points_per_site": 32},
                                     "scan": {"points": [[0, 0.1]], "curves": False}}))
    existing = str(tmp_path / "a_file")
    open(existing, "w").close()
    for argv in (["point", "--dx", "0.1"], ["bands"], ["qubit"]):
        assert cli.main([*argv, "--config", str(small), "--out", existing]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qslab {argv[0]}: error: output directory {existing!r}: ")
        assert err.count("\n") == 1
    path.write_text(yaml.safe_dump({"scan": {"out": "", "points": [[0, 0.1]], "curves": False}}))
    assert cli.main(["scan", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qslab scan: error: output directory '': ") and err.count("\n") == 1


def test_cli_scan_experiment(tmp_path, capsys):
    cfgfile = write_small_yaml(tmp_path, estimator="experiment", seed=3)
    out = str(tmp_path / "scanout")
    rc = cli.main(["scan", "--config", cfgfile, "--out", out])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["points_failed"] == 0
    assert os.path.isfile(os.path.join(out, "n0_dx0.1000", "fringes.csv"))


def test_cli_bands_and_qubit(tmp_path, capsys):
    cfgfile = write_small_yaml(tmp_path)
    out = str(tmp_path / "bands")
    rc = cli.main(["bands", "--config", cfgfile, "--out", out,
                   "--n-bands", "4", "--q-points", "16", "--n-levels", "8"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["bandwidths_Er"]) == 4
    assert os.path.isfile(os.path.join(out, "bands.csv"))
    assert os.path.isfile(os.path.join(out, "energies.csv"))
    rc = cli.main(["qubit", "--config", cfgfile, "--out", out, "--count", "10"])
    assert rc == 0
    assert os.path.isfile(os.path.join(out, "qubit.csv"))
    capsys.readouterr()
    # a count below 1 used to end in numpy's traceback (-1) or a header-only file (0)
    for count in ("0", "-1"):
        empty = str(tmp_path / f"qubit{count}")
        assert cli.main(["qubit", "--config", cfgfile, "--out", empty, "--count", count]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qslab qubit: error: --count") and err.count("\n") == 1
        assert not os.path.exists(empty)
    # --n-levels below 1 used to write all but |n| levels (-3) or a header-only file (0),
    # and above the S P = 288 modes all 288 levels
    for levels in ("0", "-3", "289"):
        empty = str(tmp_path / f"bands{levels}")
        assert cli.main(["bands", "--config", cfgfile, "--out", empty, "--n-levels", levels]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qslab bands: error: --n-levels") and err.count("\n") == 1
        assert "[1, 288]" in err
        assert not os.path.exists(empty)
    assert cli.main(["bands", "--config", cfgfile, "--out", out, "--n-levels", "288"]) == 0
    capsys.readouterr()
    with open(os.path.join(out, "energies.csv")) as fh:
        assert len(fh.read().splitlines()) == 1 + 288
    # --seed and --estimator belong to the verbs that run scan points
    for verb in ("bands", "qubit"):
        for flag in (["--seed", "3"], ["--estimator", "experiment"]):
            with pytest.raises(SystemExit) as exit_info:
                cli.main([verb, "--config", cfgfile, "--out", out, *flag])
            assert exit_info.value.code == 2
