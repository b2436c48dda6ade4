"""Sweep orchestration, figure artifacts, determinism and the CLI."""

import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

import qslab
from qslab import cli, eigensolve, interferometer, qsl, scan
from qslab.errors import EstimationError, ParameterError
from qslab.model import LatticeModel, LatticeParams, recoil_hertz

from conftest import Qubit, bernoulli_moments, fmt_oracle, ramsey_artifacts_oracle

SMALL = LatticeParams(sites=9, points_per_site=32)


def small_config(tmp_path, **kw):
    defaults = dict(points=((0, 0.04), (0, 0.16)), params=SMALL,
                    out_dir=str(tmp_path / "out"), curves=False)
    defaults.update(kw)
    return scan.ScanConfig(**defaults)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def assert_same_files(dir_a, dir_b):
    """Every file under dir_a has a byte-identical twin under dir_b."""
    for root, _, files in os.walk(dir_a):
        rel = os.path.relpath(root, dir_a)
        for fname in files:
            assert read(os.path.join(root, fname)) == read(os.path.join(dir_b, rel, fname)), \
                f"{rel}/{fname} differs"


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
    # a library point is an integral n and a real dx, neither a bool; numpy
    # scalars are both
    for point, where in (((True, 0.1), "packet shape n"), ((1.0, 0.1), "packet shape n"),
                         ((np.True_, 0.1), "packet shape n"), ((1, "0.1"), "displacement"),
                         ((1, True), "displacement"), ((1, None), "displacement")):
        with pytest.raises(ParameterError, match=f"scan.points: {where}"):
            scan.ScanConfig(points=(point,))
        with pytest.raises(ParameterError, match=f"state: {where}"):
            scan.ScanConfig(state_point=point)
    # a point that is not an (n, dx) pair is named as such, not unpacked
    for point in ((1,), 0.1, (0, 0.1, 2), None):
        with pytest.raises(ParameterError, match="scan.points: a point must be an"):
            scan.ScanConfig(points=(point,))
        if point is not None:   # a None state_point means the config has no state section
            with pytest.raises(ParameterError, match="state: a point must be an"):
                scan.ScanConfig(state_point=point)
    numpy_point = (np.int64(1), np.float64(0.1))
    assert scan.ScanConfig(points=(numpy_point,), state_point=numpy_point).points == (
        numpy_point,)


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
    assert cfg.ramsey.phases == 8
    assert cfg.ramsey.light_shift_slope == 81.0
    assert (cfg.time_points, cfg.curves, cfg.curve_points) == (32, False, 5)


def test_config_defaults_are_the_dataclass_defaults():
    # every default is set once, on the dataclasses; the config reader adds none
    cfg, ref = scan.config_from_dict({}), scan.ScanConfig()
    for f in dataclasses.fields(scan.ScanConfig):
        assert getattr(cfg, f.name) == getattr(ref, f.name), f.name


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
    # a null section keeps the defaults, as a missing one does
    cfg = scan.config_from_dict({name: None for name in scan._KEYS})
    assert (cfg.params, cfg.state_point, cfg.seed) == (LatticeParams(), None, scan.DEFAULT_SEED)


@pytest.mark.parametrize("section", ["lattice", "state", "scan", "ramsey"])
@pytest.mark.parametrize("value", [0, False, [], ""], ids=["0", "false", "[]", "''"])
def test_config_section_that_is_no_mapping_is_an_error(section, value):
    # "scan: 0" used to run the defaults and "state: false" to drop the state point
    with pytest.raises(ParameterError, match=f"config section '{section}' must be a mapping"):
        scan.config_from_dict({section: value})
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


@pytest.mark.parametrize("bad", [0, False, "", {}, 5, "points"],
                         ids=["0", "false", "empty-string", "empty-mapping", "5", "string"])
def test_config_points_other_than_null_or_empty_list_are_errors(bad):
    # scan.points: 0, false, "" or {} used to run the 34-point default grid
    with pytest.raises(ParameterError, match="scan.points"):
        scan.config_from_dict({"scan": {"points": bad}})
    for default in (None, []):
        assert scan.config_from_dict({"scan": {"points": default}}).points == scan.ScanConfig.points


@pytest.mark.parametrize("points", [[[1]], [0.1], [[0, 0.1, 2]]], ids=["[1]", "0.1", "triple"])
def test_config_points_that_are_not_pairs_are_errors(points):
    # a YAML entry that is no [n, dx] pair is refused by name, not unpacked
    with pytest.raises(ParameterError, match="scan.points"):
        scan.config_from_dict({"scan": {"points": points}})


# (dataclass, its keyword arguments, the field its error names, the YAML config, the key
# its error names): a library caller and a config file meet one kind check.  params and
# ramsey have no YAML spelling, and YAML reads sites: 9.0 as 9, so 9.5 stands in there
KIND_PROBES = [
    (scan.ScanConfig, {"seed": "7"}, "scan.seed", {"scan": {"seed": "7"}}, "scan.seed"),
    (LatticeParams, {"points_per_site": "64"}, "lattice.points_per_site",
     {"lattice": {"points_per_site": "64"}}, "lattice.points_per_site"),
    (scan.ScanConfig, {"points": 5}, "scan.points", {"scan": {"points": 5}}, "scan.points"),
    (LatticeParams, {"sites": 9.0}, "lattice.sites", {"lattice": {"sites": 9.5}},
     "lattice.sites"),
    (scan.ScanConfig, {"time_points": 64.5}, "scan.time_points",
     {"scan": {"time_points": 64.5}}, "scan.time_points"),
    (scan.ScanConfig, {"curves": 1}, "scan.curves", {"scan": {"curves": 1}}, "scan.curves"),
    (scan.ScanConfig, {"out_dir": None}, "scan.out_dir", {"scan": {"out": None}}, "scan.out"),
    (scan.ScanConfig, {"params": None}, "scan.params", None, None),
    (scan.ScanConfig, {"ramsey": {}}, "scan.ramsey", None, None),
    (LatticeParams, {"depth_at_zero": "270"}, "lattice.depth_at_zero",
     {"lattice": {"depth_Er": "270"}}, "lattice.depth_Er"),
    (LatticeParams, {"wavelength": "866e-9"}, "lattice.wavelength",
     {"lattice": {"wavelength_nm": "866"}}, "lattice.wavelength_nm"),
    (interferometer.RamseyConfig, {"loss_fraction": "0.1"}, "ramsey.loss_fraction",
     {"ramsey": {"loss_fraction": "0.1"}}, "ramsey.loss_fraction"),
]


@pytest.mark.parametrize("cls,kwargs,name,raw,key", KIND_PROBES,
                         ids=[f"{p[2]}={next(iter(p[1].values()))!r}" for p in KIND_PROBES])
def test_library_and_config_values_meet_one_kind_check(cls, kwargs, name, raw, key):
    # seed="7" and points=5 raised a raw TypeError; sites=9.0, time_points=64.5,
    # curves=1, out_dir=None, params=None and ramsey={} were accepted
    with pytest.raises(ParameterError, match=rf"^{re.escape(name)} must be "):
        cls(**kwargs)
    if raw is not None:
        with pytest.raises(ParameterError, match=rf"^config key {re.escape(key)} must be "):
            scan.config_from_dict(raw)


def test_integers_too_large_for_a_float_meet_the_kind_check():
    # each passed the number check: the scan then ended in a raw OverflowError
    # at model.trap_depth, or the ramsey section in a raw TypeError from np.isfinite
    with pytest.raises(ParameterError, match=r"^lattice\.wavelength must be a number"):
        LatticeParams(wavelength=10**400)
    for section, key in (("lattice", "depth_Er"), ("lattice", "wavelength_nm"),
                         ("ramsey", "light_shift_slope_rad_per_us")):
        with pytest.raises(ParameterError,
                           match=rf"^config key {section}\.{key} must be a number"):
            scan.config_from_dict({section: {key: 10**400}})


@pytest.mark.parametrize("raw,direct", [
    ({"lattice": {"sites": 9.0, "points_per_site": 32.0, "wavelength_nm": 866, "depth_Er": 270}},
     dict(params=LatticeParams(sites=9, points_per_site=32))),
    ({"scan": {"points": [[0.0, 0.08], [2, 0.16]], "seed": 11.0, "out": "here"}},
     dict(points=((0, 0.08), (2, 0.16)), seed=11, out_dir="here")),
    ({"state": {"n": 1.0, "dx_halflambda": 0.1}}, dict(state_point=(1, 0.1))),
    ({"ramsey": {"phases": 12.0, "loss_fraction": 0, "light_shift_slope_rad_per_us": 81}},
     dict(ramsey=interferometer.RamseyConfig(phases=12, loss_fraction=0.0,
                                             light_shift_slope=81.0))),
], ids=["lattice", "scan", "state", "ramsey"])
def test_config_equals_the_library_config(raw, direct):
    # only the config reader turns an integral float into the int it spells
    cfg = scan.config_from_dict(raw)
    assert cfg == scan.ScanConfig(**direct)
    integers = [cfg.params.sites, cfg.params.points_per_site, cfg.seed, cfg.ramsey.phases,
                *(n for n, _ in cfg.points), *(cfg.state_point or ())[:1]]
    assert all(type(value) is int for value in integers)


def test_out_dir_takes_a_path_object(tmp_path):
    summary = scan.run_scan(small_config(tmp_path, out_dir=tmp_path / "out", points=((0, 0.16),)))
    assert (summary["points_completed"], summary["points_failed"]) == (1, 0)
    assert (tmp_path / "out" / "n0_dx0.1600" / "report.json").is_file()
    assert (tmp_path / "out" / "summary.json").is_file()


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


def test_run_scan_solves_on_one_blas_thread_and_restores_the_count(tmp_path, monkeypatch):
    threads = scan._blas_threads()
    if threads is None:
        pytest.skip("numpy.linalg's BLAS exports no OpenBLAS thread setter")
    get, put = threads
    seen = []

    def recording(real):
        def call(*args, **kw):
            seen.append(get())
            return real(*args, **kw)
        return call

    # bound_level_count runs before the curve path's shallow-lattice ParameterError
    for name in ("decompose", "bound_level_count"):
        monkeypatch.setattr(eigensolve, name, recording(getattr(eigensolve, name)))
    original = get()
    try:
        put(2)
        caller = get()
        scan.run_scan(small_config(tmp_path, points=((0, 0.04),)))
        assert seen == [1, 1] and get() == caller
        seen.clear()
        shallow = dataclasses.replace(SMALL, depth_at_zero=2.0)
        with pytest.raises(ParameterError, match="3 bound levels"):
            scan.run_scan(small_config(tmp_path, params=shallow, curves=True))
        assert seen == [1] and get() == caller
    finally:
        put(original)


def test_qslab_first_process_starts_numpy_on_one_blas_thread():
    if scan._blas_threads() is None:
        pytest.skip("numpy.linalg's BLAS exports no OpenBLAS thread setter")
    # a fresh interpreter that imports qslab before numpy: OpenBLAS starts on one
    # thread and the variable that asked for it is gone again; a count the
    # caller set through the environment is kept, and so is the variable
    chosen = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
              "OPENBLAS_DEFAULT_NUM_THREADS")
    clean = {k: v for k, v in os.environ.items() if k not in chosen}
    clean["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    probe = ("import os, qslab.scan; "
             "print(qslab.scan._blas_threads()[0](), os.environ.get('OPENBLAS_NUM_THREADS'))")
    for extra, expected in (({}, "1 None"), ({"OPENBLAS_NUM_THREADS": "2"}, "2 2")):
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env={**clean, **extra}).stdout
        assert out.split() == expected.split(), extra
    # this session loaded numpy before qslab, so importing the package again sets nothing
    before = dict(os.environ)
    importlib.reload(qslab)
    assert dict(os.environ) == before


def test_blas_thread_count_never_reaches_the_artifacts(tmp_path, monkeypatch):
    # the same scan with the one-thread cap and without a setter to apply it
    capped = small_config(tmp_path, estimator="experiment", curves=True, curve_points=3,
                          out_dir=str(tmp_path / "capped"))
    scan.run_scan(capped)
    monkeypatch.setattr(scan, "_blas_threads", lambda: None)
    uncapped = dataclasses.replace(capped, out_dir=str(tmp_path / "uncapped"))
    scan.run_scan(uncapped)
    assert_same_files(capped.out_dir, uncapped.out_dir)
    assert_same_files(uncapped.out_dir, capped.out_dir)


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
    # fits.json holds one record per line; it parses to the document that
    # json.dumps(indent=2) of the point's series gives
    result = scan.run_point(0, 0.12, cfg, scan.solve_displacement(0.12, cfg.params))
    series = result.records
    columns = {"t_us": result.trace.times * result.model.time_us_per_unit,
               "v": series.v, "v_err": series.v_err, "phi": series.phi, "phi_err": series.phi_err}
    records = [{key: float(c[i]) for key, c in columns.items()} for i in range(cfg.time_points)]
    text = read(os.path.join(pdir, "fits.json")).decode()
    lines = text.splitlines()
    assert lines[0] == "[" and lines[-1] == "]" and len(lines) == cfg.time_points + 2
    assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == records
    assert json.loads(text) == json.loads(json.dumps(records, indent=2, sort_keys=True))
    with open(os.path.join(pdir, "estimates.json")) as fh:
        est = json.load(fh)
    assert "de_Er" in est
    lines = read(os.path.join(pdir, "fringes.csv")).decode().splitlines()
    assert lines[0] == "t_us,phi_r,n_total,n_down"
    assert len(lines) == 1 + cfg.time_points * cfg.ramsey.phases


@pytest.mark.parametrize("estimator, point", [("exact", (0, 0.04)), ("experiment", (0, 0.16))])
def test_point_files_are_the_record(tmp_path, estimator, point):
    # report.json and diagnostics.json hold the record's fields and nothing
    # else, times in us; (0, 0.04) has a crossover and (0, 0.16) none
    cfg = small_config(tmp_path, estimator=estimator, points=(point,))
    (result,), failures = scan.run_points(cfg)
    assert failures == []
    scale = result.model.time_us_per_unit
    pdir = os.path.join(cfg.out_dir, result.label)
    with open(os.path.join(pdir, "report.json")) as fh:
        assert json.load(fh) == {
            "e_Er": result.e, "de_Er": result.de, "tau_mt_us": result.tau_mt * scale,
            "tau_ml_us": None if result.tau_ml == np.inf else result.tau_ml * scale,
            "tau_c_us": None if result.tau_c is None else result.tau_c * scale,
            "regime": result.regime, "xi_spectral": result.xi_spectral,
            "xi_fit": result.xi_fit, "min_margin": result.min_margin}
    with open(os.path.join(pdir, "diagnostics.json")) as fh:
        assert json.load(fh) == {
            "quadrature_defect": result.trace.quadrature_defect, "e_n_Er": result.e_n,
            "depth_Er": result.model.depth, "homega_Er": result.model.homega,
            "theta_rad": result.model.theta}
    assert (result.estimates is None) == (estimator == "exact")
    if result.estimates is not None:
        with open(os.path.join(pdir, "estimates.json")) as fh:
            assert json.load(fh) == result.estimates
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.min_margin = 0.0


EDGE_FLOATS = [-0.0, 5e-324, 1e-300, 1e16, 0.1]


def test_ramsey_artifacts_match_the_column_and_encoder_oracle(tmp_path):
    # fringes.csv and fits.json hold the bytes that the column writer and the
    # C JSON encoder gave, on a real point and on the same point carrying edge
    # floats (signed zero, a subnormal, exponent forms) and edge counts
    cfg = small_config(tmp_path, estimator="experiment", points=((1, 0.12),))
    result = scan.run_point(1, 0.12, cfg, scan.solve_displacement(0.12, cfg.params))
    series, count = result.records, cfg.time_points
    edge = [np.resize(np.roll(EDGE_FLOATS, k), count) for k in range(5)]
    trace = dataclasses.replace(result.trace, times=edge[0])
    counts = np.resize([0, series.n_total, 7], series.n_down.shape)
    edged = dataclasses.replace(result, trace=trace, records=dataclasses.replace(
        series, n_down=counts, v=edge[1], v_err=edge[2], phi=edge[3], phi_err=edge[4]))
    for point, out in ((result, "real"), (edged, "edge")):
        scan._write_point(point, str(tmp_path / out))
        fringes, fits = ramsey_artifacts_oracle(
            point.trace.times * point.model.time_us_per_unit, point.records)
        pdir = tmp_path / out / point.label
        assert read(pdir / "fringes.csv") == fringes.encode()
        assert read(pdir / "fits.json") == fits.encode()
    text = read(tmp_path / "edge" / result.label / "fits.json").decode()
    assert {"-0.0", "5e-324", "1e-300", "1e+16", "0.1"} <= set(re.findall(r"[-+.e\d]+", text))


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
    # the report's tau_c_us down fig2.csv; fig3.csv prints the estimates' tau_c
    label = "n0_dx0.0400"    # ML regime: its tau_c_us is a number
    pdir = os.path.join(cfg.out_dir, label)
    with open(os.path.join(pdir, "fits.json")) as fh:
        times = [repr(fit["t_us"]) for fit in json.load(fh)]
    with open(os.path.join(pdir, "report.json")) as fh:
        tau_c = repr(json.load(fh)["tau_c_us"])
    phases = [repr(phi) for phi in interferometer.phase_grid(cfg.ramsey.phases).tolist()]
    fringes = csv_columns(os.path.join(pdir, "fringes.csv"))
    assert fringes["t_us"] == [t for t in times for _ in phases]
    assert fringes["phi_r"] == phases * len(times)
    assert csv_columns(os.path.join(pdir, "trace.csv"))["t_us"] == times
    fig2 = csv_columns(os.path.join(cfg.out_dir, "fig2.csv"))
    rows = [i for i, point in enumerate(fig2["point"]) if point == label]
    assert [fig2["t_us"][i] for i in rows] == times
    assert {fig2["tau_c_us"][i] for i in rows} == {tau_c}
    with open(os.path.join(pdir, "estimates.json")) as fh:
        est = json.load(fh)
    tau_c_est = qsl.crossover_time(est["e_Er"], est["de_Er"])
    scale = LatticeModel(cfg.params).time_us_per_unit
    assert csv_columns(os.path.join(cfg.out_dir, "fig3.csv"))["tau_c_us"][0] == \
        ("" if tau_c_est is None else repr(tau_c_est * scale))


def test_trace_and_fig2_rows_match_the_column_writer(tmp_path):
    # trace.csv and fig2.csv are composed row by row from each time's and
    # |A|'s text, formatted once; they are the bytes write_csv prints from
    # the numeric columns
    cfg = small_config(tmp_path, estimator="experiment", curves=False,
                       points=((0, 0.04), (1, 0.5), (2, 0.16)))
    results, _ = scan.run_points(dataclasses.replace(cfg, out_dir=str(tmp_path / "points")))
    scan.run_scan(cfg)
    columns = [[] for _ in range(6)]
    for res in results:
        trace, scale = res.trace, res.model.time_us_per_unit
        tau_c = res.tau_c * scale if res.tau_c is not None else ""
        path = str(tmp_path / f"{res.label}.csv")
        scan.write_csv(path, ["t_us", "re_A", "im_A", "abs_A", "fs_distance"],
                       [trace.times * scale, trace.overlaps.real, trace.overlaps.imag,
                        trace.visibility, trace.fs_distance])
        assert read(os.path.join(cfg.out_dir, res.label, "trace.csv")) == read(path)
        cells = ([res.label] * trace.times.size, (trace.times * scale).tolist(),
                 trace.visibility.tolist(), qsl.mt_bound(res.de, trace.times).tolist(),
                 qsl.ml_bound(res.e, trace.times).tolist(), [tau_c] * trace.times.size)
        for column, part in zip(columns, cells):
            column += part
    path = str(tmp_path / "fig2.csv")
    scan.write_csv(path, ["point", "t_us", "abs_A", "mt_bound", "ml_bound", "tau_c_us"], columns)
    assert read(os.path.join(cfg.out_dir, "fig2.csv")) == read(path)


def test_scan_byte_identical_reruns(tmp_path):
    cfg_a = small_config(tmp_path, estimator="experiment",
                         out_dir=str(tmp_path / "a"), seed=11)
    cfg_b = small_config(tmp_path, estimator="experiment",
                         out_dir=str(tmp_path / "b"), seed=11)
    scan.run_scan(cfg_a)
    scan.run_scan(cfg_b)
    assert_same_files(cfg_a.out_dir, cfg_b.out_dir)


def test_estimates_do_not_depend_on_the_wavelength(tmp_path):
    # the Ramsey chain works in hbar/E_R and E_R: at zero light shift a
    # wavelength changes only the microseconds of the written times, not one
    # byte of the estimates or of fig4.csv
    outs = []
    for nm in (866, 1064):
        cfg = small_config(tmp_path, estimator="experiment", seed=11,
                           out_dir=str(tmp_path / f"nm{nm}"),
                           params=dataclasses.replace(SMALL, wavelength=nm * 1e-9))
        scan.run_scan(cfg)
        outs.append(cfg.out_dir)
    for label in ("n0_dx0.0400", "n0_dx0.1600"):
        a, b = (read(os.path.join(out, label, "estimates.json")) for out in outs)
        assert a == b, label
    a, b = (read(os.path.join(out, "fig4.csv")) for out in outs)
    assert a == b


def test_scan_calibrates_the_light_shift_out(tmp_path):
    # the scan adds the 81 rad/us light-shift phase to the fringes and takes
    # it off the fitted phase; at 10^6 detections per phase the mean energy
    # comes back within criterion 7's 1 percent of the exact one
    ramsey = interferometer.RamseyConfig(atoms_per_shot=1000, repetitions=1000,
                                         light_shift_slope=81.0)
    cfg = small_config(tmp_path, estimator="experiment", seed=11, ramsey=ramsey)
    for n, dx in ((0, 0.16), (1, 0.12)):
        result = scan.run_point(n, dx, cfg, scan.solve_displacement(dx, cfg.params))
        assert result.estimates["e_Er"] == pytest.approx(result.e, rel=0.01)


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


def test_point_counts_come_from_its_own_seed_alone(tmp_path):
    # each point draws from default_rng([seed, point index]): its counts do
    # not depend on the other points of the scan or on the order they run in
    cfg = small_config(tmp_path, estimator="experiment", seed=11)
    scan.run_scan(cfg)
    for idx, (n, dx) in enumerate(cfg.points):
        alone = str(tmp_path / f"alone{idx}")
        result = scan.run_point(n, dx, cfg, scan.solve_displacement(dx, cfg.params), idx)
        scan._write_point(result, alone)
        name = os.path.join(result.label, "fringes.csv")
        assert read(os.path.join(alone, name)) == read(os.path.join(cfg.out_dir, name))


def test_points_run_at_their_configured_displacement(tmp_path):
    # points were grouped and solved at round(dx, 12), so fig3.csv and
    # fig4.csv printed 0.050396841996 for the default point 0.05039684199579493
    points = ((0, 0.04 * 2 ** (1 / 3)), (2, 0.04 * 2 ** (1 / 3)), (1, 0.123456789012345678))
    cfg = small_config(tmp_path, points=points)
    scan.run_scan(cfg)
    for name in ("fig3.csv", "fig4.csv"):
        cells = csv_columns(os.path.join(cfg.out_dir, name))["dx"]
        assert [float(cell) for cell in cells] == [dx for _, dx in points]


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


def test_stationary_point_is_a_point_stage_failure(tmp_path):
    # at dx = 1e-4 the n = 0 packet's dE (0.028 E_R) is below
    # dynamics.STATIONARY_DE, so it has no finite tau_MT to end its trace; that
    # point fails on its own, and n = 2 of the same solve completes
    cfg = small_config(tmp_path, points=((0, 1e-4), (2, 1e-4)))
    summary = scan.run_scan(cfg)
    assert (summary["points_completed"], summary["points_failed"]) == (1, 1)
    with open(os.path.join(cfg.out_dir, "failures.json")) as fh:
        (failure,) = json.load(fh)
    assert (failure["point"], failure["stage"], failure["type"]) == (
        "n0_dx0.0001", "point", "ParameterError")
    assert "no finite tau_MT" in failure["error"]
    assert os.path.isfile(os.path.join(cfg.out_dir, "n2_dx0.0001", "report.json"))


@pytest.mark.parametrize("seed", [12, 16])
def test_fig3_has_a_crossover_exactly_in_the_ml_regime(tmp_path, seed):
    # an experiment point's fig3 regime and tau_c both come from its estimates;
    # a tau_c taken from the exact report gave these seeds' n = 0, dx = 0.1008
    # point the MT regime with a crossover time, and seed 16's dx = 0.1270 the
    # ML regime without one
    cfg = scan.ScanConfig(points=tuple(scan.default_grid()[:6]), estimator="experiment",
                          seed=seed, curves=False, out_dir=str(tmp_path / "out"))
    scan.run_scan(cfg)
    fig3 = csv_columns(os.path.join(cfg.out_dir, "fig3.csv"))
    assert [tau_c != "" for tau_c in fig3["tau_c_us"]] == [r == "ML" for r in fig3["regime"]]


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

    # one whose mean-energy estimate failed takes E from its exact report and
    # dE and xi from its estimates, and fig3's regime and tau_c from that
    # (E, dE) pair; dx = 0.04 puts the pair in the ML regime, with a tau_c
    monkeypatch.undo()

    def no_phase(*args, **kwargs):
        raise EstimationError("synthetic unresolved phase")

    monkeypatch.setattr(interferometer, "extract_mean_energy", no_phase)
    cfg = small_config(tmp_path, estimator="experiment", points=((0, 0.04),))
    pdir = os.path.join(cfg.out_dir, "n0_dx0.0400")
    values, diag, rep, est = figure_values()
    assert "e_error" in est and "e_Er" not in est and "de_Er" in est and "xi_fit" in est
    pair = {"e_Er": rep["e_Er"], "de_Er": est["de_Er"], "xi_fit": est["xi_fit"]}
    assert values == expected(pair, diag["homega_Er"])
    fig3 = csv_columns(os.path.join(cfg.out_dir, "fig3.csv"))
    tau_c = qsl.crossover_time(rep["e_Er"], est["de_Er"])
    scale = LatticeModel(cfg.params, 0.04).time_us_per_unit
    assert (fig3["regime"], fig3["tau_c_us"]) == (["ML"], [repr(tau_c * scale)])


def test_estimator_fault_is_a_point_failure(tmp_path, monkeypatch):
    # estimates.json records only the estimators' own EstimationError and
    # ParameterError; any other exception is a fault and fails the point
    cfg = small_config(tmp_path, estimator="experiment", points=((0, 0.12),))

    def broken(*args, **kwargs):
        raise TypeError("synthetic fault")

    monkeypatch.setattr(interferometer, "extract_mean_energy", broken)
    summary = scan.run_scan(cfg)
    assert (summary["points_completed"], summary["points_failed"]) == (0, 1)
    with open(os.path.join(cfg.out_dir, "failures.json")) as fh:
        (failure,) = json.load(fh)
    assert (failure["point"], failure["stage"], failure["type"], failure["error"]) == (
        "n0_dx0.1200", "point", "TypeError", "synthetic fault")


def test_reference_curves():
    alphas = np.array([0.1, 0.5, 1.0, 2.0])
    curve = scan.coherent_reference_curve(alphas)
    # crossing of the two reciprocal times exactly at alpha = 1
    assert curve[2, 0] == pytest.approx(curve[2, 1])
    assert np.all(curve[:2, 0] < curve[:2, 1])   # small alpha: crossover regime
    assert np.all(curve[3:, 0] > curve[3:, 1])   # large alpha: uncertainty regime
    zetas = np.array([1e-3, 0.3, np.pi / 2 - 1e-9])
    qcurve = 4.0 * np.column_stack(qsl.qubit_moments(zetas, 1.0)[:2])   # fig3_qubit.csv's
    # small angle: inv_tau_ml ~ zeta^2 vanishes faster than inv_tau_mt ~ 2 zeta
    assert qcurve[0, 0] == pytest.approx(zetas[0] ** 2, rel=1e-5)
    assert qcurve[0, 1] == pytest.approx(2 * zetas[0], rel=1e-5)
    assert np.all(qcurve[:, 0] < qcurve[:, 1])   # entirely in the crossover region
    assert qcurve[-1, 1] == pytest.approx(2.0, rel=1e-6)  # maximal two-level speed
    with pytest.raises(ParameterError):
        qsl.qubit_moments(np.array([4.0]), 1.0)


def test_qubit_artifacts_match_the_two_level_oracle(tmp_path, capsys):
    # qubit.csv and fig3_qubit.csv read one closed form, qsl.qubit_moments;
    # both are checked against E, dE and the Bernoulli kurtosis of the
    # populations cos^2(zeta/2), sin^2(zeta/2) on the levels 0 and omega
    cfgfile = write_small_yaml(tmp_path)
    out = str(tmp_path / "qubit")
    assert cli.main(["qubit", "--config", cfgfile, "--out", out]) == 0
    capsys.readouterr()
    omega = LatticeModel(params=SMALL).homega
    rows = csv_columns(os.path.join(out, "qubit.csv"))
    zetas = np.array(rows["zeta"], dtype=float)
    assert zetas.size == 40 and (zetas[0], zetas[-1]) == (0.05, np.pi - 0.05)
    oracle = np.array([bernoulli_moments(Qubit(zeta, omega)) for zeta in zetas])
    for column, key in enumerate(("e_Er", "de_Er", "xi")):
        assert np.abs(np.array(rows[key], dtype=float) - oracle[:, column]).max() <= 1e-12, key
    cfg = small_config(tmp_path, points=((0, 0.16),), curves=True, curve_points=1)
    scan.run_scan(cfg)
    fig = csv_columns(os.path.join(cfg.out_dir, "fig3_qubit.csv"))
    zetas = np.array(fig["zeta"], dtype=float)
    oracle = np.array([bernoulli_moments(Qubit(zeta, omega))[:2] for zeta in zetas]) / omega
    for column, key in enumerate(("inv_tau_ml", "inv_tau_mt")):
        assert np.abs(np.array(fig[key], dtype=float) - 4.0 * oracle[:, column]).max() <= 1e-12


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


def test_cli_seed_flag_replaces_the_config_seed(tmp_path, capsys):
    # scan and point write the bytes that the library writes with seed 7;
    # a negative seed is one line on stderr and exit status 2
    cfgfile = write_small_yaml(tmp_path)
    lib, out = tmp_path / "lib", tmp_path / "cli"
    scan.run_scan(dataclasses.replace(scan.load_config(cfgfile), seed=7,
                                      estimator="experiment", out_dir=str(lib)))
    flags = ["--config", cfgfile, "--seed", "7", "--estimator", "experiment"]
    assert cli.main(["scan", *flags, "--out", str(out)]) == 0
    assert_same_files(lib, out)
    assert_same_files(out, lib)
    assert cli.main(["point", *flags, "--out", str(tmp_path / "point")]) == 0
    assert_same_files(lib / "n0_dx0.1000", tmp_path / "point" / "n0_dx0.1000")
    assert_same_files(tmp_path / "point" / "n0_dx0.1000", lib / "n0_dx0.1000")
    capsys.readouterr()
    for verb in ("scan", "point"):
        assert cli.main([verb, "--config", cfgfile, "--seed", "-1",
                         "--out", str(tmp_path / "negative")]) == 2
        err = capsys.readouterr().err
        assert err == f"qslab {verb}: error: seed must be non-negative, got -1\n"


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
    # a boolean min_margin ({"min_margin": true}) used to count as the number 1,
    # and a NaN or infinite one (which json.load reads) as a point with no violation
    for text in (truncated, "[1, 2]", "{}", '{"min_margin": true}', '{"min_margin": NaN}',
                 '{"min_margin": Infinity}', '{"min_margin": -Infinity}'):
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


def test_cli_point_leaves_a_scans_top_level_artifacts(tmp_path, capsys):
    # a point run into a scan's directory used to rewrite fig2.csv, fig3.csv,
    # fig4.csv and summary.json for its one point and to remove the scan's
    # failures.json; it writes its own point directory and nothing else
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"lattice": {"sites": 9, "points_per_site": 32},
                                    "scan": {"points": [[0, 1e-4], [1, 0.1]],
                                             "curve_points": 3}}))
    out = tmp_path / "out"
    # n = 0 at dx = 1e-4 is stationary, so the scan records one failure
    assert cli.main(["scan", "--config", str(path), "--out", str(out)]) == 1
    top = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert {"failures.json", "fig3_curves.csv", "summary.json"} <= set(top)
    assert cli.main(["point", "--config", str(path), "--out", str(out), "--n", "0",
                     "--dx", "0.08", "--estimator", "experiment"]) == 0
    assert '"regime"' in capsys.readouterr().out
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == top
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["n0_dx0.0800", "n1_dx0.1000"]


def test_cli_bad_input_prints_one_line_and_exits_2(tmp_path, monkeypatch, capsys):
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
    # or in FileNotFoundError for an empty scan.out; an empty --out was dropped,
    # so the run wrote into the default qslab-out/ and exited 0
    small = tmp_path / "small.yaml"
    small.write_text(yaml.safe_dump({"lattice": {"sites": 9, "points_per_site": 32},
                                     "scan": {"points": [[0, 0.1]], "curves": False}}))
    existing = str(tmp_path / "a_file")
    open(existing, "w").close()
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    for out_dir in (existing, ""):
        for argv in (["point", "--dx", "0.1"], ["scan"], ["bands"], ["qubit"]):
            assert cli.main([*argv, "--config", str(small), "--out", out_dir]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"qslab {argv[0]}: error: output directory {out_dir!r}: ")
            assert err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == before
    # so did a file where a point's own directory goes
    blocked = str(tmp_path / "n0_dx0.1000")
    open(blocked, "w").close()
    assert cli.main(["point", "--config", str(small), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"qslab point: error: output directory {blocked!r}: ")
    assert err.count("\n") == 1
    path.write_text(yaml.safe_dump({"scan": {"out": "", "points": [[0, 0.1]], "curves": False}}))
    assert cli.main(["scan", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qslab scan: error: output directory '': ") and err.count("\n") == 1


def test_cli_unwritable_artifact_exits_2_and_leaves_no_temporary_file(tmp_path, capsys):
    # a directory where an artifact goes used to end in an IsADirectoryError
    # traceback, leaving the artifact's temporary file behind
    cfgfile = write_small_yaml(tmp_path, estimator="experiment")
    for name in ("summary.json", os.path.join("n0_dx0.1000", "report.json")):
        out = tmp_path / name.replace(os.sep, "_")
        blocked = str(out / name)
        os.makedirs(blocked)
        assert cli.main(["scan", "--config", cfgfile, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qslab scan: error: output file {blocked!r}: ")
        assert err.count("\n") == 1
        assert [os.path.join(root, f) for root, _, files in os.walk(out)
                for f in files if ".tmp." in f] == []


def test_cli_scan_experiment(tmp_path, capsys):
    cfgfile = write_small_yaml(tmp_path, estimator="experiment", seed=3)
    out = str(tmp_path / "scanout")
    rc = cli.main(["scan", "--config", cfgfile, "--out", out])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["points_failed"] == 0
    assert os.path.isfile(os.path.join(out, "n0_dx0.1000", "fringes.csv"))


def test_cli_bands_values(tmp_path, capsys):
    # bands.csv and energies.csv hold the solver's floats bit for bit, and
    # the printed tunneling times are 1 / (bandwidth * E_R/h)
    out = str(tmp_path / "bands")
    assert cli.main(["bands", "--config", write_small_yaml(tmp_path), "--out", out,
                     "--n-bands", "4", "--q-points", "16", "--n-levels", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    q, energies = eigensolve.band_structure(LatticeModel(SMALL), 4, 16)
    bands = csv_columns(os.path.join(out, "bands.csv"))
    assert bands["band"] == [str(b) for b in range(4) for _ in range(16)]
    assert [float(v) for v in bands["q"]] == np.tile(q, 4).tolist()
    assert [float(v) for v in bands["energy_Er"]] == energies.T.ravel().tolist()
    levels = csv_columns(os.path.join(out, "energies.csv"))
    spectrum = eigensolve.decompose(LatticeModel(SMALL).depth, SMALL.sites,
                                    SMALL.points_per_site).spectrum
    assert levels["index"] == [str(i) for i in range(8)]
    assert [float(v) for v in levels["energy_Er"]] == spectrum[:8].tolist()
    widths = np.array(payload["bandwidths_Er"])
    assert widths.tolist() == np.ptp(energies, axis=0).tolist()
    assert payload["tunneling_times_s"] == \
        (1.0 / (widths * recoil_hertz(SMALL.wavelength))).tolist()


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
    # an angle outside (0, pi) is stationary: one line, nothing written
    empty = str(tmp_path / "qubit-zeta")
    assert cli.main(["qubit", "--config", cfgfile, "--out", empty, "--zeta-min", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qslab qubit: error: zeta in (0, pi)") and err.count("\n") == 1
    assert not os.path.exists(empty)
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
