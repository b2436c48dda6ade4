"""Parameter sweeps over (displacement, vibrational index) and figure data.

A scan point fixes the packet shape n and the lattice displacement dx, runs
the exact pipeline (decompose, packets, overlap trace, bounds report) and
optionally the simulated measurement chain.  Outputs are flat CSV/JSON files
written atomically per point; identical configuration and seed give
byte-identical results.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import os
from collections.abc import Sequence
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics, eigensolve, interferometer, qsl
from .errors import EstimationError, ParameterError, check_fields, check_kind
from .model import LatticeModel, LatticeParams

DEFAULT_SEED = 20260809
GRID_LABEL = "default-34 (package choice; log-spaced displacements)"


def default_grid() -> list[tuple[int, float]]:
    """34 scan points: log-spaced displacements per packet shape n = 0, 1, 2.

    The n = 0 ladder steps by 2^(1/3) from 0.04 so the 0.04/0.08/0.16
    reference displacements appear exactly; all series end at 0.5.
    """
    ladder = [0.04 * 2 ** (k / 3.0) for k in range(11)]
    points = [(0, dx) for dx in ladder] + [(0, 0.5)]
    points += [(1, dx) for dx in ladder[:10]] + [(1, 0.5)]
    points += [(2, dx) for dx in ladder[:10]] + [(2, 0.5)]
    return points


@dataclass(frozen=True)
class ScanConfig:
    points: tuple = tuple(default_grid())
    params: LatticeParams = field(default_factory=LatticeParams)
    estimator: str = "exact"            # "exact" | "experiment"
    seed: int = DEFAULT_SEED
    out_dir: str | os.PathLike = "qslab-out"
    time_points: int = 64
    curves: bool = True
    curve_points: int = 25
    ramsey: interferometer.RamseyConfig = field(
        default_factory=interferometer.RamseyConfig)
    state_point: tuple | None = None    # (n, dx) from the config's state section
    workers = 1     # not a field: perfbench/child.py records it until the next benchmark change

    def __post_init__(self):
        # linspace(0, tau_MT, N) puts floor(0.3 (N - 1)) samples in (0, 0.3 tau_MT], the
        # xi fit window of qsl.deviation_from_visibility, which needs 6; N = 21 is the least
        check_fields(self, "scan", time_points=21, curve_points=1)
        for name, kind in (("points", Sequence), ("params", LatticeParams),
                           ("ramsey", interferometer.RamseyConfig)):
            if not isinstance(value := getattr(self, name), kind):
                raise ParameterError(f"scan.{name} must be a {kind.__name__}, got {value!r}")
        if self.estimator not in ("exact", "experiment"):
            raise ParameterError(f"estimator must be 'exact' or 'experiment', got {self.estimator!r}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if self.state_point is not None:
            check_point("state", self.state_point)
        seen = set()
        for point in self.points:
            check_point("scan.points", point)
            label = point_label(*point)
            if label in seen:
                raise ParameterError(f"duplicate scan point {label}: a point's directory "
                                     "name carries dx to 4 decimals")
            seen.add(label)


def point_label(n: int, dx: float) -> str:
    """The name of a point's artifact directory and failure record."""
    return f"n{n}_dx{dx:.4f}"


def check_point(where: str, point) -> None:
    """An (n, dx) pair: an integral n in {0, 1, 2} and a real dx in (0, 0.5]."""
    if not isinstance(point, Sequence) or len(point) != 2:
        raise ParameterError(f"{where}: a point must be an (n, dx) pair, got {point!r}")
    n, dx = point
    check_kind(f"{where}: packet shape n", n, "int")
    if n not in (0, 1, 2):
        raise ParameterError(f"{where}: packet shape n must be the integer 0, 1 or 2, got {n!r}")
    check_kind(f"{where}: displacement", dx, "float")
    if not 0.0 < dx <= 0.5:
        raise ParameterError(f"{where}: displacement must lie in (0, 0.5], got {dx!r}")


def load_config(path: str) -> ScanConfig:
    """Build a ScanConfig from a nested key-value YAML file."""
    import yaml     # only here: the pipeline itself never parses YAML

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ParameterError(f"config file {path!r}: {exc.strerror}") from exc
    except (yaml.YAMLError, ValueError) as exc:
        # a YAML message spans lines, printed here on one; a ValueError is a
        # file that is not UTF-8 or a date such as 2020-13-45
        raise ParameterError(f"config file {path!r}: {' '.join(str(exc).split())}") from exc
    # only an empty file means the defaults; false, 0 or [] are not a config
    return config_from_dict({} if raw is None else raw)


def _integral(value):
    """YAML's float spelling of an integer, such as 9.0, as the int it spells."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


# config key -> field name per section; a key left out keeps its dataclass default,
# so each default is set in one place
_KEYS = {
    "lattice": {"wavelength_nm": "wavelength", "depth_Er": "depth_at_zero", "sites": "sites",
                "points_per_site": "points_per_site"},
    "state": {"n": "n", "dx_halflambda": "dx"},
    "scan": {"points": "points", "estimator": "estimator", "seed": "seed", "out": "out_dir",
             "time_points": "time_points", "curves": "curves", "curve_points": "curve_points"},
    "ramsey": {"phases": "phases", "atoms_per_shot": "atoms_per_shot",
               "repetitions": "repetitions", "loss_fraction": "loss_fraction",
               "light_shift_slope_rad_per_us": "light_shift_slope"},
}
# field name -> annotation per section; the state section is an (n, dx) point
_ANNOTATIONS = {"lattice": LatticeParams.__annotations__, "state": {"n": "int", "dx": "float"},
                "scan": ScanConfig.__annotations__,
                "ramsey": interferometer.RamseyConfig.__annotations__}


def _fields(raw: dict, section: str) -> dict:
    """Keyword arguments for one section's keys, each of its field's kind or an error naming it."""
    body = raw.get(section)
    if body is None:    # a missing or null section keeps the defaults; false, 0 or [] is an error
        body = {}
    if not isinstance(body, dict):
        raise ParameterError(f"config section {section!r} must be a mapping")
    fields = {}
    for key, value in body.items():
        if key not in _KEYS[section]:
            raise ParameterError(f"unknown config key {section}.{key}")
        name, where = _KEYS[section][key], f"config key {section}.{key}"
        kind = _ANNOTATIONS[section][name]
        value = _integral(value) if kind == "int" else value
        if name != "points":
            check_kind(where, value, kind)
        elif not isinstance(value, (list, tuple, type(None))):  # 0, false, "" or {}
            raise ParameterError(f"{where} must be a list of [n, dx] pairs, got {value!r}")
        else:   # null or [] keeps the default grid; check_point refuses an entry that is no pair
            value = tuple((_integral(p[0]), p[1]) if isinstance(p, (list, tuple)) and len(p) == 2
                          else p for p in value or ()) or ScanConfig.points
        fields[name] = value * 1e-9 if key == "wavelength_nm" else value
    return fields


def config_from_dict(raw: dict) -> ScanConfig:
    """Build a ScanConfig from nested sections; an unknown section or key, or a
    value of the wrong type, raises ParameterError."""
    if not isinstance(raw, dict):
        raise ParameterError("config must be a mapping of sections")
    unknown = [name for name in raw if name not in _KEYS]
    if unknown:
        raise ParameterError(f"unknown config section {unknown[0]!r}")
    lat, state, scan, ram = (_fields(raw, name) for name in _KEYS)
    if state and "dx" not in state:
        raise ParameterError("config section state needs state.dx_halflambda")
    state_point = (state.get("n", 0), state["dx"]) if state else None
    return ScanConfig(params=LatticeParams(**lat), ramsey=interferometer.RamseyConfig(**ram),
                      state_point=state_point, **scan)


@dataclass(frozen=True)
class PointResult:
    """One point's record; e to min_margin are qsl.report's, in E_R and hbar/E_R."""

    n: int
    dx: float
    model: LatticeModel
    spectral: dynamics.SpectralState
    trace: dynamics.OverlapTrace
    e_n: float
    e: float
    de: float
    tau_mt: float
    tau_ml: float
    tau_c: float | None
    regime: str
    xi_spectral: float
    xi_fit: float
    min_margin: float
    records: interferometer.FringeSeries | None = None
    estimates: dict | None = None

    @property
    def label(self) -> str:
        return point_label(self.n, self.dx)


def _site_model(dx: float, params: LatticeParams) -> LatticeModel:
    """The model of one dx, whose well must bind the n = 2 packet."""
    model = LatticeModel(params, dx)
    levels = eigensolve.bound_level_count(model)
    if levels < 3:
        raise ParameterError(
            f"the packets n = 0, 1, 2 need 3 bound levels; ~{levels} at depth "
            f"{model.depth:.1f} E_R")
    return model


def solve_displacement(dx: float, params: LatticeParams):
    """(model, eig, packets) shared by the points of one dx: the half-zone
    Bloch solve, whose q = 0 block gives e_n, and the (3, Q, P) packets
    n = 0, 1, 2 that dynamics.packets builds from that block's modes.  The
    evolution wells sit at integer sites; the packets carry the relative
    displacement dx."""
    model = _site_model(dx, params)
    eig = eigensolve.decompose(model.depth, params.sites, params.points_per_site)
    return model, eig, dynamics.packets(dx, eig.vectors[0, :, :3], eig.quasimomenta, eig.orders)


def run_point(n: int, dx: float, config: ScanConfig, solved,
              point_index: int = 0) -> PointResult:
    """Full pipeline for one (n, dx) combination, given solve_displacement(dx)."""
    model, eig, packets = solved
    spectral = dynamics.to_spectral(packets[n], eig)
    moms = dynamics.moments(spectral)
    trace = dynamics.evolve_overlap(spectral, moms.tau_mt, config.time_points)
    result = PointResult(n=n, dx=dx, model=model, spectral=spectral, trace=trace,
                         e_n=float(eig.energies[0, n] - eig.ground_offset),
                         **qsl.report(moms, trace))
    if config.estimator == "experiment":
        records, estimates = _run_experiment(result, config, point_index)
        result = replace(result, records=records, estimates=estimates)
    return result


def _run_experiment(result: PointResult, config: ScanConfig, point_index: int):
    times, tau_mt, e_n = result.trace.times, result.tau_mt, result.e_n
    # the beams' light shift, a phase slope in rad/us: the fringes carry it and
    # the analysis subtracts it, as a measured shift is calibrated out
    light = config.ramsey.light_shift_slope * (times * result.model.time_us_per_unit)
    phase = interferometer.fringe_phase(result.trace, e_n) + light
    series = interferometer.simulate_series(result.trace.visibility, phase, config.ramsey,
                                            [config.seed, point_index])
    estimates = {}
    try:
        e_hat, e_err = interferometer.extract_mean_energy(times, series.phi - light, e_n, tau_mt)
        estimates.update(e_Er=e_hat, e_err_Er=e_err)
    except (EstimationError, ParameterError) as exc:    # recorded, not fatal
        estimates["e_error"] = str(exc)
    try:
        de_hat, de_err = interferometer.extract_uncertainty(times, series.v_raw, tau_mt)
        estimates.update(de_Er=de_hat, de_err_Er=de_err)
    except (EstimationError, ParameterError) as exc:
        estimates["de_error"] = str(exc)
    try:
        xi_hat, xi_err = qsl.deviation_from_visibility(times, series.v, result.de)
        estimates.update(xi_fit=xi_hat, xi_err=xi_err)
    except (EstimationError, ParameterError) as exc:
        estimates["xi_error"] = str(exc)
    return series, estimates


def coherent_reference_curve(alphas: np.ndarray) -> np.ndarray:
    """Orthogonalization-rate curve of a coherent excitation.

    E = homega alpha^2 and dE = homega alpha give, in units of the trap
    oscillation rate, inv_tau_ml = 4 alpha^2 and inv_tau_mt = 4 alpha; the
    two rates cross at alpha = 1.
    """
    alphas = np.asarray(alphas, dtype=float)
    if np.any(alphas <= 0):
        raise ParameterError("alpha must be positive")
    return np.column_stack([4.0 * alphas**2, 4.0 * alphas])


def lattice_reference_curves(config: ScanConfig, dx_values: np.ndarray) -> list[dict]:
    """Exact-model (inv_tau_ml, inv_tau_mt) curves, one per packet shape.

    E and dE need only the three lowest q = 0 modes, which one
    eigensolve.q0_modes call solves at every displacement: they give the
    packets (dynamics.packets) and E_0, as decompose does for the points.  The
    half-zone blocks act on the packets, with the points' weights, by their
    stencil (H - E_0) a = (kappa k^2 - U0/2 - E_0) a - (U0/4) (a[m + 1] + a[m - 1]).
    """
    params = config.params
    models = [_site_model(dx, params) for dx in map(float, dx_values)]
    site_e, modes = eigensolve.q0_modes([model.depth for model in models],
                                        params.points_per_site, 3)
    q, weights = eigensolve.half_zone(params.sites)
    orders, kinetic, up, down = eigensolve.plane_waves(params.points_per_site, q)
    block, rows = np.arange(q.size)[:, None], []
    for model, ground, cell_modes in zip(models, site_e[:, 0], modes):
        a, depth = dynamics.packets(model.dx, cell_modes, q, orders), model.depth
        h_a = (kinetic - depth / 2.0 - ground) * a \
            - depth / 4.0 * (a[:, block, up] + a[:, block, down])       # (H - E_0) a
        e = (a.conj() * h_a).real.sum(axis=2) @ weights
        de = np.sqrt((np.abs(h_a - e[:, None, None] * a) ** 2).sum(axis=2) @ weights)
        ml, mt = (4.0 * np.array([e, de]) / model.homega).tolist()
        rows += [{"n": n, "dx": model.dx, "inv_tau_ml": ml[n], "inv_tau_mt": mt[n]}
                 for n in range(3)]
    return rows


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def make_out_dir(path: str) -> None:
    """os.makedirs; a path that cannot be a directory is a ParameterError naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"output directory {path!r}: {exc.strerror}") from exc


def _write_atomic(path: str, text: str) -> None:
    """Write through a temporary file; a path that cannot take the file is a
    ParameterError naming it, and the temporary file is removed."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with suppress(OSError):
            os.remove(tmp)
        raise ParameterError(f"output file {path!r}: {exc.strerror}") from exc


def write_csv(path: str, header: list[str], columns) -> None:
    """One line per row of the columns: an ndarray column printed by str of its tolist()
    scalars (for a float the shortest round-trip repr, as _fmt prints it), any other by _fmt."""
    text = [map(str, c.tolist()) if isinstance(c, np.ndarray) else map(_fmt, c) for c in columns]
    lines = [",".join(header), *map(",".join, zip(*text))]
    _write_atomic(path, "\n".join(lines) + "\n")


def write_json(path: str, payload) -> None:
    """A dict payload with indent=2; a list (failures.json) as [, one record per line, ]."""
    if isinstance(payload, list):
        text = "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in payload) + "\n]"
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    _write_atomic(path, text + "\n")


# a fits.json record as json.dumps(sort_keys=True) prints it: fit_fringes gives
# finite floats only, whose JSON text is their repr, and t_us comes as text
_FIT_RECORD = '{"phi": %r, "phi_err": %r, "t_us": %s, "v": %r, "v_err": %r}'


def _write_point(result: PointResult, out_dir: str) -> str:
    """Write the point's directory; returns its fig2.csv rows, from the same
    text of its times and |A|."""
    pdir = os.path.join(out_dir, result.label)
    make_out_dir(pdir)
    scale = result.model.time_us_per_unit
    trace = result.trace
    # each time and |A| is formatted once, as str of a float: trace.csv,
    # fringes.csv, fits.json and fig2.csv share the text
    t_text = list(map(str, (trace.times * scale).tolist()))
    abs_text = list(map(str, trace.visibility.tolist()))
    rows = map("{},{},{},{},{}".format, t_text, trace.overlaps.real.tolist(),
               trace.overlaps.imag.tolist(), abs_text, trace.fs_distance.tolist())
    _write_atomic(os.path.join(pdir, "trace.csv"),
                  "\n".join(["t_us,re_A,im_A,abs_A,fs_distance", *rows]) + "\n")
    # json prints an np.float64, a float subclass, as its repr, as it does a float
    write_json(os.path.join(pdir, "report.json"), {
        "e_Er": result.e,
        "de_Er": result.de,
        "tau_mt_us": result.tau_mt * scale,
        "tau_ml_us": result.tau_ml * scale if np.isfinite(result.tau_ml) else None,
        "tau_c_us": result.tau_c * scale if result.tau_c is not None else None,
        "regime": result.regime,
        "xi_spectral": result.xi_spectral,
        "xi_fit": result.xi_fit,
        "min_margin": result.min_margin,
    })
    write_json(os.path.join(pdir, "diagnostics.json"), {
        "quadrature_defect": result.trace.quadrature_defect,
        "e_n_Er": result.e_n,
        "depth_Er": result.model.depth,
        "homega_Er": result.model.homega,
        "theta_rad": result.model.theta,
    })
    series = result.records
    if series is not None:
        # a fringes.csv row is its time's text, its phase's ",phi_r,n_total," and its count
        mid = [f",{phi},{series.n_total}," for phi in series.phi_r.tolist()]
        rows = [f"{t}{m}{count}" for t, counts in zip(t_text, series.n_down.tolist())
                for m, count in zip(mid, counts)]
        _write_atomic(os.path.join(pdir, "fringes.csv"),
                      "\n".join(["t_us,phi_r,n_total,n_down", *rows]) + "\n")
        records = map(_FIT_RECORD.__mod__, zip(series.phi.tolist(), series.phi_err.tolist(),
                                               t_text, series.v.tolist(), series.v_err.tolist()))
        _write_atomic(os.path.join(pdir, "fits.json"), "[\n" + ",\n".join(records) + "\n]\n")
        write_json(os.path.join(pdir, "estimates.json"), result.estimates)
    tau_c_us = _fmt(result.tau_c * scale if result.tau_c is not None else "")
    row = f"{result.label},{{}},{{}},{{}},{{}},{tau_c_us}\n".format
    return "".join(map(row, t_text, abs_text, qsl.mt_bound(result.de, trace.times).tolist(),
                       qsl.ml_bound(result.e, trace.times).tolist()))


def _figure_columns(results: list[PointResult]):
    """The columns of fig3.csv and fig4.csv.  A point with a dE estimate
    gives fig3 (its tau_c too) and fig4 its estimates, any other its record."""
    fig3, fig4 = [[] for _ in range(6)], [[] for _ in range(6)]
    for res in results:
        scale = res.model.time_us_per_unit
        homega = res.model.homega
        est = {"e_Er": res.e, "de_Er": res.de, "xi_fit": res.xi_fit} | (
            res.estimates if "de_Er" in (res.estimates or ()) else {})
        e_val, de_val, xi = est["e_Er"], est["de_Er"], max(est["xi_fit"], 0.0)
        tau_c = qsl.crossover_time(e_val, de_val)
        cells3 = (res.n, res.dx, 4.0 * e_val / homega, 4.0 * de_val / homega,
                  "ML" if de_val > e_val else "MT", tau_c * scale if tau_c is not None else "")
        cells4 = (res.n, res.dx, de_val / homega, xi, xi**0.25, int(res.dx > 0.25))
        for column, cell in zip(fig3 + fig4, cells3 + cells4):
            column.append(cell)
    return fig3, fig4


def _failure(n: int, dx: float, stage: str, exc: Exception) -> dict:
    """The failures.json record of a point whose solve or own run raised."""
    return {"point": point_label(n, dx), "stage": stage, "type": type(exc).__name__,
            "error": str(exc)}


def _run_group(dx: float, group: list[tuple[int, int]], config: ScanConfig,
               results: dict, failures: list) -> None:
    """Run the (point index, n) pairs of one dx; its Bloch solve is freed on return."""
    try:
        solved = solve_displacement(dx, config.params)
    except Exception as exc:  # noqa: BLE001 - continue-on-error policy
        failures.extend(_failure(n, dx, "solve", exc) for _, n in group)
        return
    for idx, n in group:
        try:
            results[idx] = run_point(n, dx, config, solved, idx)
        except Exception as exc:  # noqa: BLE001
            failures.append(_failure(n, dx, "point", exc))


def _blas_threads():
    """(get, set) of the thread count of the BLAS that numpy.linalg links, or
    None when that library exports no OpenBLAS setter."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
        try:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the body, or each call of a function it decorates, on one BLAS
    thread and then restore the caller's count.  The scan's block solves and
    contractions are too small for a second thread, which only spins.  The
    count is process-wide.  A process that imports qslab before numpy already
    has one thread and no OpenBLAS worker from the start (see qslab/__init__);
    this covers a process that loaded numpy first, such as a test session or
    a notebook."""
    threads = _blas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _run_points(config: ScanConfig):
    """run_points, plus each result's fig2.csv rows."""
    make_out_dir(config.out_dir)
    by_dx: dict[float, list[tuple[int, int]]] = {}
    for idx, (n, dx) in enumerate(config.points):
        by_dx.setdefault(float(dx), []).append((idx, n))
    results: dict[int, PointResult] = {}
    failures = []
    for dx, group in by_dx.items():
        _run_group(dx, group, config, results, failures)
    ordered = [results[i] for i in sorted(results)]
    return ordered, failures, [_write_point(res, config.out_dir) for res in ordered]


@_one_blas_thread()
def run_points(config: ScanConfig) -> tuple[list[PointResult], list[dict]]:
    """Execute the configured points on one BLAS thread and write each
    completed point's directory, and nothing else, into config.out_dir.
    Returns the results in configuration order and the failure records."""
    return _run_points(config)[:2]


@_one_blas_thread()
def run_scan(config: ScanConfig) -> dict:
    """Execute every scan point and the reference curves on one BLAS thread,
    write every artifact, return the summary; the caller's BLAS thread count
    is restored afterwards."""
    if config.curves:   # before any output: a lattice too shallow for them writes nothing
        rows = lattice_reference_curves(config, np.geomspace(0.025, 0.5, config.curve_points))
        curves = [[r[key] for r in rows] for key in ("n", "dx", "inv_tau_ml", "inv_tau_mt")]
    ordered, failures, fig2 = _run_points(config)
    _write_atomic(os.path.join(config.out_dir, "fig2.csv"),
                  "".join(["point,t_us,abs_A,mt_bound,ml_bound,tau_c_us\n", *fig2]))
    fig3, fig4 = _figure_columns(ordered)
    write_csv(os.path.join(config.out_dir, "fig3.csv"),
              ["n", "dx", "inv_tau_ml", "inv_tau_mt", "regime", "tau_c_us"], fig3)
    write_csv(os.path.join(config.out_dir, "fig4.csv"),
              ["n", "dx", "de_over_homega", "xi", "xi_fourth_root", "nonharmonic"], fig4)
    if config.curves:
        write_csv(os.path.join(config.out_dir, "fig3_curves.csv"),
                  ["n", "dx", "inv_tau_ml", "inv_tau_mt"], curves)
        # two-level limit at omega = 1: inv_tau_ml = 4 E, inv_tau_mt = 4 dE
        zetas = np.linspace(0.02, np.pi / 2.0 - 0.02, 40)
        e, de, _ = qsl.qubit_moments(zetas, 1.0)
        write_csv(os.path.join(config.out_dir, "fig3_qubit.csv"),
                  ["zeta", "inv_tau_ml", "inv_tau_mt"], [zetas, 4.0 * e, 4.0 * de])
        alphas = np.geomspace(0.05, 3.0, 40)
        write_csv(os.path.join(config.out_dir, "fig3_coherent.csv"),
                  ["alpha", "inv_tau_ml", "inv_tau_mt"],
                  [alphas, *coherent_reference_curve(alphas).T])

    violations = sum(1 for r in ordered if r.min_margin < -qsl.BOUND_MARGIN_TOL)
    summary = {
        "grid": GRID_LABEL if tuple(config.points) == tuple(default_grid()) else "custom",
        "points_completed": len(ordered),
        "points_failed": len(failures),
        "bound_violations": violations,
        "estimator": config.estimator,
        "seed": config.seed,
    }
    write_json(os.path.join(config.out_dir, "summary.json"), summary)
    failures_path = os.path.join(config.out_dir, "failures.json")
    if failures:
        write_json(failures_path, failures)
    elif os.path.exists(failures_path):    # an earlier run's record would contradict summary.json
        os.remove(failures_path)
    return summary


def aggregate_reports(out_dir: str) -> dict:
    """Rebuild the summary from per-point report.json files on disk; a file
    that cannot be read or parsed, or that holds no report, is a
    ParameterError that names it."""
    points = []
    for name in sorted(os.listdir(out_dir)):
        rpath = os.path.join(out_dir, name, "report.json")
        if os.path.isfile(rpath):
            try:
                with open(rpath, "r", encoding="utf-8") as fh:
                    rep = json.load(fh)
            except OSError as exc:
                raise ParameterError(f"report file {rpath!r}: {exc.strerror}") from exc
            except ValueError as exc:   # a truncated file, or bytes that are not UTF-8
                raise ParameterError(f"report file {rpath!r}: {exc}") from exc
            margin = rep.get("min_margin", "") if isinstance(rep, dict) else ""
            # json.load reads NaN and Infinity, and nan < -tol is false
            if (isinstance(margin, bool) or not isinstance(margin, (int, float, type(None)))
                    or isinstance(margin, float) and not np.isfinite(margin)):
                raise ParameterError(f"report file {rpath!r}: not a point report "
                                     "(no finite or null min_margin)")
            rep["point"] = name
            points.append(rep)
    violations = sum(1 for rep in points
                     if rep["min_margin"] is not None and rep["min_margin"] < -qsl.BOUND_MARGIN_TOL)
    summary = {"points": len(points), "bound_violations": violations}
    write_json(os.path.join(out_dir, "aggregate.json"),
               {"summary": summary, "reports": points})
    return summary
