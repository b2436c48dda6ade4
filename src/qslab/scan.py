"""Parameter sweeps over (displacement, vibrational index) and figure data.

A scan point fixes the packet shape n and the lattice displacement dx, runs
the exact pipeline (prepare, decompose, overlap trace, bounds report) and
optionally the simulated measurement chain.  Outputs are flat CSV/JSON files
written atomically per point; identical configuration and seed give
byte-identical results.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics, eigensolve, interferometer, qsl
from .errors import ParameterError
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
    out_dir: str = "qslab-out"
    time_points: int = 64
    curves: bool = True
    curve_points: int = 25
    ramsey: interferometer.RamseyConfig = field(
        default_factory=interferometer.RamseyConfig)
    state_point: tuple | None = None    # (n, dx) from the config's state section
    workers = 1     # not a field: perfbench/child.py records it until the next benchmark change

    def __post_init__(self):
        if self.estimator not in ("exact", "experiment"):
            raise ParameterError(f"estimator must be 'exact' or 'experiment', got {self.estimator!r}")
        # linspace(0, tau_MT, N) puts floor(0.3 (N - 1)) samples in (0, 0.3 tau_MT], the
        # xi fit window of qsl.deviation_from_geometry, which needs 6; N = 21 is the least
        if self.time_points < 21:
            raise ParameterError(f"time_points must be at least 21, got {self.time_points}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if self.curve_points < 1:
            raise ParameterError(f"curve_points must be at least 1, got {self.curve_points}")
        if self.state_point is not None:
            check_point("state", *self.state_point)
        seen = set()
        for n, dx in self.points:
            check_point("scan.points", n, dx)
            label = point_label(n, dx)
            if label in seen:
                raise ParameterError(f"duplicate scan point {label}: a point's directory "
                                     "name carries dx to 4 decimals")
            seen.add(label)


def point_label(n: int, dx: float) -> str:
    """The name of a point's artifact directory and failure record."""
    return f"n{n}_dx{dx:.4f}"


def check_point(where: str, n: int, dx: float) -> None:
    if n not in (0, 1, 2):
        raise ParameterError(f"{where}: packet shape n must be 0, 1 or 2, got {n}")
    if not 0.0 < dx <= 0.5:
        raise ParameterError(f"{where}: displacement must lie in (0, 0.5], got {dx}")


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


def _integer(value) -> int:
    """An int that is not a bool, or an integral float such as 9.0."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _real(value) -> float:
    """An int or float that is not a bool, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _points(raw) -> tuple:
    # null or an empty list keeps the default grid
    return tuple((_integer(n), _real(dx)) for n, dx in raw or ()) or ScanConfig.points


# config key -> (field name, converter) per section; a key left out keeps its
# dataclass default, so each default is set in one place
_KEYS = {
    "lattice": {"wavelength_nm": ("wavelength", lambda nm: _real(nm) * 1e-9),
                "depth_Er": ("depth_at_zero", _real), "sites": ("sites", _integer),
                "points_per_site": ("points_per_site", _integer)},
    "state": {"n": ("n", _integer), "dx_halflambda": ("dx", _real)},
    "scan": {"points": ("points", _points), "estimator": ("estimator", _string),
             "seed": ("seed", _integer), "out": ("out_dir", _string),
             "time_points": ("time_points", _integer),
             "curves": ("curves", _boolean), "curve_points": ("curve_points", _integer)},
    "ramsey": {"phases": ("phase_grid",
                          lambda k: interferometer.default_phase_grid(_integer(k))),
               "atoms_per_shot": ("atoms_per_shot", _integer),
               "repetitions": ("repetitions", _integer), "loss_fraction": ("loss_fraction", _real),
               "light_shift_slope_rad_per_us": ("light_shift_slope", _real)},
}


def _fields(raw: dict, section: str) -> dict:
    """Converted keyword arguments for the keys present in one section."""
    body = raw.get(section) or {}
    if not isinstance(body, dict):
        raise ParameterError(f"config section {section!r} must be a mapping")
    fields = {}
    for key, value in body.items():
        if key not in _KEYS[section]:
            raise ParameterError(f"unknown config key {section}.{key}")
        name, kind = _KEYS[section][key]
        try:
            fields[name] = kind(value)
        except (TypeError, ValueError) as exc:
            raise ParameterError(
                f"config key {section}.{key} has an invalid value {value!r}") from exc
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


@dataclass
class PointResult:
    n: int
    dx: float
    model: LatticeModel
    e_n: float
    spectral: dynamics.SpectralState
    moments: dynamics.SpectralMoments
    trace: dynamics.OverlapTrace
    report: qsl.QslReport
    quadrature_defect: float | None
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
    """(model, eig) shared by the points of one dx, whose q = 0 block gives
    their site states and e_n.  The evolution wells sit at integer sites; the
    packet carries the relative displacement dx (see dynamics.prepare_initial)."""
    model = _site_model(dx, params)
    return model, eigensolve.decompose(model.depth, params.sites, params.points_per_site)


def run_point(n: int, dx: float, config: ScanConfig, solved,
              point_index: int = 0) -> PointResult:
    """Full pipeline for one (n, dx) combination, given solve_displacement(dx)."""
    model, eig = solved
    site_states = eigensolve.site_states(eig.vectors[0, :, :3], eig.orders[0])
    packet = dynamics.prepare_initial(n, dx, site_states, eig.quasimomenta, eig.orders)
    spectral = dynamics.to_spectral(packet, eig)
    moms = dynamics.moments(spectral)
    times = dynamics.default_times(moms, config.time_points)
    trace = dynamics.evolve_overlap(spectral, times)
    scale = model.recoil.time_us_per_unit
    rep = qsl.report(moms, trace, time_us_per_unit=scale)
    defect = dynamics.quadrature_defect(spectral, trace)
    e_n = float(eig.energies[0, n] - eig.ground_offset)
    result = PointResult(n=n, dx=dx, model=model, e_n=e_n, spectral=spectral,
                         moments=moms, trace=trace, report=rep,
                         quadrature_defect=defect)
    if config.estimator == "experiment":
        result.records, result.estimates = _run_experiment(result, config, point_index)
    return result


def _run_experiment(result: PointResult, config: ScanConfig, point_index: int):
    scale = result.model.recoil.time_us_per_unit
    times_us = result.trace.times * scale
    phase = interferometer.fringe_phase(result.trace, result.e_n)
    point_seed = int(np.random.SeedSequence([config.seed, point_index]).generate_state(1)[0])
    ramsey = replace(config.ramsey, rng_seed=point_seed)
    series = interferometer.simulate_series(times_us, result.trace.visibility, phase, ramsey)
    fit = series.fit
    tau_mt_us = result.report.tau_mt * scale
    hertz = result.model.recoil.hertz
    estimates = {}
    try:
        e_hat, e_err = interferometer.extract_mean_energy(
            times_us, fit.phi, result.e_n, ramsey.light_shift_slope, hertz, tau_mt_us)
        estimates.update(e_Er=e_hat, e_err_Er=e_err)
    except Exception as exc:  # noqa: BLE001 - recorded, not fatal
        estimates["e_error"] = str(exc)
    try:
        de_hat, de_err = interferometer.extract_uncertainty(times_us, fit.v_raw, hertz, tau_mt_us)
        estimates.update(de_Er=de_hat, de_err_Er=de_err)
    except Exception as exc:  # noqa: BLE001
        estimates["de_error"] = str(exc)
    try:
        xi_hat, xi_cov = interferometer.extract_xi(times_us, fit.v, tau_mt_us)
        estimates.update(xi_fit=xi_hat, xi_err=float(np.sqrt(max(xi_cov[0, 0], 0.0))))
    except Exception as exc:  # noqa: BLE001
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


def qubit_reference_curve(zetas: np.ndarray) -> np.ndarray:
    """Two-level limit: inv_tau_ml = 4 sin^2(zeta/2), inv_tau_mt = 2 sin(zeta)."""
    zetas = np.asarray(zetas, dtype=float)
    if np.any((zetas <= 0) | (zetas >= np.pi / 2.0)):
        raise ParameterError("zeta must lie in (0, pi/2)")
    return np.column_stack([4.0 * np.sin(zetas / 2.0) ** 2, 2.0 * np.sin(zetas)])


def lattice_reference_curves(config: ScanConfig, dx_values: np.ndarray) -> list[dict]:
    """Exact-model (inv_tau_ml, inv_tau_mt) curves, one per packet shape.

    E and dE need only the q = 0 block's eigenbasis: that solve gives the
    packets' cell states and E_0, as it does for the points, and
    dynamics.direct_moments applies the half-zone Bloch blocks to each
    packet's block coefficients, with the points' weights.
    """
    rows = []
    for dx in dx_values:
        model = _site_model(float(dx), config.params)
        blocks, orders, q, weights = eigensolve.half_zone(model.depth, config.params.sites,
                                                          config.params.points_per_site)
        site_e, vectors = np.linalg.eigh(blocks[0])
        site_states = eigensolve.site_states(vectors[:, :3], orders[0])
        for n in (0, 1, 2):
            packet = dynamics.prepare_initial(n, float(dx), site_states, q, orders)
            moms = dynamics.direct_moments(blocks, packet, weights, site_e[0])
            rows.append({"n": n, "dx": float(dx),
                         "inv_tau_ml": 4.0 * moms.e / model.homega,
                         "inv_tau_mt": 4.0 * moms.de / model.homega})
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
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv(path: str, header: list[str], columns) -> None:
    """One line per row of the columns: an ndarray column printed by str of its tolist()
    scalars (for a float the shortest round-trip repr, as _fmt prints it), any other by _fmt."""
    text = [map(str, c.tolist()) if isinstance(c, np.ndarray) else map(_fmt, c) for c in columns]
    lines = [",".join(header), *map(",".join, zip(*text))]
    _write_atomic(path, "\n".join(lines) + "\n")


def write_json(path: str, payload) -> None:
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_point(result: PointResult, out_dir: str) -> None:
    pdir = os.path.join(out_dir, result.label)
    os.makedirs(pdir, exist_ok=True)
    t_us = result.trace.times * result.model.recoil.time_us_per_unit
    write_csv(os.path.join(pdir, "trace.csv"),
              ["t_us", "re_A", "im_A", "abs_A", "fs_distance"],
              [t_us, result.trace.overlaps.real, result.trace.overlaps.imag,
               result.trace.visibility, result.trace.fs_distance])
    write_json(os.path.join(pdir, "report.json"), result.report.to_json_dict())
    write_json(os.path.join(pdir, "diagnostics.json"), {
        "quadrature_defect": result.quadrature_defect,
        "e_n_Er": result.e_n,
        "depth_Er": result.model.depth,
        "homega_Er": result.model.homega,
        "theta_rad": result.model.theta,
    })
    series = result.records
    if series is not None:
        # each time, phase and the count total is formatted once; object arrays repeat the text
        times, phases = series.n_down.shape
        t_text, phi_text = (np.array([str(v) for v in a.tolist()], dtype=object)
                            for a in (series.t_us, series.phi_r))
        n_text = np.full(times * phases, _fmt(series.n_total), dtype=object)
        write_csv(os.path.join(pdir, "fringes.csv"), ["t_us", "phi_r", "n_total", "n_down"],
                  [np.repeat(t_text, phases), np.tile(phi_text, times), n_text,
                   series.n_down.ravel()])
        fit = series.fit
        columns = zip(*(c.tolist() for c in (series.t_us, fit.v, fit.v_err, fit.phi, fit.phi_err)))
        write_json(os.path.join(pdir, "fits.json"),
                   [dict(zip(("t_us", "v", "v_err", "phi", "phi_err"), row)) for row in columns])
        write_json(os.path.join(pdir, "estimates.json"), result.estimates)


def _figure_columns(results: list[PointResult]):
    """The columns of fig2.csv, fig3.csv and fig4.csv.  A point's label and
    tau_c_us text is formatted once and repeated down its fig2 rows.  A point
    with a dE estimate gives fig3 and fig4 its estimates, any other its report."""
    labels, traces, tau_text = [], [np.empty((4, 0))], []
    fig3, fig4 = [[] for _ in range(6)], [[] for _ in range(6)]
    for res in results:
        scale = res.model.recoil.time_us_per_unit
        rep = res.report
        homega = res.model.homega
        times = res.trace.times
        tau_c_us = rep.tau_c * scale if rep.tau_c is not None else ""
        labels += [res.label] * times.size
        tau_text += [_fmt(tau_c_us)] * times.size
        traces.append([times * scale, res.trace.visibility,
                       qsl.mt_bound(rep.de, times), qsl.ml_bound(rep.e, times)])
        if res.estimates and "de_Er" in res.estimates:
            e_val = res.estimates.get("e_Er", rep.e)
            de_val = res.estimates["de_Er"]
            xi_val = res.estimates.get("xi_fit", rep.xi_fit)
        else:
            e_val, de_val, xi_val = rep.e, rep.de, rep.xi_fit
        xi = max(xi_val, 0.0)
        cells3 = (res.n, res.dx, 4.0 * e_val / homega, 4.0 * de_val / homega,
                  "ML" if de_val > e_val else "MT", tau_c_us)
        cells4 = (res.n, res.dx, de_val / homega, xi, xi**0.25, int(res.dx > 0.25))
        for column, cell in zip(fig3 + fig4, cells3 + cells4):
            column.append(cell)
    return [labels, *np.hstack(traces), tau_text], fig3, fig4


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


def run_scan(config: ScanConfig) -> dict:
    """Execute every scan point, write artifacts, return the summary."""
    if config.curves:   # before any output: a lattice too shallow for them writes nothing
        rows = lattice_reference_curves(config, np.geomspace(0.025, 0.5, config.curve_points))
        curves = [[r[key] for r in rows] for key in ("n", "dx", "inv_tau_ml", "inv_tau_mt")]
    make_out_dir(config.out_dir)
    by_dx: dict[float, list[tuple[int, int]]] = {}
    for idx, (n, dx) in enumerate(config.points):
        by_dx.setdefault(round(float(dx), 12), []).append((idx, n))
    results: dict[int, PointResult] = {}
    failures = []
    for dx, group in by_dx.items():
        _run_group(dx, group, config, results, failures)
    ordered = [results[i] for i in sorted(results)]
    for res in ordered:
        _write_point(res, config.out_dir)

    fig2, fig3, fig4 = _figure_columns(ordered)
    write_csv(os.path.join(config.out_dir, "fig2.csv"),
              ["point", "t_us", "abs_A", "mt_bound", "ml_bound", "tau_c_us"], fig2)
    write_csv(os.path.join(config.out_dir, "fig3.csv"),
              ["n", "dx", "inv_tau_ml", "inv_tau_mt", "regime", "tau_c_us"], fig3)
    write_csv(os.path.join(config.out_dir, "fig4.csv"),
              ["n", "dx", "de_over_homega", "xi", "xi_fourth_root", "nonharmonic"], fig4)
    if config.curves:
        write_csv(os.path.join(config.out_dir, "fig3_curves.csv"),
                  ["n", "dx", "inv_tau_ml", "inv_tau_mt"], curves)
        zetas = np.linspace(0.02, np.pi / 2.0 - 0.02, 40)
        write_csv(os.path.join(config.out_dir, "fig3_qubit.csv"),
                  ["zeta", "inv_tau_ml", "inv_tau_mt"], [zetas, *qubit_reference_curve(zetas).T])
        alphas = np.geomspace(0.05, 3.0, 40)
        write_csv(os.path.join(config.out_dir, "fig3_coherent.csv"),
                  ["alpha", "inv_tau_ml", "inv_tau_mt"],
                  [alphas, *coherent_reference_curve(alphas).T])

    violations = sum(1 for r in ordered if r.report.min_margin < -qsl.BOUND_MARGIN_TOL)
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
            if not (isinstance(rep, dict)
                    and isinstance(rep.get("min_margin", ""), (int, float, type(None)))):
                raise ParameterError(f"report file {rpath!r}: not a point report "
                                     "(no numeric or null min_margin)")
            rep["point"] = name
            points.append(rep)
    violations = sum(1 for rep in points
                     if rep["min_margin"] is not None and rep["min_margin"] < -qsl.BOUND_MARGIN_TOL)
    summary = {"points": len(points), "bound_violations": violations}
    write_json(os.path.join(out_dir, "aggregate.json"),
               {"summary": summary, "reports": points})
    return summary
