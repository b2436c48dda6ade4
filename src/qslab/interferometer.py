"""Ramsey measurement chain: fringe synthesis, counting noise and estimators.

A fast two-pulse interrogation maps the overlap A(t) = V exp{-i[phi + E_n t]}
onto the spin-down probability p(phi_R) = (1 - V cos(phi_R - phi))/2, where
phi_R is the control phase of the second pulse.  The chain simulated here
draws binomial counts per phase point, fits the cosine to recover (V, phi),
and turns the short-time series into estimates of the mean energy (odd
polynomial in the phase), the energy uncertainty (even polynomial in the
visibility) and the geometric deviation coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError, ParameterError
from .dynamics import OverlapTrace
from .qsl import deviation_from_geometry, geodesic_ratio, least_squares

# differential light shift of the interrogation beams, subtracted during analysis
LIGHT_SHIFT_PRESET_RAD_PER_US = 81.0


def default_phase_grid(k: int = 12) -> np.ndarray:
    return np.arange(k) * 2.0 * np.pi / k


@dataclass(frozen=True)
class RamseyConfig:
    """Sampling configuration for the simulated interrogation.

    atoms_per_shot * repetitions detections enter each phase point; losses
    shrink the detected fraction and are divided out during normalization.
    noiseless=True replaces the binomial draw by its expectation, which the
    round-trip tests use.
    """

    phase_grid: np.ndarray = field(default_factory=default_phase_grid)
    atoms_per_shot: int = 20
    repetitions: int = 10
    loss_fraction: float = 0.05
    light_shift_slope: float = 0.0    # rad/us
    rng_seed: int = 0
    noiseless: bool = False

    def __post_init__(self):
        grid = np.asarray(self.phase_grid, dtype=float)
        grid.flags.writeable = False
        object.__setattr__(self, "phase_grid", grid)
        if grid.size < 6 or np.unique(np.round(grid, 12)).size < 6:
            raise ParameterError("need at least 6 distinct Ramsey phases")
        if self.atoms_per_shot < 1 or self.repetitions < 1:
            raise ParameterError("atoms_per_shot and repetitions must be positive")
        if not 0.0 <= self.loss_fraction < 1.0:
            raise ParameterError("loss fraction must lie in [0, 1)")
        if not np.isfinite(self.light_shift_slope):
            raise ParameterError("light-shift slope must be finite")

    @property
    def detections_per_point(self) -> int:
        return self.atoms_per_shot * self.repetitions


def ideal_fringe(visibility: float, phase: float, phi_r) -> np.ndarray:
    """p_down(phi_R) = (1 - V cos(phi_R - phi))/2 for |V| <= 1."""
    if abs(visibility) > 1.0 + 1e-10:
        raise ParameterError(f"visibility {visibility} outside [0, 1]")
    phi_r = np.asarray(phi_r, dtype=float)
    out = (1.0 - visibility * np.cos(phi_r - phase)) / 2.0
    return out if out.ndim else float(out)


def fringe_phase(trace: OverlapTrace, e_n: float) -> np.ndarray:
    """Fringe phase phi(t) = -arg A(t) - E_n t, unwrapped along the series.

    The stationary branch of the interferometer accumulates exp(-i E_n t),
    so the fringe tracks the overlap argument relative to that reference;
    for short times phi(t) = (E - E_n) t + O(t^3).
    """
    return -trace.phase - e_n * trace.times


@dataclass(frozen=True)
class FringeFit:
    """Cosine-fit results of a series, length-T arrays: one entry per evolution time."""

    v: np.ndarray          # clipped to [0, 1]
    v_raw: np.ndarray      # unclipped amplitude estimate
    v_err: np.ndarray
    phi: np.ndarray        # in (-pi, pi]
    phi_err: np.ndarray
    offset: np.ndarray
    flagged: np.ndarray    # True when the amplitude is too small to date the phase


@dataclass(frozen=True)
class FringeSeries:
    """Counts and fits of an evolution-time series: T times by K control phases."""

    t_us: np.ndarray       # (T,)
    phi_r: np.ndarray      # (K,)
    n_total: int
    n_down: np.ndarray     # (T, K)
    fit: FringeFit         # length-T arrays


def sample_fringe(visibility: float, phase: float, config: RamseyConfig,
                  t_index: int) -> np.ndarray:
    """Detected spin-down counts per phase point.

    Counts are binomial with success probability p_down * (1 - loss); each
    (seed, t-index) draw has its own generator, independent of the order in
    which points run.
    """
    p_down = ideal_fringe(visibility, phase, config.phase_grid)
    p_eff = np.clip(p_down * (1.0 - config.loss_fraction), 0.0, 1.0)
    n = config.detections_per_point
    if config.noiseless:
        return p_eff * n
    return np.random.default_rng([config.rng_seed, t_index]).binomial(n, p_eff)


def fit_fringes(phi_r: np.ndarray, n_down: np.ndarray, n_total: float,
                loss_fraction: float = 0.0) -> FringeFit:
    """Least squares of a + b cos(phi_R) + c sin(phi_R) on each row of the
    (T, K) normalized counts, every row against one design matrix.
    V = 2 sqrt(b^2 + c^2), phi = atan2(-c, -b) to match the fringe sign
    convention; standard errors come from each row's residual covariance.
    """
    phi_r = np.asarray(phi_r, dtype=float)
    if phi_r.size < 6 or np.unique(np.round(phi_r, 12)).size < 6:
        raise ParameterError("need at least 6 distinct Ramsey phases")
    y = np.asarray(n_down, dtype=float) / (n_total * (1.0 - loss_fraction))
    design = np.column_stack([np.ones_like(phi_r), np.cos(phi_r), np.sin(phi_r)])
    gram = design.T @ design
    if np.linalg.cond(gram) > 1e12:
        raise ParameterError("degenerate phase design; spread the phase grid")
    coef = np.linalg.lstsq(design, y.T, rcond=None)[0].T
    resid = y - coef @ design.T
    sigma2 = np.einsum("tk,tk->t", resid, resid) / max(phi_r.size - 3, 1)
    a, b, c = coef.T
    v_raw = 2.0 * np.hypot(b, c)
    resolved = v_raw > 1e-12
    norm = np.where(resolved, v_raw / 2.0, 1.0)
    along = coef[:, 1:] / norm[:, None]      # V moves along (b, c), phi across it
    across = along[:, ::-1] * [1.0, -1.0]
    inv_bc = np.linalg.inv(gram)[1:, 1:]
    var_v = np.where(resolved, np.einsum("ti,ij,tj->t", along, inv_bc, along), np.trace(inv_bc))
    var_p = np.einsum("ti,ij,tj->t", across, inv_bc, across)
    v_err = 2.0 * np.sqrt(np.maximum(sigma2 * var_v, 0.0))
    phi_err = np.where(resolved, np.sqrt(np.maximum(sigma2 * var_p, 0.0)) / norm, np.pi)
    return FringeFit(v=np.clip(v_raw, 0.0, 1.0), v_raw=v_raw, v_err=v_err,
                     phi=np.arctan2(-c, -b), phi_err=np.minimum(phi_err, np.pi), offset=a,
                     flagged=v_raw < 2.0 * v_err)


def simulate_series(times_us: np.ndarray, visibility: np.ndarray,
                    phase: np.ndarray, config: RamseyConfig) -> FringeSeries:
    """Counts and fits over an evolution-time series.

    The light-shift systematic enters here as a phase slope in rad/us; the
    extraction step subtracts the same slope, mirroring how the measured
    shift is calibrated out.
    """
    times_us = np.asarray(times_us, dtype=float)
    n_total = config.detections_per_point
    counts = np.array([sample_fringe(v, p + config.light_shift_slope * t, config, t_index=i)
                       for i, (t, v, p) in enumerate(zip(times_us, visibility, phase))])
    fit = fit_fringes(config.phase_grid, counts, n_total, config.loss_fraction)
    return FringeSeries(times_us, config.phase_grid, n_total, counts, fit)


def _window_fit(times_us: np.ndarray, y: np.ndarray, t_max: float, powers: tuple, what: str):
    """Least squares of y on the three powers t^p over t <= t_max, with the
    residual covariance of the coefficients."""
    times_us, y = np.asarray(times_us, dtype=float), np.asarray(y, dtype=float)
    mask = times_us <= t_max * (1 + 1e-12)
    if mask.sum() < 7:
        raise ParameterError(f"need at least 7 {what} samples in the window, got {int(mask.sum())}")
    t = times_us[mask]
    return least_squares(np.column_stack([t**p for p in powers]), y[mask])


def extract_mean_energy(times_us: np.ndarray, phi_series: np.ndarray, e_n: float,
                        light_shift_slope: float, recoil_hertz: float,
                        tau_mt_us: float, window: float = 0.35):
    """Mean energy from the phase series, E = a1 + E_n (E_R).

    Subtracts the known light-shift slope, rewraps to (-pi, pi], unwraps
    with np.unwrap (each step to the nearest branch), then fits
    phi(t) = a1 t + a3 t^3 + a5 t^5 on [0, min(window * tau_MT, first wrap)].
    Returns (e, e_err) in E_R.
    """
    times_us = np.asarray(times_us, dtype=float)
    phi_series = np.asarray(phi_series, dtype=float)
    rad_per_us_per_er = 2.0 * np.pi * recoil_hertz * 1e-6
    detrended = phi_series - light_shift_slope * times_us
    wrapped = np.angle(np.exp(1j * detrended))
    unwrapped = np.unwrap(wrapped)
    t_max = window * tau_mt_us
    beyond = np.nonzero(np.abs(unwrapped) > np.pi)[0]
    if beyond.size:
        t_max = min(t_max, times_us[beyond[0]])
    coef, cov = _window_fit(times_us, unwrapped, t_max, (1, 3, 5), "phase")
    e = coef[0] / rad_per_us_per_er + e_n
    e_err = np.sqrt(max(cov[0, 0], 0.0)) / rad_per_us_per_er
    return float(e), float(e_err)


def extract_uncertainty(times_us: np.ndarray, v_series: np.ndarray,
                        recoil_hertz: float, tau_mt_us: float,
                        window: float = 1.0):
    """Energy uncertainty from the visibility series (E_R).

    Fits V(t) = 1 + b2 t^2 + b4 t^4 + b6 t^6 on [0, window * tau_MT] and
    maps dE = sqrt(-2 b2).  The even sixth-order form keeps the omitted
    O(t^8) terms below counting noise over the full trace window; b2 >= 0
    after the fit means the visibility decay is unresolved.
    """
    coef, cov = _window_fit(times_us, np.asarray(v_series, dtype=float) - 1.0,
                            window * tau_mt_us, (2, 4, 6), "visibility")
    if coef[0] >= 0.0:
        raise EstimationError("fitted quadratic visibility coefficient is not negative; "
                              "signal too flat to resolve dE")
    rad_per_us_per_er = 2.0 * np.pi * recoil_hertz * 1e-6
    de_rad_us = np.sqrt(-2.0 * coef[0])
    de = de_rad_us / rad_per_us_per_er
    de_err = np.sqrt(max(cov[0, 0], 0.0)) / de_rad_us / rad_per_us_per_er
    return float(de), float(de_err)


def extract_xi(times_us: np.ndarray, v_series: np.ndarray, tau_mt_us: float):
    """Deviation coefficient from a visibility series.

    Converts V to the geodesic-to-path ratio arccos(V)/((pi/2) t/tau_MT) and
    delegates to the short-window geometry fit.
    """
    times_us = np.asarray(times_us, dtype=float)
    v_series = np.asarray(v_series, dtype=float)
    de_rad = np.pi / (2.0 * tau_mt_us)
    ratio = geodesic_ratio(v_series, de_rad * times_us)
    return deviation_from_geometry(times_us, ratio, tau_mt_us)
