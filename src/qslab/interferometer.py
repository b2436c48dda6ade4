"""Ramsey measurement chain: fringe synthesis, counting noise and estimators.

A fast two-pulse interrogation maps the overlap A(t) = V exp{-i[phi + E_n t]}
onto the spin-down probability p(phi_R) = (1 - V cos(phi_R - phi))/2, where
phi_R is the control phase of the second pulse.  The chain simulated here
draws binomial counts per phase point, fits the cosine to recover (V, phi),
and turns the short-time series into estimates of the mean energy (odd
polynomial in the phase) and the energy uncertainty (even polynomial in the
visibility); qsl.deviation_from_visibility fits the geometric deviation
coefficient to the same visibility series.  Times are in hbar/E_R
and energies in E_R, as in every other stage; a scan converts to
microseconds only where it writes artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, ParameterError, check_fields
from .dynamics import OverlapTrace
from .qsl import least_squares

PHASE_FIT_WINDOW = 0.35     # in units of tau_MT


def phase_grid(k: int) -> np.ndarray:
    """The K control phases 2 pi j / K of the second pulse."""
    return np.arange(k) * 2.0 * np.pi / k


@dataclass(frozen=True)
class RamseyConfig:
    """Sampling configuration for the simulated interrogation.

    Each time is read at the K = phases control phases of phase_grid.
    atoms_per_shot * repetitions detections enter each phase point; losses
    shrink the detected fraction and are divided out during normalization.
    The random stream is not part of the configuration: simulate_series
    takes its seed, and a scan seeds one generator per point by
    [seed, point index].  light_shift_slope is the beams' differential light
    shift in rad/us; the scan adds it to the fringe phase it simulates and
    subtracts it from the fitted phase, so the functions here never see it.
    """

    phases: int = 12
    atoms_per_shot: int = 20
    repetitions: int = 10
    loss_fraction: float = 0.05
    light_shift_slope: float = 0.0    # rad/us

    def __post_init__(self):
        check_fields(self, "ramsey", phases=6, atoms_per_shot=1, repetitions=1)
        if not 0.0 <= self.loss_fraction < 1.0:
            raise ParameterError("loss fraction must lie in [0, 1)")
        if not np.isfinite(self.light_shift_slope):
            raise ParameterError("light-shift slope must be finite")

    @property
    def detections_per_point(self) -> int:
        return self.atoms_per_shot * self.repetitions


def fringe_phase(trace: OverlapTrace, e_n: float) -> np.ndarray:
    """Fringe phase phi(t) = -arg A(t) - E_n t, unwrapped along the series.

    The stationary branch of the interferometer accumulates exp(-i E_n t),
    so the fringe tracks the overlap argument relative to that reference;
    for short times phi(t) = (E - E_n) t + O(t^3).
    """
    return -trace.phase - e_n * trace.times


@dataclass(frozen=True)
class FringeSeries:
    """Counts of an evolution-time series, T times by K control phases, and their fits."""

    n_total: int
    n_down: np.ndarray     # (T, K)
    v: np.ndarray          # (T,), clipped to [0, 1]
    v_raw: np.ndarray      # unclipped amplitude estimate
    v_err: np.ndarray
    phi: np.ndarray        # in (-pi, pi]
    phi_err: np.ndarray

    @property
    def phi_r(self) -> np.ndarray:
        """The (K,) control phases of the count columns."""
        return phase_grid(self.n_down.shape[-1])


def fringe_probabilities(visibility, phase, config: RamseyConfig) -> np.ndarray:
    """(T, K) detection probability of each time and control phase.

    p_down(phi_R) = (1 - V cos(phi_R - phi))/2 times the detected fraction
    1 - loss, clipped to [0, 1].  Scalar inputs give one (K,) fringe.
    """
    visibility = np.asarray(visibility, dtype=float)
    if np.any(np.abs(visibility) > 1.0 + 1e-10):
        raise ParameterError(f"visibility {np.abs(visibility).max()} outside [0, 1]")
    shift = phase_grid(config.phases) - np.asarray(phase, dtype=float)[..., None]
    p_down = (1.0 - visibility[..., None] * np.cos(shift)) / 2.0
    return np.clip(p_down * (1.0 - config.loss_fraction), 0.0, 1.0)


def fit_fringes(n_down: np.ndarray, n_total: float, loss_fraction: float = 0.0) -> FringeSeries:
    """The series record of the (T, K) counts: least squares of
    a + b cos(phi_R) + c sin(phi_R) on each row of the normalized counts,
    taken at the K phases of phase_grid.

    On that grid 1, cos and sin are orthogonal with norms K, K/2 and K/2, so
    the fit is each row's first DFT bin and the coefficients' covariance is
    sigma^2 diag(1/K, 2/K, 2/K), sigma^2 = RSS / (K - 3).
    V = 2 sqrt(b^2 + c^2), phi = atan2(-c, -b) to match the fringe sign
    convention; a row with V <= 1e-12 has no direction, so its V error takes
    the whole (b, c) variance and its phase error is pi.
    """
    n_down = np.asarray(n_down)
    y = n_down / (n_total * (1.0 - loss_fraction))
    k = y.shape[-1]
    if k < 6:
        raise ParameterError(f"need at least 6 Ramsey phases, got {k}")
    grid = phase_grid(k)
    basis = np.array([np.ones(k), np.cos(grid), np.sin(grid)])
    coef = (y @ basis.T) * (np.array([1.0, 2.0, 2.0]) / k)
    resid = y - coef @ basis
    var_bc = 2.0 / k * np.sum(resid * resid, axis=-1) / (k - 3)     # of b and of c
    _, b, c = coef.T
    v_raw = 2.0 * np.hypot(b, c)
    resolved = v_raw > 1e-12
    norm = np.where(resolved, v_raw / 2.0, 1.0)
    v_err = 2.0 * np.sqrt(np.where(resolved, var_bc, 2.0 * var_bc))
    phi_err = np.where(resolved, np.sqrt(var_bc) / norm, np.pi)
    return FringeSeries(n_total, n_down, v=np.clip(v_raw, 0.0, 1.0), v_raw=v_raw, v_err=v_err,
                        phi=np.arctan2(-c, -b), phi_err=np.minimum(phi_err, np.pi))


def simulate_series(visibility: np.ndarray, phase: np.ndarray, config: RamseyConfig,
                    seed) -> FringeSeries:
    """Binomial counts and fits over an evolution-time series.

    Every (T, K) count comes from one binomial call of one generator,
    np.random.default_rng(seed); a scan passes [seed, point index], so a
    point's counts depend on nothing but its own seed.
    """
    n_total = config.detections_per_point
    p_eff = fringe_probabilities(visibility, phase, config)
    counts = np.random.default_rng(seed).binomial(n_total, p_eff)
    return fit_fringes(counts, n_total, config.loss_fraction)


def _window_fit(times: np.ndarray, y: np.ndarray, t_max: float, powers: tuple, what: str):
    """Least squares of y on the three powers t^p over t <= t_max, with the
    residual covariance of the coefficients."""
    times, y = np.asarray(times, dtype=float), np.asarray(y, dtype=float)
    mask = times <= t_max * (1 + 1e-12)
    if mask.sum() < 7:
        raise ParameterError(f"need at least 7 {what} samples in the window, got {int(mask.sum())}")
    t = times[mask]
    return least_squares(np.column_stack([t**p for p in powers]), y[mask])


def extract_mean_energy(times: np.ndarray, phi_series: np.ndarray, e_n: float,
                        tau_mt: float):
    """Mean energy from the phase series, E = a1 + E_n (E_R).

    Rewraps to (-pi, pi], unwraps with np.unwrap (each step to the nearest
    branch), then fits phi(t) = a1 t + a3 t^3 + a5 t^5 on
    [0, min(PHASE_FIT_WINDOW * tau_MT, first wrap)].  Returns (e, e_err) in E_R.
    """
    times = np.asarray(times, dtype=float)
    unwrapped = np.unwrap(np.angle(np.exp(1j * np.asarray(phi_series, dtype=float))))
    t_max = PHASE_FIT_WINDOW * tau_mt
    beyond = np.nonzero(np.abs(unwrapped) > np.pi)[0]
    if beyond.size:
        t_max = min(t_max, times[beyond[0]])
    coef, cov = _window_fit(times, unwrapped, t_max, (1, 3, 5), "phase")
    return float(coef[0] + e_n), float(np.sqrt(max(cov[0, 0], 0.0)))


def extract_uncertainty(times: np.ndarray, v_series: np.ndarray, tau_mt: float):
    """Energy uncertainty from the visibility series (E_R).

    Fits V(t) = 1 + b2 t^2 + b4 t^4 + b6 t^6 on [0, tau_MT] and
    maps dE = sqrt(-2 b2); b2 >= 0 after the fit means the visibility decay
    is unresolved.  The truncation biases dE low: fitted to the exact,
    noiseless visibility the form misses dE by -4.8% at (n = 0, dx = 0.04),
    -2.4% at (0, 0.0504) and -3.3% at (0, 0.5), the first above that point's
    2.1% counting noise (ROADMAP item 10).
    """
    coef, cov = _window_fit(times, np.asarray(v_series, dtype=float) - 1.0,
                            tau_mt, (2, 4, 6), "visibility")
    if coef[0] >= 0.0:
        raise EstimationError("fitted quadratic visibility coefficient is not negative; "
                              "signal too flat to resolve dE")
    de = np.sqrt(-2.0 * coef[0])
    return float(de), float(np.sqrt(max(cov[0, 0], 0.0)) / de)

