"""Evolution-speed bounds, crossover and the geometric deviation coefficient.

Two lower bounds constrain the two-time overlap of a state evolving under a
static Hamiltonian (hbar = 1 throughout):

* uncertainty bound:  |A(t)| >= cos(dE t)        for 0 <= t <= tau_MT = pi/(2 dE)
* mean-energy bound:  |A(t)| >= cos(sqrt(pi E t / 2))  for 0 <= t <= tau_ML = pi/(2 E)

with E measured from the ground state.  Their pointwise maximum is the
unified bound; when dE > E the binding bound switches from the first to the
second at tau_c = tau_MT^2 / tau_ML.  The geometric deviation coefficient
xi = (beta2 - 1)/2 measures how far the evolution departs from a geodesic of
the Fubini-Study metric: the geodesic-to-path length ratio expands as
1 - (pi^2 xi / 48) (t / tau_MT)^2 + O(t^4).
"""

from __future__ import annotations

import numpy as np

from .dynamics import OverlapTrace, SpectralMoments
from .errors import NumericError, ParameterError

BOUND_MARGIN_TOL = 1e-9
XI_FIT_WINDOW = 0.3


def _bound(rate: float, t, curve):
    """curve(t) on its domain [0, pi/(2 rate)], NaN beyond it; all NaN for rate <= 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ParameterError("bound domain starts at t = 0")
    if rate <= 0:
        out = np.full_like(t, np.nan)
    else:
        out = np.where(t <= np.pi / (2.0 * rate) * (1 + 1e-12), curve(t), np.nan)
    return out if out.ndim else float(out)


def mt_bound(de: float, t):
    """Uncertainty (MT) lower bound cos(dE t); NaN outside [0, tau_MT]."""
    return _bound(de, t, lambda t: np.cos(de * t))


def ml_bound(e: float, t):
    """Mean-energy (ML) lower bound cos(sqrt(pi E t / 2)); NaN outside [0, tau_ML]."""
    return _bound(e, t, lambda t: np.cos(np.sqrt(np.pi * e * t / 2.0)))


def unified_bound(e: float, de: float, t):
    """Pointwise maximum of the two bounds on the union of their domains."""
    mt = np.asarray(mt_bound(de, t))
    ml = np.asarray(ml_bound(e, t))
    out = np.where(np.isnan(mt), ml, np.where(np.isnan(ml), mt, np.maximum(mt, ml)))
    return out if out.ndim else float(out)


def crossover_time(e: float, de: float) -> float | None:
    """tau_c = tau_MT^2/tau_ML; defined only in the ML regime (dE > E).

    Equating the bound arguments dE t = sqrt(pi E t/2) gives the nontrivial
    root t = pi E/(2 dE^2), which is exactly tau_MT^2/tau_ML.
    """
    if de <= 0 or e <= 0 or de <= e:
        return None
    return np.pi * e / (2.0 * de**2)


def deviation_from_kurtosis(beta2: float) -> float:
    """xi = (beta2 - 1)/2; beta2 < 1 violates Cauchy-Schwarz upstream."""
    if beta2 < 1.0 - 1e-12:
        raise NumericError(f"kurtosis {beta2} below 1 is impossible for a distribution")
    return max((beta2 - 1.0) / 2.0, 0.0)


def least_squares(design: np.ndarray, y: np.ndarray):
    """Coefficients of y on the columns of the design and their covariance,
    scaled by the residual variance on rows - columns degrees of freedom."""
    coef, residuals, *_ = np.linalg.lstsq(design, y, rcond=None)
    rss = float(residuals[0]) if residuals.size else float(((design @ coef - y) ** 2).sum())
    dof = max(design.shape[0] - design.shape[1], 1)
    return coef, rss / dof * np.linalg.inv(design.T @ design)


def deviation_from_visibility(times, visibility, de: float):
    """Least-squares xi and its error from the short-time expansion of the
    geodesic-to-path length ratio arccos(V) / (dE t).

    Fits ratio(t) = 1 - (pi^2 xi / 48)(t/tau_MT)^2 + c4 t^4 on 0 < t <=
    XI_FIT_WINDOW * tau_MT, tau_MT = pi/(2 dE); the quartic nuisance term
    absorbs the next order of the expansion.  Returns (xi, xi_err).
    """
    if not de > 0:
        raise ParameterError(f"xi needs a positive energy uncertainty, got {de}")
    times = np.asarray(times, dtype=float)
    tau_mt = np.pi / (2.0 * de)
    mask = (times > 0) & (times <= XI_FIT_WINDOW * tau_mt * (1 + 1e-12))
    if mask.sum() < 6:
        raise ParameterError(
            f"need at least 6 samples below {XI_FIT_WINDOW} tau_MT, got {int(mask.sum())}")
    t = times[mask]
    ratio = np.arccos(np.clip(np.asarray(visibility, dtype=float)[mask], -1.0, 1.0)) / (de * t)
    design = np.column_stack([-(np.pi**2 / 48.0) * (t / tau_mt) ** 2, t**4])
    coef, cov = least_squares(design, ratio - 1.0)
    return float(coef[0]), float(np.sqrt(max(cov[0, 0], 0.0)))


def qubit_moments(zeta, omega: float):
    """(E, dE, xi) of a spin precessing at angle zeta about a fixed axis with
    frequency omega, elementwise over an array of angles.

    The two levels sit at 0 and hbar*omega with populations cos^2(zeta/2)
    and sin^2(zeta/2): E = omega sin^2(zeta/2), dE = omega sin(zeta)/2 and
    xi = 2((omega/2)^2/dE^2 - 1).  This is the small-excitation limit of the
    displaced wave packet and the only system that can saturate the
    uncertainty bound.
    """
    zeta = np.asarray(zeta, dtype=float)
    outside = ~((zeta > 0.0) & (zeta < np.pi))
    if outside.any():
        raise ParameterError("zeta in (0, pi) required (stationary otherwise), "
                             f"got {zeta[outside].flat[0]}")
    if not omega > 0:
        raise ParameterError("precession frequency must be positive")
    de = omega * np.sin(zeta) / 2.0
    return omega * np.sin(zeta / 2.0) ** 2, de, 2.0 * ((omega / 2.0) ** 2 / de**2 - 1.0)


def report(moms: SpectralMoments, trace: OverlapTrace) -> dict:
    """Bounds, crossover, margin and both xi estimates on a trace that reaches
    tau_MT, which a stationary state (tau_MT = inf) cannot: report.json's
    scalars, in E_R and hbar/E_R, keyed by scan.PointResult's field names.
    regime is "ML" when dE > E (crossover present) and "MT" otherwise."""
    tau_mt = moms.tau_mt
    if trace.times[-1] < tau_mt * (1.0 - 1e-9):
        raise ParameterError(
            f"trace ends at {trace.times[-1]:.3g}, before tau_MT = {tau_mt:.3g}")
    bound = unified_bound(moms.e, moms.de, trace.times)
    vis = trace.visibility
    valid = ~np.isnan(bound)
    min_margin = float((vis[valid] - bound[valid]).min())
    xi_fit, _ = deviation_from_visibility(trace.times, vis, moms.de)
    xi_spec = deviation_from_kurtosis(moms.beta2)
    return dict(e=moms.e, de=moms.de, tau_mt=tau_mt, tau_ml=moms.tau_ml,
                tau_c=crossover_time(moms.e, moms.de), regime="ML" if moms.de > moms.e else "MT",
                xi_spectral=xi_spec, xi_fit=xi_fit, min_margin=min_margin)
