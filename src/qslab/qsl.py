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

from dataclasses import dataclass

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
        return np.full_like(t, np.nan)
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


def geodesic_ratio(visibility, path_length):
    """Geodesic-to-path length ratio arccos|A| / (dE t), 1 at t = 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(path_length > 0,
                        np.arccos(np.clip(visibility, -1.0, 1.0)) / path_length, 1.0)


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


def deviation_from_geometry(times: np.ndarray, ratio: np.ndarray, tau_mt: float,
                            window: float = XI_FIT_WINDOW):
    """Least-squares xi from the short-time expansion of the length ratio.

    Fits ratio(t) = 1 - (pi^2 xi / 48)(t/tau_MT)^2 + c4 t^4 on 0 < t <=
    window * tau_MT; the quartic nuisance term absorbs the next order of the
    expansion.  Returns (xi, covariance of (xi, c4)).
    """
    times = np.asarray(times, dtype=float)
    ratio = np.asarray(ratio, dtype=float)
    mask = (times > 0) & (times <= window * tau_mt * (1 + 1e-12))
    if mask.sum() < 6:
        raise ParameterError(
            f"need at least 6 samples below {window} tau_MT, got {int(mask.sum())}")
    t = times[mask]
    design = np.column_stack([-(np.pi**2 / 48.0) * (t / tau_mt) ** 2, t**4])
    coef, cov = least_squares(design, ratio[mask] - 1.0)
    return float(coef[0]), cov


def bhatia_davis_cap(e: float, de: float, e_cutoff: float) -> float:
    """Upper bound on xi for a spectrum supported on [0, e_cutoff].

    The numerator of xi is the variance of (H - E)^2, a variable bounded by
    max{(e_cutoff - E)^2, E^2}; the variance bound for bounded variables then
    caps xi at (max{...}/dE^2 - 1)/2.
    """
    if not 0.0 <= e <= e_cutoff:
        raise ParameterError(f"mean energy {e} outside spectrum support [0, {e_cutoff}]")
    if de <= 0:
        raise ParameterError("cap undefined for a stationary state")
    z_max = max((e_cutoff - e) ** 2, e**2)
    return 0.5 * (z_max / de**2 - 1.0)


_XI_OFFSETS = {0: 1.0, 1: 1.0 / 3.0, 2: 7.0 / 25.0}


def xi_harmonic(n: int, de: float, homega: float) -> float:
    """Closed-form xi of a displaced vibrational level in a harmonic well.

    xi_n = {1, 1/3, 7/25} + (hbar omega)^2/(2 dE^2) for n = 0, 1, 2.  The
    offsets are the infinite-displacement asymptotes; for the level-n
    populations the exact relation holds at every displacement since the
    variance is (2n+1)|alpha|^2 times the level spacing squared.
    """
    if n not in _XI_OFFSETS:
        raise ParameterError(f"closed form available for n in {{0,1,2}}, got {n}")
    if de <= 0:
        raise ParameterError("xi undefined for a stationary state")
    return _XI_OFFSETS[n] + homega**2 / (2.0 * de**2)


def displaced_populations(n: int, alpha: float, n_max: int | None = None) -> np.ndarray:
    """Level populations of vibrational state n displaced by amplitude alpha.

    With x = |alpha|^2 and Poisson weights P(x):
    p0(k) = P(x)(k); p1(k) = (x - k)^2/x * p0(k);
    p2(k) = (x^2 - 2 k x + k^2 - k)^2/(2 x^2) * p0(k).
    Each sums to one; means are x + n and variances (2n+1) x.
    """
    if n not in (0, 1, 2):
        raise ParameterError(f"populations available for n in {{0,1,2}}, got {n}")
    if alpha < 0:
        raise ParameterError("alpha is a magnitude, must be non-negative")
    x = alpha**2
    if n_max is None:
        n_max = int(max(32, x + 12.0 * np.sqrt(x + 1.0) + 3 * n))
    k = np.arange(n_max)
    if x == 0.0:
        p = np.zeros(n_max)
        p[n] = 1.0
        return p
    # log k! by a running sum, since k is an integer
    log_pois = -x + k * np.log(x) - np.cumsum(np.log(np.maximum(k, 1)))
    base = np.exp(log_pois)
    if n == 0:
        return base
    if n == 1:
        return (x - k) ** 2 / x * base
    return (x**2 - 2.0 * k * x + k**2 - k) ** 2 / (2.0 * x**2) * base


@dataclass(frozen=True)
class QubitModel:
    """Spin precessing at angle zeta about a fixed axis with frequency omega.

    The two levels sit at 0 and hbar*omega with populations cos^2(zeta/2)
    and sin^2(zeta/2); this is the small-excitation limit of the displaced
    wave packet and the only system that can saturate the uncertainty bound.
    """

    zeta: float
    omega: float

    @property
    def populations(self) -> tuple[float, float]:
        return (float(np.cos(self.zeta / 2.0) ** 2), float(np.sin(self.zeta / 2.0) ** 2))

    @property
    def e(self) -> float:
        return float(self.omega * np.sin(self.zeta / 2.0) ** 2)

    @property
    def de(self) -> float:
        return float(self.omega * np.sin(self.zeta) / 2.0)

    @property
    def de_max(self) -> float:
        return self.omega / 2.0

    @property
    def xi(self) -> float:
        return 2.0 * (self.de_max**2 / self.de**2 - 1.0)

    def overlap(self, t) -> np.ndarray:
        """|A(t)| = sqrt(1 - sin^2(zeta) sin^2(omega t / 2))."""
        t = np.asarray(t, dtype=float)
        out = np.sqrt(1.0 - np.sin(self.zeta) ** 2 * np.sin(self.omega * t / 2.0) ** 2)
        return out if out.ndim else float(out)

    def inverted_population_bound(self, t) -> np.ndarray:
        """Mean-energy-style bound from above, valid for pi/2 < zeta < pi.

        With population inversion the energy measured from the *top* level
        plays the mean-energy role: |A(t)| >= cos(sqrt(cos^2(zeta/2) pi omega t / 2)).
        """
        if not np.pi / 2.0 < self.zeta < np.pi:
            raise ParameterError("inverted-population bound needs pi/2 < zeta < pi")
        t = np.asarray(t, dtype=float)
        out = np.cos(np.sqrt(np.cos(self.zeta / 2.0) ** 2 * np.pi * self.omega * t / 2.0))
        return out if out.ndim else float(out)


def qubit_model(zeta: float, omega: float) -> QubitModel:
    if not 0.0 < zeta < np.pi:
        raise ParameterError(f"zeta in (0, pi) required (stationary otherwise), got {zeta}")
    if omega <= 0:
        raise ParameterError("precession frequency must be positive")
    return QubitModel(zeta=zeta, omega=omega)


@dataclass(frozen=True)
class QslReport:
    """Summary of one evolution against both bounds.

    Times are stored dimensionless and converted through time_us_per_unit
    when serialized; regime is "ML" when dE > E (crossover present) and
    "MT" otherwise.
    """

    e: float
    de: float
    tau_mt: float
    tau_ml: float
    tau_c: float | None
    regime: str
    xi_spectral: float
    xi_fit: float
    min_margin: float
    time_us_per_unit: float

    def to_json_dict(self) -> dict:
        scale = self.time_us_per_unit
        return {
            "e_Er": float(self.e),
            "de_Er": float(self.de),
            "tau_mt_us": float(self.tau_mt * scale),
            "tau_ml_us": float(self.tau_ml * scale) if np.isfinite(self.tau_ml) else None,
            "tau_c_us": float(self.tau_c * scale) if self.tau_c is not None else None,
            "regime": self.regime,
            "xi_spectral": float(self.xi_spectral),
            "xi_fit": float(self.xi_fit),
            "min_margin": float(self.min_margin),
        }


def report(moms: SpectralMoments, trace: OverlapTrace,
           time_us_per_unit: float = 1.0) -> QslReport:
    """Evaluate bounds, crossover, margins and both xi estimates on a trace
    that reaches tau_MT, which a stationary state (tau_MT = inf) cannot."""
    tau_mt = moms.tau_mt
    if trace.times[-1] < tau_mt * (1.0 - 1e-9):
        raise ParameterError(
            f"trace ends at {trace.times[-1]:.3g}, before tau_MT = {tau_mt:.3g}")
    bound = unified_bound(moms.e, moms.de, trace.times)
    vis = trace.visibility
    valid = ~np.isnan(bound)
    min_margin = float((vis[valid] - bound[valid]).min())
    ratio = geodesic_ratio(vis, moms.de * trace.times)
    xi_fit, _ = deviation_from_geometry(trace.times, ratio, tau_mt)
    xi_spec = deviation_from_kurtosis(moms.beta2)
    regime = "ML" if moms.de > moms.e else "MT"
    return QslReport(e=moms.e, de=moms.de, tau_mt=tau_mt, tau_ml=moms.tau_ml,
                     tau_c=crossover_time(moms.e, moms.de), regime=regime,
                     xi_spectral=xi_spec, xi_fit=xi_fit, min_margin=min_margin,
                     time_us_per_unit=time_us_per_unit)
