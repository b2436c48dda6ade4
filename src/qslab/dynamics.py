"""Initial-state preparation, exact spectral evolution and the two-time overlap.

The displaced wave packet evolves under a static Hamiltonian, so everything
follows from the populations p_k over its eigenmodes:
A(t) = <psi(0)|psi(t)> = sum_k p_k exp(-i E_k t), with energies referenced to
the trap ground state (E_0 = 0).  The visibility is |A|, the Fubini-Study
distance arccos|A|.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError
from .eigensolve import EigenDecomposition
from .model import Grid, LatticeModel, Potential, apply_hamiltonian

SHIFT_TOL = 1e-10
NORM_TOL = 1e-12
# an embedded site eigenstate carries up to ~1e-2 E_R of spurious width from
# 1e-13-level zero-padding residues near the top of the spectrum; widths
# below this cannot dephase within any simulated window (tau_MT > 2 ms)
STATIONARY_DE = 0.05


@dataclass(frozen=True)
class QuantumState:
    """Normalized wave function sampled on the lattice grid."""

    amplitudes: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.amplitudes.flags.writeable = False
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > NORM_TOL:
            raise NumericError(f"state norm deviates from 1 by {abs(norm - 1.0):.2e}")


@dataclass(frozen=True)
class SpectralState:
    """State expressed over all eigenmodes of the evolution Hamiltonian."""

    coefficients: np.ndarray   # complex amplitudes on the sorted modes
    energies: np.ndarray       # referenced energies (ground state at 0), E_R
    bands: np.ndarray          # band index of each mode

    def __post_init__(self):
        self.coefficients.flags.writeable = False
        self.energies.flags.writeable = False
        self.bands.flags.writeable = False

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.coefficients) ** 2


@dataclass(frozen=True)
class SpectralMoments:
    """Mean energy, uncertainty and kurtosis of the excitation spectrum.

    beta2 is None for a stationary state (de below STATIONARY_DE), where the
    kurtosis is undefined instead of propagating NaN.
    """

    e: float
    de: float
    beta2: float | None
    stationary: bool

    @property
    def xi(self) -> float | None:
        return None if self.beta2 is None else (self.beta2 - 1.0) / 2.0

    @property
    def tau_mt(self) -> float:
        if self.stationary:
            return np.inf
        return np.pi / (2.0 * self.de)

    @property
    def tau_ml(self) -> float:
        if self.e <= 0:
            return np.inf
        return np.pi / (2.0 * self.e)


@dataclass(frozen=True)
class OverlapTrace:
    """Two-time overlap A(t) on a time grid, with derived channels."""

    times: np.ndarray          # dimensionless, hbar/E_R
    overlaps: np.ndarray       # complex A(t)

    def __post_init__(self):
        self.times.flags.writeable = False
        self.overlaps.flags.writeable = False

    @property
    def visibility(self) -> np.ndarray:
        return np.abs(self.overlaps)

    @property
    def phase(self) -> np.ndarray:
        """Unwrapped complex argument of A(t)."""
        return np.unwrap(np.angle(self.overlaps))

    @property
    def fs_distance(self) -> np.ndarray:
        return np.arccos(np.clip(self.visibility, -1.0, 1.0))


def _spectral_shift(values: np.ndarray, shift: float, grid: Grid) -> np.ndarray:
    # band-limited translation; the Nyquist bin gets cos(k dx) so a real
    # input stays real up to rounding
    n = values.size
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
    phase = np.exp(-1j * k * shift)
    if n % 2 == 0:
        nyq = n // 2
        phase[nyq] = np.cos(k[nyq] * shift)
    shifted = np.fft.ifft(np.fft.fft(values) * phase)
    return shifted


def prepare_initial(n: int, dx: float, model: LatticeModel,
                    site_states: np.ndarray) -> QuantumState:
    """Displaced vibrational state: single-site level n, zero-padded, shifted by dx.

    Column n of `site_states`, the (theta-dependent) well's eigenstates from
    eigensolve.single_site_eigenstates, is embedded at the central site of
    the full grid and translated by dx with band-limited interpolation,
    leaving the evolution wells at integer coordinates.  The wells and the
    packet then differ by exactly dx, which is the only physically
    meaningful displacement.
    """
    if n not in (0, 1, 2):
        raise ParameterError(f"vibrational index must be 0, 1 or 2, got {n}")
    if not 0.0 <= dx <= 0.5 + 1e-15:
        raise ParameterError(f"displacement must lie in [0, 0.5] lambda/2, got {dx}")
    grid = model.grid
    p = model.params.points_per_site
    psi = np.zeros(grid.size)
    start = grid.size // 2 - p // 2
    psi[start:start + p] = site_states[:, n]
    psi /= np.linalg.norm(psi)
    shifted = _spectral_shift(psi, dx, grid)
    imag_residue = float(np.abs(shifted.imag).max())
    norm = np.linalg.norm(shifted)
    drift = abs(norm - 1.0)
    if max(imag_residue, drift) > SHIFT_TOL:
        warnings.warn(
            f"band-limited shift residue {max(imag_residue, drift):.2e} exceeds "
            f"{SHIFT_TOL:.0e}; displacement {dx} not cleanly representable",
            RuntimeWarning, stacklevel=2)
    return QuantumState(amplitudes=shifted / norm, grid=grid)


def to_spectral(state: QuantumState, eig: EigenDecomposition) -> SpectralState:
    """Expand the state over every eigenmode (FFT, then the Bloch blocks)."""
    coeff = eig.project(state.amplitudes)
    total = float((np.abs(coeff) ** 2).sum())
    if abs(total - 1.0) > 1e-10:
        raise NumericError(f"Parseval defect {abs(total - 1.0):.2e}; basis incomplete")
    return SpectralState(coefficients=coeff, energies=eig.referenced_energies,
                         bands=eig.bands)


def moments(spectral: SpectralState) -> SpectralMoments:
    """Mean, uncertainty and kurtosis of the energy distribution."""
    p = spectral.populations
    e_k = spectral.energies
    e = float((p * e_k).sum())
    var = float((p * (e_k - e) ** 2).sum())
    de = np.sqrt(max(var, 0.0))
    if de < STATIONARY_DE:
        return SpectralMoments(e=e, de=de, beta2=None, stationary=True)
    mu4 = float((p * (e_k - e) ** 4).sum())
    return SpectralMoments(e=e, de=de, beta2=mu4 / de**4, stationary=False)


def evolve_overlap(spectral: SpectralState, times: np.ndarray) -> OverlapTrace:
    """A(t) = sum_k p_k exp(-i E_k t) for the autocorrelation of a static H.

    The populations carry no phases, so only |c_k|^2 enters; the global
    phase convention matches a stationary reference branch with the ground
    state energy at zero.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] != 0.0:
        raise ParameterError("time grid must start at t = 0")
    if np.any(np.diff(times) < 0):
        raise ParameterError("time grid must be sorted")
    p = spectral.populations
    phases = np.outer(times, spectral.energies)
    # cos, sin and two real products cost less than a complex exp and product
    overlaps = np.cos(phases) @ p - 1j * (np.sin(phases) @ p)
    return OverlapTrace(times=times, overlaps=overlaps)


def reconstruct(spectral: SpectralState, eig: EigenDecomposition, t: float) -> np.ndarray:
    """psi(t) on the grid by the inverse transform (independent overlap route)."""
    return eig.synthesize(spectral.coefficients * np.exp(-1j * spectral.energies * t))


def direct_moments(state: QuantumState, potential: Potential,
                   ground_offset: float = 0.0) -> SpectralMoments:
    """Moments from matrix-free applications of H (model.apply_hamiltonian).

    The reference curves' route; the spectral one (to_spectral, moments) is
    its oracle: e and de agree to 1e-8 relative and beta2 to 1e-6.
    """
    psi = state.amplitudes.astype(complex)
    h_psi = apply_hamiltonian(potential, state.grid, psi) - ground_offset * psi
    e = float(np.real(np.vdot(psi, h_psi)))
    d_psi = h_psi - e * psi                       # (H - E) psi
    var = float(np.real(np.vdot(d_psi, d_psi)))
    de = np.sqrt(max(var, 0.0))
    if de < STATIONARY_DE:
        return SpectralMoments(e=e, de=de, beta2=None, stationary=True)
    d2_psi = apply_hamiltonian(potential, state.grid, d_psi) - (ground_offset + e) * d_psi
    mu4 = float(np.real(np.vdot(d2_psi, d2_psi)))
    return SpectralMoments(e=e, de=de, beta2=mu4 / de**4, stationary=False)


def band_populations(spectral: SpectralState) -> np.ndarray:
    """Populations summed per Bloch band, indexed by band.

    A band index is a mode's rank inside its Bloch block, so only bands not
    degenerate inside a block, such as the bound bands, have a well-defined
    sum: above the well bands 21 and 22 lie 3.4e-13 E_R apart at dx = 0.5,
    and LAPACK's choice of basis splits a packet between them.  The low
    bands are the vibrational levels that closed-form models use.
    """
    return np.bincount(spectral.bands, weights=spectral.populations)


def edge_probability(psi: np.ndarray, grid: Grid, edge_sites: int = 2) -> float:
    """Population within the outermost sites; monitors periodic wrap-around."""
    boundary = grid.sites / 2.0 - edge_sites
    mask = np.abs(grid.positions) > boundary
    return float(np.sum(np.abs(psi[mask]) ** 2))


def default_times(moms: SpectralMoments, n_points: int = 64) -> np.ndarray:
    """Uniform grid over [0, tau_MT], the window where the MT bound applies."""
    if moms.stationary:
        raise ParameterError("stationary state has no finite tau_MT")
    return np.linspace(0.0, moms.tau_mt, n_points)
