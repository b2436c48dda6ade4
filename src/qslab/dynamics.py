"""Initial-state preparation, exact spectral evolution and the two-time overlap.

The displaced wave packet evolves under a static Hamiltonian, so everything
follows from the populations p_k over its eigenmodes:
A(t) = <psi(0)|psi(t)> = sum_k p_k exp(-i E_k t), with energies referenced to
the trap ground state (E_0 = 0).  The visibility is |A|, the Fubini-Study
distance arccos|A|.  The packet never exists on the grid: it is held as its
plane-wave coefficients on the half-zone Bloch blocks of
eigensolve.decompose, in closed form, and its populations, moments and
overlap follow block by block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError
from .eigensolve import EigenDecomposition

# at dx = 0 a packet is a q = 0 cell state cut to its own site, and the cut
# gives it a small width (9.3e-3 E_R for n = 2 at 270 E_R); widths below
# this cannot dephase within any simulated window (tau_MT > 2 ms)
STATIONARY_DE = 0.05


@dataclass(frozen=True)
class SpectralState:
    """Populations of a state over the eigenmodes of the evolution Hamiltonian."""

    populations: np.ndarray    # per mode, summing to one; (Q, P) blocks from to_spectral
    energies: np.ndarray       # referenced energies (ground state at 0), E_R, same layout

    def __post_init__(self):
        self.populations.flags.writeable = False
        self.energies.flags.writeable = False


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


def prepare_initial(n: int, dx: float, site_states: np.ndarray, quasimomenta: np.ndarray,
                    orders: np.ndarray) -> np.ndarray:
    """Displaced vibrational state: single-site level n, zero-padded, shifted by dx.

    Column n of `site_states`, phi(u) on the P points u = (l - P/2)/P
    (eigensolve.site_states of the q = 0 block), sits on the central site of
    the S-site grid and is translated by dx, so the packet and the
    integer-site wells differ by exactly dx.  Returns its (Q, P) coefficients on the plane waves
    exp(i k u), k = q + 2 pi m, of the blocks with these quasimomenta and
    orders (S = 2 Q - 1): a_q(m) = sum_u phi(u) exp(-i k (u + dx)) / sqrt(S P),
    a P-point FFT of phi(u) exp(-i q u) read at m mod P, times (-1)^m for
    the cell's first point at u = -1/2 and the translation's phase.
    """
    if n not in (0, 1, 2):
        raise ParameterError(f"vibrational index must be 0, 1 or 2, got {n}")
    if not 0.0 <= dx <= 0.5 + 1e-15:
        raise ParameterError(f"displacement must lie in [0, 0.5] lambda/2, got {dx}")
    p = site_states.shape[0]
    q = np.asarray(quasimomenta, dtype=float)[:, None]
    u = (np.arange(p) - p // 2) / p
    spectra = np.fft.fft(site_states[:, n] * np.exp(-1j * q * u), axis=1)
    k = q + 2.0 * np.pi * orders
    norm = np.sqrt((2 * q.size - 1) * p)
    return (-1.0) ** orders * np.take_along_axis(spectra, orders % p, axis=1) \
        * np.exp(-1j * k * dx) / norm


def to_spectral(packet: np.ndarray, eig: EigenDecomposition) -> SpectralState:
    """Populations p(q, b) = w_q |V_q^dagger a_q|^2 over the half-zone modes.

    Time reversal maps a real packet's coefficients in block q onto block
    -q, whose modes are the conjugates, so w_q = 2 for q > 0 counts both.
    """
    amplitudes = np.einsum("qab,qa->qb", eig.vectors.conj(), packet)
    populations = eig.weights[:, None] * np.abs(amplitudes) ** 2
    total = float(populations.sum())
    if abs(total - 1.0) > 1e-10:
        raise NumericError(f"Parseval defect {abs(total - 1.0):.2e}; packet not normalised")
    return SpectralState(populations=populations, energies=eig.energies - eig.ground_offset)


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


def _overlap_sum(populations: np.ndarray, energies: np.ndarray, times: np.ndarray):
    phases = np.outer(times, energies)
    populations = populations.ravel()
    # cos, sin and two real products cost less than a complex exp and product
    return np.cos(phases) @ populations - 1j * (np.sin(phases) @ populations)


def evolve_overlap(spectral: SpectralState, times: np.ndarray) -> OverlapTrace:
    """A(t) = sum_k p_k exp(-i E_k t) for the autocorrelation of a static H.

    The global phase convention matches a stationary reference branch with
    the ground state energy at zero.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] != 0.0:
        raise ParameterError("time grid must start at t = 0")
    if np.any(np.diff(times) < 0):
        raise ParameterError("time grid must be sorted")
    overlaps = _overlap_sum(spectral.populations, spectral.energies, times)
    overlaps[0] = 1.0   # the norm; sum p rounds either side of it (to_spectral bounds the defect)
    return OverlapTrace(times=times, overlaps=overlaps)


def direct_moments(blocks: np.ndarray, packet: np.ndarray, weights: np.ndarray,
                   ground_offset: float = 0.0) -> SpectralMoments:
    """Moments from the half-zone Bloch blocks applied to a packet's (Q, P)
    coefficients, with no eigenbasis: E = sum_q w_q a_q^dagger H_q a_q - E_0.

    The reference curves' route; the spectral one (to_spectral, moments) is
    its oracle: over the default points and curves e, de and beta2 agree to
    about 1e-13 relative.
    """
    def shifted(x, shift):          # (H_q - shift) x_q in every block
        return np.einsum("qab,qb->qa", blocks, x) - shift * x

    def mean(x, y):                 # sum_q w_q x_q^dagger y_q
        return float(np.einsum("q,qa,qa->", weights, x.conj(), y).real)

    h_psi = shifted(packet, ground_offset)
    e = mean(packet, h_psi)
    d_psi = h_psi - e * packet                    # (H - E) psi
    de = np.sqrt(max(mean(d_psi, d_psi), 0.0))
    if de < STATIONARY_DE:
        return SpectralMoments(e=e, de=de, beta2=None, stationary=True)
    d2_psi = shifted(d_psi, ground_offset + e)
    return SpectralMoments(e=e, de=de, beta2=mean(d2_psi, d2_psi) / de**4, stationary=False)


def quadrature_defect(spectral: SpectralState, trace: OverlapTrace) -> float | None:
    """max_t |A(t) - A_S'(t)|, the error estimate of the S-point q quadrature.

    A(t) is an S-point trapezoid rule over q of a smooth periodic function,
    which converges exponentially in S (Trefethen and Weideman, SIAM Rev. 56,
    385 (2014)).  A_S' is the coarser rule of S', the largest proper divisor
    of S: it keeps the blocks with q in (2 pi / S') Z, reweighted by S / S'.
    S = 2 Q - 1 for the (Q, P) state of to_spectral.  None at S = 1, which
    has no coarser rule.
    """
    sites = 2 * spectral.populations.shape[0] - 1
    coarse = max((d for d in range(1, sites) if sites % d == 0), default=None)
    if coarse is None:
        return None
    step = sites // coarse
    coarse_overlaps = step * _overlap_sum(spectral.populations[::step],
                                          spectral.energies[::step], trace.times)
    return float(np.abs(trace.overlaps - coarse_overlaps).max())


def default_times(moms: SpectralMoments, n_points: int = 64) -> np.ndarray:
    """Uniform grid over [0, tau_MT], the window where the MT bound applies."""
    if moms.stationary:
        raise ParameterError("stationary state has no finite tau_MT")
    return np.linspace(0.0, moms.tau_mt, n_points)
