"""Initial-state preparation, exact spectral evolution and the two-time overlap.

The displaced wave packet evolves under a static Hamiltonian, so everything
follows from the populations p_k over its eigenmodes:
A(t) = <psi(0)|psi(t)> = sum_k p_k exp(-i E_k t), with energies referenced to
the trap ground state (E_0 = 0).  The visibility is |A|, the Fubini-Study
distance arccos|A|.  The packet never exists on the grid: it is held as its
plane-wave coefficients on the half-zone Bloch blocks of
eigensolve.decompose, in closed form, and its populations, moments and
overlap follow block by block, the overlap on a uniform grid of T times
from about 2 sqrt(T) cosines and sines per mode.
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
    kurtosis is undefined instead of propagating NaN, and tau_mt is inf.
    """

    e: float
    de: float
    beta2: float | None

    @property
    def tau_mt(self) -> float:
        return np.inf if self.beta2 is None else np.pi / (2.0 * self.de)

    @property
    def tau_ml(self) -> float:
        return np.inf if self.e <= 0 else np.pi / (2.0 * self.e)


@dataclass(frozen=True)
class OverlapTrace:
    """Two-time overlap A(t) on a uniform time grid, with derived channels."""

    times: np.ndarray          # dimensionless, hbar/E_R
    overlaps: np.ndarray       # complex A(t)
    quadrature_defect: float | None     # max_t |A - A_S'|, see evolve_overlap

    def __post_init__(self):
        for array in (self.times, self.overlaps):
            array.flags.writeable = False

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


def packets(dx: float, cell_modes: np.ndarray, quasimomenta: np.ndarray,
            orders: np.ndarray) -> np.ndarray:
    """Displaced vibrational packets: q = 0 modes cut to one site, shifted by dx.

    Column j of `cell_modes` is a q = 0 mode on the plane waves orders[0].
    A q = 0 mode repeats from site to site; its samples phi_j(u) on the cell
    u = (l - P/2)/P sit on the central site of the S-site grid, zero
    elsewhere, and are translated by dx, so the packet and the integer-site
    wells differ by exactly dx.  Returns the (K, Q, P) coefficients of the K
    packets on the plane waves exp(i k u), k = q + 2 pi m, of the blocks with
    these quasimomenta and orders (S = 2 Q - 1):
    a_q(m) = sum_u phi_j(u) exp(-i k (u + dx)) / sqrt(S P), a P-point FFT of
    phi_j(u) exp(-i q u) read at m mod P.  (-1)^m moves the transform's
    origin to the cell's first point, u = -1/2, which needs P even.  A mode's
    global phase is kept: it drops out of every population and moment.
    """
    p = orders.shape[1]
    q = np.asarray(quasimomenta, dtype=float)[:, None]
    u = (np.arange(p) - p // 2) / p
    # plane wave m sampled at u_l is (-1)^m exp(2 pi i m l / P) / sqrt(P)
    spectrum = np.zeros(cell_modes.shape, dtype=complex)
    spectrum[orders[0] % p] = ((-1.0) ** orders[0])[:, None] * cell_modes
    cells = np.fft.ifft(spectrum, axis=0, norm="ortho").T
    spectra = np.fft.fft(cells[:, None, :] * np.exp(-1j * q * u), axis=2)
    k = q + 2.0 * np.pi * orders
    norm = np.sqrt((2 * q.size - 1) * p)
    return (-1.0) ** orders * np.take_along_axis(spectra, (orders % p)[None], axis=2) \
        * np.exp(-1j * k * dx) / norm


def to_spectral(packet: np.ndarray, eig: EigenDecomposition) -> SpectralState:
    """Populations p(q, b) = w_q |V_q^dagger a_q|^2 over the half-zone modes.

    Time reversal maps a real packet's coefficients in block q onto block
    -q, whose modes are the conjugates, so w_q = 2 for q > 0 counts both.
    """
    # V^T Re a - i V^T Im a, the conjugate of V^dagger a for real and complex V alike
    re, im = (np.einsum("qab,qa->qb", eig.vectors, part) for part in (packet.real, packet.imag))
    populations = eig.weights[:, None] * np.abs(re - 1j * im) ** 2
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
        return SpectralMoments(e=e, de=de, beta2=None)
    mu4 = float((p * (e_k - e) ** 4).sum())
    return SpectralMoments(e=e, de=de, beta2=mu4 / de**4)


def _block_overlaps(populations: np.ndarray, energies: np.ndarray, dt: float,
                    count: int) -> np.ndarray:
    """(count, Q) partial sums A_q(j dt) = sum_b p(q, b) exp(-i E(q, b) j dt):
    with j = r + B s and B = ceil(sqrt(count)), the (Q, S, P) giant steps
    p exp(-i E B s dt) times the (Q, P, B) baby steps exp(-i E r dt) (Paterson
    and Stockmeyer, SIAM J. Comput. 2, 60 (1973)).  A 1-d state is one block."""
    populations, energies = np.atleast_2d(populations, energies)
    b = int(np.ceil(np.sqrt(count)))
    giant = energies[:, None, :] * (np.arange(-(-count // b)) * b * dt)[:, None]
    baby = energies[:, :, None] * (np.arange(b) * dt)
    g_cos, g_sin = populations[:, None, :] * np.cos(giant), populations[:, None, :] * np.sin(giant)
    b_cos, b_sin = np.cos(baby), np.sin(baby)
    # real factors and products: complex ones added 0.4 MB to the default scan's peak RSS
    sums = (g_cos @ b_cos - g_sin @ b_sin) - 1j * (g_sin @ b_cos + g_cos @ b_sin)
    return sums.reshape(sums.shape[0], -1)[:, :count].T


def evolve_overlap(spectral: SpectralState, t_end: float, count: int) -> OverlapTrace:
    """A(t) = sum_k p_k exp(-i E_k t), the autocorrelation of a static H, at
    the count times linspace(0, t_end, count).

    The global phase convention matches a stationary reference branch with
    the ground state energy at zero.  The trace carries max_t |A(t) - A_S'(t)|,
    the error estimate of the S-point q quadrature: A(t) is an S-point
    trapezoid rule over q of a smooth periodic function, which converges
    exponentially in S (Trefethen and Weideman, SIAM Rev. 56, 385 (2014)).
    A_S' is the coarser rule of S', the largest proper divisor of S: it keeps
    the blocks with q in (2 pi / S') Z, reweighted by S / S'.  S = 2 Q - 1
    for the (Q, P) state of to_spectral; S = 1 has no coarser rule (None).
    """
    if t_end == np.inf:
        raise ParameterError("stationary state has no finite tau_MT")
    if not 0.0 <= t_end < np.inf:
        raise ParameterError(f"time window end must be finite and non-negative, got {t_end}")
    if count < 1:
        raise ParameterError(f"time grid needs at least one point, got {count}")
    times = np.linspace(0.0, t_end, count)
    # linspace computes j dt, bar its endpoint, which it sets to t_end
    dt = float(times[1]) if count > 1 else 0.0
    partials = _block_overlaps(spectral.populations, spectral.energies, dt, count)
    overlaps = partials.sum(axis=1)
    overlaps[0] = 1.0   # the norm; sum p rounds either side of it (to_spectral bounds by how much)
    sites = 2 * partials.shape[1] - 1
    step = next((d for d in range(2, sites + 1) if sites % d == 0), None)    # S / S'
    defect = None if step is None else float(
        np.abs(overlaps - step * partials[:, ::step].sum(axis=1)).max())
    return OverlapTrace(times=times, overlaps=overlaps, quadrature_defect=defect)
