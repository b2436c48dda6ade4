"""Shared fixtures: cached lattice solutions, the default-grid sweep, the
oracles of the Bloch solver (the dense Hamiltonian on the S-site grid, the
Bloch blocks of a sampled cell and Mathieu's equation), the grid route the
half-zone packets are checked against, and the per-record fringe fit and
per-cell CSV formatter the batched paths are checked against."""

import numpy as np
import pytest
from scipy.special import mathieu_a, mathieu_b

from qslab import dynamics, eigensolve, scan
from qslab.errors import ParameterError
from qslab.model import KAPPA, LatticeParams


class LatticeSolver:
    """Memoises scan.solve_displacement across tests."""

    def __init__(self, params: LatticeParams | None = None):
        self.params = params or LatticeParams()
        self._cache = {}

    def solve(self, dx: float):
        """(model, eig, q0_sites(eig)) for one displacement."""
        key = round(dx, 12)
        if key not in self._cache:
            model, eig = scan.solve_displacement(dx, self.params)
            self._cache[key] = model, eig, q0_sites(eig)
        return self._cache[key]

    def spectral_point(self, n: int, dx: float):
        """(model, eig, packet, spectral, moments) of the point (n, dx)."""
        model, eig, (_, site_states) = self.solve(dx)
        packet = block_packet(n, dx, eig, site_states)
        spectral = dynamics.to_spectral(packet, eig)
        return model, eig, packet, spectral, dynamics.moments(spectral)


def grid_potential(lattice, spin):
    """U_spin(u) = -U0(theta) cos^2(pi (u - u0)) on the S P points
    u = (j - S P // 2) / P of the whole box of a LatticeModel.  The spin-down
    lattice has minima at integer site coordinates; the spin-up lattice is
    the same profile displaced by +dx."""
    n = lattice.params.sites * lattice.params.points_per_site
    u = (np.arange(n) - n // 2) / lattice.params.points_per_site
    u0 = lattice.dx if spin == "up" else 0.0
    return -lattice.depth * np.cos(np.pi * (u - u0)) ** 2


def grid_kinetic(n, length):
    """The Fourier-grid operator kappa k^2 on n points of a periodic box
    `length` sites long, as a dense circulant: irfft of the real even
    multiplier gives its first row, symmetrized to kill rounding."""
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)
    row = np.fft.irfft(KAPPA * k**2, n=n)
    i = np.arange(n)
    mat = row[np.subtract.outer(i, i) % n]
    return (mat + mat.T) / 2.0


def grid_hamiltonian(lattice, spin):
    """Dense H = T + diag(V) of one spin state on the S P grid, the oracle
    the Bloch blocks are checked against."""
    potential = grid_potential(lattice, spin)
    mat = grid_kinetic(potential.size, float(lattice.params.sites)) + np.diag(potential)
    return (mat + mat.T) / 2.0


def central_cell(lattice, spin):
    """The P samples of grid_potential on the central site, u = (l - P/2)/P."""
    sites = lattice.params.sites
    return grid_potential(lattice, spin).reshape(sites, -1)[sites // 2]


def cell_blocks(cell, quasimomenta):
    """Bloch blocks of any sampled cell, the oracle of eigensolve._bloch_blocks.

    `cell` holds the potential on the P points (l - P/2)/P of one site.  Block
    q is built on the plane-wave orders of eigensolve._bloch_blocks, ordered by
    |q + 2 pi m|, and couples orders m and m' through the cell's discrete
    Fourier component (m - m') mod P, taken by an FFT.  A cell that is bitwise
    its own mirror image, cell[l] == cell[-l mod P], has real components up
    to rounding, which is dropped: its blocks are real symmetric, those of
    any other cell complex Hermitian.
    """
    p = cell.size
    q = np.asarray(quasimomenta, dtype=float)[:, None]
    window = np.ceil(-p / 2 - q / (2.0 * np.pi)).astype(int) + np.arange(p)
    orders = np.take_along_axis(
        window, np.argsort(np.abs(q + 2.0 * np.pi * window), axis=1, kind="stable"), axis=1)
    # (-1)^g moves the transform's origin from the cell's first point to u = 0
    v_g = (-1.0) ** np.arange(p) * np.fft.fft(cell) / p
    if np.array_equal(cell, cell[-np.arange(p) % p]):
        v_g = v_g.real
    coupling = v_g[(orders[:, :, None] - orders[:, None, :]) % p]
    kinetic = KAPPA * (q + 2.0 * np.pi * orders) ** 2
    return coupling + kinetic[:, :, None] * np.eye(p), orders


def cell_decompose(cell, sites):
    """eigensolve.decompose of any sampled cell, through cell_blocks."""
    q = 2.0 * np.pi * np.arange(sites // 2 + 1) / sites
    blocks, orders = cell_blocks(cell, q)
    energies, vectors = np.linalg.eigh(blocks)
    return eigensolve.EigenDecomposition(
        energies=energies, vectors=vectors, orders=orders, quasimomenta=q,
        weights=np.where(q > 0, 2.0, 1.0), ground_offset=float(energies[0, 0]))


def mathieu_defect(lattice, spin="down"):
    """Largest |error| (E_R) of the 12 lowest band energies of one spin's
    lattice at q = 0 and q = pi against Mathieu's equation: spin-down through
    eigensolve._bloch_blocks, spin-up through cell_blocks of its sampled cell.

    With z = pi u, shifted by pi/2, the cell -U0 cos^2(pi u) under kappa k^2
    is y'' + (a - 2 q_M cos 2z) y = 0 with q_M = U0/4 and E = a - U0/2.  The
    q = 0 modes are pi-periodic in z, the q = pi modes pi-antiperiodic
    (DLMF 28.2, 28.12; Slater, Phys. Rev. 87, 807 (1952)), and for q_M > 0
    a_0 < b_1 < a_1 < b_2 < ..., so the 12 lowest are {a_2r, b_2r+2} and
    {a_2r+1, b_2r+1} for r < 6.  Only those orders are asked for: at
    q_M = 61.07 scipy's mathieu_a(13) returns a_11.  cos^2 is band-limited,
    so the displaced spin-up cell has the same spectrum.
    """
    p = lattice.params.points_per_site
    if spin == "down":
        blocks, _ = eigensolve._bloch_blocks(lattice.depth, p, [0.0, np.pi])
    else:
        blocks, _ = cell_blocks(central_cell(lattice, spin), [0.0, np.pi])
    energies = np.linalg.eigvalsh(blocks)[:, :12]
    r, q_m = np.arange(6), lattice.depth / 4.0
    values = np.sort([np.r_[mathieu_a(2 * r, q_m), mathieu_b(2 * r + 2, q_m)],
                      np.r_[mathieu_a(2 * r + 1, q_m), mathieu_b(2 * r + 1, q_m)]], axis=1)
    return float(np.abs(energies - (values - lattice.depth / 2.0)).max())


def q0_sites(eig, count=3):
    """(energies, cell states) of the first `count` q = 0 modes of eig."""
    return eig.energies[0, :count], eigensolve.site_states(eig.vectors[0, :, :count],
                                                           eig.orders[0])


def block_packet(n, dx, eig, site_states):
    """The pipeline's packet: (Q, P) plane-wave coefficients on eig's blocks."""
    return dynamics.prepare_initial(n, dx, site_states, eig.quasimomenta, eig.orders)


def grid_packet(n, dx, params, site_states):
    """The packet on the S P grid of spacing 1/P: site state n zero-padded to
    the central site, then translated by dx with band-limited interpolation
    (the Nyquist bin takes cos(k dx), so a real input stays real) and
    renormalised."""
    p = params.points_per_site
    size = params.sites * p
    psi = np.zeros(size)
    start = size // 2 - p // 2
    psi[start:start + p] = site_states[:, n]
    psi /= np.linalg.norm(psi)
    k = 2.0 * np.pi * np.fft.fftfreq(size, d=1.0 / p)
    phase = np.exp(-1j * k * dx)
    phase[size // 2] = np.cos(k[size // 2] * dx)
    shifted = np.fft.ifft(np.fft.fft(psi) * phase)
    return shifted / np.linalg.norm(shifted)


class FullZone:
    """All S Bloch blocks of a half-zone EigenDecomposition, on the grid.

    Block -q is the complex conjugate of block q with plane-wave orders
    m -> -m.  Wavenumber 2 pi n / S, n = j + S m, sits in FFT bin n mod S P,
    and (-1)^n moves the transform's origin from the first grid point to
    u = 0.  Sorted mode k is column `band` of vectors[block] with
    (block, band) = divmod(order[k], P).
    """

    def __init__(self, eig):
        half, p = eig.energies.shape
        s = 2 * half - 1
        energies = np.concatenate([eig.energies[:0:-1], eig.energies])
        vectors = np.concatenate([eig.vectors[:0:-1].conj(), eig.vectors])
        orders = np.concatenate([-eig.orders[:0:-1], eig.orders])
        n = (np.arange(s) - s // 2)[:, None] + s * orders
        self.vectors = vectors * ((-1.0) ** n)[:, :, None]
        self.bins = n % (s * p)
        self.order = np.argsort(energies, axis=None, kind="stable")
        self.energies = energies.ravel()[self.order]
        self.bands = self.order % p
        self.ground_offset = eig.ground_offset

    @property
    def size(self) -> int:
        return self.energies.size

    def project(self, psi: np.ndarray) -> np.ndarray:
        """Coefficients <phi_k|psi> of a grid state over the sorted modes."""
        spectrum = np.fft.fft(psi, norm="ortho")[self.bins]
        coeff = np.einsum("sab,sa->sb", self.vectors.conj(), spectrum)
        return coeff.ravel()[self.order]

    def synthesize(self, coefficients: np.ndarray) -> np.ndarray:
        """Grid state sum_k c_k phi_k by the inverse transform; an (S*P, K)
        input gives one state per column."""
        s, p = self.bins.shape
        flat = np.zeros(np.shape(coefficients), dtype=complex)
        flat[self.order] = coefficients
        spectrum = np.empty(flat.shape, dtype=complex)
        spectrum[self.bins] = (self.vectors @ flat.reshape(s, p, -1)).reshape(
            (s, p) + flat.shape[1:])
        return np.fft.ifft(spectrum, axis=0, norm="ortho")

    def spectral(self, psi: np.ndarray) -> dynamics.SpectralState:
        """Populations of a grid state over all S P modes."""
        return dynamics.SpectralState(populations=np.abs(self.project(psi)) ** 2,
                                      energies=self.energies - self.ground_offset)

    def validate(self, h: np.ndarray) -> dict:
        """Residual and orthonormality of the synthesized grid modes against
        the assembled matrix."""
        modes = self.synthesize(np.eye(self.size))
        ortho = float(np.abs(modes.conj().T @ modes - np.eye(self.size)).max())
        resid = h @ modes - modes * self.energies
        scale = float(np.abs(self.energies).max())
        residual = float(np.linalg.norm(resid, axis=0).max()) / max(scale, 1.0)
        return {"orthonormality": ortho, "residual": residual, "norm_scale": scale}


@pytest.fixture(scope="session")
def solver() -> LatticeSolver:
    return LatticeSolver()


@pytest.fixture(scope="session")
def point_008(solver):
    """The (n=0, dx=0.08) reference point used by the estimator tests."""
    return solver.spectral_point(0, 0.08)


def ml_domain_margin(result) -> float:
    """min |A| - ml_bound over [0, tau_ML] at 64 points (may exceed tau_MT)."""
    from qslab import qsl

    moms = result.moments
    times = np.linspace(0.0, moms.tau_ml, 64)
    trace = dynamics.evolve_overlap(result.spectral, times)
    bound = np.asarray(qsl.ml_bound(moms.e, times))
    return float((trace.visibility - bound).min())


def fit_fringe_oracle(phi_r, n_down, n_total, loss_fraction=0.0) -> dict:
    """One record's cosine fit, one lstsq per record: the fields of
    interferometer.FringeFit as Python scalars."""
    phi_r = np.asarray(phi_r, dtype=float)
    n_down = np.asarray(n_down, dtype=float)
    if phi_r.size < 6 or np.unique(np.round(phi_r, 12)).size < 6:
        raise ParameterError("need at least 6 distinct Ramsey phases")
    y = n_down / (n_total * (1.0 - loss_fraction))
    design = np.column_stack([np.ones_like(phi_r), np.cos(phi_r), np.sin(phi_r)])
    gram = design.T @ design
    if np.linalg.cond(gram) > 1e12:
        raise ParameterError("degenerate phase design; spread the phase grid")
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    sigma2 = float(resid @ resid) / max(phi_r.size - 3, 1)
    cov = sigma2 * np.linalg.inv(gram)
    a, b, c = coef
    v_raw = 2.0 * float(np.hypot(b, c))
    if v_raw > 1e-12:
        grad_v = np.array([0.0, 4.0 * b, 4.0 * c]) / v_raw
        v_err = float(np.sqrt(max(grad_v @ cov @ grad_v, 0.0)))
        grad_p = np.array([0.0, c, -b]) / (b**2 + c**2)
        phi_err = float(np.sqrt(max(grad_p @ cov @ grad_p, 0.0)))
    else:
        v_err = 2.0 * float(np.sqrt(cov[1, 1] + cov[2, 2]))
        phi_err = np.pi
    return {"v": float(np.clip(v_raw, 0.0, 1.0)), "v_raw": v_raw, "v_err": v_err,
            "phi": float(np.arctan2(-c, -b)), "phi_err": min(phi_err, np.pi),
            "offset": float(a), "flagged": v_raw < 2.0 * v_err}


def fmt_oracle(value) -> str:
    """One CSV cell as the per-cell writer printed it."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)
