"""Shared fixtures: cached lattice solutions, the default-grid sweep, the
oracles of the Bloch solver (the dense Hamiltonian on the S-site grid, the
Bloch blocks of a sampled cell and by gather, and Mathieu's equation), the
block-product moments the reference curves' stencil is checked against, the
grid route the half-zone packets are checked against (real cell states of
the q = 0 modes, zero-padded and shifted on the grid), the two-pass overlap
sum the factored one is checked against, the per-record fringe fit and
per-cell CSV formatter the batched paths are checked against, the column
and encoder composition of a point's fringes.csv and fits.json that the row
templates are checked against, and the closed forms the package does not
need (harmonic-oscillator populations and xi, the Bhatia-Davis cap, the
angle-to-displacement map, the coherent amplitude, the trap frequency in
rad/s and the two-level populations and overlap)."""

import json
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import mathieu_a, mathieu_b

from qslab import dynamics, eigensolve, scan
from qslab.errors import ParameterError
from qslab.model import KAPPA, LatticeParams, recoil_hertz


class LatticeSolver:
    """Memoises scan.solve_displacement across tests."""

    def __init__(self, params: LatticeParams | None = None):
        self.params = params or LatticeParams()
        self._cache = {}

    def solve(self, dx: float):
        """(model, eig, packets, q0_sites(eig)) for one displacement: the
        first three are scan.solve_displacement's."""
        key = round(dx, 12)
        if key not in self._cache:
            model, eig, packets = scan.solve_displacement(dx, self.params)
            self._cache[key] = model, eig, packets, q0_sites(eig)
        return self._cache[key]

    def spectral_point(self, n: int, dx: float):
        """(model, eig, packet, spectral, moments) of the point (n, dx)."""
        model, eig, packets, _ = self.solve(dx)
        packet = packets[n]
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


def gather_blocks(depth, points, quasimomenta):
    """The Bloch blocks of eigensolve._bloch_blocks by gather, its bitwise
    oracle: the three Fourier components V[0] = -U0/2 and V[1] = V[P - 1] =
    -U0/4 read from a (Q, P, P) table of order differences (m - m') mod P,
    plus the kinetic diagonal."""
    q = np.asarray(quasimomenta, dtype=float)[:, None]
    window = np.ceil(-points / 2 - q / (2.0 * np.pi)).astype(int) + np.arange(points)
    orders = np.take_along_axis(
        window, np.argsort(np.abs(q + 2.0 * np.pi * window), axis=1, kind="stable"), axis=1)
    v_g = np.zeros(points)
    v_g[0], v_g[1], v_g[-1] = -depth / 2.0, -depth / 4.0, -depth / 4.0
    coupling = v_g[(orders[:, :, None] - orders[:, None, :]) % points]
    kinetic = KAPPA * (q + 2.0 * np.pi * orders) ** 2
    return coupling + kinetic[:, :, None] * np.eye(points), orders


def direct_moments(blocks, packet, weights, ground_offset=0.0):
    """(E, dE) from the half-zone Bloch blocks applied to a packet's (Q, P)
    coefficients, with no eigenbasis: E = sum_q w_q a_q^dagger H_q a_q - E_0
    and dE^2 = sum_q w_q ||(H_q - E_0 - E) a_q||^2.  The oracle of the
    reference curves' stencil (dynamics.stencil_moments), itself checked
    against the spectral route (to_spectral, moments)."""
    def mean(x, y):                 # sum_q w_q x_q^dagger y_q
        return float(np.einsum("q,qa,qa->", weights, x.conj(), y).real)

    h_psi = np.einsum("qab,qb->qa", blocks, packet) - ground_offset * packet
    e = mean(packet, h_psi)
    d_psi = h_psi - e * packet                    # (H - E) psi
    return e, float(np.sqrt(max(mean(d_psi, d_psi), 0.0)))


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


def site_states(vectors, orders):
    """(P, K) real states of the q = 0 modes in the columns of `vectors`
    (eig.vectors[0], with plane-wave orders eig.orders[0]).

    A q = 0 mode repeats from site to site, so its samples on one cell,
    u = (l - P/2)/P, are a single-site eigenstate with periodic closure: the
    packets n = 0, 1, 2 before they are cut to one site.  Columns are
    orthonormal and phased to be real.
    """
    p = orders.size
    # plane wave m sampled at u_l is (-1)^m exp(2 pi i m l / P) / sqrt(P)
    spectrum = np.zeros(vectors.shape, dtype=complex)
    spectrum[orders % p] = ((-1.0) ** orders)[:, None] * vectors
    cells = np.fft.ifft(spectrum, axis=0, norm="ortho")
    # for a real column r times exp(i a), sum of squares = exp(2 i a) |r|^2
    cells *= np.exp(-0.5j * np.angle((cells**2).sum(axis=0)))
    return cells.real


def q0_sites(eig, count=3):
    """(energies, cell states) of the first `count` q = 0 modes of eig."""
    return eig.energies[0, :count], site_states(eig.vectors[0, :, :count], eig.orders[0])


def block_packets(dx, eig, source=None):
    """The pipeline's (3, Q, P) packets n = 0, 1, 2 on eig's blocks, built
    from the q = 0 modes of `source` (default eig), a lattice with the same
    orders[0]."""
    modes = (eig if source is None else source).vectors[0, :, :3]
    return dynamics.packets(dx, modes, eig.quasimomenta, eig.orders)


def grid_packet(n, dx, params, states):
    """The packet on the S P grid of spacing 1/P: column n of the cell states
    `states` (q0_sites) zero-padded to the central site, then translated by
    dx with band-limited interpolation (the Nyquist bin takes cos(k dx), so a
    real input stays real) and renormalised."""
    p = params.points_per_site
    size = params.sites * p
    psi = np.zeros(size)
    start = size // 2 - p // 2
    psi[start:start + p] = states[:, n]
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

    trace = dynamics.evolve_overlap(result.spectral, result.tau_ml, 64)
    bound = np.asarray(qsl.ml_bound(result.e, trace.times))
    return float((trace.visibility - bound).min())


def overlap_oracle(populations, energies, times):
    """A(t) = sum_k p_k exp(-i E_k t) from the whole T x K phase table, at any
    times: the oracle of the factored sum in dynamics.evolve_overlap."""
    phases = np.outer(times, energies)
    populations = populations.ravel()
    # cos, sin and two real products cost less than a complex exp and product
    return np.cos(phases) @ populations - 1j * (np.sin(phases) @ populations)


def fit_fringe_oracle(phi_r, n_down, n_total, loss_fraction=0.0) -> dict:
    """One record's cosine fit, one lstsq per record: its entry of each fit
    array of interferometer.FringeSeries (v, v_raw, v_err, phi, phi_err) as
    Python scalars."""
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
    _, b, c = coef
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
            "phi": float(np.arctan2(-c, -b)), "phi_err": min(phi_err, np.pi)}


def fmt_oracle(value) -> str:
    """One CSV cell as the per-cell writer printed it."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def ramsey_artifacts_oracle(t_us: np.ndarray, series) -> tuple[str, str]:
    """The text of a point's fringes.csv and fits.json as the column writer
    and the C JSON encoder composed them: object arrays of each time's and
    phase's text, repeated and tiled over the (T, K) counts and joined four
    cells a row, and json.JSONEncoder(sort_keys=True) per record, one a line
    between [ and ]."""
    times, phases = series.n_down.shape
    t_text, phi_text = (np.array([str(v) for v in a.tolist()], dtype=object)
                        for a in (t_us, series.phi_r))
    n_text = np.full(times * phases, fmt_oracle(series.n_total), dtype=object)
    columns = [np.repeat(t_text, phases), np.tile(phi_text, times), n_text,
               series.n_down.ravel()]
    cells = [map(str, column.tolist()) for column in columns]
    fringes = "\n".join(["t_us,phi_r,n_total,n_down", *map(",".join, zip(*cells))]) + "\n"
    encoder = json.JSONEncoder(sort_keys=True)
    rows = zip(*(c.tolist() for c in (t_us, series.v, series.v_err, series.phi,
                                      series.phi_err)))
    records = [encoder.encode(dict(zip(("t_us", "v", "v_err", "phi", "phi_err"), row)))
               for row in rows]
    return fringes, "[\n" + ",\n".join(records) + "\n]\n"


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


def displacement_from_angle(theta: float) -> float:
    """Relative displacement of the two spin lattices, in lambda/2 units, the
    inverse of model.angle_from_displacement.

    Dx(theta) = arctan((3/4) tan(theta)) / pi, monotone on [0, pi/2] with
    Dx(0) = 0 and Dx(pi/2) = 0.5.  Both circular standing-wave components
    contribute to each spin potential, which makes the dependence slightly
    nonlinear in theta.
    """
    if not 0.0 <= theta <= np.pi / 2.0 + 1e-15:
        raise ParameterError(f"polarization angle must lie in [0, pi/2], got {theta}")
    if theta >= np.pi / 2.0:
        return 0.5
    return float(np.arctan(0.75 * np.tan(theta)) / np.pi)


def trap_frequency_rad_s(lattice) -> float:
    """omega_HO of a LatticeModel in rad/s."""
    return lattice.homega * 2.0 * np.pi * recoil_hertz(lattice.params.wavelength)


def coherent_alpha(lattice, dx: float) -> float:
    """Coherent-state amplitude |alpha| = sqrt(m omega/(2 hbar)) * dx in the
    harmonic well of a LatticeModel.

    In lattice units the effective mass is pi^2/2, so
    |alpha| = pi * U0(theta)^(1/4) * dx / sqrt(2).
    """
    m_eff = np.pi**2 / 2.0
    return float(np.sqrt(m_eff * lattice.homega / 2.0) * dx)


@dataclass(frozen=True)
class Qubit:
    """Spin precessing at angle zeta about a fixed axis with frequency omega:
    the two-level populations and overlap that qsl.qubit_moments' E, dE and
    xi are checked against."""

    zeta: float
    omega: float

    @property
    def populations(self) -> tuple[float, float]:
        return (float(np.cos(self.zeta / 2.0) ** 2), float(np.sin(self.zeta / 2.0) ** 2))

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


def bernoulli_moments(qubit: Qubit):
    """(E, dE, xi) of the two levels 0 and omega from the oracle populations,
    xi from their Bernoulli kurtosis."""
    p0, p1 = qubit.populations
    mean = p1 * qubit.omega
    var = p0 * mean**2 + p1 * (qubit.omega - mean) ** 2
    mu4 = p0 * mean**4 + p1 * (qubit.omega - mean) ** 4
    return mean, np.sqrt(var), (mu4 / var**2 - 1.0) / 2.0
