"""Bloch-block eigensolution of the periodic lattice and its band structure.

The S-site periodic Fourier-grid Hamiltonian commutes with a shift by one
site, so it splits into S P x P blocks, one per quasimomentum
q = 2 pi j / S (Bloch's theorem; Marston and Balint-Kurti, J. Chem. Phys.
91, 3571 (1989)).  The cos^2 well has three Fourier terms, so each block is
Mathieu's real symmetric matrix (DLMF 28.2; Slater, Phys. Rev. 87, 807
(1952)), written in closed form from each plane wave's kinetic energy and
its two neighbour rows and solved in real arithmetic.  Time reversal pairs
q with -q, so only the (S + 1) / 2 blocks with q >= 0 are built,
diagonalised and kept.  The even well also maps m -> -m within block q = 0,
which is solved as an even and an odd tridiagonal half.  The same block
builder gives the band energies at any q.  LAPACK's symmetric solver uses no
randomized pivoting, so repeated solves of the same input are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError
from .model import KAPPA, LatticeModel


def plane_waves(points: int, quasimomenta):
    """(orders, kinetic, up, down), each (Q, P): block q acts on the P plane
    waves exp(i (q + 2 pi m) u) whose wavenumber lies in the grid's Nyquist
    window [-pi P, pi P).  Row j holds order m = orders[q, j], its kinetic
    energy kappa (q + 2 pi m)^2, and up and down are the rows of orders m + 1
    and m - 1 mod P, the wrap between the window's two ends included.

    The plane waves are ordered by |q + 2 pi m|, so the kinetic diagonal
    grows down each block.  LAPACK's rounding in the deep bands is then
    smaller: at 270 E_R and P = 64 band 0 comes out 3.2e-12 E_R wide, as the
    tight-binding estimate 4J gives, against 5.4e-12 when ordered by m.
    """
    q = np.asarray(quasimomenta, dtype=float)[:, None]
    window = np.ceil(-points / 2 - q / (2.0 * np.pi)).astype(int) + np.arange(points)
    orders = np.take_along_axis(
        window, np.argsort(np.abs(q + 2.0 * np.pi * window), axis=1, kind="stable"), axis=1)
    # the row of each order mod P; numpy's default integer sort, used nowhere
    # else, added 0.3 MB of code to the default scan's peak RSS
    rows = np.argsort(orders % points, axis=1, kind="stable")
    up, down = (np.take_along_axis(rows, (orders + s) % points, axis=1) for s in (1, -1))
    return orders, KAPPA * (q + 2.0 * np.pi * orders) ** 2, up, down


def _bloch_blocks(depth: float, points: int, quasimomenta):
    """(blocks, orders): the (Q, P, P) real symmetric Bloch blocks of the
    lattice -depth cos^2(pi u) on the rows of plane_waves.  cos^2 is
    band-limited, so its discrete Fourier components on P >= 4 points per
    site are exactly V[0] = -U0/2 and V[1] = V[P - 1] = -U0/4: each row holds
    kappa k^2 - U0/2 on the diagonal and -U0/4 at its rows up and down.  At
    q = 2 pi j / S these blocks are exactly the S-site Fourier-grid operator."""
    orders, kinetic, up, down = plane_waves(points, quasimomenta)
    blocks = np.zeros(orders.shape + (points,))
    block, row = np.indices(orders.shape, sparse=True)
    blocks[block, row, row] = kinetic - depth / 2.0
    blocks[block, row, up] = blocks[block, row, down] = -depth / 4.0
    return blocks, orders


def q0_modes(depths, points: int, count: int):
    """(energies, modes) of the `count` lowest modes of block q = 0 at each
    depth, (D, count) ascending and (D, P, count) on its rows, by parity.
    The rows hold orders 0, -1, 1, ..., 1 - P/2, P/2 - 1, -P/2, which
    m -> -m mod P maps onto themselves for even P.  So the block splits
    exactly into an even half on |0>, (|k> + |-k>)/sqrt 2 for 0 < k < P/2 and
    |-P/2>, and an odd half on (|k> - |-k>)/sqrt 2, both tridiagonal; the
    even half's two end couplings are sqrt 2 (-U0/4).  One eigh per half
    solves every depth, and each mode is exactly even or odd on (m, -m)."""
    depths, half = np.asarray(depths, dtype=float)[:, None], points // 2
    diagonal = KAPPA * (2.0 * np.pi * np.arange(half + 1)) ** 2 - depths / 2.0
    off = np.repeat(-depths / 4.0, half, axis=1)
    k = np.arange(1, half)
    basis = np.zeros((points, points))      # the even parity states, then the odd, on the rows
    basis[[0, -1], [0, half]] = 1.0
    basis[2 * k - 1, k] = basis[2 * k, k] = basis[2 * k, half + k] = np.sqrt(0.5)
    basis[2 * k - 1, half + k] = -np.sqrt(0.5)
    energies, modes = [], []
    for diag, off_diag, states in (
            (diagonal, off * np.sqrt(np.r_[2.0, np.ones(half - 2), 2.0]), basis[:, :half + 1]),
            (diagonal[:, 1:-1], off[:, 2:], basis[:, half + 1:])):
        size = diag.shape[1]
        flat = np.zeros((len(diag), size * size))     # tridiagonal, by its strides
        flat[:, ::size + 1] = diag
        flat[:, 1::size + 1] = flat[:, size::size + 1] = off_diag
        values, vectors = np.linalg.eigh(flat.reshape(-1, size, size))
        energies.append(values[:, :count])
        modes.append(states @ vectors[:, :, :count])
    energies, modes = np.concatenate(energies, axis=1), np.concatenate(modes, axis=2)
    pick = np.argsort(energies, axis=1, kind="stable")[:, :count]
    return (np.take_along_axis(energies, pick, axis=1),
            np.take_along_axis(modes, pick[:, None], axis=2))


@dataclass(frozen=True)
class EigenDecomposition:
    """The lattice's eigenmodes on the (S + 1)/2 Bloch blocks with q >= 0.

    Row j holds block q = quasimomenta[j]: its raw energies (E_R, ascending)
    and, as the columns of vectors[j], its modes' coefficients on the plane
    waves exp(i (q + 2 pi m) u) with m = orders[j].  Time reversal gives
    block -q the same energies, so weights[j], 1 at q = 0 and 2 otherwise,
    counts each block for its pair.  ground_offset is energies[0, 0]: the
    lattice's nodeless ground state has q = 0.  Consumers subtract it so the
    trap ground state sits at zero.
    """

    energies: np.ndarray       # (Q, P)
    vectors: np.ndarray        # (Q, P, P)
    orders: np.ndarray         # (Q, P)
    quasimomenta: np.ndarray   # (Q,)
    weights: np.ndarray        # (Q,)
    ground_offset: float

    def __post_init__(self):
        for name in ("energies", "vectors", "orders", "quasimomenta", "weights"):
            getattr(self, name).flags.writeable = False

    @property
    def spectrum(self) -> np.ndarray:
        """All S P raw energies, ascending, each q > 0 block counted twice."""
        return np.sort(np.repeat(self.energies, self.weights.astype(int), axis=0), axis=None)


def half_zone(sites: int):
    """(quasimomenta, weights) of the (S + 1)/2 Bloch blocks with q >= 0 of
    the S-site lattice; see EigenDecomposition."""
    if sites % 2 == 0:
        raise ParameterError("the q <-> -q pairing of the blocks needs an odd site count")
    # the even potential makes block -q block q with plane-wave orders
    # m -> -m (odd S, so the Nyquist windows mirror)
    q = 2.0 * np.pi * np.arange(sites // 2 + 1) / sites
    return q, np.where(q > 0, 2.0, 1.0)


def decompose(depth: float, sites: int, points: int) -> EigenDecomposition:
    """All eigenmodes of H = T + diag(V) on the S-site periodic grid, by Bloch blocks.

    Takes the depth U0 (E_R), S and P, never the S P samples or the
    (S P) x (S P) matrix: one batched eigh solves the half-zone blocks with
    q > 0, q0_modes block q = 0, and block -q is left implicit
    (EigenDecomposition.weights).
    """
    q, weights = half_zone(sites)
    blocks, orders = _bloch_blocks(depth, points, q)
    try:
        site_e, site_modes = q0_modes([depth], points, points)
        energies, vectors = np.linalg.eigh(blocks[1:])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"symmetric eigensolver did not converge: {exc}") from exc
    return EigenDecomposition(energies=np.concatenate([site_e, energies]),
                              vectors=np.concatenate([site_modes, vectors]), orders=orders,
                              quasimomenta=q, weights=weights, ground_offset=float(site_e[0, 0]))


def bound_level_count(model: LatticeModel) -> int:
    """Approximate number of bound levels, U0/(hbar omega_HO)."""
    return int(model.depth / model.homega)


def band_structure(model: LatticeModel, n_bands: int,
                   q_points: int) -> tuple[np.ndarray, np.ndarray]:
    """(quasimomenta, energies) of the lowest n_bands Bloch bands of one site:
    q_points quasimomenta in (-pi, pi] per lattice constant and the (q_points,
    n_bands) band energies in E_R, ascending along each row."""
    p = model.params.points_per_site
    if not 1 <= n_bands <= p:
        raise ParameterError(f"n_bands must lie in [1, {p}] (points per site)")
    if q_points < 2:
        raise ParameterError("q_points must be at least 2")
    # include q = 0 and the zone edge q = pi exactly so cosine-like bands
    # report their full width
    q_grid = np.linspace(-np.pi, np.pi, q_points + 1)[1:]
    blocks, _ = _bloch_blocks(model.depth, p, q_grid)
    return q_grid, np.linalg.eigvalsh(blocks)[:, :n_bands]
