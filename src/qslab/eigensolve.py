"""Bloch-block eigensolution of the periodic lattice and its band structure.

The S-site periodic Fourier-grid Hamiltonian commutes with a shift by one
site, so it splits into S P x P blocks, one per quasimomentum
q = 2 pi j / S (Bloch's theorem; Marston and Balint-Kurti, J. Chem. Phys.
91, 3571 (1989)).  The cos^2 well has three Fourier terms, so each block is
Mathieu's real symmetric matrix (DLMF 28.2; Slater, Phys. Rev. 87, 807
(1952)), built in closed form and solved in real arithmetic.  Time reversal
pairs q with -q, so only the (S + 1) / 2 blocks with q >= 0 are built,
diagonalised and kept.  The same block builder gives the band energies at
any q.  LAPACK's symmetric solver uses no randomized pivoting, so repeated
solves of the same input are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError
from .model import KAPPA, LatticeModel


def _bloch_blocks(depth: float, points: int, quasimomenta: np.ndarray):
    """Bloch blocks of the lattice -depth cos^2(pi u), one per quasimomentum.

    Block q acts on the P = `points` plane waves exp(i (q + 2 pi m) u) whose
    wavenumber lies in the grid's Nyquist window [-pi P, pi P): kappa
    (q + 2 pi m)^2 on the diagonal plus the discrete Fourier components of
    the potential on P points per site, which couple orders m and m' through
    (m - m') mod P.  cos^2 is band-limited, so those components are exactly
    V[0] = -U0/2 and V[1] = V[P - 1] = -U0/4 for any P >= 4, the wrap between
    the two ends of the window included.  At q = 2 pi j / S these blocks are
    exactly the S-site Fourier-grid operator.

    The plane waves are ordered by |q + 2 pi m|, so the kinetic diagonal
    grows down each block.  LAPACK's rounding in the deep bands is then
    smaller: at 270 E_R and P = 64 band 0 comes out 3.2e-12 E_R wide, as the
    tight-binding estimate 4J gives, against 5.4e-12 when ordered by m.

    Returns
    -------
    blocks : (Q, P, P) float, real symmetric
    orders : (Q, P) integer plane-wave order m of each row
    """
    q = np.asarray(quasimomenta, dtype=float)[:, None]
    window = np.ceil(-points / 2 - q / (2.0 * np.pi)).astype(int) + np.arange(points)
    orders = np.take_along_axis(
        window, np.argsort(np.abs(q + 2.0 * np.pi * window), axis=1, kind="stable"), axis=1)
    v_g = np.zeros(points)
    v_g[0], v_g[1], v_g[-1] = -depth / 2.0, -depth / 4.0, -depth / 4.0
    coupling = v_g[(orders[:, :, None] - orders[:, None, :]) % points]
    kinetic = KAPPA * (q + 2.0 * np.pi * orders) ** 2
    return coupling + kinetic[:, :, None] * np.eye(points), orders


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


def half_zone(depth: float, sites: int, points: int):
    """(blocks, orders, quasimomenta, weights) of the (S + 1)/2 Bloch blocks
    with q >= 0 of the S-site lattice of depth U0 (E_R) on P points per site;
    see _bloch_blocks and EigenDecomposition."""
    if sites % 2 == 0:
        raise ParameterError("the q <-> -q pairing of the blocks needs an odd site count")
    # the even potential makes block -q block q with plane-wave orders
    # m -> -m (odd S, so the Nyquist windows mirror)
    q = 2.0 * np.pi * np.arange(sites // 2 + 1) / sites
    blocks, orders = _bloch_blocks(depth, points, q)
    return blocks, orders, q, np.where(q > 0, 2.0, 1.0)


def decompose(depth: float, sites: int, points: int) -> EigenDecomposition:
    """All eigenmodes of H = T + diag(V) on the S-site periodic grid, by Bloch blocks.

    Takes the depth U0 (E_R), S and P, never the S P samples or the
    (S P) x (S P) matrix: one batched eigh solves the half-zone blocks of
    half_zone, and block -q is left implicit (EigenDecomposition.weights).
    """
    blocks, orders, q, weights = half_zone(depth, sites, points)
    try:
        energies, vectors = np.linalg.eigh(blocks)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"symmetric eigensolver did not converge: {exc}") from exc
    return EigenDecomposition(energies=energies, vectors=vectors, orders=orders, quasimomenta=q,
                              weights=weights, ground_offset=float(energies[0, 0]))


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
