"""Shared fixtures: cached lattice solutions and the default-grid sweep."""

import numpy as np
import pytest

from qslab import dynamics, scan
from qslab.model import LatticeParams, PhysicalConstants


class LatticeSolver:
    """Memoises scan.solve_displacement across tests."""

    def __init__(self, params: LatticeParams | None = None):
        self.params = params or LatticeParams()
        self._cache = {}

    def solve(self, dx: float):
        """(model, eig, (site energies, site states)) for one displacement."""
        key = round(dx, 12)
        if key not in self._cache:
            self._cache[key] = scan.solve_displacement(dx, self.params, PhysicalConstants())
        return self._cache[key]

    def spectral_point(self, n: int, dx: float):
        model, eig, (_, site_states) = self.solve(dx)
        state = dynamics.prepare_initial(n, dx, model, site_states)
        spectral = dynamics.to_spectral(state, eig)
        return model, eig, state, spectral, dynamics.moments(spectral)


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
