"""Theorems the paper states for every spectrum, checked on random ones.

Each example is a handful of levels with random populations on
non-negative energies (measured from the ground state), run through the
library's own moments and overlap routines.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qslab import dynamics as dyn
from qslab import qsl

PROFILE = settings(derandomize=True, database=None, max_examples=150, deadline=None)

levels = st.lists(
    st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 50.0)), min_size=2, max_size=8)


def spectrum(pairs):
    """Normalized populations over energies, as a SpectralState, and its moments."""
    weights, energies = (np.array(col) for col in zip(*pairs))
    pops = weights / weights.sum()
    spectral = dyn.SpectralState(coefficients=np.sqrt(pops).astype(complex),
                                 energies=energies, bands=np.zeros(energies.size, int))
    moms = dyn.moments(spectral)
    assume(not moms.stationary)
    return spectral, moms


@PROFILE
@given(levels)
def test_overlap_stays_above_unified_bound(pairs):
    spectral, moms = spectrum(pairs)
    times = np.linspace(0.0, max(moms.tau_mt, moms.tau_ml), 257)
    bound = qsl.unified_bound(moms.e, moms.de, times)
    visibility = dyn.evolve_overlap(spectral, times).visibility
    valid = ~np.isnan(bound)
    assert np.all(visibility[valid] >= bound[valid] - qsl.BOUND_MARGIN_TOL)


@PROFILE
@given(levels)
def test_xi_between_zero_and_bhatia_davis_cap(pairs):
    spectral, moms = spectrum(pairs)
    cap = qsl.bhatia_davis_cap(moms.e, moms.de, float(spectral.energies.max()))
    assert moms.xi >= -1e-12
    assert moms.xi <= cap * (1.0 + 1e-9) + 1e-12


@PROFILE
@given(levels)
def test_crossover_time_is_tau_mt_squared_over_tau_ml(pairs):
    _, moms = spectrum(pairs)
    tau_c = qsl.crossover_time(moms.e, moms.de)
    if moms.de > moms.e:
        assert tau_c == pytest.approx(moms.tau_mt**2 / moms.tau_ml, rel=1e-12)
    else:
        assert tau_c is None
