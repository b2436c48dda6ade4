"""Theorems the paper states for every spectrum, checked on random ones.

Each spectrum example is a handful of levels with random populations on
non-negative energies (measured from the ground state), run through the
library's own moments and overlap routines; the qubit and fringe-fit
examples draw their angles, frequencies and visibilities at random.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qslab import dynamics as dyn
from qslab import interferometer, qsl

PROFILE = settings(derandomize=True, database=None, max_examples=150, deadline=None)

levels = st.lists(
    st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 50.0)), min_size=2, max_size=8)


def spectrum(pairs):
    """Normalized populations over energies, as a SpectralState, and its moments."""
    weights, energies = (np.array(col) for col in zip(*pairs))
    pops = weights / weights.sum()
    spectral = dyn.SpectralState(populations=pops, energies=energies)
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
    xi = qsl.deviation_from_kurtosis(moms.beta2)   # a NumericError below beta2 = 1 - 1e-12
    assert xi <= cap * (1.0 + 1e-9) + 1e-12


@PROFILE
@given(levels)
def test_crossover_time_is_tau_mt_squared_over_tau_ml(pairs):
    _, moms = spectrum(pairs)
    tau_c = qsl.crossover_time(moms.e, moms.de)
    if moms.de > moms.e:
        assert tau_c == pytest.approx(moms.tau_mt**2 / moms.tau_ml, rel=1e-12)
    else:
        assert tau_c is None


@PROFILE
@given(st.floats(0.01, 1.0), st.floats(-np.pi, np.pi), st.floats(0.0, 0.5))
def test_fit_fringe_recovers_noiseless_fringe(visibility, phase, loss):
    config = interferometer.RamseyConfig(loss_fraction=loss, noiseless=True)
    counts = interferometer.sample_fringe(visibility, phase, config, 0)
    fit = interferometer.fit_fringes(config.phase_grid, [counts], config.detections_per_point,
                                     loss)
    assert fit.v[0] == pytest.approx(visibility, abs=1e-12)
    assert abs(np.angle(np.exp(1j * (fit.phi[0] - phase)))) <= 1e-10


@PROFILE
@given(st.floats(0.01, np.pi - 0.01), st.floats(0.1, 100.0))
def test_qubit_obeys_mt_bound_and_saturates_it_when_balanced(zeta, omega):
    qubit = qsl.qubit_model(zeta, omega)
    times = np.linspace(0.0, np.pi / (2.0 * qubit.de), 257)
    assert np.all(qubit.overlap(times) >= qsl.mt_bound(qubit.de, times) - 1e-12)
    balanced = qsl.qubit_model(np.pi / 2.0, omega)
    times = np.linspace(0.0, np.pi / (2.0 * balanced.de), 257)
    assert np.abs(balanced.overlap(times) - qsl.mt_bound(balanced.de, times)).max() <= 1e-12


@PROFILE
@given(st.floats(np.pi / 2.0 + 0.01, np.pi - 0.01), st.floats(0.1, 100.0))
def test_inverted_qubit_obeys_energy_from_above_bound(zeta, omega):
    # the bound's domain ends where its argument reaches pi/2, at
    # t = pi / (2 E_top) with E_top = omega cos^2(zeta/2) measured from the top level
    qubit = qsl.qubit_model(zeta, omega)
    times = np.linspace(0.0, np.pi / (2.0 * omega * np.cos(zeta / 2.0) ** 2), 257)
    assert np.all(qubit.overlap(times) >= qubit.inverted_population_bound(times) - 1e-12)


@PROFILE
@given(st.floats(0.5, 30.0), st.floats(0.2, 2.5), st.floats(-0.5, 0.5),
       st.floats(-200.0, 200.0))
def test_light_shift_slope_injected_then_subtracted(energy, window_phase, curvature, slope):
    # a noiseless phase series, the mean energy's linear term plus a cubic one,
    # with a light-shift slope added and the same slope passed to the
    # estimator, gives the slope-free estimate; tau_MT is set so that the
    # phase reaches window_phase (< pi, no wrap) at the end of the fit window
    hertz = 2.0e3
    rate = 2.0 * np.pi * hertz * 1e-6 * energy          # rad/us
    tau_mt_us = window_phase / (0.35 * rate)
    times_us = np.linspace(0.0, tau_mt_us, 64)
    phase = rate * times_us * (1.0 + curvature * (times_us / tau_mt_us) ** 2)
    clean, _ = interferometer.extract_mean_energy(times_us, phase, 0.0, 0.0, hertz, tau_mt_us)
    shifted, _ = interferometer.extract_mean_energy(times_us, phase + slope * times_us, 0.0,
                                                    slope, hertz, tau_mt_us)
    assert clean == pytest.approx(energy, rel=1e-6)
    assert shifted == pytest.approx(clean, rel=1e-9)
