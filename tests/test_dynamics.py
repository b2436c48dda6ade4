"""State preparation, spectral evolution and moment cross-checks."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaln

from qslab import dynamics as dyn
from qslab.errors import ParameterError
from qslab.model import LatticeModel, LatticeParams

from conftest import LatticeSolver


def poisson_pmf(k, x):
    return np.exp(-x + k * np.log(x) - gammaln(k + 1))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_prepare_stationary_at_zero_displacement(solver, n):
    model, eig, (site_e, site_states) = solver.solve(0.0)
    state = dyn.prepare_initial(n, 0.0, model, site_states)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
    spectral = dyn.to_spectral(state, eig)
    # all population inside the quasi-degenerate band n
    bands = dyn.band_populations(spectral)
    assert bands[n] == pytest.approx(1.0, abs=1e-10)
    # and the state is stationary: overlap magnitude pinned to one
    moms = dyn.moments(spectral)
    times = np.linspace(0.0, 0.2, 16)
    trace = dyn.evolve_overlap(spectral, times)
    assert np.all(trace.visibility > 1.0 - 1e-9)
    assert moms.stationary
    assert moms.beta2 is None
    # mean energy pinned to the vibrational level above the ground state
    assert moms.e == pytest.approx(site_e[n] - site_e[0], abs=1e-2)


def test_prepare_input_validation(solver):
    model, _, (_, site_states) = solver.solve(0.0)
    with pytest.raises(ParameterError):
        dyn.prepare_initial(3, 0.1, model, site_states)
    with pytest.raises(ParameterError):
        dyn.prepare_initial(0, 0.7, model, site_states)


def test_shift_is_norm_preserving_and_silent(solver):
    import warnings

    model, _, (_, site_states) = solver.solve(0.13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = dyn.prepare_initial(0, 0.13, model, site_states)  # dx not a grid multiple
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_populations_poisson_at_small_displacement(solver):
    model, eig, state, spectral, moms = solver.spectral_point(0, 0.04)
    x = model.coherent_alpha(0.04) ** 2
    bands = dyn.band_populations(spectral)
    k = np.arange(bands.size)
    tv = 0.5 * np.abs(bands - poisson_pmf(k, x)).sum()
    assert tv <= 0.02
    # two dominant levels with ratio ~ |alpha|^2
    assert bands[1] / bands[0] == pytest.approx(x, rel=0.05)


def test_to_spectral_identity_and_parseval(solver):
    model, eig, *_ = solver.solve(0.0)
    # a pure eigenmode maps to a delta in coefficients
    delta = np.zeros(eig.size)
    delta[40] = 1.0
    state = dyn.QuantumState(amplitudes=eig.synthesize(delta), grid=model.grid)
    spectral = dyn.to_spectral(state, eig)
    pops = spectral.populations
    assert pops[40] == pytest.approx(1.0, abs=1e-12)
    for dx in (0.04, 0.16, 0.5):
        spectral = solver.spectral_point(0, dx)[3]
        assert spectral.populations.sum() == pytest.approx(1.0, abs=1e-10)


def test_moments_coherent_oracle(solver):
    # harmonic coherent model: E ~ homega x, dE ~ homega sqrt(x); the cos^2
    # well softens both by its anharmonicity (about 6 percent at 270 E_R)
    model, _, _, _, moms = solver.spectral_point(0, 0.04)
    x = model.coherent_alpha(0.04) ** 2
    assert moms.e == pytest.approx(model.homega * x, rel=0.08)
    assert moms.de == pytest.approx(model.homega * np.sqrt(x), rel=0.07)
    assert moms.e >= 0.0


def test_moments_two_mode_bernoulli():
    energies = np.array([0.0, 1.0])
    coeff = np.sqrt(np.array([0.5, 0.5])).astype(complex)
    spectral = dyn.SpectralState(coefficients=coeff, energies=energies,
                                 bands=np.arange(2))
    moms = dyn.moments(spectral)
    assert moms.beta2 == pytest.approx(1.0, abs=1e-12)
    assert moms.e == pytest.approx(0.5, abs=1e-15)
    assert moms.de == pytest.approx(0.5, abs=1e-15)


def test_evolve_overlap_two_mode_closed_form():
    zeta = 0.9
    omega = 2.7
    pops = np.array([np.cos(zeta / 2) ** 2, np.sin(zeta / 2) ** 2])
    spectral = dyn.SpectralState(coefficients=np.sqrt(pops).astype(complex),
                                 energies=np.array([0.0, omega]),
                                 bands=np.arange(2))
    times = np.linspace(0.0, 5.0, 200)
    trace = dyn.evolve_overlap(spectral, times)
    expected = np.sqrt(1.0 - np.sin(zeta) ** 2 * np.sin(omega * times / 2.0) ** 2)
    assert np.abs(trace.visibility - expected).max() < 1e-12
    assert trace.overlaps[0] == pytest.approx(1.0 + 0.0j, abs=1e-14)
    assert trace.fs_distance[0] == pytest.approx(0.0, abs=1e-7)


def test_evolve_overlap_validation(solver):
    spectral = solver.spectral_point(0, 0.04)[3]
    with pytest.raises(ParameterError):
        dyn.evolve_overlap(spectral, np.array([0.1, 0.2]))
    with pytest.raises(ParameterError):
        dyn.evolve_overlap(spectral, np.array([0.0, 0.3, 0.2]))


def test_unitarity_and_time_reversal(solver):
    spectral = solver.spectral_point(0, 0.16)[3]
    times = np.linspace(0.0, 0.3, 64)
    trace = dyn.evolve_overlap(spectral, times)
    assert np.all(trace.visibility <= 1.0 + 1e-10)
    # |A(-t)| = |A(t)| for real populations
    pops = spectral.populations
    back = np.abs(np.exp(1j * np.outer(times, spectral.energies)) @ pops)
    assert np.abs(back - trace.visibility).max() < 1e-12


def test_spectral_sum_matches_grid_reconstruction(solver):
    # two independent routes to A(t): the population sum and the explicit
    # wave function on the grid
    model, eig, state, spectral, moms = solver.spectral_point(0, 0.08)
    times = dyn.default_times(moms, 9)
    trace = dyn.evolve_overlap(spectral, times)
    for t, a_spec in zip(times, trace.overlaps):
        psi_t = dyn.reconstruct(spectral, eig, t)
        a_grid = np.vdot(state.amplitudes, psi_t)
        assert abs(a_grid - a_spec) < 1e-9


def test_min_overlap_near_forty_degrees(solver):
    # small excitation behaves as a spin precessing at ~40 degrees
    _, _, _, spectral, moms = solver.spectral_point(0, 0.04)
    times = np.linspace(0.0, 6.0 * moms.tau_mt, 1024)
    trace = dyn.evolve_overlap(spectral, times)
    assert trace.visibility.min() == pytest.approx(np.cos(np.deg2rad(40.0)), abs=0.05)


def test_direct_moments_cross_check(solver):
    model, eig, (_, site_states) = solver.solve(0.08)
    down = model.potential("down")
    for n in (0, 1, 2):
        state = dyn.prepare_initial(n, 0.08, model, site_states)
        spectral = dyn.to_spectral(state, eig)
        spec_moms = dyn.moments(spectral)
        direct = dyn.direct_moments(state, down, eig.ground_offset)
        assert abs(direct.e / spec_moms.e - 1.0) <= 1e-8
        assert abs(direct.de / spec_moms.de - 1.0) <= 1e-8
        assert abs(direct.beta2 / spec_moms.beta2 - 1.0) <= 1e-6


def test_direct_moments_stationary_and_plane_wave(solver):
    model, eig, *_ = solver.solve(0.0)
    ground_mode = np.zeros(eig.size)
    ground_mode[0] = 1.0
    ground = dyn.QuantumState(amplitudes=eig.synthesize(ground_mode), grid=model.grid)
    moms = dyn.direct_moments(ground, model.potential("down"), eig.ground_offset)
    assert moms.e == pytest.approx(0.0, abs=1e-9)
    assert moms.stationary
    # plane wave on a flat potential is an exact eigenstate of the kinetic term
    from qslab.model import KAPPA, Grid, Potential

    params = LatticeParams(sites=5, points_per_site=32)
    grid = Grid.for_params(params)
    flat = Potential(spin="down", values=np.zeros(grid.size), displacement=0.0,
                     depth=1.0)
    k1 = 2.0 * np.pi / grid.length
    psi = np.exp(1j * k1 * grid.positions) / np.sqrt(grid.size)
    state = dyn.QuantumState(amplitudes=psi, grid=grid)
    moms0 = dyn.direct_moments(state, flat)
    assert moms0.e == pytest.approx(KAPPA * k1**2, rel=1e-12)
    assert moms0.de == pytest.approx(0.0, abs=1e-9)


def test_displacement_gauge_equivalence():
    # shifting the packet over integer-centered wells is the same physics as
    # keeping the packet at the origin inside the displaced spin-up lattice;
    # populations (hence every downstream quantity) must agree
    from qslab import eigensolve
    from qslab.model import LatticeModel, LatticeParams

    dx = 0.11
    params = LatticeParams(sites=9, points_per_site=32)
    model = LatticeModel.from_displacement(dx, params)
    eig_down = eigensolve.decompose(model.potential("down"), model.grid)
    eig_up = eigensolve.decompose(model.potential("up"), model.grid)
    site_states = eigensolve.single_site_eigenstates(model.potential("down"), model.grid, 3)[1]
    packet = np.zeros(model.grid.size)
    p = params.points_per_site
    start = model.grid.size // 2 - p // 2
    for n in (0, 1, 2):
        packet[:] = 0.0
        packet[start:start + p] = site_states[:, n]
        packet /= np.linalg.norm(packet)
        centered = dyn.QuantumState(amplitudes=packet.copy(), grid=model.grid)
        shifted = dyn.prepare_initial(n, dx, model, site_states)
        spec_a = dyn.to_spectral(shifted, eig_down)
        spec_b = dyn.to_spectral(centered, eig_up)
        # mode-by-mode weights are basis-dependent inside quasi-degenerate
        # bands; band totals and moments are the physical content
        bands_a = dyn.band_populations(spec_a)
        bands_b = dyn.band_populations(spec_b)
        size = min(bands_a.size, bands_b.size)
        assert np.abs(bands_a[:size] - bands_b[:size]).max() < 1e-9
        m_a = dyn.moments(spec_a)
        m_b = dyn.moments(spec_b)
        assert m_a.e == pytest.approx(m_b.e, rel=1e-9)
        assert m_a.de == pytest.approx(m_b.de, rel=1e-9)


@pytest.mark.parametrize("dx", [0.04, 0.5])
def test_default_box_converged_against_33_sites(solver, dx):
    # A(t) is a trapezoid rule over the S lattice quasimomenta of a smooth
    # periodic function, so the default box already gives the 33-site result
    wide = LatticeSolver(replace(solver.params, sites=33))
    for n in (0, 1, 2):
        *_, spectral, moms = solver.spectral_point(n, dx)
        *_, spectral_33, moms_33 = wide.spectral_point(n, dx)
        assert moms.e == pytest.approx(moms_33.e, rel=1e-11)
        assert moms.de == pytest.approx(moms_33.de, rel=1e-11)
        assert moms.xi == pytest.approx(moms_33.xi, rel=1e-7)
        times = dyn.default_times(moms_33, 64)
        delta = (dyn.evolve_overlap(spectral, times).overlaps
                 - dyn.evolve_overlap(spectral_33, times).overlaps)
        assert np.abs(delta).max() <= 1e-12


def test_leakage_monitor_edges_quiet(solver):
    # worst case: largest displacement, longest trace
    model, eig, state, spectral, moms = solver.spectral_point(0, 0.5)
    times = dyn.default_times(moms, 8)
    worst = 0.0
    for t in times:
        psi_t = dyn.reconstruct(spectral, eig, t)
        worst = max(worst, dyn.edge_probability(psi_t, model.grid))
    assert worst < 1e-6


def test_default_times_cover_tau_mt(solver):
    moms = solver.spectral_point(0, 0.08)[4]
    times = dyn.default_times(moms, 64)
    assert times.size == 64
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(moms.tau_mt, rel=1e-12)
