"""State preparation, spectral evolution and moment cross-checks."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaln

from qslab import dynamics as dyn
from qslab import eigensolve, qsl
from qslab.errors import NumericError, ParameterError
from qslab.model import LatticeModel, LatticeParams

from conftest import (FullZone, LatticeSolver, block_packet, cell_decompose, central_cell,
                      grid_packet, q0_sites)


def poisson_pmf(k, x):
    return np.exp(-x + k * np.log(x) - gammaln(k + 1))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_prepare_stationary_at_zero_displacement(solver, n):
    model, eig, (site_e, site_states) = solver.solve(0.0)
    packet = block_packet(n, 0.0, eig, site_states)
    assert eig.weights @ (np.abs(packet) ** 2).sum(axis=1) == pytest.approx(1.0, abs=1e-12)
    spectral = dyn.to_spectral(packet, eig)
    # all population inside the quasi-degenerate band n
    bands = spectral.populations.sum(axis=0)
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
    _, eig, (_, site_states) = solver.solve(0.0)
    with pytest.raises(ParameterError):
        block_packet(3, 0.1, eig, site_states)
    with pytest.raises(ParameterError):
        block_packet(0, 0.7, eig, site_states)


def test_shift_is_norm_preserving_and_silent(solver):
    import warnings

    _, eig, (_, site_states) = solver.solve(0.13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        packet = block_packet(0, 0.13, eig, site_states)  # dx not a grid multiple
    # the shift is a phase per plane wave; the weights count each q > 0 block twice
    assert eig.weights @ (np.abs(packet) ** 2).sum(axis=1) == pytest.approx(1.0, abs=1e-12)


def test_populations_poisson_at_small_displacement(solver):
    model, eig, state, spectral, moms = solver.spectral_point(0, 0.04)
    x = model.coherent_alpha(0.04) ** 2
    bands = spectral.populations.sum(axis=0)
    k = np.arange(bands.size)
    tv = 0.5 * np.abs(bands - poisson_pmf(k, x)).sum()
    assert tv <= 0.02
    # two dominant levels with ratio ~ |alpha|^2
    assert bands[1] / bands[0] == pytest.approx(x, rel=0.05)


def test_to_spectral_identity_and_parseval(solver):
    _, eig, *_ = solver.solve(0.0)
    # a pure eigenmode (band 40 of block 1, with its -q partner) maps to a
    # delta in populations
    packet = np.zeros(eig.orders.shape, dtype=complex)
    packet[1] = eig.vectors[1][:, 40] / np.sqrt(eig.weights[1])
    pops = dyn.to_spectral(packet, eig).populations
    assert pops.shape == eig.energies.shape
    assert pops[1, 40] == pytest.approx(1.0, abs=1e-12)
    assert np.delete(pops.ravel(), pops.shape[1] + 40).max() <= 1e-12
    for dx in (0.04, 0.16, 0.5):
        spectral = solver.spectral_point(0, dx)[3]
        assert spectral.populations.sum() == pytest.approx(1.0, abs=1e-10)
    # a packet that is not normalised breaks Parseval's sum
    with pytest.raises(NumericError, match="Parseval"):
        dyn.to_spectral(packet * (1.0 + 1e-9), eig)


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
    spectral = dyn.SpectralState(populations=np.array([0.5, 0.5]), energies=energies)
    moms = dyn.moments(spectral)
    assert moms.beta2 == pytest.approx(1.0, abs=1e-12)
    assert moms.e == pytest.approx(0.5, abs=1e-15)
    assert moms.de == pytest.approx(0.5, abs=1e-15)


def test_evolve_overlap_two_mode_closed_form():
    zeta = 0.9
    omega = 2.7
    pops = np.array([np.cos(zeta / 2) ** 2, np.sin(zeta / 2) ** 2])
    spectral = dyn.SpectralState(populations=pops, energies=np.array([0.0, omega]))
    times = np.linspace(0.0, 5.0, 200)
    trace = dyn.evolve_overlap(spectral, times)
    expected = np.sqrt(1.0 - np.sin(zeta) ** 2 * np.sin(omega * times / 2.0) ** 2)
    assert np.abs(trace.visibility - expected).max() < 1e-12
    assert trace.overlaps[0] == pytest.approx(1.0 + 0.0j, abs=1e-14)
    assert trace.fs_distance[0] == pytest.approx(0.0, abs=1e-7)


@pytest.mark.parametrize("dx", [0.04, 0.08, 0.16, 0.5])
def test_overlap_starts_at_exactly_one(solver, dx):
    # sum p rounds either side of 1, and arccos turns 1 - 1e-16 into 1.5e-8
    for n in (0, 1, 2):
        spectral, moms = solver.spectral_point(n, dx)[3:]
        trace = dyn.evolve_overlap(spectral, dyn.default_times(moms, 8))
        assert trace.overlaps[0] == 1.0
        assert trace.fs_distance[0] == 0.0


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
    pops = spectral.populations.ravel()
    back = np.abs(np.exp(1j * np.outer(times, spectral.energies)) @ pops)
    assert np.abs(back - trace.visibility).max() < 1e-12


def test_spectral_sum_matches_grid_reconstruction(solver):
    # two independent routes to A(t): the half-zone population sum and the
    # explicit wave function on the grid, evolved over all S blocks
    model, eig, (_, site_states) = solver.solve(0.08)
    spectral, moms = solver.spectral_point(0, 0.08)[3:]
    full = FullZone(eig)
    psi = grid_packet(0, 0.08, model.params, site_states)
    coeff = full.project(psi)
    times = dyn.default_times(moms, 9)
    trace = dyn.evolve_overlap(spectral, times)
    for t, a_spec in zip(times, trace.overlaps):
        psi_t = full.synthesize(coeff * np.exp(-1j * (full.energies - full.ground_offset) * t))
        a_grid = np.vdot(psi, psi_t)
        assert abs(a_grid - a_spec) < 1e-9


def test_min_overlap_near_forty_degrees(solver):
    # small excitation behaves as a spin precessing at ~40 degrees
    _, _, _, spectral, moms = solver.spectral_point(0, 0.04)
    times = np.linspace(0.0, 6.0 * moms.tau_mt, 1024)
    trace = dyn.evolve_overlap(spectral, times)
    assert trace.visibility.min() == pytest.approx(np.cos(np.deg2rad(40.0)), abs=0.05)


def test_direct_moments_cross_check(solver):
    # the curves' first, the points' reference and the last displacement;
    # the two routes agree to about 1e-13 relative
    for dx in (0.025, 0.08, 0.5):
        model, eig, (_, site_states) = solver.solve(dx)
        blocks, *_ = eigensolve.half_zone(model.depth, model.params.sites,
                                          model.params.points_per_site)
        for n in (0, 1, 2):
            packet = block_packet(n, dx, eig, site_states)
            spec_moms = dyn.moments(dyn.to_spectral(packet, eig))
            direct = dyn.direct_moments(blocks, packet, eig.weights, eig.ground_offset)
            assert abs(direct.e / spec_moms.e - 1.0) <= 1e-11
            assert abs(direct.de / spec_moms.de - 1.0) <= 1e-11
            assert abs(direct.beta2 / spec_moms.beta2 - 1.0) <= 1e-11


def test_direct_moments_stationary_and_plane_wave(solver):
    model, eig, *_ = solver.solve(0.0)
    blocks, *_ = eigensolve.half_zone(model.depth, model.params.sites,
                                      model.params.points_per_site)
    ground = np.zeros(eig.orders.shape)
    ground[0] = eig.vectors[0][:, 0]
    moms = dyn.direct_moments(blocks, ground, eig.weights, eig.ground_offset)
    assert moms.e == pytest.approx(0.0, abs=1e-9)
    assert moms.stationary
    # a standing wave on a flat potential is an exact eigenstate of the
    # kinetic term: cos(k1 u) is the plane wave k1 and its -q partner
    from qslab.model import KAPPA

    blocks, orders, q, weights = eigensolve.half_zone(0.0, 5, 32)
    k1 = 2.0 * np.pi / 5
    assert q[1] == pytest.approx(k1, rel=1e-15)
    wave = np.zeros(orders.shape, dtype=complex)
    wave[1, orders[1] == 0] = np.sqrt(0.5)
    moms0 = dyn.direct_moments(blocks, wave, weights)
    assert moms0.e == pytest.approx(KAPPA * k1**2, rel=1e-12)
    assert moms0.de == pytest.approx(0.0, abs=1e-9)


def test_displacement_gauge_equivalence():
    # shifting the packet over integer-centered wells is the same physics as
    # keeping the packet at the origin inside the displaced spin-up lattice;
    # populations (hence every downstream quantity) must agree.  The spin-up
    # cell is not its own mirror image, so its blocks come from the sampled
    # cell's oracle (conftest.cell_blocks)
    from qslab import eigensolve
    from qslab.model import LatticeModel, LatticeParams

    dx = 0.11
    params = LatticeParams(sites=9, points_per_site=32)
    model = LatticeModel(params, dx)
    eig_down = eigensolve.decompose(model.depth, params.sites, params.points_per_site)
    eig_up = cell_decompose(central_cell(model, "up"), params.sites)
    site_states = q0_sites(eig_down)[1]
    for n in (0, 1, 2):
        spec_a = dyn.to_spectral(block_packet(n, dx, eig_down, site_states), eig_down)
        spec_b = dyn.to_spectral(block_packet(n, 0.0, eig_up, site_states), eig_up)
        # mode-by-mode weights are basis-dependent inside quasi-degenerate
        # bands; band totals and moments are the physical content
        bands_a = spec_a.populations.sum(axis=0)
        bands_b = spec_b.populations.sum(axis=0)
        assert np.abs(bands_a - bands_b).max() < 1e-9
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
        assert qsl.deviation_from_kurtosis(moms.beta2) == pytest.approx(
            qsl.deviation_from_kurtosis(moms_33.beta2), rel=1e-7)
        times = dyn.default_times(moms_33, 64)
        delta = (dyn.evolve_overlap(spectral, times).overlaps
                 - dyn.evolve_overlap(spectral_33, times).overlaps)
        assert np.abs(delta).max() <= 1e-12


def test_leakage_monitor_edges_quiet(solver):
    # worst case: largest displacement, longest trace; the packet, evolved on
    # the grid over all S blocks, never reaches the two outermost sites
    model, eig, (_, site_states) = solver.solve(0.5)
    moms = solver.spectral_point(0, 0.5)[4]
    full = FullZone(eig)
    coeff = full.project(grid_packet(0, 0.5, model.params, site_states))
    s, p = model.params.sites, model.params.points_per_site
    edges = np.abs(np.arange(s * p) - s * p // 2) > (s / 2.0 - 2) * p
    worst = 0.0
    for t in dyn.default_times(moms, 8):
        psi_t = full.synthesize(coeff * np.exp(-1j * full.energies * t))
        worst = max(worst, float((np.abs(psi_t[edges]) ** 2).sum()))
    assert worst < 1e-6


def test_default_times_cover_tau_mt(solver):
    moms = solver.spectral_point(0, 0.08)[4]
    times = dyn.default_times(moms, 64)
    assert times.size == 64
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(moms.tau_mt, rel=1e-12)


def _folded_oracle_populations(model, eig, n, dx, site_states):
    """Grid-route populations of the packet over all S blocks, with block -q
    added onto block q: (Q, P), the layout of to_spectral."""
    full = FullZone(eig)
    pops = np.zeros(full.size)
    pops[full.order] = np.abs(full.project(grid_packet(n, dx, model.params, site_states))) ** 2
    s = model.params.sites
    pops = pops.reshape(s, -1)
    folded = pops[s // 2:].copy()
    folded[1:] += pops[s // 2 - 1::-1]
    return folded


def test_block_populations_match_grid_oracle():
    # the closed-form packet against zero padding, band-limited shift and
    # projection over all S blocks, mode by mode
    rng = np.random.default_rng(2026)
    for sites in (1, 3, 5):
        params = LatticeParams(sites=sites, points_per_site=32)
        for dx in 0.5 - rng.uniform(0.0, 0.5, 4):     # in (0, 0.5]
            model, eig, (_, site_states) = LatticeSolver(params).solve(float(dx))
            for n in (0, 1, 2):
                packet = block_packet(n, float(dx), eig, site_states)
                pops = dyn.to_spectral(packet, eig).populations
                oracle = _folded_oracle_populations(model, eig, n, float(dx), site_states)
                assert np.abs(pops - oracle).max() <= 1e-12


@pytest.mark.parametrize("spin, dx", [("down", 0.11), ("up", 0.0)])
def test_half_zone_weights_reproduce_full_zone(spin, dx):
    # time reversal pairs q with -q, so the half zone weighted (1, 2, ..., 2)
    # gives the full zone's moments and overlap, for the real spin-down blocks
    # of decompose and the complex spin-up blocks of the sampled cell's oracle
    # alike (wells displaced by 0.11 from the packet)
    params = LatticeParams(sites=9, points_per_site=32)
    model = LatticeModel(params, 0.11)
    down = eigensolve.decompose(model.depth, params.sites, params.points_per_site)
    if spin == "down":
        eig = down
    else:
        eig = cell_decompose(central_cell(model, "up"), params.sites)
    assert eig.energies.shape == (5, 32)
    assert np.array_equal(eig.weights, [1.0, 2.0, 2.0, 2.0, 2.0])
    site_states = q0_sites(down)[1]
    full = FullZone(eig)
    for n in (0, 1, 2):
        half = dyn.to_spectral(block_packet(n, dx, eig, site_states), eig)
        whole = full.spectral(grid_packet(n, dx, model.params, site_states))
        m_half, m_whole = dyn.moments(half), dyn.moments(whole)
        assert m_half.e == pytest.approx(m_whole.e, rel=1e-12)
        assert m_half.de == pytest.approx(m_whole.de, rel=1e-12)
        assert m_half.beta2 == pytest.approx(m_whole.beta2, rel=1e-10)
        times = dyn.default_times(m_whole, 32)
        delta = (dyn.evolve_overlap(half, times).overlaps
                 - dyn.evolve_overlap(whole, times).overlaps)
        assert np.abs(delta).max() <= 1e-12


def test_quadrature_defect_bounds_the_box_error(solver):
    # at S = 9 the coarser rule is S' = 3; its difference from the S-point
    # rule overstates the true error, against 33 sites, without reaching 1e-10
    wide = LatticeSolver(replace(solver.params, sites=33))
    for n in (0, 2):
        *_, spectral, moms = solver.spectral_point(n, 0.5)
        trace = dyn.evolve_overlap(spectral, dyn.default_times(moms, 64))
        wide_trace = dyn.evolve_overlap(wide.spectral_point(n, 0.5)[3], trace.times)
        true_error = np.abs(trace.overlaps - wide_trace.overlaps)
        defect = dyn.quadrature_defect(spectral, trace)
        assert true_error.max() <= defect <= 1e-10
    # a single site has no coarser rule; at a prime S only q = 0 is left
    for sites, low, high in ((1, None, None), (3, 1e-8, 1e-3)):
        lattice = LatticeSolver(replace(solver.params, sites=sites))
        *_, spectral, moms = lattice.spectral_point(0, 0.5)
        trace = dyn.evolve_overlap(spectral, dyn.default_times(moms, 64))
        defect = dyn.quadrature_defect(spectral, trace)
        assert defect is None if low is None else low <= defect <= high
