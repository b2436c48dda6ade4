"""Eigendecomposition contract and band-structure claims."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from qslab import dynamics as dyn
from qslab import eigensolve as es
from qslab.errors import ConstructionError, ParameterError
from qslab.model import KAPPA, LatticeModel, LatticeParams, displacement_from_angle
from qslab.scan import ScanConfig, lattice_reference_curves, run_point, solve_displacement

from conftest import (FullZone, block_packet, cell_blocks, central_cell, grid_hamiltonian,
                      grid_packet, mathieu_defect, q0_sites)

ORTHO_TOL = 1e-10
RESIDUAL_TOL = 1e-9
SMALL = LatticeParams(sites=9, points_per_site=32)


def test_block_solve_matches_dense_oracle():
    # all modes kept on both routes; the dense eigh of the assembled matrix
    # is the reference for every quantity the pipeline derives from the blocks
    dx = 0.11
    model = LatticeModel(SMALL, dx)
    s = SMALL.sites
    eig = es.decompose(model.depth, s, SMALL.points_per_site)
    full = FullZone(eig)
    site_states = q0_sites(eig)[1]
    w, v = np.linalg.eigh(grid_hamiltonian(model, "down"))
    assert np.abs(eig.spectrum - w).max() <= 1e-10
    # bound bands are separated by gaps, so dense band b is the b-th run of S
    bound = es.bound_level_count(model)
    assert np.array_equal(full.bands[:bound * s], np.repeat(np.arange(bound), s))
    for n in (0, 1, 2):
        spectral = dyn.to_spectral(block_packet(n, dx, eig, site_states), eig)
        psi = grid_packet(n, dx, model.params, site_states)
        coeff = v.T @ psi
        dense_pops = np.abs(coeff) ** 2
        dense_bands = dense_pops[:bound * s].reshape(bound, s).sum(axis=1)
        assert np.abs(spectral.populations.sum(axis=0)[:bound] - dense_bands).max() <= 1e-12
        dense = dyn.SpectralState(populations=dense_pops, energies=w - w[0])
        moms, ref = dyn.moments(spectral), dyn.moments(dense)
        assert moms.e == pytest.approx(ref.e, rel=1e-10)
        assert moms.de == pytest.approx(ref.de, rel=1e-10)
        assert moms.beta2 == pytest.approx(ref.beta2, rel=1e-8)
        times = dyn.default_times(moms, 32)
        delta = (dyn.evolve_overlap(spectral, times).overlaps
                 - dyn.evolve_overlap(dense, times).overlaps)
        assert np.abs(delta).max() <= 1e-12
        # the grid oracle's inverse transform against the dense modes
        grid_coeff = full.project(psi)
        for t in times[::8]:
            psi_dense = v @ (coeff * np.exp(-1j * (w - w[0]) * t))
            psi_t = full.synthesize(grid_coeff * np.exp(-1j * (full.energies - w[0]) * t))
            assert np.abs(psi_t - psi_dense).max() <= 1e-9


@pytest.mark.parametrize("sites", [1, 3, 9])
def test_time_reversal_half_zone_solve(sites, monkeypatch):
    # block -q is block q with plane-wave orders m -> -m, so it is never built
    model = LatticeModel(replace(SMALL, sites=sites), 0.11)
    eigh, solved = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda b: solved.append(len(b)) or eigh(b))
    eig = es.decompose(model.depth, sites, SMALL.points_per_site)
    # only the q >= 0 blocks are diagonalised, and nothing is kept for -q
    assert solved == [(sites + 1) // 2]
    half = (sites + 1) // 2
    p = SMALL.points_per_site
    assert eig.energies.shape == (half, p) and eig.vectors.shape == (half, p, p)
    assert np.array_equal(eig.quasimomenta, 2.0 * np.pi * np.arange(half) / sites)
    # the mirrored blocks complete the full zone's eigenmodes
    checks = FullZone(eig).validate(grid_hamiltonian(model, "down"))
    assert checks["residual"] <= RESIDUAL_TOL
    assert checks["orthonormality"] <= ORTHO_TOL


def test_mirror_symmetric_cell_solves_real_blocks(solver, monkeypatch):
    # the cos^2 well is even, so its blocks are real symmetric
    eigh = np.linalg.eigh
    for dx in (0.04, 0.5):
        model, eig, (_, site_states) = solver.solve(dx)
        assert eig.vectors.dtype == np.float64
        # the same blocks through the complex driver are the reference
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", lambda b: eigh(b.astype(complex)))
            ref = es.decompose(model.depth, model.params.sites, model.params.points_per_site)
        assert ref.vectors.dtype == np.complex128
        assert np.abs(eig.energies - ref.energies).max() <= 1e-10
        # far above the well, bands 21 and 22 of one block are degenerate to
        # 3e-13 E_R at dx = 0.5, so how a packet splits between them is a
        # choice of basis; the bound bands and the moments are not
        bound = es.bound_level_count(model)
        for n in (0, 1, 2):
            packet = block_packet(n, dx, eig, site_states)
            spectral = [dyn.to_spectral(packet, e) for e in (eig, ref)]
            pops = [s.populations.sum(axis=0)[:bound] for s in spectral]
            assert np.abs(pops[0] - pops[1]).max() <= 1e-12
            moms, ref_moms = (dyn.moments(s) for s in spectral)
            assert moms.e == pytest.approx(ref_moms.e, rel=1e-12)
            assert moms.de == pytest.approx(ref_moms.de, rel=1e-12)


def test_band_structure_matches_lattice_spectrum():
    # for odd S, every other one of 2S quasimomenta is a lattice
    # quasimomentum 2 pi j / S, where the bands are the S-site spectrum
    model = LatticeModel(SMALL, 0.11)
    s = SMALL.sites
    n_bands = es.bound_level_count(model)
    bands = es.band_structure(model, n_bands, 2 * s)
    at_lattice_q = np.sort(np.concatenate([b.energies[::2] for b in bands]))
    w = np.linalg.eigvalsh(grid_hamiltonian(model, "down"))
    assert np.abs(at_lattice_q - w[:n_bands * s]).max() <= 1e-10


def test_bloch_blocks_match_mathieu():
    # the analytic oracle, independent of the Fourier-grid construction that
    # the dense oracle shares with the blocks: P = 32 is the coarsest grid
    # that converges (P = 16 misses by 9 E_R); the displaced spin-up cell
    # checks the sampled cell's complex Hermitian blocks (conftest.cell_blocks)
    for depth, theta, p in ((270.0, 0.0, 32), (270.0, 0.0, 64), (270.0, 0.0, 128),
                            (50.0, 0.0, 64), (270.0, 0.7, 64), (600.0, 1.2, 64)):
        lattice = LatticeModel(LatticeParams(depth_at_zero=depth, points_per_site=p),
                               displacement_from_angle(theta))
        for spin in ("down", "up"):
            assert mathieu_defect(lattice, spin) <= 1e-9, (depth, theta, p, spin)


def test_three_term_blocks_match_sampled_cell():
    # cos^2 is band-limited, so the discrete Fourier components of the
    # spin-down cell on P >= 4 points per site are exactly V[0] = -U0/2 and
    # V[1] = V[P - 1] = -U0/4, the aliasing wrap between the two ends of the
    # plane-wave window included: the closed-form blocks are the sampled
    # cell's, on the S = 9 half zone and at the zone edge
    q = np.r_[2.0 * np.pi * np.arange(5) / 9, np.pi]
    for p, dx, depth in itertools.product((4, 32, 64, 128), (0.0, 0.11, 0.5),
                                          (50.0, 270.0, 600.0)):
        params = LatticeParams(depth_at_zero=depth, sites=9, points_per_site=p)
        model = LatticeModel(params, dx)
        blocks, orders = es._bloch_blocks(model.depth, p, q)
        ref, ref_orders = cell_blocks(central_cell(model, "down"), q)
        assert blocks.dtype == ref.dtype == np.float64
        assert np.array_equal(orders, ref_orders)
        assert np.abs(blocks - ref).max() <= 1e-14 * model.depth, (p, dx, depth)
        assert np.abs(np.linalg.eigvalsh(blocks) - np.linalg.eigvalsh(ref)).max() <= 1e-10


def test_decompose_input_errors():
    # an even S has an unpaired zone-edge block, q = pi
    with pytest.raises(ConstructionError, match="odd"):
        es.decompose(270.0, 4, 32)


def test_decompose_lattice_contract(solver):
    lattice, eig, *_ = solver.solve(0.0)
    checks = FullZone(eig).validate(grid_hamiltonian(lattice, "down"))
    assert checks["orthonormality"] <= ORTHO_TOL
    assert checks["residual"] <= RESIDUAL_TOL
    # spectrum bounded below by the potential minimum (kinetic part is PSD)
    spectrum = eig.spectrum
    assert spectrum[0] >= -lattice.depth - 1e-9
    assert np.all(np.diff(spectrum) >= 0.0)
    assert np.all(np.diff(eig.energies, axis=1) >= -1e-12)
    assert eig.ground_offset == spectrum[0] == eig.energies[0, 0]
    assert spectrum.size == lattice.params.sites * lattice.params.points_per_site


def test_decompose_deterministic(solver):
    lattice, eig, *_ = solver.solve(0.0)
    again = es.decompose(lattice.depth, lattice.params.sites, lattice.params.points_per_site)
    assert np.array_equal(eig.energies, again.energies)
    assert np.array_equal(eig.vectors, again.vectors)


def test_level_spacing_against_anharmonic_ladder(solver):
    # E1 - E0 of the cos^2 well sits 2 sqrt(U0) - 1 (E_R) to second order;
    # the deviation from the harmonic 2 sqrt(U0) is therefore ~3 percent at
    # 270 E_R, reproduced here to a few parts in 1e3
    lattice, eig, *_ = solver.solve(0.0)
    homega = lattice.homega
    spacing = eig.spectrum[lattice.params.sites] - eig.spectrum[0]
    assert spacing == pytest.approx(homega - 1.0, rel=2e-3)
    assert spacing == pytest.approx(homega, rel=0.035)


def test_single_site_eigenstates_nodes_and_orthonormality(solver):
    energies, states = solver.solve(0.0)[2]
    p = states.shape[0]
    positions = np.arange(p) / p - 0.5
    assert np.all(np.diff(energies) > 0)
    assert np.isrealobj(states)
    gram = states.T @ states
    assert np.abs(gram - np.eye(3)).max() < 1e-10
    # node counts 0, 1, 2 in the classically allowed center region
    for n in range(3):
        core = states[np.abs(positions) < 0.25, n]
        signs = np.sign(core[np.abs(core) > 1e-6 * np.abs(core).max()])
        nodes = int(np.sum(np.abs(np.diff(signs)) > 0))
        assert nodes == n
    # ground state symmetric about the site center (periodic mirror u -> -u)
    g = states[:, 0]
    mirrored = np.roll(g[::-1], 1)
    assert np.abs(g - mirrored).max() < 1e-8 * np.abs(g).max()


def test_single_site_count_errors():
    # sqrt(20 E_R)/2 ~ 2.2 bound levels cannot hold the n = 2 packet
    shallow = LatticeParams(depth_at_zero=20.0, sites=9, points_per_site=32)
    with pytest.raises(ParameterError, match="bound levels"):
        solve_displacement(0.1, shallow)


@pytest.mark.parametrize("dx", [0.0, 0.5])
def test_site_states_match_one_site_dense_oracle(solver, dx):
    # an isolated site with periodic closure, solved densely, is an
    # independent route to the q = 0 Bloch block
    lattice, eig, _ = solver.solve(dx)
    site = LatticeModel(replace(lattice.params, sites=1), lattice.dx)
    w, v = np.linalg.eigh(grid_hamiltonian(site, "down"))
    energies, states = q0_sites(eig, 4)
    assert np.abs(energies - w[:4]).max() <= 1e-10
    signs = np.sign((v[:, :4] * states).sum(axis=0))
    assert np.abs(states - v[:, :4] * signs).max() <= 1e-12


def test_site_energies_independent_of_box_size():
    # the blocks are built from U0 and P alone, the same floats for every S,
    # so the q = 0 block, its energies and its site states are too
    sites = []
    for s in (1, 3, 33):
        model = LatticeModel(replace(SMALL, sites=s), 0.2)
        sites.append(q0_sites(es.decompose(model.depth, s, SMALL.points_per_site)))
    for energies, states in sites[1:]:
        assert np.array_equal(energies, sites[0][0])
        assert np.array_equal(states, sites[0][1])


@pytest.mark.parametrize("sites", [11, 33])
def test_site_ground_energy_is_lattice_ground_offset(sites, monkeypatch):
    # the reference curves solve only the q = 0 block and subtract its ground
    # energy; the points subtract decompose's ground_offset, the same value
    offsets, direct = [], dyn.direct_moments
    monkeypatch.setattr(dyn, "direct_moments",
                        lambda b, a, w, e_0: offsets.append(e_0) or direct(b, a, w, e_0))
    config = ScanConfig(params=LatticeParams(sites=sites))
    for dx in (0.025, 0.1, 0.5):
        offsets.clear()
        lattice_reference_curves(config, [dx])
        model = LatticeModel(config.params, dx)
        ground = es.decompose(model.depth, sites, model.params.points_per_site).ground_offset
        assert offsets == [ground] * 3


def test_each_displacement_solves_its_q0_block_once(monkeypatch):
    # the half-zone solve is the only q = 0 solve: one block build and one
    # eigh per displacement for the points, none more per point, and one
    # build and one q = 0 eigh per curve displacement
    builds, solves = [], []
    bloch_blocks, eigh = es._bloch_blocks, np.linalg.eigh
    monkeypatch.setattr(es, "_bloch_blocks",
                        lambda depth, p, q: builds.append(len(q)) or bloch_blocks(depth, p, q))
    monkeypatch.setattr(np.linalg, "eigh", lambda b: solves.append(b.shape) or eigh(b))
    half, p = (SMALL.sites + 1) // 2, SMALL.points_per_site
    config = ScanConfig(params=SMALL)
    solved = solve_displacement(0.1, SMALL)
    for n in (0, 1, 2):
        run_point(n, 0.1, config, solved)
    assert builds == [half] and solves == [(half, p, p)]
    builds.clear()
    solves.clear()
    lattice_reference_curves(config, [0.05, 0.1])
    assert builds == [half, half] and solves == [(p, p), (p, p)]


def test_single_site_matches_full_lattice_band_centers(solver):
    lattice, eig, (site_e, _) = solver.solve(0.0)
    s = lattice.params.sites
    for n in range(3):
        band = eig.spectrum[n * s:(n + 1) * s]
        assert site_e[n] == pytest.approx(band.mean(), abs=1e-6)


def test_empty_lattice_band_folds_free_dispersion():
    lattice = LatticeModel(params=LatticeParams(depth_at_zero=1e-12))
    bands = es.band_structure(lattice, 3, 32)
    # band 0 spans kappa q^2 for q in (-pi, pi]: width exactly one recoil
    assert bands[0].bandwidth == pytest.approx(KAPPA * np.pi**2, rel=1e-9)
    q = bands[0].quasimomenta
    assert np.allclose(bands[0].energies, KAPPA * q**2, atol=1e-9)


def test_band_zero_at_q0_matches_single_site(solver):
    lattice, _, (site_e, _) = solver.solve(0.0)
    bands = es.band_structure(lattice, 3, 32)
    i0 = int(np.argmin(np.abs(bands[0].quasimomenta)))
    for n in range(3):
        assert bands[n].energies[i0] == pytest.approx(site_e[n], abs=1e-8)


def test_band_structure_sorted_and_positive_width():
    lattice = LatticeModel(params=LatticeParams())
    bands = es.band_structure(lattice, 12, 33)
    for q_idx in range(33):
        col = [b.energies[q_idx] for b in bands]
        assert np.all(np.diff(col) > 0)
    assert all(b.bandwidth >= 0 for b in bands)


def test_tunneling_time_claims(solver):
    lattice = solver.solve(0.0)[0]
    bands = es.band_structure(lattice, 12, 64)
    widths = np.array([b.bandwidth for b in bands])
    assert np.all(np.diff(widths[:11]) > 0)  # monotone through band 10
    hertz = lattice.recoil.hertz
    tau0 = bands[0].tunneling_time_s(hertz)
    tau10 = bands[10].tunneling_time_s(hertz)
    assert tau0 > 3e7          # beyond a year
    assert tau0 / tau10 >= 1e12  # twelve orders of magnitude over ten bands


def test_band_structure_parameter_errors():
    lattice = LatticeModel(params=LatticeParams())
    with pytest.raises(ParameterError):
        es.band_structure(lattice, 0, 16)
    with pytest.raises(ParameterError):
        es.band_structure(lattice, 3, 1)
