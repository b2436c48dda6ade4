"""Units, lattice geometry and the grid oracle."""

import numpy as np
import pytest

from qslab import model as m
from qslab.errors import ParameterError

from conftest import central_cell, grid_hamiltonian, grid_kinetic, grid_potential


def test_recoil_energy_cesium_866nm():
    # independent oracle: direct evaluation with CODATA literals
    hbar = 1.054571817e-34
    mass = 132.905451961 * 1.66053906892e-27
    lam = 866e-9
    expected_j = (2 * np.pi * hbar) ** 2 / (2 * mass * lam**2)
    rec = m.recoil_energy(lam)
    assert rec.joules == pytest.approx(expected_j, rel=1e-12)
    assert rec.hertz == pytest.approx(2001.7, rel=1e-3)  # ~2.00 kHz


def test_recoil_scaling_and_errors():
    rec1 = m.recoil_energy(866e-9)
    rec2 = m.recoil_energy(2 * 866e-9)
    assert rec2.joules == pytest.approx(rec1.joules / 4.0, rel=1e-12)
    with pytest.raises(ParameterError):
        m.recoil_energy(-1.0)


def test_displacement_from_angle_endpoints_and_value():
    assert m.displacement_from_angle(0.0) == 0.0
    assert m.displacement_from_angle(np.pi / 2) == pytest.approx(0.5, abs=1e-15)
    # arctan(3/4)/pi evaluated with 50-digit arithmetic
    assert m.displacement_from_angle(np.pi / 4) == pytest.approx(
        0.20483276469913342, abs=1e-14)
    thetas = np.linspace(0, np.pi / 2, 101)
    dxs = [m.displacement_from_angle(t) for t in thetas]
    assert np.all(np.diff(dxs) > 0)
    with pytest.raises(ParameterError):
        m.displacement_from_angle(-0.1)


def test_angle_displacement_round_trip():
    assert m.angle_from_displacement(0.0) == 0.0
    assert m.angle_from_displacement(0.5) == pytest.approx(np.pi / 2, abs=1e-15)
    assert m.angle_from_displacement(0.20483276469913342) == pytest.approx(
        np.pi / 4, abs=1e-12)
    for dx in np.linspace(0.001, 0.499, 37):
        assert m.displacement_from_angle(m.angle_from_displacement(dx)) == pytest.approx(
            dx, abs=1e-12)
    with pytest.raises(ParameterError):
        m.angle_from_displacement(0.6)


def test_trap_depth_endpoints_and_monotone():
    assert m.trap_depth(0.0, 270.0) == pytest.approx(270.0)
    assert m.trap_depth(np.pi / 2, 270.0) == pytest.approx(0.75 * 270.0, rel=1e-12)
    assert m.trap_depth(np.pi / 3, 270.0) == pytest.approx(
        np.sqrt(21.5 / 32.0) * 270.0, rel=1e-12)
    thetas = np.linspace(0, np.pi / 2, 101)
    depths = [m.trap_depth(t, 270.0) for t in thetas]
    assert np.all(np.diff(depths) < 0)


def test_trap_frequency_scaling_and_kilohertz():
    assert m.trap_frequency(0.0, 4 * 270.0) == pytest.approx(
        2 * m.trap_frequency(0.0, 270.0), rel=1e-12)
    assert m.trap_frequency(np.pi / 2, 270.0) == pytest.approx(
        2 * np.sqrt(202.5), rel=1e-12)
    lattice = m.LatticeModel(params=m.LatticeParams())
    freq_khz = lattice.trap_frequency_rad_s / (2 * np.pi) / 1e3
    assert freq_khz == pytest.approx(66.0, rel=0.03)


def test_potentials_shape_and_displacement():
    lattice = m.LatticeModel(m.LatticeParams(), 0.5)
    params = lattice.params
    down = grid_potential(lattice, "down")
    up = grid_potential(lattice, "up")
    assert down.shape == up.shape == (params.sites * params.points_per_site,)
    # spin-down minima at integer coordinates, u = 0 at index S P // 2;
    # spin-up displaced by half a site, P / 2 points further on
    p = params.points_per_site
    center = params.sites * p // 2
    assert down[center] == pytest.approx(down.min(), abs=1e-12)
    assert up[center + p // 2] == pytest.approx(up.min(), abs=1e-12)
    assert down.min() == pytest.approx(-lattice.depth, abs=1e-9)
    # periodic with period one site
    assert np.allclose(down[p:], down[:-p], atol=1e-12)
    # dx = 0: identical potentials and Hamiltonians entrywise
    lattice0 = m.LatticeModel(m.LatticeParams(sites=5, points_per_site=32), 0.0)
    assert np.array_equal(grid_potential(lattice0, "up"), grid_potential(lattice0, "down"))
    assert np.array_equal(grid_hamiltonian(lattice0, "up"), grid_hamiltonian(lattice0, "down"))


def test_grid_min_matches_closed_form_depth():
    for dx in (0.1, 0.37):
        lattice = m.LatticeModel(m.LatticeParams(), dx)
        pot = central_cell(lattice, "up")
        h = 1.0 / lattice.params.points_per_site
        # nearest grid point sits within h/2 of the well bottom, where the
        # parabolic expansion gives an offset of at most U0 pi^2 h^2 / 4
        tol = lattice.depth * np.pi**2 * h**2 / 4.0
        assert pot.min() == pytest.approx(-lattice.depth, abs=tol)


def test_hamiltonian_symmetry_exact():
    lattice = m.LatticeModel(params=m.LatticeParams(sites=5, points_per_site=32))
    ham = grid_hamiltonian(lattice, "down")
    assert np.abs(ham - ham.T).max() == 0.0


def test_free_particle_spectrum():
    # V = 0: the Fourier-grid kinetic term reproduces kappa k^2
    n = 5 * 32
    w = np.linalg.eigvalsh(grid_kinetic(n, 5))
    k = 2 * np.pi * np.fft.fftfreq(n, d=5 / n)
    expected = np.sort(m.KAPPA * k**2)
    assert np.allclose(w, expected, atol=1e-9)
    assert w[0] == pytest.approx(0.0, abs=1e-9)


def test_lattice_ground_state_near_harmonic_value(solver):
    lattice, eig, *_ = solver.solve(0.0)
    homega = lattice.homega
    expected = -lattice.depth + homega / 2.0
    # anharmonic correction stays below 2 percent of the zero-point shift scale
    assert eig.ground_offset == pytest.approx(expected, abs=0.02 * homega)


def test_apply_matches_matrix():
    # the half-zone Bloch blocks, which the reference curves apply to a
    # packet, act on a real state's plane-wave coefficients as the dense H
    # on the grid; block -q follows by complex conjugation
    from qslab.eigensolve import half_zone

    lattice = m.LatticeModel(params=m.LatticeParams(sites=5, points_per_site=32))
    s, size = 5, 5 * 32
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(size)
    psi /= np.linalg.norm(psi)
    blocks, orders, q, _ = half_zone(lattice.depth, s, 32)
    n = np.arange(q.size)[:, None] + s * orders   # wavenumber 2 pi n / S
    sign = (-1.0) ** n                             # transform origin at u = 0
    coeff = sign * np.fft.fft(psi, norm="ortho")[n % size]
    h_coeff = sign * np.einsum("qab,qb->qa", blocks, coeff)
    spectrum = np.empty(size, dtype=complex)
    spectrum[-n % size] = h_coeff.conj()
    spectrum[n % size] = h_coeff
    direct = np.fft.ifft(spectrum, norm="ortho")
    dense = grid_hamiltonian(lattice, "down") @ psi
    assert np.abs(direct - dense).max() < 1e-10 * np.abs(dense).max()


def test_coherent_alpha_reference_value():
    # dx = 0.04 at 270 E_R: |alpha| about 0.36, a_HO about 34 nm
    lattice = m.LatticeModel(m.LatticeParams(), 0.04)
    assert lattice.coherent_alpha(0.04) == pytest.approx(0.36, abs=0.01)
    a_ho = np.sqrt(m.HBAR_SI / (m.CS133_MASS_SI * lattice.trap_frequency_rad_s))
    assert a_ho == pytest.approx(34e-9, rel=0.03)


def test_params_validation():
    with pytest.raises(ParameterError):
        m.LatticeParams(sites=10)          # even
    with pytest.raises(ParameterError):
        m.LatticeParams(points_per_site=48)  # not a power of two
    # the packets n = 0, 1, 2 are three modes of the P x P q = 0 block
    for p in (-4, 0, 1, 2):
        with pytest.raises(ParameterError, match="at least 4.*three q = 0 cell states"):
            m.LatticeParams(points_per_site=p)
    assert m.LatticeParams(points_per_site=4).points_per_site == 4
    with pytest.raises(ParameterError):
        m.LatticeParams(depth_at_zero=-1.0)
    with pytest.raises(ParameterError):
        m.LatticeModel(m.LatticeParams(), 0.6)     # dx beyond half a site
