"""Lattice geometry, units and the spin-dependent trap depth and frequency.

Internally everything is dimensionless: lengths in units of the lattice
constant lambda/2, energies in recoil energies E_R = (2*pi*hbar)^2/(2*m*lambda^2),
hbar = 1 and time in hbar/E_R.  In these units the kinetic prefactor
hbar^2/(2*m*(lambda/2)^2) equals 1/pi^2 exactly, so the only physical inputs
left are the trap depth (in E_R) and the spin lattices' relative displacement,
which sets the polarization angle.  SI conversions happen at the I/O boundary
through :class:`LatticeModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# kinetic prefactor hbar^2/(2 m (lambda/2)^2) in units of E_R (lambda/2)^2
KAPPA = 1.0 / np.pi**2

# CODATA-2018 constants; atom mass is cesium-133
HBAR_SI = 1.054571817e-34       # J s
ATOMIC_MASS_SI = 1.66053906892e-27  # kg
CS133_MASS_U = 132.905451961
CS133_MASS_SI = CS133_MASS_U * ATOMIC_MASS_SI


@dataclass(frozen=True)
class RecoilEnergy:
    """Recoil energy of the atom in the lattice light field."""

    joules: float
    hertz: float  # E_R / h

    @property
    def time_us_per_unit(self) -> float:
        """Microseconds per dimensionless time unit hbar/E_R."""
        return 1e6 / (2.0 * np.pi * self.hertz)


def recoil_energy(wavelength: float) -> RecoilEnergy:
    """E_R = (2 pi hbar)^2 / (2 m lambda^2) of cesium-133, returned in J and as
    E_R/h in Hz, for the lattice light wavelength in meters."""
    if wavelength <= 0:
        raise ParameterError(f"wavelength must be positive, got {wavelength}")
    e_r = (2.0 * np.pi * HBAR_SI) ** 2 / (2.0 * CS133_MASS_SI * wavelength**2)
    return RecoilEnergy(joules=e_r, hertz=e_r / (2.0 * np.pi * HBAR_SI))


def displacement_from_angle(theta: float) -> float:
    """Relative displacement of the two spin lattices, in lambda/2 units.

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


def angle_from_displacement(dx: float) -> float:
    """Inverse of :func:`displacement_from_angle`: theta = arctan((4/3) tan(pi Dx))."""
    if not 0.0 <= dx <= 0.5 + 1e-15:
        raise ParameterError(f"displacement must lie in [0, 0.5] lambda/2, got {dx}")
    if dx >= 0.5:
        return float(np.pi / 2.0)
    return float(np.arctan(4.0 / 3.0 * np.tan(np.pi * dx)))


def trap_depth(theta: float, depth_at_zero: float) -> float:
    """Polarization-angle dependent trap depth, in E_R.

    U0(theta) = U0(0) * sqrt((25 + 7 cos 2 theta)/32); equal for both spin
    states, decreasing from U0(0) at theta=0 to (3/4) U0(0) at theta=pi/2.
    """
    if not 0.0 <= theta <= np.pi / 2.0 + 1e-15:
        raise ParameterError(f"polarization angle must lie in [0, pi/2], got {theta}")
    if depth_at_zero <= 0:
        raise ParameterError("trap depth must be positive")
    return float(depth_at_zero * np.sqrt((25.0 + 7.0 * np.cos(2.0 * theta)) / 32.0))


def trap_frequency(theta: float, depth_at_zero: float) -> float:
    """Harmonic trap frequency at the well bottom, as hbar*omega_HO in E_R.

    Expanding -U0 cos^2(2 pi x / lambda) about a minimum gives
    (1/2) m omega^2 x^2 with omega = (2 pi / lambda) sqrt(2 U0 / m), i.e.
    hbar*omega_HO = 2 sqrt(U0 E_R).  The dimensionally equivalent form
    sqrt(2 U0/(m lambda^2)) misses the 2 pi wavenumber factor and does not
    reproduce the ~66 kHz frequency of a 270 E_R cesium lattice; the
    expansion above does, so it is the one used throughout.
    """
    return 2.0 * np.sqrt(trap_depth(theta, depth_at_zero))


@dataclass(frozen=True)
class LatticeParams:
    """Static lattice inputs.

    wavelength in meters, depth_at_zero in E_R.  sites must be odd so the
    grid centers a well at the origin.  points_per_site must be a power of
    two, at least 4 for the three packet states; site_states and
    prepare_initial take the cell's first sample at u = -1/2 through a
    (-1)^m sign, which assumes it is even.
    """

    wavelength: float = 866e-9
    depth_at_zero: float = 270.0
    sites: int = 9
    points_per_site: int = 64

    def __post_init__(self):
        if not 0 < self.wavelength < np.inf:
            raise ParameterError("wavelength must be positive and finite")
        if not 0 < self.depth_at_zero < np.inf:
            raise ParameterError("lattice depth must be positive and finite")
        if self.sites < 1 or self.sites % 2 == 0:
            raise ParameterError("sites must be a positive odd integer")
        p = self.points_per_site
        if p < 4:
            raise ParameterError(f"points_per_site must be at least 4, got {p}: the "
                                 "packets n = 0, 1, 2 need three q = 0 cell states")
        if (p & (p - 1)) != 0:
            raise ParameterError("points_per_site must be a power of two")


@dataclass(frozen=True)
class LatticeModel:
    """All derived quantities for one lattice configuration.

    Bundles the parameters, the spin-up wells' displacement dx (lambda/2
    units) and the polarization angle it takes, the trap depth and frequency
    and the unit conversions used by the rest of the pipeline.  Immutable.
    """

    params: LatticeParams
    dx: float = 0.0

    def __post_init__(self):
        angle_from_displacement(self.dx)    # a dx outside [0, 0.5] is a ParameterError

    @property
    def recoil(self) -> RecoilEnergy:
        return recoil_energy(self.params.wavelength)

    @property
    def theta(self) -> float:
        return angle_from_displacement(self.dx)

    @property
    def depth(self) -> float:
        """U0(theta) in E_R."""
        return trap_depth(self.theta, self.params.depth_at_zero)

    @property
    def homega(self) -> float:
        """hbar*omega_HO(theta) in E_R."""
        return trap_frequency(self.theta, self.params.depth_at_zero)

    @property
    def trap_frequency_rad_s(self) -> float:
        return self.homega * 2.0 * np.pi * self.recoil.hertz

    def coherent_alpha(self, dx: float) -> float:
        """Coherent-state amplitude |alpha| = sqrt(m omega/(2 hbar)) * dx.

        In lattice units the effective mass is pi^2/2, so
        |alpha| = pi * U0(theta)^(1/4) * dx / sqrt(2).
        """
        m_eff = np.pi**2 / 2.0
        return float(np.sqrt(m_eff * self.homega / 2.0) * dx)
