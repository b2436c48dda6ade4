"""Numerical laboratory for a single atom in a spin-dependent optical lattice.

Builds the lattice Hamiltonian, evolves displaced vibrational packets
exactly, checks the uncertainty and mean-energy evolution-speed bounds with
their crossover, fits the geometric deviation coefficient, and replays the
whole analysis through a simulated Ramsey measurement chain.
"""

from .model import (
    LatticeModel,
    LatticeParams,
    angle_from_displacement,
    displacement_from_angle,
    recoil_energy,
    trap_depth,
    trap_frequency,
)
from .eigensolve import band_structure, decompose
from .dynamics import (
    direct_moments,
    evolve_overlap,
    moments,
    prepare_initial,
    to_spectral,
)
from .qsl import (
    QslReport,
    bhatia_davis_cap,
    crossover_time,
    deviation_from_geometry,
    deviation_from_kurtosis,
    displaced_populations,
    ml_bound,
    mt_bound,
    qubit_model,
    report,
    unified_bound,
    xi_harmonic,
)
from .interferometer import (
    RamseyConfig,
    extract_mean_energy,
    extract_uncertainty,
    extract_xi,
    ideal_fringe,
    sample_fringe,
)
from .scan import ScanConfig, default_grid, run_scan

__version__ = "0.1.0"

__all__ = [
    "LatticeModel", "LatticeParams",
    "recoil_energy", "displacement_from_angle", "angle_from_displacement",
    "trap_depth", "trap_frequency",
    "decompose", "band_structure",
    "prepare_initial", "to_spectral", "moments", "evolve_overlap", "direct_moments",
    "mt_bound", "ml_bound", "unified_bound", "crossover_time", "report",
    "deviation_from_kurtosis", "deviation_from_geometry", "bhatia_davis_cap",
    "xi_harmonic", "displaced_populations", "qubit_model", "QslReport",
    "RamseyConfig", "ideal_fringe", "sample_fringe",
    "extract_mean_energy", "extract_uncertainty", "extract_xi",
    "ScanConfig", "default_grid", "run_scan",
]
