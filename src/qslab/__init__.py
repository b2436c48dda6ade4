"""Numerical laboratory for a single atom in a spin-dependent optical lattice.

Builds the lattice Hamiltonian, evolves displaced vibrational packets
exactly, checks the uncertainty and mean-energy evolution-speed bounds with
their crossover, fits the geometric deviation coefficient, and replays the
whole analysis through a simulated Ramsey measurement chain.
"""

__version__ = "0.1.0"
