"""Numerical laboratory for a single atom in a spin-dependent optical lattice.

Builds the lattice Hamiltonian, evolves displaced vibrational packets
exactly, checks the uncertainty and mean-energy evolution-speed bounds with
their crossover, fits the geometric deviation coefficient, and replays the
whole analysis through a simulated Ramsey measurement chain.
"""

import os
import sys

__version__ = "0.1.0"

# The pipeline runs on one BLAS thread (scan._one_blas_thread), and starting
# OpenBLAS's thread pool takes about 65 ms of a 0.15 s `import numpy` on a
# 2-core host.  So numpy, when qslab loads it, starts OpenBLAS on one thread,
# unless the caller chose a count through a variable OpenBLAS reads; the
# variable is removed again, so subprocesses see the caller's environment.
if "numpy" not in sys.modules and not any(
        var in os.environ for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                      "OMP_NUM_THREADS", "OPENBLAS_DEFAULT_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
    del numpy
del os, sys
