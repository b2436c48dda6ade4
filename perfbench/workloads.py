"""Workload definitions for the qslab benchmark.

Each workload is a `config_from_dict` input.  Keys a workload does not name
keep the program's defaults (`scan.workers`, BLAS threads, lattice size), so a
change of default is measured the way users get it.  The harness adds only
`scan.seed` and `scan.out`.  See README.md beside this file for why each
workload exists and which layers it should and should not move.
"""

from __future__ import annotations

WORKLOADS = {
    # the shipped default: 34 points, estimator exact, curves on
    "scan-exact": {},
    # the Ramsey measurement chain and the artifact writer dominate; runnable,
    # but not in BENCHMARK.json: its interpreter-bound time is too unsteady on
    # a shared host (see README.md, "Spread")
    "ramsey-dense": {
        "scan": {"points": [[0, 0.16], [1, 0.16], [2, 0.16]],
                 "estimator": "experiment", "curves": False, "time_points": 2048},
        "ramsey": {"phases": 24, "light_shift_slope_rad_per_us": 81.0},
    },
    # criterion 9's P -> 2P convergence check through the pipeline, with the
    # Ramsey readout on 512 times so that the interferometer is measured too
    "fine-grid": {
        "lattice": {"points_per_site": 128},
        "scan": {"points": [[0, 0.08], [1, 0.08], [2, 0.08]], "curves": False,
                 "estimator": "experiment", "time_points": 512},
        "ramsey": {"phases": 24, "light_shift_slope_rad_per_us": 81.0},
    },
}

# What each workload's artifacts are compared with in reference/scan-exact.json
# (gate.compare_reference): the fields, and a relative tolerance for e_Er and
# de_Er where it differs from gate.REFERENCE_RTOL.  ramsey-dense shares the
# lattice and its points with scan-exact but not the time grid; fine-grid must
# match the (n, 0.08) points within criterion 9's convergence tolerance.
GATES = {
    "scan-exact": {"fields": ("e_Er", "de_Er", "xi_spectral", "abs_A", "curves")},
    "ramsey-dense": {"fields": ("e_Er", "de_Er", "xi_spectral")},
    "fine-grid": {"fields": ("e_Er", "de_Er"), "rtol": 1e-6},
}

# A seconds-long configuration for the harness self-test; not a workload.
SMOKE = {
    "lattice": {"sites": 9, "points_per_site": 32},
    "scan": {"points": [[0, 0.08], [1, 0.08], [2, 0.16]], "estimator": "experiment",
             "curve_points": 3, "time_points": 64},
}


def config_dict(workload: dict, seed: int, out_dir: str) -> dict:
    """The workload's config with the harness's seed and output directory."""
    raw = {key: dict(value) for key, value in workload.items()}
    raw["scan"] = {**raw.get("scan", {}), "seed": seed, "out": out_dir}
    return raw

