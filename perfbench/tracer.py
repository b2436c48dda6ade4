"""Per-layer spans recorded from outside the program.

A traced run replaces each function in TRACED by a timing wrapper wherever
the qslab package holds it: in its defining module, in the package namespace
and in any module that imported the name directly (for example
`dynamics.single_site_eigenstates`).  Calls that go through module globals,
such as `scan` -> `eigensolve.decompose` or `simulate_series` ->
`sample_fringe`, are therefore caught.  A function missing at a later commit
is listed as absent and its metrics read 0.

Each span records its name, start, end, parent span and thread.  The parent
stack is per thread, because the default thread pool solves two displacement
groups at once.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "qslab"
TRACED = [
    ("model", "build_hamiltonian"),
    ("eigensolve", "decompose"),
    ("eigensolve", "single_site_eigenstates"),
    ("dynamics", "prepare_initial"),
    ("dynamics", "to_spectral"),
    ("dynamics", "reconstruct"),
    ("dynamics", "evolve_overlap"),
    ("dynamics", "moments"),
    ("qsl", "report"),
    ("interferometer", "simulate_series"),
    ("interferometer", "sample_fringe"),
    ("interferometer", "fit_fringe"),
    ("interferometer", "extract_mean_energy"),
    ("interferometer", "extract_uncertainty"),
    ("interferometer", "extract_xi"),
    ("scan", "run_point"),
    ("scan", "lattice_reference_curves"),
    ("scan", "write_csv"),
    ("scan", "write_json"),
]


def _decompose_attrs(args, kwargs, result):
    h = args[0] if args else kwargs["h"]
    return {"order": int(getattr(h, "matrix", h).shape[0])}


def _to_spectral_attrs(args, kwargs, result):
    eig = args[1] if len(args) > 1 else kwargs["eig"]
    return {"kept": int(len(result.energies)), "total": int(eig.size)}


# Work counts read from a call's arguments and result; a hook that no longer
# fits the function's signature is skipped, not an error.
HOOKS = {
    "eigensolve.decompose": _decompose_attrs,
    "dynamics.to_spectral": _to_spectral_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def install(self) -> None:
        """Wrap every TRACED function of the imported qslab package."""
        holders = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, func_name in TRACED:
            name = f"{module_name}.{func_name}"
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original, HOOKS.get(name))
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapped)

    def _wrap(self, name, func, hook):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = {"name": name, "id": next(ids),
                    "parent": stack[-1] if stack else None,
                    "thread": threading.get_ident()}
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                spans.append(span)
            if hook is not None:
                try:
                    span.update(hook(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass
            return result

        return traced


def eigh_flops(order: int) -> float:
    """Operation count of a dense symmetric eigensolve with eigenvectors.

    9 N^3: Householder tridiagonalisation (4/3 N^3), forming its orthogonal
    factor (4/3 N^3) and implicit QR with vector updates (~6 N^3), as in
    Golub & Van Loan, Matrix Computations, sec. 8.3.  Computed, not measured.
    """
    return 9.0 * float(order) ** 3


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer totals of one run_scan call: name -> (value, unit).

    "s" is inclusive time summed over threads; "self_s" subtracts the time
    of the span's children.
    """
    by_name = defaultdict(list)
    child_s = defaultdict(float)
    for span in spans:
        by_name[span["name"]].append(span)
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]

    def calls(name):
        return len(by_name[name]), "count"

    def busy(name):
        return sum(s["end"] - s["start"] for s in by_name[name]), "s"

    def self_busy(name):
        return sum(s["end"] - s["start"] - child_s[s["id"]] for s in by_name[name]), "s"

    orders = [s["order"] for s in by_name["eigensolve.decompose"] if "order" in s]
    projections = [s for s in by_name["dynamics.to_spectral"] if "total" in s]
    total_modes = sum(s["total"] for s in projections)
    kept_ratio = sum(s["kept"] for s in projections) / total_modes if total_modes else 0.0
    extract_s = sum(busy(f"interferometer.extract_{part}")[0]
                    for part in ("mean_energy", "uncertainty", "xi"))
    return {
        "model.build_hamiltonian.calls": calls("model.build_hamiltonian"),
        "model.build_hamiltonian.s": busy("model.build_hamiltonian"),
        "eigensolve.decompose.calls": calls("eigensolve.decompose"),
        "eigensolve.decompose.s": busy("eigensolve.decompose"),
        "eigensolve.decompose.order": (max(orders, default=0), "rows"),
        "eigensolve.decompose.bytes": (sum(8 * n * n for n in orders), "B"),
        "eigensolve.decompose.flops": (sum(eigh_flops(n) for n in orders), "flop"),
        "eigensolve.single_site_eigenstates.s": busy("eigensolve.single_site_eigenstates"),
        "dynamics.prepare_initial.s": busy("dynamics.prepare_initial"),
        "dynamics.to_spectral.s": busy("dynamics.to_spectral"),
        "dynamics.to_spectral.kept_ratio": (kept_ratio, "ratio"),
        "dynamics.reconstruct.s": busy("dynamics.reconstruct"),
        "dynamics.evolve_overlap.s": busy("dynamics.evolve_overlap"),
        "dynamics.moments.s": busy("dynamics.moments"),
        "qsl.report.s": busy("qsl.report"),
        "interferometer.simulate_series.s": busy("interferometer.simulate_series"),
        "interferometer.simulate_series.self_s": self_busy("interferometer.simulate_series"),
        "interferometer.sample_fringe.calls": calls("interferometer.sample_fringe"),
        "interferometer.sample_fringe.s": busy("interferometer.sample_fringe"),
        "interferometer.fit_fringe.calls": calls("interferometer.fit_fringe"),
        "interferometer.fit_fringe.s": busy("interferometer.fit_fringe"),
        "interferometer.extract.s": (extract_s, "s"),
        "scan.run_point.s": busy("scan.run_point"),
        "scan.lattice_reference_curves.self_s": self_busy("scan.lattice_reference_curves"),
        "scan.write.s": (busy("scan.write_csv")[0] + busy("scan.write_json")[0], "s"),
    }
