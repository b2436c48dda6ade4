"""One benchmark operation in a fresh interpreter.

Usage: python3 child.py SPEC_JSON_PATH

The spec names the qslab source directory, the config dict, the result path
and the mode: "setup" (import and build the config only), "run" (also call
run_scan) or "traced" (run with tracer.Tracer installed).  setup_s spans the
import of qslab and config_from_dict; it is taken before anything else is
imported, so the interpreter's own start-up is outside it.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _environment(qslab, scan) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration"),
        "qslab": getattr(qslab, "__version__", "unknown"),
        "default_workers": scan.config_from_dict({}).workers,
    }


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import qslab
    from qslab import scan
    config = scan.config_from_dict(spec["config"])
    result = {"setup_s": time.perf_counter() - T0, "qslab_file": qslab.__file__,
              "points": [[int(n), float(dx)] for n, dx in config.points],
              "curve_points": int(config.curve_points) if config.curves else 0}
    if spec["mode"] == "setup":
        result["environment"] = _environment(qslab, scan)
    else:
        tracer = None
        if spec["mode"] == "traced":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        summary = scan.run_scan(config)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            wall_s=wall,
            cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            peak_rss_mb=after.ru_maxrss / 1024.0,
            summary=summary,
        )
        if tracer is not None:
            result.update(spans=tracer.spans, absent=tracer.absent)
    tmp = f"{spec['result']}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, spec["result"])


if __name__ == "__main__":
    main(sys.argv[1])
