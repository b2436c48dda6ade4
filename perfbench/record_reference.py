#!/usr/bin/env python3
"""Record reference/scan-exact.json from one scan-exact run of this tree.

Usage, from the root of a qslab checkout:

    python3 perfbench/record_reference.py

The gate compares later commits with this file, so record it only at a
commit whose physics is trusted, and say so in CHANGES.md.  The scan-exact
workload is deterministic: the seed does not enter it.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import gate
import run
from workloads import WORKLOADS


def main() -> int:
    result, out_dir, tmp = run.spawn("run", WORKLOADS["scan-exact"], 0,
                                     time.monotonic() + 600.0)
    try:
        if result is None:
            return 1
        reference = gate.extract_reference(str(out_dir), result["points"], curves=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    reference["recorded_at"] = run.environment(0)["git_commit"]
    run.REFERENCE.parent.mkdir(exist_ok=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
