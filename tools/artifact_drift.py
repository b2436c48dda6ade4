#!/usr/bin/env python3
"""Largest relative change |a - b| / max(|a|, |b|) and largest absolute change
|a - b| per CSV column and JSON key, pooled over the files of one name,
between two tools/artifact_sets.sh outputs:

    python3 tools/artifact_drift.py BEFORE AFTER

prints one line per field: file name, field, relative change, absolute change.
A value at rounding level, such as cos(dE t) near t = tau_MT, can read as a
large relative move; its absolute change shows that it is not one.
JSON covers the .stdout files too; any other file must be byte-identical.
Exits 1 when the file set, a key set, a row count or a non-numeric cell differs.
"""
import csv
import json
import math
import os
import sys


def number(cell):
    """A finite float from a JSON number or a CSV cell, else None."""
    if isinstance(cell, bool) or not isinstance(cell, (int, float, str)):
        return None
    try:
        return float(cell) if math.isfinite(float(cell)) else None
    except ValueError:
        return None


def compare(a, b, field, where, drift, faults):
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return faults.append(f"{where}: keys {sorted(a.keys() ^ b.keys())} differ")
        for key in a:
            compare(a[key], b[key], key, where, drift, faults)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return faults.append(f"{where}: {len(a)} -> {len(b)} rows")
        for x, y in zip(a, b):
            compare(x, y, field, where, drift, faults)
    elif (x := number(a)) is not None and (y := number(b)) is not None:
        key = (os.path.basename(where), str(field))
        rel, change = drift.get(key, (0.0, 0.0))
        drift[key] = (max(rel, abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0),
                      max(change, abs(x - y)))
    elif repr(a) != repr(b):
        faults.append(f"{where}: {field}: {a!r:.60} -> {b!r:.60}")


def load(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".csv"):
        header, *rows = csv.reader(data.decode().splitlines())
        return [dict(zip(header, row)) for row in rows]
    try:
        return json.loads(data)
    except ValueError:
        return data


def main(before, after):
    names = [{os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs}
             for root in (before, after)]
    drift, faults = {}, [] if names[0] == names[1] else [f"files {names[0] ^ names[1]} differ"]
    for name in sorted(names[0] & names[1]):
        compare(*(load(os.path.join(root, name)) for root in (before, after)), None, name,
                drift, faults)
    for (base, field), (rel, change) in sorted(drift.items()):
        print(f"{base} {field} {rel:.2g} {change:.2g}")
    for fault in faults:
        print("DIFFERS", fault, file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} BEFORE AFTER")
    sys.exit(main(*sys.argv[1:]))
