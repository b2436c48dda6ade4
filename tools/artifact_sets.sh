#!/bin/sh
# Write seven artifact sets, each with its stdout, into the directory OUT:
#   exact/        qslab scan, default grid, estimator exact, seed 11
#   experiment/   qslab scan, default grid, estimator experiment, seed 11
#   fine-grid/    qslab scan with the fine-grid config of perfbench/workloads.py, seed 11
#   ramsey-dense/ qslab scan with the ramsey-dense config of perfbench/workloads.py,
#                 seed 11: 3 points x 2048 times x 24 phases of fringes.csv rows
#   yaml-kinds/   qslab scan with a config that spells integers as floats
#                 (sites: 9.0, seed: 11.0) and reals as integers (wavelength_nm: 866)
#   bands/        qslab bands with its defaults
#   qubit/        qslab qubit with its defaults
# and acceptance.stdout, the "[criterion ...]" verdict lines of
# tests/test_acceptance.py in order, with each line's trailing elapsed time
# (", 0.9 s", ", 0.1 ms") masked as ", <elapsed>", so two runs of one tree
# write identical files.  The script exits with pytest's status when the
# acceptance module fails, and keeps its full output as acceptance.log.
# A change that must keep every artifact byte-identical and every verdict
# unchanged runs this script in a checkout of each side and compares the two
# results:
#   tools/artifact_sets.sh /tmp/before      (in the parent's checkout)
#   tools/artifact_sets.sh /tmp/after       (in this checkout)
#   diff -r /tmp/before /tmp/after
# A change that may move numbers lists the largest relative and the largest
# absolute move per field with
#   python3 tools/artifact_drift.py /tmp/before /tmp/after
# Every path the commands print is relative to OUT, so the two sides compare.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
cd "$1"
export PYTHONPATH="$root/src" PYTHONDONTWRITEBYTECODE=1
qslab() { python3 -m qslab.cli "$@"; }

qslab scan --seed 11 --estimator exact --out exact > exact.stdout
qslab scan --seed 11 --estimator experiment --out experiment > experiment.stdout
python3 - "$root/perfbench" <<'PY'
import sys
import yaml
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS, config_dict
for name in ("fine-grid", "ramsey-dense"):
    with open(f"{name}.yaml", "w", encoding="utf-8") as fh:
        yaml.safe_dump(config_dict(WORKLOADS[name], 11, name), fh)
PY
qslab scan --config fine-grid.yaml > fine-grid.stdout
qslab scan --config ramsey-dense.yaml > ramsey-dense.stdout
cat > yaml-kinds.yaml <<'YAML'
lattice: {wavelength_nm: 866, depth_Er: 270, sites: 9.0, points_per_site: 32.0}
scan: {points: [[0.0, 0.08], [2, 0.16]], seed: 11.0, curves: true, curve_points: 3,
       estimator: experiment, out: yaml-kinds}
ramsey: {phases: 12.0, loss_fraction: 0, light_shift_slope_rad_per_us: 81}
YAML
qslab scan --config yaml-kinds.yaml > yaml-kinds.stdout
qslab bands --out bands > bands.stdout
qslab qubit --out qubit > qubit.stdout
# pytest writes to a file first: sh has no pipefail, so a pipe would hide
# its status, and a module that fails must fail this script
status=0
(cd "$root" && python3 -m pytest -q -s -p no:cacheprovider tests/test_acceptance.py) \
    > acceptance.log || status=$?
grep -o '\[criterion .*' acceptance.log | sed -E 's/, [0-9]+(\.[0-9]+)? m?s$/, <elapsed>/' \
    > acceptance.stdout
if [ "$status" -ne 0 ]; then
    echo "$0: tests/test_acceptance.py exited $status; see $PWD/acceptance.log" >&2
    exit "$status"
fi
rm acceptance.log
