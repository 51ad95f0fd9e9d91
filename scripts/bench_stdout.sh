#!/usr/bin/env bash
# Capture the stdout of every bench binary, one file per binary, so the
# outputs of two commits can be compared with `diff -r`:
#
#   scripts/bench_stdout.sh build /tmp/after
#   scripts/bench_stdout.sh ../parent/build /tmp/before
#   diff -r /tmp/before /tmp/after
#
# Each binary runs with no arguments from an empty scratch directory,
# so nothing it might write lands in the repository or OUT_DIR. Stderr
# (logging) is discarded. A binary that exits non-zero stops the
# script.
#
# Skipped binaries, because their stdout is not a function of the
# code alone:
#   perf_report_diff  compares two report files given as arguments;
#                     it has no output of its own to capture.
#   micro_substrates  prints host wall-clock timings.
#   obs_overhead      prints host wall-clock timings and overheads.
set -euo pipefail

if [[ $# -ne 2 ]]; then
    echo "usage: $0 BUILD_DIR OUT_DIR" >&2
    exit 2
fi
bench_dir="$(cd "$1/bench" && pwd)"
mkdir -p "$2"
out_dir="$(cd "$2" && pwd)"

skip=" perf_report_diff micro_substrates obs_overhead "

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

for bin in "${bench_dir}"/*; do
    name="$(basename "${bin}")"
    [[ -f "${bin}" && -x "${bin}" ]] || continue
    [[ "${skip}" == *" ${name} "* ]] && continue
    (cd "${work}" && "${bin}" > "${out_dir}/${name}.txt" 2> /dev/null)
done
