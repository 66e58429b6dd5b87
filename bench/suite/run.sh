#!/usr/bin/env bash
# Builds the benchmark suite from source in this checkout, then runs it
# with the given arguments, e.g.
#
#   bash bench/suite/run.sh --workload tpcc --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the suite's result stays the last line
# of stdout.  Temporary files and dune's build stay inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/../.."
mkdir -p .bench_tmp
export TMPDIR="$PWD/.bench_tmp" DUNE_CACHE=disabled
dune build --root . bench/suite/suite.exe >&2
exec ./_build/default/bench/suite/suite.exe "$@"
