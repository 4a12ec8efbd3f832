#!/usr/bin/env bash
# Build the FlexNet benchmark from source, then run it. Run from the
# repository root; arguments go to the benchmark, e.g.
#   bash perfbench/run.sh --workload fabric --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
