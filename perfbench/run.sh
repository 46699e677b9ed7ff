#!/usr/bin/env bash
# Build the benchmark and the service binary from this checkout's
# sources, then run one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the result.
set -u
cd "$(dirname "$0")/.." || exit 2
# The build stays inside the checkout: no shared dune cache.
if ! dune build --root . --cache=disabled ./perfbench/main.exe ./bin/relacc_serve.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 3
fi
exec ./_build/default/perfbench/main.exe "$@"
