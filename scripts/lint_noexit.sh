#!/bin/sh
# Fail when the long-lived service layer can terminate the process.
#
# lib/service must never exit or abort: every failure path has to
# end in a typed response (or a quarantined Robust.Error), because a
# resilient server that calls `exit` — or trips an `assert false` —
# takes every in-flight request down with it. Process termination is
# the binaries' (bin/) privilege, not the library's.
set -eu

cd "$(dirname "$0")/.."
. scripts/scan.sh

offenders=$(scan --include='*.ml' --include='*.mli' \
  -e 'Stdlib\.exit' -e '\bexit [0-9]' -e 'Unix\._exit' -e 'assert false' \
  lib/service/)

if [ -n "$offenders" ]; then
  echo "process-terminating construct in lib/service (reply with a typed error instead):" >&2
  echo "$offenders" >&2
  exit 1
fi
echo "lint: lib/service cannot terminate the process"
