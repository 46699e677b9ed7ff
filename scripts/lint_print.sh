#!/bin/sh
# Fail when library code writes straight to stdout.
#
# Libraries report through returned values, Format formatters the
# caller supplies, or the Obs metrics registry — never by printing
# directly: a bare Printf.printf/print_endline in lib/ bypasses the
# CLI's --metrics/--trace rendering and corrupts machine-readable
# output (JSON lines, Prometheus text, CSV). bin/ and bench/ own
# stdout; lib/ does not.
set -eu

cd "$(dirname "$0")/.."
. scripts/scan.sh

# Word-boundary matches so Format.pp_print_string and
# Buffer.add_string don't trip the lint.
offenders=$(scan -E --include='*.ml' \
  '(^|[^._[:alnum:]])(Printf\.printf|print_endline|print_string|print_newline|print_char|print_int|print_float)([^_[:alnum:]]|$)' \
  lib/)

if [ -n "$offenders" ]; then
  echo "direct stdout writes in lib/ (return data or take a formatter):" >&2
  echo "$offenders" >&2
  exit 1
fi
echo "lint: no direct stdout writes in lib/"
