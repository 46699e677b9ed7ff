#!/bin/sh
# Fail when library code raises stringly-typed errors.
#
# The robustness layer (lib/robust) owns error construction: engine
# and framework code must surface failures as Robust.Error values
# (or, for programmer errors, Invalid_argument), never as
# `failwith` — a Failure carries no class, no context, and maps to
# no exit code. lib/robust itself is exempt (Error.of_exn must
# mention Failure to translate foreign exceptions).
set -eu

cd "$(dirname "$0")/.."
. scripts/scan.sh

offenders=$(scan --include='*.ml' --include='*.mli' --exclude-dir=robust \
  'failwith' lib/)

if [ -n "$offenders" ]; then
  echo "stray failwith in lib/ (use Robust.Error instead):" >&2
  echo "$offenders" >&2
  exit 1
fi
echo "lint: no stray failwith in lib/"
