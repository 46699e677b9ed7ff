#!/bin/sh
# Fail on module-level mutable state that is not domain-safe in the
# libraries shared across worker domains.
#
# lib/obs is mutated concurrently by every domain of a Parallel.Pool
# batch, and lib/parallel is the pool itself. Their discipline (see
# DESIGN.md §9 and the header of lib/obs/obs.ml): every module-level
# mutable cell must be an Atomic.t, a Mutex-guarded structure, or
# per-domain state behind Domain.DLS. A plain top-level `ref` or a
# `mutable` record field is a data race waiting for a second domain,
# and OCaml gives no warning — so this lint rejects them outright.
# Function-local refs are fine (confined to one domain's stack);
# only top-level `let`s (column 0) are checked for them.
set -eu

cd "$(dirname "$0")/.."
. scripts/scan.sh

offenders=$(scan -E --include='*.ml' \
  '^let( rec)? [^=]*= *ref\b' \
  lib/obs/ lib/parallel/)

mutables=$(scan -E --include='*.ml' \
  '^[[:space:]]*mutable ' \
  lib/obs/ lib/parallel/)

if [ -n "$offenders$mutables" ]; then
  echo "non-atomic module-level mutable state in domain-shared libraries" >&2
  echo "(use Atomic.t, a Mutex-guarded structure, or Domain.DLS):" >&2
  [ -n "$offenders" ] && echo "$offenders" >&2
  [ -n "$mutables" ] && echo "$mutables" >&2
  exit 1
fi
echo "lint: no unguarded module-level mutable state in lib/obs, lib/parallel"
