# Shared by the scripts/lint_*.sh checks, which source it from the
# repository root.
#
# scan GREP-ARGUMENT...: runs grep -rn with the arguments and prints
# the matches. grep exits 1 on "no match", which scan turns into
# success; it exits 2 when it cannot read a listed path, and then scan
# fails too, so a renamed or deleted path is reported instead of
# passing as "no match". In a lint, `x=$(scan ...)` under `set -e`
# ends the lint with that failure.
scan() {
  rc=0
  grep -rn "$@" || rc=$?
  if [ "$rc" -gt 1 ]; then
    echo "$(basename "$0"): cannot scan a listed path (missing?): $*" >&2
    return 2
  fi
}
