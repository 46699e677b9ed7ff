#!/bin/sh
# Fail when the library reaches for a test oracle.
#
# The engine has one grounding, Ground.instantiate. The references it
# is tested against — the literal grounding of Σ, the naive §2.2
# chase over it and the exhaustive candidate-target enumeration — live
# in the private test library test/oracle (DESIGN.md §31), so that
# they share no code with what they check. This lint keeps lib/ from
# naming them again: the modules Chase, Candidate_oracle and
# Literal_ground, the library Oracle (in code or a dune file), and the
# deleted eager grounding instantiate_eager. Pipeline's task
# constructor [Chase] is not a module reference and stays allowed.
set -eu

cd "$(dirname "$0")/.."
. scripts/scan.sh

offenders=$(scan -E --include='*.ml' --include='*.mli' \
  -e 'instantiate_eager|Candidate_oracle|Literal_ground' \
  -e '(^|[^[:alnum:]_.])(Oracle|Chase)\.[[:alpha:]_]' \
  -e 'Core\.Chase([^[:alnum:]_]|$)' \
  -e '\{!(Core\.)?Chase[}.]' \
  -e 'module +Chase([^[:alnum:]_]|$)' \
  lib/)

deps=$(scan -wE --include=dune 'oracle' lib/)

if [ -n "$offenders$deps" ]; then
  echo "lib/ names a test oracle (they live in test/oracle, outside the library):" >&2
  [ -n "$offenders" ] && echo "$offenders" >&2
  [ -n "$deps" ] && echo "$deps" >&2
  exit 1
fi
echo "lint: lib/ names no test oracle"
