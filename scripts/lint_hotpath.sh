#!/bin/sh
# Fail when the chase and top-k hot paths allocate strings.
#
# Ground-step dedup keys and the IsCR inner loop used to render
# Printf.sprintf/String.concat keys per candidate step — megabytes
# of garbage on the instantiation path. Both files now key
# structurally (hashed variants, no string rendering); this lint
# keeps string building out of them. The same holds for the TopKCT
# frontier (deduplicated on buffer-position vectors) and TopKCTh's
# emitted-target set, and the ranked active-domain streams every
# top-k call opens (Active_domain), and entity resolution's pair loop
# (Er.Resolver), which keys blocks and forms structurally and decides
# pairs on prepared strings. Error-message construction belongs in
# Instance/Robust (cold paths), not here.
set -eu

cd "$(dirname "$0")/.."
. scripts/scan.sh

offenders=$(scan -E \
  '(^|[^._[:alnum:]])(Printf\.sprintf|String\.concat)([^_[:alnum:]]|$)' \
  lib/rules/ground.ml lib/rules/master_index.ml lib/core/is_cr.ml \
  lib/topk/topk_ct.ml lib/topk/topk_ct_h.ml \
  lib/topk/active_domain.ml lib/er/resolver.ml)

if [ -n "$offenders" ]; then
  echo "string allocation on a chase hot path (key structurally instead):" >&2
  echo "$offenders" >&2
  exit 1
fi

# Since the interning layer (Relational.Intern), the grounding and
# chase hot paths work on dense interned ids: dedup keys, the master
# index and the te slot state are flat ints. Structural Value.t
# hashing there (Value.hash per probe, polymorphic Hashtbl.hash, or a
# Value-keyed table) reintroduces the wall this removed — and a
# polymorphic hash on Value.t is also WRONG, because it splits the
# Int/Float spellings that Value.compare unifies. Intern at the
# boundary, probe by id inside. The session's update path
# (Framework.Session) holds no interned ids — its master and rule
# updates compare values with Value.equal and ask the master index
# which rows hold a value — but a tuple update must still not hash
# values: a structural hash there would drag every single-tuple
# update through Value.t traversals.
interning=$(scan -E \
  '(^|[^._[:alnum:]])(Hashtbl\.hash|Value\.hash|Hashtbl\.Make \(Value\))' \
  lib/rules/ground.ml lib/rules/master_index.ml lib/core/is_cr.ml \
  lib/core/instance.ml lib/framework/session.ml \
  lib/topk/topk_ct.ml lib/topk/topk_ct_h.ml)

if [ -n "$interning" ]; then
  echo "structural Value.t hashing on an interned hot path (use interned ids):" >&2
  echo "$interning" >&2
  exit 1
fi
# The chase's watch tables key by Ground's packed predicate words
# (Itbl) and index by attribute (arrays): an Edge or Te_set event
# rebuilds its key from machine ints. A polymorphic Hashtbl probe on a
# tuple key there costs a structural hash and compare per lookup, and
# a seed-1 paper-scale clean raises over two million such events.
polykey=$(scan -E \
  '(^|[^._[:alnum:]])Hashtbl\.(find|find_opt|replace|add|mem)([^_[:alnum:]]|$)' \
  lib/core/is_cr.ml)

if [ -n "$polykey" ]; then
  echo "polymorphic Hashtbl probe in the chase (key by packed words in an Itbl):" >&2
  echo "$polykey" >&2
  exit 1
fi
# The top-k engines read ranked active domains through
# Active_domain.stream, which pays O(|Ie|) plus the values pulled.
# Active_domain.values and .ranked are eager — O(|domain|) per call,
# and a domain holds whole master columns — so an engine, the shared
# engine prologue (Topk_ct.engine) or Topk.solve calling them brings
# back a per-entity O(|Im|) term.
eager=$(scan -E 'Active_domain\.(values|ranked)([^_[:alnum:]]|$)' \
  lib/topk/topk.ml lib/topk/topk_ct.ml lib/topk/topk_ct_h.ml \
  lib/topk/rank_join_ct.ml)

if [ -n "$eager" ]; then
  echo "eager active-domain build in a top-k engine (pull from Active_domain.stream):" >&2
  echo "$eager" >&2
  exit 1
fi
# Cleaning compiles each entity with Core.Is_cr.compile, not through
# Framework.Compile_cache. The cache is keyed by the specification's
# identity, and the cleaner builds each entity's specification afresh
# and drops it after the entity, so a lookup there can never hit: it
# would only add a locked insertion and a dead ephemeron binding per
# entity for the GC to sweep.
cached=$(scan -E 'Compile_cache' \
  lib/framework/cleaner.ml lib/framework/session.ml)

if [ -n "$cached" ]; then
  echo "Compile_cache on the per-entity cleaning path (call Core.Is_cr.compile):" >&2
  echo "$cached" >&2
  exit 1
fi
# The per-entity vote is string-free: the cleaner counts target cells
# that differ from each column's majority class, read off the
# specification's value numbering, and Voting.resolve counts a
# column's Value.equal classes. Rendering a value, or keying a table
# by its rendering, put Cleaner.count_changes at 17% of a seed-1
# paper-scale clean. The active domains every top-k call opens, the
# preference tables and copyCEF's and TruthFinder's vote buckets key
# by Value.equal too (Value.Tbl): a rendered key there allocated a
# string per value and had to be kept in step with Value.equal by
# hand. Format calls that print to a formatter (the report printer)
# stay; those that build a string do not.
rendered=$(scan -E \
  '(^|[^._[:alnum:]])(Value\.to_string|value_key|Format\.(asprintf|sprintf|kasprintf))([^_[:alnum:]]|$)' \
  lib/framework/cleaner.ml lib/truth/voting.ml lib/truth/copy_cef.ml \
  lib/truth/truth_finder.ml lib/topk/preference.ml lib/topk/active_domain.ml)

if [ -n "$rendered" ]; then
  echo "value rendering on the vote or a value-keyed table (compare classes, not strings):" >&2
  echo "$rendered" >&2
  exit 1
fi
# A session tuple update finds its row through an order-statistic
# index and its entities through its rows' records, so its bookkeeping
# costs O(log N) on top of the entities it re-cleans. Positional list
# access or an append rebuilds an O(N) list per update: on a Med size
# series they held a tuple update's median at 0.58 / 2.55 / 5.13 ms
# for 1k / 4k / 8k entities.
positional=$(scan -E '(List\.nth|[[:space:]]@[[:space:]]\[)' lib/framework/session.ml)

if [ -n "$positional" ]; then
  echo "positional list access or append on the session update path (use the row index and the row records):" >&2
  echo "$positional" >&2
  exit 1
fi
# The session decides which entities a master or rule update can
# affect on values: an entity's own cells by Value.equal, the master's
# copyable values through Master_index.rows. How values are identified
# stays inside grounding, the master index and the specification; an
# interned view kept by the session (a per-update generation over the
# master, each entity's values interned and sorted) put most of a
# 1k-entity master fix's time outside its re-cleans.
session_ids=$(scan -E 'Intern\.' lib/framework/session.ml)

if [ -n "$session_ids" ]; then
  echo "interned ids in the session (decide affectedness on values):" >&2
  echo "$session_ids" >&2
  exit 1
fi
# Interning hashes a value once and probes flat open-addressing tables
# of ids (each generation's, then its frozen parents') with that hash.
# A hash table there hashes again per generation and allocates a bucket
# per insert, and a Not_found miss costs an exception per lookup: about
# 28% of grounding a small entity went to interning its ~55 value
# classes that way.
tables=$(scan -E '(Hashtbl|Value\.Tbl|Not_found)' lib/relational/intern.ml)

if [ -n "$tables" ]; then
  echo "hash table or Not_found in the interner (probe its flat tables with one hash):" >&2
  echo "$tables" >&2
  exit 1
fi
# The cleaner and the pipeline chase through Is_cr.start, budget or
# not, and hand the drained state to top-k. A one-shot run there
# (Is_cr.run, run_compiled, or a budgeted twin of them) leaves top-k
# to chase the same base fixpoint again: under a step limit that
# second chase ran outside the meter and fired 5,526 steps where an
# unlimited clean of a 30-entity Med corpus fired 4,115.
oneshot=$(scan -E 'Is_cr\.run(_compiled|_budgeted)?([^_[:alnum:]]|$)' \
  lib/framework/cleaner.ml lib/framework/pipeline.ml)

if [ -n "$oneshot" ]; then
  echo "one-shot chase on the cleaning path (drain a state with Is_cr.start and resume it):" >&2
  echo "$oneshot" >&2
  exit 1
fi
echo "lint: no string building, structural value hashing, polymorphic chase keys, eager active domains, per-entity compile caching, rendered votes, per-update list scans, session intern ids, interner hash tables or one-shot cleaning chases on the chase, top-k, ER, cleaning, session and interning hot paths"
