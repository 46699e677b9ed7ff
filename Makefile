.PHONY: all build test check robust lint bench bench-smoke soak-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# Just the robustness suite: typed errors, budgets, fault injection.
robust:
	dune build @robust

lint:
	sh scripts/lint_failwith.sh
	sh scripts/lint_print.sh
	sh scripts/lint_domainsafe.sh
	sh scripts/lint_hotpath.sh
	sh scripts/lint_noexit.sh
	sh scripts/lint_oracle.sh

# Machine-readable perf baselines at the repo root: BENCH_chase.json,
# BENCH_ground.json, BENCH_topk.json (top-k and the frontier queues),
# BENCH_truth.json (the truth-discovery baselines), BENCH_clean.json
# (batch cleaning at 1/2/4 worker domains), BENCH_er.json (ER
# clustering at 1k-8k entities), BENCH_load.json (CSV and rule loading
# of the 2.7k-entity Med corpus), BENCH_update.json (session updates at
# 1k-8k entities) and BENCH_serve.json (service SLO under mixed
# traffic): kernel wall times, allocation and Obs work counters, each
# file headed by the host's domain count and the commit.
bench:
	dune exec bench/main.exe

# The bench suite into a throwaway directory: proves every kernel
# still runs end to end (CI) without touching the committed baselines.
# The update suite's size series shrinks from 1k-8k entities (the
# committed baseline's default of 8000) to 125-1000, so that its
# update-tuple-1000 row, 400 updates, runs at full size; its
# update-mixed row runs at 1,000 entities in both. The chase, top-k,
# truth, clean, er, load and serve suites run at full size, and so does
# the ground suite except its master10k row (RELACC_GROUND_IM shrinks
# its master), so bench/diff then requires the work counters of every
# full-size row (touched and recleaned, for update-tuple-1000 and
# update-mixed) to equal the committed baselines exactly.
bench-smoke:
	mkdir -p _build/bench-smoke && \
	RELACC_UPDATE_ENTITIES=1000 RELACC_GROUND_IM=500 \
	dune exec bench/main.exe -- _build/bench-smoke
	dune exec bench/diff.exe -- . _build/bench-smoke

# Chaos soak of the long-lived service: ~10 s of mixed traffic at
# ~10% injected faults, then SIGKILL + warm restart with a probe
# byte-identity check. SOAK_DURATION_S overrides the soak length.
soak-smoke:
	sh scripts/soak_smoke.sh

# Full build, full test suite and style lints in one target. CI runs
# the same checks as separate Build, Test and Lints steps, then a Bench
# smoke step (make bench-smoke).
check:
	dune build
	dune runtest
	$(MAKE) --no-print-directory lint

clean:
	dune clean
