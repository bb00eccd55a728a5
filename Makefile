GO ?= go

.PHONY: build test race vet fmt fmt-check lint vuln series-check fuzz-check fuzz-smoke bench-build bench-e2e bench-pairs same-program bench-smoke bench-overhead endpoint-smoke examples-check recovery-check recovery-scaling reconcile-scaling ci

## build: compile every package
build:
	$(GO) build ./...

## test: the tier-1 gate — build plus the full test suite
test: build
	$(GO) test ./...

## race: full test suite under the race detector (exercises concurrent
## evaluations building indexes on shared extents, internal/datalog/index.go;
## internal/lsm's lock-free memtable
## readers and model schedules; and internal/core's seeded schedules —
## query == instance, and delta checkpoint == full / recovered == twin, each
## over its fixed default seed set), with shuffled test order so hidden
## inter-test state dependencies cannot hide
race:
	$(GO) test -race -shuffle=on ./...

## vet: static analysis
vet:
	$(GO) vet ./...

## fmt: rewrite all files with gofmt
fmt:
	gofmt -w .

## fmt-check: fail if any file needs gofmt (mirrors the CI step)
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## lint: staticcheck over every package (mirrors the CI lint job; locally
## requires staticcheck on PATH:
## go install honnef.co/go/tools/cmd/staticcheck@2024.1.1)
lint:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "lint: staticcheck not on PATH; install with:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@2024.1.1"; exit 1; }
	staticcheck ./...

## vuln: govulncheck over every package (mirrors the CI vuln job; locally
## requires govulncheck on PATH:
## go install golang.org/x/vuln/cmd/govulncheck@latest)
vuln:
	@command -v govulncheck >/dev/null 2>&1 || { \
		echo "vuln: govulncheck not on PATH; install with:"; \
		echo "  go install golang.org/x/vuln/cmd/govulncheck@latest"; exit 1; }
	govulncheck ./...

## series-check: every metric series the code registers is listed in
## DESIGN.md §12's inventory, and every series listed there is registered
series-check:
	./scripts/check_series_docs.sh

## fuzz-check: every native fuzz target in a _test.go file has its line in
## fuzz-smoke below, and every line there names a target that exists
fuzz-check:
	./scripts/check_fuzz_smoke.sh

## fuzz-smoke: each native fuzz target for FUZZTIME — tuple keys
## (internal/schema), the durable transaction codec, byte for byte
## (internal/updates), JSON wire transactions and binary
## store-server request frames (internal/p2p), DB snapshots and extent
## operations against a naive model (internal/datalog),
## engine snapshots (internal/exchange), the peer's engine blob
## (internal/core), the witness-set merge kernel against its set
## definition (internal/provenance), WAL batch payloads, whole SSTables
## and the MANIFEST (internal/lsm), the rule parser the REPL's query
## command feeds and the mapping parser (internal/parser), and the shape
## key a public Query records as it is built (the root package, ./.);
## `go test -fuzz` takes one target per run. -fuzzminimizetime 10x caps the minimizing of
## each new-coverage input at ten runs: the default (60 s) spends most of
## a short run minimizing engine blobs of several KB, each run a whole
## restore, and reports 0 execs/sec meanwhile. A failing input lands in the
## package's testdata/fuzz/.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseTupleKey$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/schema/
	$(GO) test -run '^$$' -fuzz '^FuzzReadTxn$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/updates/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTxn$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/p2p/
	$(GO) test -run '^$$' -fuzz '^FuzzServerRequest$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/p2p/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDB$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/datalog/
	$(GO) test -run '^$$' -fuzz '^FuzzRelOps$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/datalog/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadState$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/exchange/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEngineBlob$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzMergeWitness$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/provenance/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/lsm/
	$(GO) test -run '^$$' -fuzz '^FuzzOpenSSTable$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/lsm/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeManifest$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/lsm/
	$(GO) test -run '^$$' -fuzz '^FuzzParseRules$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/parser/
	$(GO) test -run '^$$' -fuzz '^FuzzParseMapping$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/parser/
	$(GO) test -run '^$$' -fuzz '^FuzzQueryShapeKey$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./.

## bench-build: vet and unit-test the repo benchmark (bench/ is its own Go
## module over the engine's internal packages, so `./...` never reaches it;
## this keeps it compiling against them)
bench-build:
	$(GO) vet -C bench .
	$(GO) test -C bench .

## bench-e2e: the repo benchmark (BENCHMARK.json) — each of its four
## workloads, timed run only, through the same entry point the merge gate
## uses. Every run verifies its own output and exits non-zero if anything
## differs, which fails the target. SECONDS=15 is the length the gate
## measures at; CI runs SECONDS=3 for correctness alone.
SEED ?= 1
SECONDS ?= 15
bench-e2e:
	@for w in exchange-insert durable-pipeline query-point conflict-churn; do \
		bash bench/run.sh --workload $$w --seed $(SEED) --seconds $(SECONDS) --trace 0 || exit 1; \
	done

## bench-pairs: the repo benchmark, parent against change — PAIRS
## alternating pairs of bench/run.sh per workload in WORKLOADS, with BASE
## checked out into a temporary git worktree as the parent side and this
## working tree as the change side. Prints every end-to-end metric's median
## [quartiles] per side and the change-better count, writes them to OUT,
## and prints each metric's verdict against its BENCHMARK.json bound and,
## for each CLAIM=workload:metric, the claim's verdict; ANCHOR=<commit>
## adds a third arm, the anchor, in a second worktree (the arms' order
## rotates from pair to pair), and the same verdicts against it;
## FROM="FILE..." prints the verdicts of summaries written before and runs
## nothing, and given several (make bench-pairs FROM="$(echo BENCH_*.json)")
## the trajectory of median ratios and wins across them and the anchored
## series (scripts/bench_pairs.sh). Not part of ci: ten 15 s pairs take
## minutes.
BASE ?= HEAD
PAIRS ?= 10
WORKLOADS ?= query-point
OUT ?= bench-pairs.json
bench-pairs:
	BASE='$(BASE)' ANCHOR='$(ANCHOR)' PAIRS='$(PAIRS)' WORKLOADS='$(WORKLOADS)' SEED='$(SEED)' \
		BENCH_SECONDS='$(SECONDS)' OUT='$(OUT)' CLAIM='$(CLAIM)' FROM='$(FROM)' \
		bash scripts/bench_pairs.sh

## same-program: the repo benchmark's results at BASE against this working
## tree — one traced 3 s run per workload per side, failing on any
## difference in the final-state digests, the failed count or the traced
## lsm.wal_bytes, exchange.state_bytes and core.checkpoint_bytes, and
## printing both sides' traced datalog.probes_per_op, candidates_per_emit,
## suppressed_frac and rounds_per_op for information, with no verdict
## (scripts/same_program.sh). Not part of ci: it builds and runs BASE too.
same-program:
	BASE='$(BASE)' bash scripts/same_program.sh

## bench-smoke: every go benchmark in every package executes exactly once —
## keeps the ones the gates below run (BenchmarkRecovery,
## BenchmarkReconcileHistory, BenchmarkOverhead*) and the two internal ones
## (internal/datalog, internal/provenance) compiling and running
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

## bench-overhead: the instrumentation-overhead gate — three evaluator
## workloads (bench_overhead_test.go) with the stats sink off vs on, timed
## in pairs; fails when the median on/off ratio over COUNT runs exceeds
## 1 + OVERHEAD_TOLERANCE percent (tunable: OVERHEAD_TOLERANCE=3
## BENCHTIME=200x COUNT=7; see DESIGN.md §12)
bench-overhead:
	./scripts/bench_overhead.sh

## endpoint-smoke: start a real orchestra node with -metrics-addr,
## publish through the REPL, and scrape /debug/orchestra (JSON),
## /debug/orchestra/metrics (Prometheus text), and /debug/pprof/
endpoint-smoke:
	./scripts/endpoint_smoke.sh

## recovery-check: the storage fault-injection gate, under the race
## detector — WAL randomized cut harnesses (torn tails, mid-log corruption)
## under the lsm tier and the durable archive, kill-and-restart peer
## recovery, checkpoint equivalence, and the public-API durable round trip
## (DESIGN.md §11)
recovery-check:
	$(GO) test -race \
		-run 'Crash|Recovery|Recover|Durable|Checkpoint|BatchAtomicityAcrossReopen|WAL' \
		./internal/lsm/ ./internal/p2p/ ./internal/core/ .
	@echo recovery gate OK

## recovery-scaling: the O(suffix) recovery gate — BenchmarkRecovery at a
## small and a large transaction history, asserting from-checkpoint beats
## full replay by at least 5x at the large one and that the gap widens as
## the history grows (DESIGN.md §13). Tunables: SMALL LARGE BENCHTIME
## COUNT MIN_SPEEDUP.
recovery-scaling:
	sh scripts/recovery_scaling.sh

## reconcile-scaling: the O(delta) in-memory round gate —
## BenchmarkReconcileHistory over a small and a large history of accepted
## transactions, asserting that the same sixteen-transaction round costs at
## most 1.5x as much on the large one (DESIGN.md §4.2; the count-based twin
## is TestReconcileWorkIndependentOfHistory). Tunables: SMALL LARGE
## BENCHTIME COUNT MAX_RATIO.
reconcile-scaling:
	sh scripts/reconcile_scaling.sh

## examples-check: build every example and golden-check quickstart's output
## and the SIGMOD'07 demo's (all but its line naming the store replicas'
## OS-assigned ports), so API drift that breaks user-facing examples, or a
## translation change that moves a demo scenario, fails the gate
examples-check:
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart | diff -u examples/quickstart/golden.txt -
	$(GO) run ./cmd/orchestra-demo | grep -v '^Update store replicas at ' | diff -u cmd/orchestra-demo/golden.txt -
	@echo examples OK

## ci: everything the CI workflow runs, in one command (lint and vuln are
## separate because they need tools on PATH; run `make lint vuln` too when
## you have them installed)
ci: build vet fmt-check series-check fuzz-check test race fuzz-smoke bench-build bench-smoke bench-overhead recovery-check recovery-scaling reconcile-scaling examples-check endpoint-smoke
