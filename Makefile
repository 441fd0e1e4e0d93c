# Tier-1 CI gate for the secmon reproduction. `make ci` is the check every
# change must keep green: lint (staticcheck when available, go vet
# otherwise), build, the full test suite under the race detector (the
# parallel branch-and-bound equivalence tests depend on it), a fuzz smoke,
# a serve smoke (start the HTTP API, exercise it, SIGTERM, clean drain),
# a single-shot E3 benchmark smoke to catch gross solver regressions, and a
# build-and-short-test smoke of the perfbench/ benchmark module.

GO ?= go
BENCH ?= BENCH_PR9.json
LOADBENCH ?= BENCH_PR7.json
STATEBENCH ?= BENCH_PR8.json
CAMPBENCH ?= BENCH_PR10.json
FUZZTIME ?= 5s
SERVE_ADDR ?= 127.0.0.1:8643
STRESS_N ?= 1000

.PHONY: ci lint vet build test race race-solver kernel-equivalence decomp-equivalence certify stress stress-smoke bench-smoke fuzz-smoke serve-smoke sweep-equivalence load-smoke loadbench golden-update bench delta-equivalence state-smoke statebench campaign-smoke campaignbench bench-compare bench-compare-advisory perfbench-smoke search-equivalence

ci: lint build race search-equivalence kernel-equivalence decomp-equivalence sweep-equivalence delta-equivalence certify stress-smoke bench-smoke perfbench-smoke fuzz-smoke serve-smoke load-smoke state-smoke campaign-smoke bench-compare-advisory

# staticcheck is preferred when it is on PATH; plain go vet is the fallback
# so CI works on minimal toolchain images.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; falling back to go vet"; \
		$(GO) vet ./...; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 20m ./...

# Focused race lane over the concurrency-heavy packages: the parallel
# branch-and-bound, the sparse/dense LP kernels it shares workspaces with,
# the orchestration layer that cancels it, and the HTTP server that runs
# solves concurrently.
race-solver:
	$(GO) test -race -timeout 20m ./internal/lp ./internal/ilp ./internal/core ./internal/server \
		./internal/certify ./internal/certify/stress

# Certificate lanes: the exact verifier's unit and corruption tests, the
# solver-side emission tests, the edge-case and golden-instance coverage,
# and a >= 90% statement-coverage gate on the trusted verifier package.
certify:
	$(GO) test ./internal/certify ./internal/certify/stress -count=1
	$(GO) test ./internal/ilp -run TestCertificate -count=1
	$(GO) test ./internal/core -run 'TestEdgeCases' -count=1
	$(GO) test ./internal/experiment -run TestGoldenInstancesCertify -count=1
	@cov=$$($(GO) test -cover ./internal/certify -count=1 | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
	echo "internal/certify coverage: $$cov%"; \
	awk -v c="$$cov" 'BEGIN{exit !(c >= 90)}' || { echo "coverage gate failed: $$cov% < 90%"; exit 1; }

# Full metamorphic stress sweep: STRESS_N seeded instances per family
# (default 1000) through certificate verification, enumeration cross-checks
# and the metamorphic relations. stress-smoke is the bounded lane `make ci`
# runs.
stress:
	$(GO) test ./internal/certify/stress -run 'TestStressFamilies|TestMetamorphicMatrix' \
		-count=1 -stress.n=$(STRESS_N)

stress-smoke:
	$(GO) test ./internal/certify/stress -run 'TestStressFamilies|TestMetamorphicMatrix' \
		-count=1 -stress.n=100

# Branch-and-bound search lane: the ilp package and the core parallel and
# feature equivalence suites at GOMAXPROCS 1 and 2 (-cpu 1,2). Solves that
# use the default worker count then run both the inline one-worker search
# and the multi-worker goroutine path, whatever the host's CPU count.
search-equivalence:
	$(GO) test ./internal/ilp -cpu 1,2 -count=1
	$(GO) test ./internal/core -run 'TestParallelEquiv|TestFeatureEquiv' -cpu 1,2 -count=1

# Sparse-vs-dense kernel cross-check: every solver feature mode under both
# simplex kernels and worker counts {1,4}, the counter plumbing, the LU
# kernel's pinned pivot counts, plus the kernel-alternating-workspace
# regression tests, the auto dispatch's start-shape and no-flip checks,
# the dual steepest-edge weight checks and the bit-identity guards of the
# ratio test and the hyper-sparse solves in internal/lp.
kernel-equivalence:
	$(GO) test ./internal/core -run 'TestKernelEquivalence|TestKernelCounters|TestLUKernelCountersPinned' -count=1
	$(GO) test ./internal/lp -run 'TestSparse|TestWorkspaceKernelAlternation|TestAutoKernel|TestDSE|TestBFRT|TestLUHyperSparse|TestOrderClosure' -count=1

# Warm-shared sweep equivalence lane: ParetoSweepWarm must report bit-equal
# curves (objective, status, monitor sets) to the cold sweep across solver
# modes x kernels x workers {1,4}, the saturated-point skip must actually
# fire, and the server's per-point sweep cache must reassemble responses
# identical to a fresh solve.
sweep-equivalence:
	$(GO) test ./internal/core -run 'TestSweepWarm' -count=1
	$(GO) test ./internal/server -run 'TestSweepPartialPointCache' -count=1

# Event-sourced tenant equivalence lane: seeded random delta sequences
# (length 1-50, all 8 delta types) across solver modes x kernels x worker
# counts, where every incremental re-solve must match a from-scratch solve
# of the same instance; plus the crash-recovery (torn-tail) replay tests and
# the metamorphic inverse-pair relations.
delta-equivalence:
	$(GO) test ./internal/state -run 'TestDeltaEquivalence|TestCrashRecovery|TestMetamorphic' -count=1

# Serving-layer load smoke: a small seeded identical-burst run through
# tools/loadgen that must coalesce concurrent identical requests (nonzero
# coalesce rate) and finish with zero errors.
load-smoke:
	$(GO) run ./tools/loadgen -scenario identical-sweep -requests 24 \
		-min-coalesce 0.2 -max-errors 0 -out load-smoke.json
	@rm -f load-smoke.json

# Serving-throughput benchmark: each scenario runs against the full serving
# configuration and against a baseline configured like the pre-serving-layer
# server (no coalescing, no warm-shared sweeps, no per-point cache,
# unbounded FIFO queue). benchjson embeds the four rows into $(LOADBENCH)
# and enforces the goodput floors — identical-burst >= 5x and mixed traffic
# >= 2x at equal-or-better p99.
loadbench:
	$(GO) run ./tools/loadgen -scenario identical-sweep -out load-ident-serving.json
	$(GO) run ./tools/loadgen -scenario identical-sweep -baseline -out load-ident-baseline.json
	$(GO) run ./tools/loadgen -scenario mixed -out load-mixed-serving.json
	$(GO) run ./tools/loadgen -scenario mixed -baseline -out load-mixed-baseline.json
	$(GO) run ./tools/benchjson \
		-comment "$(LOADBENCH) serving-layer load benchmark (tools/loadgen, seeded open-loop). identical-sweep is a 64-request burst of one canonical sweep; mixed is 200 requests of 50% canonical sweeps, 30% overlapping-grid sweeps and 20% fresh-budget optimizes across three tenants. */serving rows run the full serving path (coalescing, warm-shared sweeps, per-point cache, fair admission); */baseline rows run the same workload against a pre-serving-layer configuration. Wall-clock numbers are machine-dependent; the recorded goodput ratios are the result." \
		-throughput load-ident-serving.json,load-ident-baseline.json,load-mixed-serving.json,load-mixed-baseline.json \
		-goodput 'identical-sweep/serving=identical-sweep/baseline:5,mixed/serving=mixed/baseline:2' \
		-out $(LOADBENCH)
	rm -f load-ident-serving.json load-ident-baseline.json load-mixed-serving.json load-mixed-baseline.json
	@echo "wrote $(LOADBENCH)"

# Decomposition-equivalence lane: the decomposed MaxUtility/MinCost solvers
# against the monolithic optimizer on block-structured systems, plus the
# core-level equivalence sweep (modes x workers {1,4}) and gating tests.
decomp-equivalence:
	$(GO) test ./internal/decomp -run 'TestMaxUtilityMatchesMonolithic|TestMinCostMatchesMonolithic' -count=1
	$(GO) test ./internal/core -run 'TestDecomposition' -count=1

bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkE3' -benchtime=1x .

# The end-to-end benchmark (perfbench/) is its own module, so `go build
# ./...` never reaches it: build it and run its short tests, so a change to
# the core API cannot break the benchmark unnoticed.
perfbench-smoke:
	cd perfbench && $(GO) test -short .

# Short fuzz pass cross-checking branch-and-bound against exhaustive
# enumeration (both kernels) and the sparse LP kernel against the dense
# oracle; the committed corpora under */testdata/fuzz always replay,
# FUZZTIME adds fresh random inputs on top.
fuzz-smoke:
	$(GO) test ./internal/ilp -run FuzzSolveMatchesEnumeration \
		-fuzz FuzzSolveMatchesEnumeration -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lp -run FuzzSparseMatchesDense \
		-fuzz FuzzSparseMatchesDense -fuzztime $(FUZZTIME)
	$(GO) test ./internal/certify/stress -run FuzzCertifiedSolve \
		-fuzz FuzzCertifiedSolve -fuzztime $(FUZZTIME)
	$(GO) test ./internal/decomp -run FuzzDecompMatchesMonolithic \
		-fuzz FuzzDecompMatchesMonolithic -fuzztime $(FUZZTIME)
	$(GO) test ./internal/state -run FuzzMutationLog \
		-fuzz FuzzMutationLog -fuzztime $(FUZZTIME)
	$(GO) test ./internal/state -run FuzzIncrementalMatchesScratch \
		-fuzz FuzzIncrementalMatchesScratch -fuzztime $(FUZZTIME)
	$(GO) test ./internal/campaign -run FuzzCampaignReplay \
		-fuzz FuzzCampaignReplay -fuzztime $(FUZZTIME)

# End-to-end serve smoke: build secmon, start `secmon serve`, POST an
# optimize request with a deadline, then SIGTERM and require a clean drain
# (exit 0 and the "drained" farewell on stdout).
serve-smoke:
	@rm -f serve-smoke.log
	$(GO) build -o secmon-smoke ./cmd/secmon
	@./secmon-smoke serve -addr $(SERVE_ADDR) > serve-smoke.log 2>&1 & \
	pid=$$!; \
	ok=0; \
	for i in $$(seq 1 50); do \
		if wget -q -O /dev/null http://$(SERVE_ADDR)/v1/healthz 2>/dev/null; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	if [ $$ok -ne 1 ]; then echo "serve-smoke: server never became healthy"; kill $$pid; cat serve-smoke.log; exit 1; fi; \
	body='{"budgetFraction":0.5,"deadlineMillis":2000}'; \
	if ! wget -q -O /dev/null --header 'Content-Type: application/json' \
		--post-data "$$body" http://$(SERVE_ADDR)/v1/optimize; then \
		echo "serve-smoke: optimize request failed"; kill $$pid; cat serve-smoke.log; exit 1; \
	fi; \
	kill -TERM $$pid; \
	wait $$pid; status=$$?; \
	if [ $$status -ne 0 ]; then echo "serve-smoke: exit status $$status"; cat serve-smoke.log; exit 1; fi; \
	if ! grep -q "drained" serve-smoke.log; then echo "serve-smoke: no drain message"; cat serve-smoke.log; exit 1; fi; \
	echo "serve-smoke: ok"
	@rm -f secmon-smoke serve-smoke.log

# End-to-end event-log smoke: create a tenant and mutate it (each CLI
# invocation is a separate process, so every step replays the log), simulate
# a crash by appending a torn half-record to the log, require replay to
# discard exactly that tail, and prove the tenant still solves afterwards.
state-smoke:
	$(GO) build -o secmon-smoke ./cmd/secmon
	@rm -rf state-smoke.dir state-smoke.log; \
	set -e; \
	./secmon-smoke mutate -state-dir state-smoke.dir -tenant smoke -create \
		-budget-fraction 0.35 > state-smoke.log; \
	./secmon-smoke mutate -state-dir state-smoke.dir -tenant smoke \
		-delta '{"op":"update-budget","budget":900}' >> state-smoke.log; \
	printf '37 deadbeef {"v":1,"torn' >> state-smoke.dir/smoke.log; \
	./secmon-smoke replay -state-dir state-smoke.dir >> state-smoke.log; \
	grep -q "(1 torn tails discarded)" state-smoke.log || \
		{ echo "state-smoke: torn tail not recovered"; cat state-smoke.log; exit 1; }; \
	./secmon-smoke mutate -state-dir state-smoke.dir -tenant smoke \
		-delta '{"op":"update-budget","budget":1200}' >> state-smoke.log; \
	grep -q "version 3" state-smoke.log || \
		{ echo "state-smoke: post-recovery mutate failed"; cat state-smoke.log; exit 1; }; \
	echo "state-smoke: ok"
	@rm -rf secmon-smoke state-smoke.dir state-smoke.log

# Regenerate the E1-E8 golden artifacts and the campaign-replay goldens
# after an intentional output change.
golden-update:
	$(GO) test ./internal/experiment -run TestGoldenArtifacts -update -count=1
	$(GO) test ./internal/campaign -run TestGoldenCampaigns -update -count=1

# Campaign-replay smoke: the seeded golden scenarios plus an end-to-end CLI
# determinism check — the same seeded replay with -check must emit
# byte-identical JSON (and report convergence) at workers 1 and 4.
campaign-smoke:
	$(GO) test ./internal/campaign -run 'TestGoldenCampaigns|TestReplayDeterminism|TestWorkerInvariance|TestMonotoneDetection' -count=1
	$(GO) build -o secmon-smoke ./cmd/secmon
	@set -e; \
	./secmon-smoke simulate-campaign -all -seed 7 -trials 500 -warmup 50 \
		-benign-rate 15 -check -json -workers 1 > campaign-w1.json; \
	./secmon-smoke simulate-campaign -all -seed 7 -trials 500 -warmup 50 \
		-benign-rate 15 -check -json -workers 4 > campaign-w4.json; \
	cmp campaign-w1.json campaign-w4.json || \
		{ echo "campaign-smoke: workers 1 vs 4 output differs"; exit 1; }; \
	grep -q '"converged": true' campaign-w1.json || \
		{ echo "campaign-smoke: replay did not converge to the analytic metrics"; exit 1; }; \
	echo "campaign-smoke: ok"
	@rm -f secmon-smoke campaign-w1.json campaign-w4.json

# Campaign engine throughput benchmark: BenchmarkCampaignThroughput replays
# 20k case-study campaigns with a benign background at workers {1,4},
# median of 5 repetitions; tools/benchjson records the custom events/s and
# trials/s metrics under "extra". Output: `make campaignbench
# CAMPBENCH=BENCH_PR10.json`.
campaignbench:
	$(GO) test -run xxx -bench '^BenchmarkCampaignThroughput$$' \
		-benchtime=1x -count=5 -benchmem . | tee bench-campaign.txt
	$(GO) run ./tools/benchjson \
		-comment "$(CAMPBENCH) campaign simulation engine benchmarks (BenchmarkCampaignThroughput, 20k case-study campaigns per op with benign background at 20 events/unit-time, manifest 0.9 / capture 0.8 / lateral 0.1, median of 5). The extra map records simulated events/s (attack + benign) and campaigns/s; w1 vs w4 shows the parallel-worker scaling of the event loop. Wall-clock numbers are machine-dependent." \
		-out $(CAMPBENCH) bench-campaign.txt=1x
	rm -f bench-campaign.txt
	@echo "wrote $(CAMPBENCH)"

# Full benchmark sweep matching BENCH_BASELINE.json: single-shot E3/E6
# runs, BenchmarkE7Scalability, BenchmarkE7Certify (certification overhead
# vs the m=400/a=100 baseline) and BenchmarkE7Kernels (LU vs eta basis
# kernel on the same instance) at -count=5 (benchjson reports the median
# and the sample count), the E9 decomposition scale family plus
# BenchmarkE9Kernels at -count=5 (every row is a PROVEN-optimal solve; the
# benchmark itself fails on an unproven return), and a stable 200x simplex
# run, converted to the repository's benchmark JSON schema by
# tools/benchjson. All lanes record allocs/bytes per op (-benchmem). The
# -speedup flag asserts the recorded E9 workers=8 row is at least 3x
# faster than workers=1, skipped automatically on single-CPU environments.
# The -ratio flag asserts the LU kernel beats the eta kernel on the E7
# 400-row bases; no floor is asserted on E9Kernels because the integral
# coverage rounding collapsed the E9 subproblems to tiny bases where the
# kernels are at parity (the rows are still recorded as a canary). Records
# marked single_shot: true carry one wall-clock sample and are noisy.
# Output file is parametrized: `make bench BENCH=BENCH_PR6.json`.
bench:
	$(GO) test -run xxx -bench '^BenchmarkE3OptimalDeployment$$|^BenchmarkE6MinCost$$' \
		-benchtime=1x -benchmem . | tee bench-1x.txt
	$(GO) test -run xxx -bench '^BenchmarkE7Scalability$$|^BenchmarkE7Certify$$|^BenchmarkE7Kernels$$' \
		-benchtime=1x -count=5 -benchmem . | tee bench-e7.txt
	$(GO) test -run xxx -bench '^BenchmarkE9Scale$$|^BenchmarkE9Kernels$$' \
		-benchtime=1x -count=5 -benchmem -timeout 3600s . | tee bench-e9.txt
	$(GO) test -run xxx -bench '^BenchmarkSimplexSolve$$' -benchtime=200x -benchmem . | tee bench-200x.txt
	$(GO) run ./tools/benchjson \
		-comment "$(BENCH) benchmarks. E3/E6 numbers are single-shot (-benchtime=1x) and noisy; E7 and E9 entries are the median of 5 repetitions; every E9Scale/E9Kernels row is a proven-optimal decomposition solve; BenchmarkSimplexSolve is a stable -benchtime=200x run. Compare against BENCH_BASELINE.json or diff two files with 'make bench-compare'." \
		-speedup 'BenchmarkE9Scale/mincost/5000x1000/w1=BenchmarkE9Scale/mincost/5000x1000/w8:3' \
		-ratio 'BenchmarkE7Kernels/eta=BenchmarkE7Kernels/lu:1.15' \
		-out $(BENCH) bench-1x.txt=1x bench-e7.txt=1x bench-e9.txt=1x bench-200x.txt=200x
	rm -f bench-1x.txt bench-e7.txt bench-e9.txt bench-200x.txt
	@echo "wrote $(BENCH)"

# Cross-file benchmark regression diff: compare two recorded BENCH json
# files row by row and fail when any shared row's median ns/op regressed
# by more than MAX_REGRESS percent. Parametrized:
#   make bench-compare OLD_BENCH=BENCH_PR6.json NEW_BENCH=BENCH_PR9.json
# The ci hook runs it advisory (never fails the gate): recorded baselines
# come from different machines and runs, so cross-file deltas are context,
# not a pass/fail signal.
OLD_BENCH ?= BENCH_PR6.json
NEW_BENCH ?= $(BENCH)
MAX_REGRESS ?= 25

bench-compare:
	$(GO) run ./tools/benchjson -compare $(OLD_BENCH) -max-regress $(MAX_REGRESS) $(NEW_BENCH)

bench-compare-advisory:
	-$(GO) run ./tools/benchjson -compare $(OLD_BENCH) -max-regress $(MAX_REGRESS) $(NEW_BENCH)

# Incremental re-optimization benchmark: BenchmarkE10Incremental on an
# E7-sized (400x100) tenant, median of 5 repetitions. The recorded -ratio
# floors are algorithmic, not parallel, so they hold on single-CPU hosts
# too: a single-mutation incremental re-solve must be at least 5x faster
# than the from-scratch solve of the same mutated instance, and a
# 20-mutation stream at least 2x. The zero-node sensitivity-shortcut case
# is asserted inside the benchmark itself, every iteration.
statebench:
	$(GO) test -run xxx -bench '^BenchmarkE10Incremental$$' \
		-benchtime=3x -count=5 -timeout 1800s . | tee bench-state.txt
	$(GO) run ./tools/benchjson \
		-comment "$(STATEBENCH) incremental re-optimization benchmarks (BenchmarkE10Incremental, E7-sized 400x100 tenant, median of 5). mutate-warm is one cost mutation re-solved through the event-sourced warm path (including the log commit + fsync); mutate-scratch is the from-scratch solve of the identical mutated instance; shortcut is a sensitivity short-circuit proven with zero branch-and-bound nodes; stream20-* replay a 20-mutation reconfiguration burst. The recorded ratio floors (warm >= 5x, stream >= 2x) are asserted by tools/benchjson -ratio on every environment." \
		-ratio 'BenchmarkE10Incremental/mutate-scratch=BenchmarkE10Incremental/mutate-warm:5,BenchmarkE10Incremental/stream20-scratch=BenchmarkE10Incremental/stream20-warm:2' \
		-out $(STATEBENCH) bench-state.txt=3x
	rm -f bench-state.txt
	@echo "wrote $(STATEBENCH)"
