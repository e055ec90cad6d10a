# Tier-1 check (matches ROADMAP.md): build + tests.
.PHONY: tier1
tier1:
	go build ./...
	go test ./...

# Dedicated race-detector pass: the full suite in short mode under -race.
# Short mode trims the differential portfolio suite to its first seeds;
# the bench gate runs in its own CI job without instrumentation.
.PHONY: race
race:
	go test -race -short ./...

# Chaos smoke: the end-to-end overload harness (internal/chaos) — calibrate
# a coordinator's sustainable rate, drive a fault-injected one at 2× that
# rate over real TCP, and assert the resilience invariants (every request
# answered exactly once, no deadline-expired full solves, goodput floor,
# recovery after the fault window).
.PHONY: chaos-smoke
chaos-smoke:
	go test -run='^TestHarness' -count=1 -v ./internal/chaos

# Serving-benchmark module check: servebench is its own Go module, which
# the root `go test ./...` skips, so an internal/ API change that breaks
# the benchmark would otherwise pass. Vets and tests it against this tree.
.PHONY: servebench-check
servebench-check:
	go -C servebench vet ./...
	go -C servebench test ./...

# Results gate: regenerate every recorded figure and ablation panel at the
# default flags into a temp dir and diff it against results/. The runs are
# deterministic per seed and worker count, so every panel must match byte
# for byte except the wall-clock ones (fig8 and abl-cooling_panel1, solve
# time), which are skipped. Re-record results/ in the same commit as any
# change that moves a panel.
.PHONY: results-check
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	go run ./cmd/tsajs-sim -figure all -o "$$tmp" > /dev/null && \
	go run ./cmd/tsajs-sim -figure ablations -o "$$tmp" > /dev/null && \
	diff -r -x bench -x 'fig8_*' -x abl-cooling_panel1.txt results "$$tmp" && \
	echo "results-check: every deterministic panel matches results/"

# Fuzz smoke: every native fuzz target runs its checked-in corpus
# (testdata/fuzz/ + f.Add seeds) plus a few seconds of fresh exploration.
.PHONY: fuzz-smoke
fuzz-smoke:
	go test -run='^$$' -fuzz='^FuzzOperationSequence$$' -fuzztime=5s ./internal/assign
	go test -run='^$$' -fuzz='^FuzzUnmarshalScenario$$' -fuzztime=5s ./internal/scenario
	go test -run='^$$' -fuzz='^FuzzScenarioCodec$$' -fuzztime=10s ./internal/scenario
	go test -run='^$$' -fuzz='^FuzzAssignmentUtility$$' -fuzztime=10s ./internal/objective
	go test -run='^$$' -fuzz='^FuzzTrackedEvaluator$$' -fuzztime=10s ./internal/objective
	go test -run='^$$' -fuzz='^FuzzHandleRequest$$' -fuzztime=5s ./internal/cran
	go test -run='^$$' -fuzz='^FuzzWireCodec$$' -fuzztime=10s ./internal/cran
	go test -run='^$$' -fuzz='^FuzzShardRing$$' -fuzztime=5s ./internal/shard
	go test -run='^$$' -fuzz='^FuzzDeltaEpoch$$' -fuzztime=10s ./internal/dynamic
	go test -run='^$$' -fuzz='^FuzzPortfolioSelector$$' -fuzztime=5s ./internal/portfolio

# Tier-1+ robustness check: vet, build, the full suite under the race
# detector, and the fuzz smoke pass. CI and pre-merge runs should use
# this target.
.PHONY: verify
verify:
	go vet ./...
	go build ./...
	go test -race ./...
	$(MAKE) fuzz-smoke

# Coverage gate: the suite in short mode with a statement-coverage
# profile, failing when total coverage drops below the ratcheted minimum.
# Ratchet policy: when a PR raises total coverage, raise COVER_MIN to just
# below the new total; never lower it. Inspect hot spots with
#   go tool cover -html=coverprofile
# Re-baselined with the sharded tier: the old 78.0 predated the untested
# cmd/ and examples/ packages and had become unsatisfiable (the tree
# measured 75.7% before sharding); the shard tier and its suite raise the
# total to ~76.0–76.6% (timing-dependent paths make short-mode coverage
# noisy run to run), gated here with margin for that variance. The
# delta-epoch tier and its differential suite lift the total to ~76.4%.
# Ratcheted to 77.0 when one move generator, one portfolio-flag parser and
# one profiling helper replaced duplicated, partly untested code (77.1% at
# the parent, 78.1% after, same host). Ratcheted to 77.5 when the shared
# internal/cli flag groups and the brownout/delta/chaos constants replaced
# duplicated flag declarations and test-only config fields (78.3% at the
# parent, 78.4% after in two runs, same host), keeping the usual margin
# for run-to-run noise.
COVER_MIN ?= 77.5

.PHONY: cover
cover:
	go test -short -coverprofile=coverprofile ./...
	@total=$$(go tool cover -func=coverprofile | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
	awk -v t=$$total -v min=$(COVER_MIN) 'BEGIN { \
	  if (t+0 < min+0) { printf "FAIL: coverage %.1f%% below ratcheted minimum %.1f%%\n", t, min; exit 1 } \
	  printf "coverage %.1f%% (ratcheted minimum %.1f%%)\n", t, min }'

# Benchmark recording: run the full suite with -benchmem and persist a
# machine-readable BENCH_<date>.json (ns/op, B/op, allocs/op, and custom
# metrics such as solver utility) for regression tracking. Promote a run to
# the committed baseline with:
#   cp BENCH_<date>.json results/bench/BENCH_baseline.json
# The raw and intermediate records of bench, bench-check and bench-baseline
# go to the checkout's gitignored .bench_build/, so checkouts sharing a host
# never overwrite each other's results.
BENCH_DATE := $(shell date +%Y%m%d)
BENCH_OUT  ?= BENCH_$(BENCH_DATE).json

# The recorded set covers the perf kernels, solver end-to-end runs, and the
# coordinator serving path (BenchmarkServe*); the BenchmarkFigure* experiment
# reproductions are excluded (they are sweeps, not performance probes, and
# take minutes each).
PERF_BENCH := ^Benchmark(SystemUtility|KKTAllocation|NeighborhoodMove|Solve|Incremental|Portfolio|Serve|Wire|DeltaEpoch)

.PHONY: bench
bench:
	mkdir -p .bench_build
	go test -run='^$$' -bench='$(PERF_BENCH)' -benchmem -benchtime=1s . ./internal/objective ./internal/cran | tee .bench_build/bench_raw.txt
	go run ./cmd/tsajs-bench record -in .bench_build/bench_raw.txt -o $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"

# Fast regression gate for CI and pre-merge runs: a short fixed-iteration
# pass over the hot-path kernels compared against the committed baseline.
# Iterations are pinned (-benchtime=50x) so the solver-utility metric — a
# mean over seeds 1..N — is bit-comparable across runs. Timing is ignored
# (shared runners are too noisy for short runs); what must never regress is
# the allocation count of the allocation-free kernels, the per-seed solver
# utility, and the coordinator's per-epoch allocation count and utility
# (BenchmarkServeEpoch solves the same epoch every iteration, so both are
# deterministic; BenchmarkServePipeline's epochs/s is timing and stays out).
# BenchmarkWireCodec pins the wirev2 codec's allocs/op — the binary
# encode+decode cycle must stay at least 2x leaner than the JSON line codec.
# BenchmarkDeltaEpoch pins the delta-epoch repair path's utility per dirty
# fraction (fixed seeds make the metric deterministic at pinned iterations).
# BenchmarkPortfolioAdaptive pins the adaptive-vs-fixed portfolio utility
# gap at a truncated budget (the selector is deterministic per seed, so at
# pinned iterations both utilities are bit-comparable; adaptive must not
# fall back to the fixed row's utility). Its fixed and adaptive rows are
# sub-benchmarks: the pattern names the top-level benchmark only, because
# go test matches each /-separated level of -bench separately and a "/"
# inside the parenthesized alternation never matches a top-level name.
# compare flags every baseline row the run does not report.
QUICK_BENCH := ^(BenchmarkSystemUtility|BenchmarkKKTAllocation|BenchmarkNeighborhoodMove|BenchmarkIncrementalTTSA|BenchmarkSolveTSAJS_U30|BenchmarkServeEpoch|BenchmarkServeEpochDegraded|BenchmarkWireCodec|BenchmarkDeltaEpoch|BenchmarkPortfolioAdaptive)$$

.PHONY: bench-check
bench-check:
	mkdir -p .bench_build
	go test -run='^$$' -bench='$(QUICK_BENCH)' -benchmem -benchtime=50x . ./internal/cran > .bench_build/bench_quick.txt
	go run ./cmd/tsajs-bench record -in .bench_build/bench_quick.txt -o .bench_build/bench_quick.json
	go run ./cmd/tsajs-bench compare -skip-time \
	  -baseline results/bench/BENCH_baseline.json -current .bench_build/bench_quick.json

# Re-record the committed quick-gate baseline (run on a quiet machine after
# an intentional performance change, then commit the result).
.PHONY: bench-baseline
bench-baseline:
	mkdir -p .bench_build
	go test -run='^$$' -bench='$(QUICK_BENCH)' -benchmem -benchtime=50x . ./internal/cran > .bench_build/bench_quick.txt
	go run ./cmd/tsajs-bench record -in .bench_build/bench_quick.txt \
	  -notes "quick-gate baseline (fixed 50x iterations)" -o results/bench/BENCH_baseline.json

# Counted lines, the code-size figures ROADMAP quotes: tracked non-test Go
# files, blank and `//` comment lines excluded — first the serving core
# (internal/{cran,dynamic,delta}), then the shard cluster (internal/shard),
# then the public facade (tsajs.go), then the whole repo outside the
# servebench module.
.PHONY: loc
loc:
	@count() { cat $$(git ls-files -- "$$@" | grep '\.go$$' | grep -v '_test\.go$$') | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l; }; \
	echo "internal/{cran,dynamic,delta}: $$(count internal/cran internal/dynamic internal/delta)"; \
	echo "internal/shard: $$(count internal/shard)"; \
	echo "tsajs (facade): $$(count tsajs.go)"; \
	echo "repo-wide: $$(count . ':!servebench')"

.PHONY: fmt
fmt:
	gofmt -w .
