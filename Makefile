# Verify tiers for the cogdiff reproduction.
#
#   tier 1: make build test      — full suite, serial semantics pinned
#   tier 2: make test-race       — reduced campaign config under -race,
#                                  guarding the parallel campaign engine
#
# `make ci` runs what .github/workflows/ci.yml runs.

GO ?= go

.PHONY: all build vet lint test test-short test-race bench bench-go bench-check cache-smoke perf-smoke fuzz fuzz-smoke blame-smoke metacompile-smoke metrics-smoke verify-smoke fmt-check golden-update ci

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-invariant linters: build the cogdiff-lint analyzer driver and run
# it over every package through `go vet -vettool`, so the determinism,
# semantics-version and telemetry-naming rules gate exactly like the
# stock vet checks. `go run ./cmd/cogdiff-lint` (no arguments) is the
# standalone equivalent.
lint:
	rm -rf lint.tmp
	mkdir -p lint.tmp
	$(GO) build -o lint.tmp/cogdiff-lint ./cmd/cogdiff-lint
	$(GO) vet -vettool=lint.tmp/cogdiff-lint ./...
	rm -rf lint.tmp

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector tier: the campaign tests run their reduced (-short)
# configuration, which still shards exploration and differential testing
# across 4 and GOMAXPROCS workers.
test-race:
	$(GO) test -race -short ./...

# Perf trajectory: export machine-readable benchmark records for the
# campaign engine (cold vs warm through the exploration cache) and the
# fuzzing engine. CI uploads BENCH_*.json as artifacts so the history of
# every change is comparable. The -baseline flags carry the committed
# pre-overhaul baselineNsPerOp forward into the regenerated records, so
# the perf-smoke gate never silently re-baselines itself.
bench:
	rm -rf bench-cache.tmp
	$(GO) run ./cmd/cogdiff bench-export -cache-dir bench-cache.tmp \
		-baseline BENCH_campaign.json -out BENCH_campaign.json campaign
	$(GO) run ./cmd/cogdiff bench-export -baseline BENCH_fuzz.json -out BENCH_fuzz.json fuzz
	$(GO) run ./cmd/cogdiff bench-export -lint BENCH_campaign.json BENCH_fuzz.json
	rm -rf bench-cache.tmp

# The Go-native microbenchmarks (includes the cache=cold/cache=warm
# campaign variants).
bench-go:
	$(GO) test -bench=. -benchmem -run '^$$' .

# The repository benchmark (bench/) is a Go module of its own, so the
# root build and tests never compile it. Its probe calls the jit and core
# entry points directly; vetting and testing it here catches an API
# change that would break `bash bench/run.sh`.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Exploration-cache smoke test, observed end to end from the CLI: the
# campaign report must be byte-identical with caching off, populating a
# cold cache, and served warm at 1 and 4 workers — and the warm run must
# be at least 1.5x faster than the cold one. The cold run pays for the
# cache writes on top of an uncached campaign that keeps getting faster,
# so the ratio is small and disk-bound: five runs on a 2-vCPU VM measured
# 1.84, 2.13, 2.06, 2.70 and 2.35x. The gate sits below the lowest.
cache-smoke:
	rm -rf cache-smoke.tmp
	$(GO) build -o cache-smoke.tmp/cogdiff ./cmd/cogdiff
	cache-smoke.tmp/cogdiff table2 -workers 1 > cache-smoke.tmp/off.txt
	cache-smoke.tmp/cogdiff table2 -workers 1 -cache-dir cache-smoke.tmp/cache > cache-smoke.tmp/cold.txt
	cache-smoke.tmp/cogdiff table2 -workers 1 -cache-dir cache-smoke.tmp/cache > cache-smoke.tmp/warm1.txt
	cache-smoke.tmp/cogdiff table2 -workers 4 -cache-dir cache-smoke.tmp/cache > cache-smoke.tmp/warm4.txt
	cmp cache-smoke.tmp/off.txt cache-smoke.tmp/cold.txt
	cmp cache-smoke.tmp/off.txt cache-smoke.tmp/warm1.txt
	cmp cache-smoke.tmp/off.txt cache-smoke.tmp/warm4.txt
	cache-smoke.tmp/cogdiff bench-export -min-speedup 1.5 -cache-dir cache-smoke.tmp/bench-cache \
		-baseline BENCH_campaign.json -out cache-smoke.tmp/BENCH_campaign.json campaign
	cache-smoke.tmp/cogdiff bench-export -lint cache-smoke.tmp/BENCH_campaign.json
	rm -rf cache-smoke.tmp

# Raw-speed gate for the execution-core overhaul: re-measure the serial
# campaign on this machine and hold it to the acceptance bars against the
# pre-overhaul baseline carried in the committed BENCH_campaign.json —
# at least 5x wall-clock speedup and at least a 63% cut in per-path
# allocations versus the fresh-boot architecture (64.3% measured: 58.8
# warm against 165 fresh). GOMAXPROCS=1 matches
# how the baseline was captured, so parallelism can't mask a regression.
perf-smoke:
	rm -rf perf-smoke.tmp
	mkdir -p perf-smoke.tmp
	$(GO) build -o perf-smoke.tmp/cogdiff ./cmd/cogdiff
	GOMAXPROCS=1 perf-smoke.tmp/cogdiff bench-export -workers 1 \
		-baseline BENCH_campaign.json -min-baseline-speedup 5 -min-alloc-reduction 0.63 \
		-out perf-smoke.tmp/BENCH_campaign.json campaign
	perf-smoke.tmp/cogdiff bench-export -lint perf-smoke.tmp/BENCH_campaign.json
	rm -rf perf-smoke.tmp

# Explore random byte-code sequences across all three compilers and both
# ISAs (30s smoke run; raise -fuzztime for a real session).
fuzz:
	$(GO) test -fuzz=FuzzSequenceDiff -fuzztime=30s ./internal/core/

# Coverage-guided fuzzing smoke run: fixed seed, small budget, minimized
# differences — deterministic, finishes well inside 30s.
fuzz-smoke:
	$(GO) run ./cmd/cogdiff fuzz -seed 2022 -budget 2000 -workers 0 \
		-seed-corpus internal/core/testdata/fuzz/FuzzSequenceDiff

# Pass-level blame smoke test: a campaign with the pass-targeted
# constant-folding defect must name the guilty pass in its cause table,
# and its whole stable report — every cause's blamed stage — must match
# the committed golden; so must the five-compiler campaign with the
# meta-compiler guard defect, whose blame lands on the front-end.
blame-smoke:
	rm -rf blame-smoke.tmp
	mkdir -p blame-smoke.tmp
	$(GO) build -o blame-smoke.tmp/cogdiff ./cmd/cogdiff
	blame-smoke.tmp/cogdiff campaign -stable -defect-constfold -workers 0 > blame-smoke.tmp/constfold.txt
	grep -q "pass:constfold" blame-smoke.tmp/constfold.txt
	cmp cmd/cogdiff/testdata/campaign_blame_constfold.golden blame-smoke.tmp/constfold.txt
	blame-smoke.tmp/cogdiff campaign -stable -compilers +metajit -defect-metajit-guard -workers 0 \
		> blame-smoke.tmp/metajit.txt
	cmp cmd/cogdiff/testdata/campaign_blame_metajit_guard.golden blame-smoke.tmp/metajit.txt
	rm -rf blame-smoke.tmp

# Fifth-compiler smoke test, observed end to end from the CLI: the
# meta-compiled front-end joins the campaign via -compilers +metajit and
# the stable report must be byte-identical across worker counts; on the
# pristine VM it must agree with the interpreter (zero differences on a
# reference instruction); and the meta-compiler guard-sign defect must
# surface as front-end blame.
metacompile-smoke:
	rm -rf metacompile-smoke.tmp
	mkdir -p metacompile-smoke.tmp
	$(GO) build -o metacompile-smoke.tmp/cogdiff ./cmd/cogdiff
	metacompile-smoke.tmp/cogdiff difftest -pristine primAdd metajit | grep -q " 0 differences"
	metacompile-smoke.tmp/cogdiff campaign -compilers +metajit -workers 1 -stable > metacompile-smoke.tmp/w1.txt
	metacompile-smoke.tmp/cogdiff campaign -compilers +metajit -workers 4 -stable > metacompile-smoke.tmp/w4.txt
	cmp metacompile-smoke.tmp/w1.txt metacompile-smoke.tmp/w4.txt
	grep -q "Meta-compiled BC Compiler" metacompile-smoke.tmp/w1.txt
	metacompile-smoke.tmp/cogdiff difftest -pristine -defect-metajit-guard primLessThan metajit | grep -q "front-end"
	rm -rf metacompile-smoke.tmp

# Telemetry smoke test: a small campaign writes a Prometheus metrics
# snapshot, which metrics-lint must validate (the exposition-format
# round-trip contract, observed end to end from the CLI).
metrics-smoke:
	$(GO) run ./cmd/cogdiff campaign -workers 4 -metrics metrics-smoke.prom -metrics-format prom > /dev/null
	$(GO) run ./cmd/cogdiff metrics-lint metrics-smoke.prom
	rm -f metrics-smoke.prom

# Static-verification smoke test, observed end to end from the CLI:
# the compile-only sweep must verify the whole catalog clean at 1 and 4
# workers with byte-identical reports, the seeded stack-leak defect must
# be rejected statically with blame on the guilty pass, the campaign
# report must be byte-identical with the verifier on and off (the
# verifier observes, never shapes), and the verifier's self-timed share
# of campaign wall time must stay under 5% (-workers 1, where the
# telemetry sum equals the wall-time share).
verify-smoke:
	rm -rf verify-smoke.tmp
	mkdir -p verify-smoke.tmp
	$(GO) build -o verify-smoke.tmp/cogdiff ./cmd/cogdiff
	verify-smoke.tmp/cogdiff verify-ir -workers 1 > verify-smoke.tmp/v1.txt
	verify-smoke.tmp/cogdiff verify-ir -workers 4 > verify-smoke.tmp/v4.txt
	cmp verify-smoke.tmp/v1.txt verify-smoke.tmp/v4.txt
	grep -q "0 violations" verify-smoke.tmp/v1.txt
	! verify-smoke.tmp/cogdiff verify-ir -defect-verify-stackleak -compilers simple \
		> verify-smoke.tmp/defect.txt 2>&1
	grep -q "ir-verify:stack-balance after pass:peephole" verify-smoke.tmp/defect.txt
	verify-smoke.tmp/cogdiff campaign -workers 1 -stable > verify-smoke.tmp/on.txt
	verify-smoke.tmp/cogdiff campaign -workers 1 -stable -no-verify > verify-smoke.tmp/off.txt
	cmp verify-smoke.tmp/on.txt verify-smoke.tmp/off.txt
	verify-smoke.tmp/cogdiff bench-export -iterations 8 -workers 1 -max-verifier-share 0.05 \
		-baseline BENCH_campaign.json -out verify-smoke.tmp/BENCH_campaign.json campaign
	verify-smoke.tmp/cogdiff bench-export -lint verify-smoke.tmp/BENCH_campaign.json
	rm -rf verify-smoke.tmp

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Re-capture the CLI golden files after an intentional format change.
golden-update:
	$(GO) test ./cmd/cogdiff/ -run TestGolden -update

ci: build vet lint fmt-check test test-race bench-check fuzz-smoke blame-smoke metacompile-smoke metrics-smoke cache-smoke perf-smoke verify-smoke
