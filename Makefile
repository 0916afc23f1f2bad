# Verify tiers for the cogdiff reproduction.
#
#   tier 1: make build test      — full suite, serial semantics pinned
#   tier 2: make test-race       — reduced campaign config under -race,
#                                  guarding the parallel campaign engine
#
# `make ci` runs what .github/workflows/ci.yml runs. The metrics, cache,
# perf and verify smoke tests read the JSON `-metrics` snapshot with jq
# and time fresh processes with GNU date's %N; both ship with
# ubuntu-latest.

GO ?= go

.PHONY: all build vet lint test test-short test-race bench-go bench-once bench-check cache-smoke perf-smoke fuzz fuzz-smoke fuzz-codecs blame-smoke metacompile-smoke metrics-smoke verify-smoke examples-smoke fmt-check golden-update loc ci

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-invariant linters: TestRepoLintsClean type-checks every package
# under the repository root from source, bench/ and examples/ included
# (the root `go vet ./...` never reaches bench/, a module of its own),
# and runs the determinism and telemetry-naming analyzers of
# internal/analyzers over them; any diagnostic fails it.
# Tier 1 runs the same test; this target runs it alone and uncached.
lint:
	$(GO) test -count=1 -run '^TestRepoLintsClean$$' ./internal/analyzers/

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector tier: the campaign tests run their reduced (-short)
# configuration, which still shards exploration and differential testing
# across 4 and GOMAXPROCS workers.
test-race:
	$(GO) test -race -short ./...

# The Go-native microbenchmarks (includes the cache=cold/cache=warm
# campaign variants).
bench-go:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Every Go benchmark of the module, run once: the tests only compile
# them, so one that breaks at run time (say the cache=warm campaign
# variant) fails here. About 4-8 s on a 2-vCPU VM.
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The repository benchmark (bench/) is a Go module of its own, so the
# root build and tests never compile it. Its probe calls the jit and core
# entry points directly; vetting and testing it here catches an API
# change that would break `bash bench/run.sh`.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Exploration-cache smoke test, observed end to end from the CLI: the
# campaign report must be byte-identical with caching off, populating a
# cold cache, and served warm at 1 and 4 workers; the warm run's JSON
# metrics snapshot must show it read everything from the cache (no miss,
# no write, no corrupt entry), which identical output alone cannot tell
# from a cache that silently recomputes. The fresh cold process must
# also take at least 1.5x the wall time of the fresh warm one at 1
# worker, even though the warm one pays for collecting metrics; the
# cold run pays for the cache writes on top of an uncached campaign, so
# the margin is disk-bound. Measured on a 2-vCPU VM over seven rounds:
# 3.8-9.6x. Then difftest reads what the campaigns cached: its report
# matches an uncached difftest, and its snapshot shows both tiers (the
# exploration and the unit's verdicts) served with no miss, no write and
# no corrupt entry. Last, the cache keys on the code that computed it: a
# binary built from a copy of the tree with one comment line appended to
# internal/core/differ.go is another generation, so on the warm
# directory it must get no hit, count nothing corrupt and print the
# uncached report, and the tree's binary, run after it, must still read
# everything from the cache (no miss, no write, no corrupt entry).
cache-smoke:
	rm -rf cache-smoke.tmp
	$(GO) build -o cache-smoke.tmp/cogdiff ./cmd/cogdiff
	cache-smoke.tmp/cogdiff table2 -workers 1 > cache-smoke.tmp/off.txt
	start=$$(date +%s%N); \
	cache-smoke.tmp/cogdiff table2 -workers 1 -cache-dir cache-smoke.tmp/cache > cache-smoke.tmp/cold.txt || exit 1; \
	mid=$$(date +%s%N); \
	cache-smoke.tmp/cogdiff table2 -workers 1 -cache-dir cache-smoke.tmp/cache \
		-metrics cache-smoke.tmp/warm1.json > cache-smoke.tmp/warm1.txt || exit 1; \
	end=$$(date +%s%N); \
	cold=$$((mid - start)); warm=$$((end - mid)); \
	echo "cache-smoke: cold run $$((cold / 1000000)) ms, warm run $$((warm / 1000000)) ms (cold must take >= 1.5x warm)"; \
	[ $$((2 * cold)) -ge $$((3 * warm)) ]
	cache-smoke.tmp/cogdiff table2 -workers 4 -cache-dir cache-smoke.tmp/cache > cache-smoke.tmp/warm4.txt
	jq -e '.counters.cogdiff_excache_misses_total == 0 and .counters.cogdiff_excache_writes_total == 0 and .counters.cogdiff_excache_corrupt_total == 0' \
		cache-smoke.tmp/warm1.json
	cmp cache-smoke.tmp/off.txt cache-smoke.tmp/cold.txt
	cmp cache-smoke.tmp/off.txt cache-smoke.tmp/warm1.txt
	cmp cache-smoke.tmp/off.txt cache-smoke.tmp/warm4.txt
	cache-smoke.tmp/cogdiff difftest primAdd simple > cache-smoke.tmp/difftest-off.txt
	cache-smoke.tmp/cogdiff difftest -cache-dir cache-smoke.tmp/cache \
		-metrics cache-smoke.tmp/difftest.json primAdd simple > cache-smoke.tmp/difftest.txt
	jq -e '.counters.cogdiff_excache_hits_total == 2 and .counters.cogdiff_excache_misses_total == 0 and .counters.cogdiff_excache_writes_total == 0 and .counters.cogdiff_excache_corrupt_total == 0' \
		cache-smoke.tmp/difftest.json
	cmp cache-smoke.tmp/difftest-off.txt cache-smoke.tmp/difftest.txt
	mkdir -p cache-smoke.tmp/src
	tar -cf - --exclude=./.git --exclude='./*.tmp' . | tar -xf - -C cache-smoke.tmp/src
	echo '// One comment line: another generation of the code.' >> cache-smoke.tmp/src/internal/core/differ.go
	cd cache-smoke.tmp/src && $(GO) build -o ../cogdiff-edited ./cmd/cogdiff
	cache-smoke.tmp/cogdiff-edited table2 -workers 1 -cache-dir cache-smoke.tmp/cache \
		-metrics cache-smoke.tmp/edited.json > cache-smoke.tmp/edited.txt
	jq -e '.counters.cogdiff_excache_hits_total == 0 and .counters.cogdiff_excache_corrupt_total == 0' \
		cache-smoke.tmp/edited.json
	cmp cache-smoke.tmp/off.txt cache-smoke.tmp/edited.txt
	cache-smoke.tmp/cogdiff table2 -workers 1 -cache-dir cache-smoke.tmp/cache \
		-metrics cache-smoke.tmp/after.json > cache-smoke.tmp/after.txt
	jq -e '.counters.cogdiff_excache_misses_total == 0 and .counters.cogdiff_excache_writes_total == 0 and .counters.cogdiff_excache_corrupt_total == 0' \
		cache-smoke.tmp/after.json
	cmp cache-smoke.tmp/off.txt cache-smoke.tmp/after.txt
	rm -rf cache-smoke.tmp

# Raw-speed gates for the execution-core overhaul, measured on the machine
# that runs them. The reuse layers must cut per-path allocations by at
# least 85% against the fresh-boot architecture (TestPerPathAllocsReduction,
# run uncached; a path tested on the three byte-code compilers and both
# ISAs, 85.4% in three of three runs: 118.0 warm against 809.5 fresh), a
# warm path must stay at 125 allocations or fewer
# (TestPerPathAllocsWarm), and one compile of primAdd or of a fuzz-corpus
# body must stay within 2 allocations of its measured count per variant
# (TestCompileAllocs: 20, 18, 18 and 46, 46, 44). The serial campaign must finish within 269 ms,
# the pre-overhaul 1.345 s over the overhaul's 5x target: the median
# wall time of three fresh GOMAXPROCS=1 processes, start-up included, so
# parallelism can't mask a regression. Measured on a 2-vCPU VM over
# seven rounds: medians 76-103 ms.
perf-smoke:
	rm -rf perf-smoke.tmp
	mkdir -p perf-smoke.tmp
	$(GO) test -count=1 -run '^TestPerPathAllocs(Reduction|Warm)$$' ./internal/core/
	$(GO) test -count=1 -run '^TestCompileAllocs$$' ./internal/jit/
	$(GO) build -o perf-smoke.tmp/cogdiff ./cmd/cogdiff
	for i in 1 2 3; do \
		start=$$(date +%s%N); \
		GOMAXPROCS=1 perf-smoke.tmp/cogdiff campaign -workers 1 -stable > perf-smoke.tmp/out.txt 2>&1 || exit 1; \
		echo $$((($$(date +%s%N) - start) / 1000000)) >> perf-smoke.tmp/ms.txt; \
	done
	median=$$(sort -n perf-smoke.tmp/ms.txt | sed -n 2p); \
	echo "perf-smoke: serial campaign $$(sort -n perf-smoke.tmp/ms.txt | tr '\n' ' ')ms, median $$median ms (bar 269 ms)"; \
	[ "$$median" -le 269 ]
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

# Coverage-guided fuzzing of what the exploration cache reads from disk,
# 10 s each: the segment reader, seeded with a segment a real campaign
# wrote, and the two payload decoders, explorations (internal/excache)
# and test-unit verdicts (internal/core). Plain `go test` runs only
# their seed corpora. None may panic; a segment lookup must miss or
# serve a complete, valid record; a payload a decoder accepts must
# survive a re-encode. The constraint solver is fuzzed alongside, 10 s
# too: Solve must not panic on any decoded conjunction, one variable of
# which lies past its universe's end, and its models must pass Check.
# So is the fuzzer's task generator, 10 s: for any seed and draw count,
# its lazily seeded source must draw exactly what rand.NewSource does.
fuzz-codecs:
	$(GO) test -run '^$$' -fuzz '^FuzzSegment$$' -fuzztime 10s ./internal/excache/
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalExploration$$' -fuzztime 10s ./internal/excache/
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalInstructionReport$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzSolve$$' -fuzztime 10s ./internal/solver/
	$(GO) test -run '^$$' -fuzz '^FuzzTaskSource$$' -fuzztime 10s ./internal/fuzzer/

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

# Telemetry smoke test: a parallel campaign writes a JSON metrics
# snapshot, which must parse, and whose difference counters must sum to
# the Table 2 total of 294 (Native 256, Simple 18, StackToReg 10,
# LinearScan 10).
metrics-smoke:
	rm -rf metrics-smoke.tmp
	mkdir -p metrics-smoke.tmp
	$(GO) build -o metrics-smoke.tmp/cogdiff ./cmd/cogdiff
	metrics-smoke.tmp/cogdiff campaign -workers 4 -metrics metrics-smoke.tmp/m.json > /dev/null
	jq -e '[.counters | to_entries[] | select(.key | startswith("cogdiff_differences_total{")) | .value] | add == 294' \
		metrics-smoke.tmp/m.json
	rm -rf metrics-smoke.tmp

# Static-verification smoke test, observed end to end from the CLI:
# the compile-only sweep must verify the whole catalog clean at 1 and 4
# workers with byte-identical reports, the seeded stack-leak defect must
# be rejected statically with blame on the guilty pass, the campaign
# report must be byte-identical with the verifier on and off (the
# verifier observes, never shapes), and the verifier's self-timed share
# of campaign time must stay at 5% or less. The share comes from the
# JSON snapshots of five fresh `campaign -workers 1 -metrics` runs: the
# cogdiff_irverify_seconds sum over the sum of the phase spans, which at
# one worker run back to back and add up to no more than the duration
# the campaign reports. The gate takes the median of the five and also
# requires zero verifier violations in every run. Measured on a 2-vCPU
# VM: a median of 3.3% over 40 fresh runs (single runs 3.0-5.9%; 4.3%
# and 3.4-6.6% over 40 interleaved runs before the verified-clean cache
# left the immediates the verifier does not read out of its key and
# exploration halved), and 3.1% and 3.2% in two gate runs.
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
	for i in 1 2 3 4 5; do \
		verify-smoke.tmp/cogdiff campaign -workers 1 -stable -metrics verify-smoke.tmp/m.json > /dev/null 2>&1 || exit 1; \
		jq -e '.counters.cogdiff_irverify_violations_total == 0' verify-smoke.tmp/m.json > /dev/null || exit 1; \
		jq '.histograms as $$h | $$h.cogdiff_irverify_seconds.sum / ([$$h | to_entries[] | select(.key | startswith("cogdiff_span_seconds{")) | .value.sum] | add)' \
			verify-smoke.tmp/m.json >> verify-smoke.tmp/shares.txt || exit 1; \
	done
	median=$$(sort -g verify-smoke.tmp/shares.txt | sed -n 3p); \
	echo "verify-smoke: verifier share $$(sort -g verify-smoke.tmp/shares.txt | tr '\n' ' ')median $$median (bar 0.05)"; \
	awk -v m="$$median" 'BEGIN { exit !(m != "" && m + 0 <= 0.05) }'
	rm -rf verify-smoke.tmp

# Example smoke test: every program under examples/ must build and run
# to a zero exit. The examples call the public facade (TestInstruction,
# RunCampaign with OnInstructionDone, Fuzz with OnProgress), so a facade
# change that breaks one fails here. All six take about a second.
examples-smoke:
	rm -rf examples-smoke.tmp
	mkdir -p examples-smoke.tmp
	for dir in examples/*/; do \
		name=$$(basename $$dir); \
		$(GO) build -o examples-smoke.tmp/$$name ./$$dir || exit 1; \
		examples-smoke.tmp/$$name > examples-smoke.tmp/$$name.out 2>&1 || \
			{ cat examples-smoke.tmp/$$name.out; echo "examples-smoke: $$name failed"; exit 1; }; \
	done
	rm -rf examples-smoke.tmp

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Code size: the non-test Go lines outside bench/ (its own module), over
# the files git tracks or would track. Not a CI step.
loc:
	@git ls-files -co --exclude-standard -- '*.go' ':!:bench/' ':!:*_test.go' | xargs cat | wc -l

# Re-capture the CLI golden files after an intentional format change.
golden-update:
	$(GO) test ./cmd/cogdiff/ -run TestGolden -update

ci: build vet lint fmt-check test test-race bench-once bench-check fuzz-smoke fuzz-codecs blame-smoke metacompile-smoke metrics-smoke cache-smoke perf-smoke verify-smoke examples-smoke
