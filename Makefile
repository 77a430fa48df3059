GO ?= go

.PHONY: all build fmt vet lint lint-stats test race check bench-smoke bench-test drift-smoke serve-smoke chaos-smoke chaos-bench mmap-smoke fuzz cover

all: check

build:
	$(GO) build ./...

# fmt fails when any Go file in the repository is not gofmt-formatted.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "gofmt: the files above need formatting"; exit 1; }

vet:
	$(GO) vet ./...

# lint runs mrlint, the repository's own static-analysis suite
# (internal/analysis): nopanic, atomicdiscipline, snapshotmut, errwrap,
# noleak, plus the interprocedural hotpathalloc, ctxflow and lifecycle
# (DESIGN.md §16). Suppress a finding with //mrlint:allow <analyzer> <reason>.
lint:
	$(GO) run ./cmd/mrlint ./...

# lint-stats prints per-analyzer finding/suppression counts and enforces the
# committed suppression ceiling: if any analyzer's //mrlint:allow count grew
# past lint-suppressions.json, the build fails until that file is raised in
# the same change (putting the reason in front of a reviewer).
lint-stats:
	$(GO) run ./cmd/mrlint -stats -baseline lint-suppressions.json ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is what CI runs: formatting, static analysis (vet + mrlint + the
# suppression ceiling), a full build, and the test suite under the race
# detector (the Engine's concurrency tests need it).
check: fmt vet lint lint-stats build race

# bench-smoke compiles and runs every Go benchmark exactly once — a CI
# regression gate against benchmarks that rot (won't build, panic, or
# b.Fatal), without paying for measurement. It is the only runner of the
# serving-layer benchmarks (BenchmarkEngineServing, BenchmarkShardedServing,
# BenchmarkAutoTuneSteadyState, mmapstore's BenchmarkColdStart and
# BenchmarkServing); bench/ measures the same layers end to end.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-test vets and tests the end-to-end benchmark (bench/, its own
# module). It builds against the engine, shard and mmapstore APIs, which
# the root module's tests never compile it against.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# drift-smoke replays the canned drifting workload through the adaptive
# tuner and asserts bounded-epoch convergence in every phase, with every
# answer cross-checked against the reference evaluator and full invariant
# re-verification after each retirement — the CI gate for the auto-tuner.
drift-smoke:
	$(GO) test -run='^TestDriftSmoke$$' -count=1 -v ./internal/difftest/

# serve-smoke boots cmd/mrserve on a free port, replays a short cmd/mrload
# run against it, and asserts a clean -check: non-zero served replies, zero
# errors, and a well-formed JSON report — the CI gate for the network
# serving layer.
serve-smoke:
	$(GO) test -run='^TestServeSmoke$$' -count=1 -v ./internal/clitest/

# chaos-smoke drives the real mrserve and mrload binaries over an impaired
# network: an in-process netem proxy degrades the server-side leg
# (latency+jitter, throttling) while mrload's -impair-* flags degrade the
# client leg, and a deep-query surge overloads the single evaluation slot —
# asserting that wire impairment lands on the client round trip (never on
# the service-side p99 the breaker governs) and that overload is answered
# with fast 429s instead of unbounded queueing. The CI gate for the
# impairment layer (internal/netem).
chaos-smoke:
	$(GO) test -run='^TestChaosSmoke$$' -count=1 -v ./internal/clitest/

# chaos-bench is chaos-smoke with the combined per-level mrload reports
# archived under results/ — the committed record that impaired and slow
# clients are shed or timed out rather than pinning serving slots. It also
# hard-gates on the surge level actually shedding.
chaos-bench:
	@mkdir -p results
	MRX_CHAOS_REPORT=results/BENCH_$$(date +%Y-%m-%d)_chaos.json \
		$(GO) test -run='^TestChaosSmoke$$' -count=1 -v ./internal/clitest/

# mmap-smoke drives the disk-resident serving pipeline end to end with the
# real binaries: mrsnap publishes a refined snapshot (plus its binary
# graph), mrsnap -verify full-checks it, mrserve -index-file serves it in
# both verified and trusted-mmap mode with every mrload answer checked
# against ground truth, and a SIGKILL mid-republish proves the temp+rename
# protocol never exposes a torn snapshot. The CI gate for internal/mmapstore.
mmap-smoke:
	$(GO) test -run='^TestMmap' -count=1 -v ./internal/clitest/

# Native fuzzing smoke: each target runs for FUZZTIME on top of its
# committed seed corpus (testdata/fuzz/<FuzzName>/ in each package, which
# plain `make test` already replays). New crashers are written there too —
# commit them as regression inputs.
FUZZTIME ?= 15s

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/pathexpr/
	$(GO) test -run='^$$' -fuzz=FuzzStoreGraph -fuzztime=$(FUZZTIME) ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzStoreIndex -fuzztime=$(FUZZTIME) ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzStoreMStar -fuzztime=$(FUZZTIME) ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzStoreFrozen -fuzztime=$(FUZZTIME) ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzDifferential -fuzztime=$(FUZZTIME) ./internal/difftest/
	$(GO) test -run='^$$' -fuzz=FuzzDirectives -fuzztime=$(FUZZTIME) ./internal/analysis/
	$(GO) test -run='^$$' -fuzz=FuzzFrozenArrays -fuzztime=$(FUZZTIME) ./internal/index/
	$(GO) test -run='^$$' -fuzz=FuzzQueryFrontEnd -fuzztime=$(FUZZTIME) ./internal/serve/
	# Ten arguments make each new input slow to minimize; cap it so the
	# target spends its fuzztime fuzzing.
	$(GO) test -run='^$$' -fuzz=FuzzQueryResponse -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/serve/
	# The checksummed mmap format defeats coverage-keeping minimization (any
	# trim breaks a CRC), so cap the per-input minimize budget or the engine
	# spends its whole fuzztime minimizing instead of fuzzing.
	$(GO) test -run='^$$' -fuzz=FuzzMmapSnapshot -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/mmapstore/

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1
