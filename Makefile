# Development entry points. `make check` is the full pre-commit gate:
# build, gofmt, vet, race-enabled tests, a one-iteration benchmark smoke pass
# (-short skips the heavy figure sweeps; see bench_test.go), and the
# end-to-end benchmark smoke, so a root-module API change that breaks
# the separately-moduled cmd/wrbpgbench fails here, not only in CI.

GO ?= go

.PHONY: all build fmt-check vet test race race-fault bench-smoke bench-e2e-smoke bench-ab serve-check obs-check metrics-lint patch-check cluster-check cdag-check soak-smoke fuzz-smoke staticcheck check

all: check

build:
	$(GO) build ./...

# gofmt -l lists every file gofmt would change; it must list none.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Every test runs at GOMAXPROCS 1 and 4, so a test gated on core count
# runs on any host.
race:
	$(GO) test -race -cpu 1,4 ./...

# Race-enabled fault-injection and degradation tests: worker panics,
# injected faults, cancellation, fallback paths, and the abort-then-
# reuse checks of the family solvers' and the tree DP engine's reusable
# guard checkers (docs/ROBUSTNESS.md).
race-fault:
	$(GO) test -race -run 'Fault|Panic|Ctx|Cancel|Deadline|Degrad|Hung|Budget|Abort' ./internal/par/ ./internal/solve/ ./internal/guard/ ./internal/stepmemo/ ./internal/dwt/ ./internal/ktree/ ./internal/memstate/ ./internal/mvm/

bench-smoke:
	$(GO) test -short -bench=. -benchtime=1x -run '^$$' ./...

# The end-to-end benchmark is a Go module of its own, which root
# `go test ./...` never reaches: run its tests, then every workload for
# one second (docs/PERFORMANCE.md).
bench-e2e-smoke:
	cd cmd/wrbpgbench && $(GO) test -short ./...
	out="$$(mktemp -d)"; bash cmd/wrbpgbench/run.sh --workload all --quick --out "$$out/r.json"; \
		rc=$$?; rm -rf "$$out"; exit $$rc

# Paired A/B runs of the end-to-end benchmark against revision BASE:
#
#   make bench-ab BASE=<rev> WORKLOAD=<name> [PAIRS=10] [SECONDS=15]
#
# BASE is extracted with git archive into a temporary directory. Each
# side builds its own cmd/wrbpgbench into its own temporary build
# directory and runs seeds 1..PAIRS, the side that runs first
# alternating pair by pair; compare then prints the paired verdicts
# (docs/PERFORMANCE.md). Nothing is written inside the checkout.
PAIRS ?= 10
SECONDS ?= 15

bench-ab:
	@if [ -z "$(BASE)" ] || [ -z "$(WORKLOAD)" ]; then \
		echo "usage: make bench-ab BASE=<rev> WORKLOAD=<name> [PAIRS=10] [SECONDS=15]" >&2; exit 2; fi
	@set -e; rev="$$(git rev-parse --verify "$(BASE)^{commit}")"; \
	tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive "$$rev" | tar -x -C "$$tmp/base"; \
	run() { (cd "$$2" && CARGO_TARGET_DIR="$$tmp/$$1-build" bash cmd/wrbpgbench/run.sh \
		--workload "$(WORKLOAD)" --seed "$$3" --seconds "$(SECONDS)" --trace 0 --out "$$tmp/$$1-$$3.json"); }; \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then run base "$$tmp/base" $$i; run head . $$i; \
		else run head . $$i; run base "$$tmp/base" $$i; fi; \
	done; \
	CARGO_TARGET_DIR="$$tmp/head-build" bash cmd/wrbpgbench/run.sh compare "$$tmp"/base-*.json -- "$$tmp"/head-*.json

# Boots the wrbpgd daemon on a random port and exercises every endpoint
# end to end, including graceful SIGTERM shutdown (docs/SERVICE.md).
serve-check:
	$(GO) test -race -run TestServeEndToEnd -v ./cmd/wrbpgd/

# Boots the daemon with a debug listener, scrapes GET /metrics, and
# validates the whole observability surface: exposition parseability,
# series count, trace retrieval, pprof, and structured JSON logs
# (docs/OBSERVABILITY.md). Includes the fleet metrics lint and the
# race-enabled tracing/SLO unit suites.
obs-check: metrics-lint
	$(GO) test -race -run TestObsEndToEnd -v ./cmd/wrbpgd/
	$(GO) test -race ./internal/obs/...

# Metrics contract lint: boots a 3-replica in-process fleet, scrapes
# every replica in both exposition flavors (Prometheus 0.0.4 and
# OpenMetrics with exemplars), and asserts every wrbpg_* series carries
# HELP/TYPE metadata and round-trips through the strict parser
# (docs/OBSERVABILITY.md §metrics).
metrics-lint:
	$(GO) test -race -run TestMetricsLint -v ./cmd/wrbpgload/

# Race-enabled incremental re-solve gate: the shared memo's patch walk
# (revert, cone invalidation, epoch wraparound), the shuffled-delta
# property tests in every family (warm answers bit-identical to cold
# rebuilds), the facade patch semantics with fault injection, the
# patch endpoint, and the CLI -patch path (docs/PERFORMANCE.md
# §incremental). The Topology tests hold the shape table's shared
# family topologies to the same standard: concurrent cold solves and
# patched sessions of one shape match sequential answers, AddNode on a
# graph that shares a topology copies it first, and two collections
# empty the table (docs/PERFORMANCE.md §topology reuse).
patch-check:
	$(GO) test -race -run 'SetWeights|Patch|Topology' ./internal/stepmemo/ ./internal/cdag/ ./internal/dwt/ ./internal/ktree/ ./internal/solve/ ./internal/serve/ ./cmd/wrbpg/

# Race-enabled cluster gate: a 3-replica in-process fleet (consistent-
# hash ring, peer fill, cross-replica singleflight) under round-robin
# load, then a kill-one soak. Acceptance: near-zero duplicate cold
# solves fleet-wide and zero 5xx while a replica dies (docs/CLUSTER.md).
# Then the ring, health and peer-fill unit suites, the frame transport
# among them: concurrent fills on one connection, a fill's deadline, a
# connection reset, drain, and goroutines settling after a stop.
cluster-check:
	$(GO) test -race -run TestClusterFleet -v ./cmd/wrbpgload/
	$(GO) test -race -run 'Cluster|Fill|Peer' ./internal/cluster/ ./internal/serve/

# 30-second chaos soak: wrbpgload drives an in-process server with a
# panic injected into every 5th solver work item; the run must produce
# zero 5xx, a bounded p99, and stay inside the report-gate SLOs (the
# same burn-rate math the server's /v1/slo uses; docs/ROBUSTNESS.md
# §overload). The availability bar is loose (0.9) because the soak
# sheds on purpose — the gate proves the wiring, not a production SLO.
soak-smoke:
	$(GO) run ./cmd/wrbpgload -inproc -workers 4 -duration 30s \
		-timeout 300ms -fault-every 5 -assert-no-5xx -max-p99 5s \
		-slo-p99 5s -slo-availability 0.9

# Short fuzz pass over the wire request decoders: malformed bodies must
# surface as structured 400s, never panics, and a body the one-pass
# scanner reads must decode to the same value through encoding/json.
# The peer hop's codec is held to encoding/json both ways:
# FuzzPeerRequest re-encodes every decoded fill request and compares
# AppendPeerRequest with json.Marshal, FuzzPeerResponse decodes a
# peer's packed frame with and without moves asked for and checks that
# every head the scanner reads unmarshals to the same envelope, and
# FuzzResponseJSON holds the response appenders to encoding/json's
# indented bytes and the frame head to json.Marshal's compact ones.
# FuzzFrameReader reads any byte stream as the peer hop's transport
# frames: truncated or oversized frames and bad length fields must be
# refused without a panic, and every frame read re-encodes to its
# bytes.
# The core targets check the schedule
# JSON encoder against the reflective one and for round trips, and the
# packed codec for round trips and bounded decoding. FuzzRow
# holds the shared budget memo's rows to a random step function,
# FuzzPtMatchesReference holds the k-ary tree DP to its plain
# every-strategy form on a decoded tree, budget and weight patch, and
# FuzzPMatchesReference holds the DWT DP to its plain form on a decoded
# DWT graph under Lemma 3.2 weights, budget and weight patch, cold,
# after a Reset and through patch → revert. One -fuzz per invocation
# (a go test restriction).
fuzz-smoke:
	$(GO) test -fuzz=FuzzScheduleRequest -fuzztime=10s -run '^$$' ./internal/serve/wire/
	$(GO) test -fuzz=FuzzCDAGRequest -fuzztime=10s -run '^$$' ./internal/serve/wire/
	$(GO) test -fuzz=FuzzPatchRequest -fuzztime=10s -run '^$$' ./internal/serve/wire/
	$(GO) test -fuzz=FuzzPeerRequest -fuzztime=10s -run '^$$' ./internal/serve/wire/
	$(GO) test -fuzz=FuzzPeerResponse -fuzztime=10s -run '^$$' ./internal/serve/wire/
	$(GO) test -fuzz=FuzzResponseJSON -fuzztime=10s -run '^$$' ./internal/serve/wire/
	$(GO) test -fuzz=FuzzFrameReader -fuzztime=10s -run '^$$' ./internal/cluster/
	$(GO) test -fuzz=FuzzScheduleJSON -fuzztime=10s -run '^$$' ./internal/core/
	$(GO) test -fuzz=FuzzScheduleBinary -fuzztime=10s -run '^$$' ./internal/core/
	$(GO) test -fuzz=FuzzRow -fuzztime=10s -run '^$$' ./internal/stepmemo/
	$(GO) test -fuzz=FuzzPtMatchesReference -fuzztime=10s -run '^$$' ./internal/ktree/
	$(GO) test -fuzz=FuzzPMatchesReference -fuzztime=10s -run '^$$' ./internal/dwt/

# Race-enabled general-DAG gate: the full anytime search suite
# (property bounds, monotone trajectories, fault injection, the
# 20-graph roster acceptance — skipped under -short elsewhere), the
# packed sets its visited table keys on (internal/bitset), the
# canonical-form isomorphism tests, the GraphSpec decoder, and the
# serve-layer cdag end-to-end tests (docs/SERVICE.md §anytime).
cdag-check:
	$(GO) test -race -v -run TestRosterAcceptance ./internal/anytime/
	$(GO) test -race ./internal/anytime/ ./internal/bitset/ ./internal/cdag/
	$(GO) test -race -run 'CDAG|GraphSpec|Canonical' ./internal/serve/ ./internal/serve/wire/

# Runs staticcheck when it is installed; skips (successfully) when not,
# so the gate works in minimal containers. CI installs it explicitly.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

check: build fmt-check vet race race-fault bench-smoke bench-e2e-smoke serve-check obs-check patch-check cluster-check cdag-check staticcheck
