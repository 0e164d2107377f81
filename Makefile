# Development entry points. `make check` is the full pre-commit gate:
# build, vet, race-enabled tests, and a one-iteration benchmark smoke
# pass (-short skips the heavy figure sweeps; see bench_test.go).

GO ?= go

.PHONY: all build vet test race race-fault bench-smoke bench-e2e-smoke bench-json bench-json-quick serve-check obs-check metrics-lint patch-check cluster-check cdag-check soak-smoke fuzz-smoke bench-overload bench-cluster bench-anytime staticcheck check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Every test runs at GOMAXPROCS 1 and 4, so a test gated on core count
# runs on any host.
race:
	$(GO) test -race -cpu 1,4 ./...

# Race-enabled fault-injection and degradation tests: worker panics,
# injected faults, cancellation, and fallback paths (docs/ROBUSTNESS.md).
race-fault:
	$(GO) test -race -run 'Fault|Panic|Ctx|Cancel|Deadline|Degrad|Hung|Budget' ./internal/par/ ./internal/solve/ ./internal/guard/

bench-smoke:
	$(GO) test -short -bench=. -benchtime=1x -run '^$$' ./...

# The end-to-end benchmark is a Go module of its own, which root
# `go test ./...` never reaches: run its tests, then every workload for
# one second (docs/PERFORMANCE.md).
bench-e2e-smoke:
	cd cmd/wrbpgbench && $(GO) test -short ./...
	out="$$(mktemp -d)"; bash cmd/wrbpgbench/run.sh --workload all --quick --out "$$out/r.json"; \
		rc=$$?; rm -rf "$$out"; exit $$rc

# Writes the perf-regression report (see docs/PERFORMANCE.md).
bench-json:
	$(GO) run ./cmd/experiments -bench-json BENCH_6.json

# One-iteration perf smoke artifact for CI (not a comparable baseline).
bench-json-quick:
	$(GO) run ./cmd/experiments -bench-json BENCH_6.json -bench-quick

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

# Race-enabled incremental re-solve gate: the shuffled-delta property
# tests in every family (warm answers bit-identical to cold rebuilds),
# the facade patch semantics with fault injection, the patch endpoint,
# and the CLI -patch path (docs/PERFORMANCE.md §incremental).
patch-check:
	$(GO) test -race -run 'SetWeights|Patch' ./internal/dwt/ ./internal/ktree/ ./internal/memstate/ ./internal/solve/ ./internal/serve/ ./cmd/wrbpg/

# Race-enabled cluster gate: a 3-replica in-process fleet (consistent-
# hash ring, peer fill, cross-replica singleflight) under round-robin
# load, then a kill-one soak. Acceptance: near-zero duplicate cold
# solves fleet-wide and zero 5xx while a replica dies (docs/CLUSTER.md).
cluster-check:
	$(GO) test -race -run TestClusterFleet -v ./cmd/wrbpgload/

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
# surface as structured 400s, never panics. The last target checks the
# schedule JSON codec against the reflective encoder and decoder. One
# -fuzz per invocation (a go test restriction).
fuzz-smoke:
	$(GO) test -fuzz=FuzzScheduleRequest -fuzztime=10s -run '^$$' ./internal/serve/wire/
	$(GO) test -fuzz=FuzzCDAGRequest -fuzztime=10s -run '^$$' ./internal/serve/wire/
	$(GO) test -fuzz=FuzzPatchRequest -fuzztime=10s -run '^$$' ./internal/serve/wire/
	$(GO) test -fuzz=FuzzPeerRequest -fuzztime=10s -run '^$$' ./internal/serve/wire/
	$(GO) test -fuzz=FuzzScheduleJSON -fuzztime=10s -run '^$$' ./internal/core/

# Race-enabled general-DAG gate: the full anytime search suite
# (property bounds, monotone trajectories, fault injection, the
# 20-graph roster acceptance — skipped under -short elsewhere), the
# canonical-form isomorphism tests, the GraphSpec decoder, and the
# serve-layer cdag end-to-end tests (docs/SERVICE.md §anytime).
cdag-check:
	$(GO) test -race -v -run TestRosterAcceptance ./internal/anytime/
	$(GO) test -race ./internal/anytime/ ./internal/cdag/
	$(GO) test -race -run 'CDAG|GraphSpec|Canonical' ./internal/serve/ ./internal/serve/wire/

# The BENCH_7 overload run: measure capacity closed-loop, then offer 4x
# that rate open-loop for 10s. Acceptance: nothing but 200s and 429s
# (docs/PERFORMANCE.md §overload).
bench-overload:
	$(GO) run ./cmd/wrbpgload -inproc -workers 4 -probe 3s -overload 4 \
		-duration 10s -timeout 300ms -assert-no-5xx -out BENCH_7.json

# The BENCH_8 cluster run: a 3-replica in-process fleet on a fixed
# hot-key roster, then a 5s kill-one soak. Acceptance: fleet duplicate
# cold solves near zero (cross-replica singleflight) and zero 5xx while
# a replica drains and dies (docs/CLUSTER.md).
bench-cluster:
	$(GO) run ./cmd/wrbpgload -inproc-replicas 3 -workers 4 -duration 10s \
		-timeout 400ms -hot-budgets 4 -kill-soak 5s -assert-no-5xx \
		-max-duplicates 10 -out BENCH_8.json

# The BENCH_9 anytime run: the fixed 20-graph CDAG roster at the 50 ms
# acceptance slice — expansion rate, pruning ratio, time-to-beat-
# baseline, and the 1-vs-GOMAXPROCS time-to-match speedup kernel
# (docs/PERFORMANCE.md §anytime). On a single-CPU host the speedup
# kernel's ceiling is parity; the report says so in speedup_note.
bench-anytime:
	$(GO) run ./cmd/experiments -anytime-json BENCH_9.json

# Runs staticcheck when it is installed; skips (successfully) when not,
# so the gate works in minimal containers. CI installs it explicitly.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

check: build vet race race-fault bench-smoke serve-check obs-check patch-check cluster-check cdag-check staticcheck
