// Serving metrics, rebuilt over the obs registry: every counter the
// old lock-free struct tracked is now a registered obs metric, so one
// set of atomics feeds both GET /statsz (the original JSON view, kept
// wire-compatible) and GET /metrics (Prometheus text exposition). Each
// Server owns its own registry; the handler merges it with obs.Default
// (solver-family, guard and worker-pool counters) at exposition time.

package serve

import (
	"strconv"
	"time"

	"wrbpg/internal/cluster"
	"wrbpg/internal/obs"
	"wrbpg/internal/schedcache"
	"wrbpg/internal/solve"
)

// latencyBoundsUS are the upper bounds (µs) of the solve-latency
// histogram buckets; the final implicit bucket is +Inf. Solves span
// microsecond cache-adjacent paths to multi-second degraded solves, so
// the buckets are roughly logarithmic. The exposition keeps microsecond
// units (metric wrbpg_solve_latency_us) so /statsz reads identical
// bucket values — int64 µs round-trip exactly through float64.
var latencyBoundsUS = [...]int64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000,
}

// metrics holds the server's pre-resolved metric handles. Updating any
// of them is lock-free (one atomic add); /statsz and /metrics snapshot
// without contending with the request path.
type metrics struct {
	// HTTP request counters by endpoint; schedule includes batch items
	// (each item runs the shared schedule path), matching the original
	// /statsz "requests" semantics.
	reqSchedule *obs.Counter
	reqBatch    *obs.Counter
	reqSweep    *obs.Counter
	reqPatch    *obs.Counter
	reqPeer     *obs.Counter
	badRequests *obs.Counter

	solves      *obs.Counter
	fallbacks   *obs.Counter
	fallbackVec *obs.CounterVec // by classified reason
	solveErrors *obs.Counter
	inflight    *obs.Gauge
	latency     *obs.Histogram

	sweepBudgets  *obs.Counter
	sessionHits   *obs.Counter
	sessionMisses *obs.Counter
	wsAllocs      *obs.Counter

	// Incremental-engine counters: budgets answered on the patch route,
	// then — over every request that carries deltas, on either route —
	// deltas received, node weights actually written (the diff against
	// the session's current state), and requests whose diff was empty.
	patchBudgets *obs.Counter
	patchDeltas  *obs.Counter
	patchChanged *obs.Counter
	patchNoops   *obs.Counter

	// Overload-control instruments: sheds by mode (pre-resolved so
	// every mode appears in the exposition from startup), the admission
	// queue depth, the slot-hold histogram feeding the wait estimator,
	// and the fallback-storm breaker state/trips.
	shedVec      *obs.CounterVec
	shedBy       map[string]*obs.Counter
	queueDepth   *obs.Gauge
	holdUS       *obs.Histogram
	breakerState *obs.Gauge
	breakerTrips *obs.Counter

	// General-DAG anytime-tier counters: branch-and-bound states
	// expanded, states pruned against the shared incumbent, and
	// incumbent improvements, summed across all anytime solves.
	anytimeExpanded     *obs.Counter
	anytimePruned       *obs.Counter
	anytimeImprovements *obs.Counter

	// Cluster-mode instruments: peer-fill attempts by outcome
	// (pre-resolved so every outcome appears in the exposition from
	// startup) and owner 429s propagated to the end client.
	peerFillVec        *obs.CounterVec
	peerFillBy         map[string]*obs.Counter
	peerShedPropagated *obs.Counter

	traced *obs.Counter

	// reqSeconds is the end-to-end API request latency histogram
	// (seconds, tracked endpoints only — see withRequestObs). Traced
	// requests attach their trace ID to the matching bucket's exemplar
	// slot, surfaced in the OpenMetrics exposition.
	reqSeconds *obs.Histogram
}

// peerFill counts one peer-fill attempt by outcome.
func (m *metrics) peerFill(outcome string) {
	if c, ok := m.peerFillBy[outcome]; ok {
		c.Inc()
		return
	}
	m.peerFillVec.With(outcome).Inc()
}

// shed counts one shed decision by mode.
func (m *metrics) shed(mode string) {
	if c, ok := m.shedBy[mode]; ok {
		c.Inc()
		return
	}
	m.shedVec.With(mode).Inc()
}

// newMetrics registers the server's metric families in reg and returns
// the resolved handles.
func newMetrics(reg *obs.Registry) *metrics {
	req := reg.CounterVec("wrbpg_http_requests_total",
		"API requests by endpoint; schedule includes batch items.", "endpoint")
	bounds := make([]float64, len(latencyBoundsUS))
	for i, b := range latencyBoundsUS {
		bounds[i] = float64(b)
	}
	shedVec := reg.CounterVec("wrbpg_shed_total",
		"Requests shed by overload control, by mode (queue_full, doomed, canceled, degraded, breaker).", "mode")
	shedBy := make(map[string]*obs.Counter)
	for _, mode := range []string{shedQueueFull, shedDoomed, shedCanceled, shedDegraded, shedBreaker} {
		shedBy[mode] = shedVec.With(mode)
	}
	peerFillVec := reg.CounterVec("wrbpg_peer_fill_total",
		"Peer-fill attempts by outcome (filled, degraded, shed, timeout, error).", "outcome")
	peerFillBy := make(map[string]*obs.Counter)
	for _, outcome := range []string{peerFilled, peerDegraded, peerShed, peerTimeout, peerError} {
		peerFillBy[outcome] = peerFillVec.With(outcome)
	}
	return &metrics{
		reqSchedule: req.With("schedule"),
		reqBatch:    req.With("batch"),
		reqSweep:    req.With("sweep"),
		reqPatch:    req.With("patch"),
		reqPeer:     req.With("peer"),
		badRequests: reg.Counter("wrbpg_http_bad_requests_total",
			"Structured 4xx responses."),
		solves: reg.Counter("wrbpg_solves_total",
			"Solver invocations (cache misses)."),
		fallbacks: reg.Counter("wrbpg_solve_fallbacks_total",
			"Solves degraded to the baseline scheduler."),
		fallbackVec: reg.CounterVec("wrbpg_fallback_total",
			"Fallbacks and per-budget sweep aborts by classified reason (deadline, budget, panic, canceled, shed, other).", "reason"),
		solveErrors: reg.Counter("wrbpg_solve_errors_total",
			"Solves that returned no schedule at all."),
		inflight: reg.Gauge("wrbpg_solves_inflight",
			"Solver invocations currently running."),
		latency: reg.Histogram("wrbpg_solve_latency_us",
			"Solver wall-clock time per invocation, microseconds (cache hits excluded).", bounds),
		sweepBudgets: reg.Counter("wrbpg_sweep_budgets_total",
			"Budgets answered across all sweep requests."),
		sessionHits: reg.Counter("wrbpg_sweep_session_hits_total",
			"Sweep and patch requests answered from an existing warm session."),
		sessionMisses: reg.Counter("wrbpg_sweep_session_misses_total",
			"Sweep and patch requests that built (or joined building) a session."),
		wsAllocs: reg.Counter("wrbpg_sweep_workspace_allocs_total",
			"Sweep workspaces allocated (sync.Pool misses)."),
		patchBudgets: reg.Counter("wrbpg_patch_budgets_total",
			"Budgets answered across all patch requests."),
		patchDeltas: reg.Counter("wrbpg_patch_deltas_total",
			"Canonical weight deltas received by sweep and patch requests."),
		patchChanged: reg.Counter("wrbpg_patch_changed_nodes_total",
			"Node weights actually written by requests carrying deltas (the diff against the session's current state)."),
		patchNoops: reg.Counter("wrbpg_patch_noop_total",
			"Requests carrying deltas whose diff was empty (the session was already at the target state)."),
		shedVec: shedVec,
		shedBy:  shedBy,
		queueDepth: reg.Gauge("wrbpg_admission_queue_depth",
			"Requests currently queued for a solver slot."),
		holdUS: reg.Histogram("wrbpg_admission_hold_us",
			"Solver-slot hold time per admitted request, microseconds (the queue-wait estimator's input).", bounds),
		breakerState: reg.Gauge("wrbpg_breaker_state",
			"Fallback-storm breaker state: 0 closed, 1 half-open, 2 open."),
		breakerTrips: reg.Counter("wrbpg_breaker_trips_total",
			"Times the fallback-storm breaker opened."),
		anytimeExpanded: reg.Counter("wrbpg_anytime_expanded_total",
			"Branch-and-bound states expanded by the general-DAG anytime tier."),
		anytimePruned: reg.Counter("wrbpg_anytime_pruned_total",
			"Anytime-tier states pruned against the shared incumbent bound."),
		anytimeImprovements: reg.Counter("wrbpg_anytime_improvements_total",
			"Incumbent improvements found by anytime searches."),
		peerFillVec: peerFillVec,
		peerFillBy:  peerFillBy,
		peerShedPropagated: reg.Counter("wrbpg_peer_shed_propagated_total",
			"Owner-replica 429s surfaced to the end client because the local queue was saturated too."),
		traced: reg.Counter("wrbpg_traced_requests_total",
			"Requests that opted into tracing via the X-Wrbpg-Trace header."),
		reqSeconds: reg.Histogram("wrbpg_request_seconds",
			"End-to-end API request latency in seconds (schedule, batch, sweep, patch, lowerbound); traced requests attach their trace ID as an OpenMetrics exemplar.",
			requestSecondsBounds),
	}
}

// requestSecondsBounds buckets wrbpg_request_seconds: sub-millisecond
// cache hits through multi-second degraded solves, with extra
// resolution around the 250ms latency-SLO target.
var requestSecondsBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// registerFuncs exposes quantities other components already track
// (cache counters, pool occupancy, uptime) without a second counter on
// any hot path.
func (s *Server) registerFuncs() {
	reg, cache, sessions := s.reg, s.cache, s.sessions
	reg.CounterFunc("wrbpg_cache_hits_total",
		"Schedule-cache hits.", func() float64 { return float64(cache.Snapshot().Hits) })
	reg.CounterFunc("wrbpg_cache_misses_total",
		"Schedule-cache misses.", func() float64 { return float64(cache.Snapshot().Misses) })
	reg.CounterFunc("wrbpg_cache_shared_total",
		"Schedule-cache singleflight joins (waiters sharing a leader's solve).",
		func() float64 { return float64(cache.Snapshot().Shared) })
	reg.CounterFunc("wrbpg_cache_stores_total",
		"Schedule-cache entries stored.", func() float64 { return float64(cache.Snapshot().Stores) })
	reg.CounterFunc("wrbpg_cache_evictions_total",
		"Schedule-cache LRU evictions.", func() float64 { return float64(cache.Snapshot().Evictions) })
	reg.GaugeFunc("wrbpg_cache_entries",
		"Schedule-cache entries currently live.", func() float64 { return float64(cache.Len()) })
	// Per-shard cache series expose the distribution skew the aggregate
	// counters hide; the callbacks read live shard state at exposition
	// time, so the request path pays nothing extra.
	shardEntries := reg.GaugeFuncVec("wrbpg_cache_shard_entries",
		"Schedule-cache entries currently live, by shard.", "shard")
	shardEvictions := reg.CounterFuncVec("wrbpg_cache_shard_evictions_total",
		"Schedule-cache LRU evictions, by shard.", "shard")
	shardCapacity := reg.GaugeFuncVec("wrbpg_cache_shard_capacity",
		"Schedule-cache per-shard entry capacity.", "shard")
	for i := 0; i < cache.Shards(); i++ {
		i := i
		label := strconv.Itoa(i)
		shardEntries.With(label, func() float64 { return float64(cache.ShardStat(i).Entries) })
		shardEvictions.With(label, func() float64 { return float64(cache.ShardStat(i).Evictions) })
		shardCapacity.With(label, func() float64 { return float64(cache.ShardStat(i).Capacity) })
	}
	if s.cluster != nil {
		s.cluster.RegisterMetrics(reg)
	}
	reg.GaugeFunc("wrbpg_sweep_sessions_live",
		"Warm solver sessions currently pooled.", func() float64 { return float64(sessions.Len()) })
	reg.GaugeFunc("wrbpg_sweep_session_capacity",
		"Warm-session pool capacity (Options.SweepSessions); live/capacity is pool occupancy.",
		func() float64 { return float64(sessions.Snapshot().Capacity) })
	reg.CounterFunc("wrbpg_sweep_session_evictions_total",
		"Warm sessions evicted from the pool (LRU); a base_key patch against an evicted session is a 404.",
		func() float64 { return float64(sessions.Snapshot().Evictions) })
	reg.GaugeFunc("wrbpg_admission_queue_limit",
		"Admission queue capacity (Options.MaxQueue); depth/limit is queue occupancy.",
		func() float64 { return float64(s.opts.MaxQueue) })
	reg.GaugeFunc("wrbpg_traces_stored",
		"Completed request traces retained for GET /v1/trace/{id}.",
		func() float64 { return float64(s.traces.Len()) })
	reg.GaugeFunc("wrbpg_uptime_seconds",
		"Seconds since the server started.", func() float64 { return time.Since(s.start).Seconds() })
}

// observeSolve records one completed solver invocation. reason is the
// classified degradation cause ("" when the solve was optimal).
func (m *metrics) observeSolve(d time.Duration, fallback, failed bool, reason string) {
	m.solves.Inc()
	if fallback {
		m.fallbacks.Inc()
		if reason == "" {
			reason = "other"
		}
		m.fallbackVec.With(reason).Inc()
	}
	if failed {
		m.solveErrors.Inc()
	}
	m.latency.Observe(float64(d.Microseconds()))
}

// observeAnytime accumulates one anytime search's effort counters.
func (m *metrics) observeAnytime(a *solve.AnytimeInfo) {
	m.anytimeExpanded.Add(uint64(a.Expanded))
	m.anytimePruned.Add(uint64(a.Pruned))
	m.anytimeImprovements.Add(uint64(a.Improvements))
}

// LatencyBucket is one histogram bucket in the /statsz response.
type LatencyBucket struct {
	// LEUS is the bucket's inclusive upper bound in microseconds;
	// -1 marks the +Inf bucket.
	LEUS  int64  `json:"le_us"`
	Count uint64 `json:"count"`
}

// Stats is the GET /statsz response body.
type Stats struct {
	UptimeS     float64          `json:"uptime_s"`
	Requests    uint64           `json:"requests"`
	Batches     uint64           `json:"batches"`
	BadRequests uint64           `json:"bad_requests"`
	Cache       schedcache.Stats `json:"cache"`
	Solves      uint64           `json:"solves"`
	Fallbacks   uint64           `json:"fallbacks"`
	SolveErrors uint64           `json:"solve_errors"`
	InFlight    int64            `json:"in_flight"`
	// Sweep-engine counters: requests and budgets served by
	// POST /v1/schedule/sweep, warm-session pool dispositions, sessions
	// currently live, and workspace allocations (sync.Pool misses — flat
	// under steady-state traffic).
	Sweeps          uint64 `json:"sweeps"`
	SweepBudgets    uint64 `json:"sweep_budgets"`
	SessionHits     uint64 `json:"session_hits"`
	SessionMisses   uint64 `json:"session_misses"`
	SessionsLive    int    `json:"sessions_live"`
	SweepWorkspaces uint64 `json:"sweep_workspaces"`
	// Session-pool occupancy: capacity is Options.SweepSessions (the
	// LRU bound), evictions counts sessions dropped to admit new shapes
	// — a rising rate means the pool is too small for the live shape
	// set and base_key patches will 404.
	SessionCapacity  int    `json:"session_capacity"`
	SessionEvictions uint64 `json:"session_evictions"`
	// Incremental-engine counters: patch requests, budgets answered
	// after a patch, deltas received, node weights actually written and
	// empty-diff patches.
	Patches           uint64 `json:"patches"`
	PatchBudgets      uint64 `json:"patch_budgets"`
	PatchDeltas       uint64 `json:"patch_deltas"`
	PatchChangedNodes uint64 `json:"patch_changed_nodes"`
	PatchNoops        uint64 `json:"patch_noops"`
	// Overload-control counters: current admission-queue occupancy,
	// sheds by mode, and the fallback-storm breaker state
	// ("closed" / "half_open" / "open" / "disabled") with its trip
	// count. The handler fills QueueDepth/QueueLimit/Breaker from live
	// server state.
	QueueDepth   int64             `json:"queue_depth"`
	QueueLimit   int               `json:"queue_limit"`
	Shed         map[string]uint64 `json:"shed"`
	Breaker      string            `json:"breaker"`
	BreakerTrips uint64            `json:"breaker_trips"`
	// Anytime-tier counters: branch-and-bound effort across all
	// general-DAG solves.
	AnytimeExpanded     uint64 `json:"anytime_expanded,omitempty"`
	AnytimePruned       uint64 `json:"anytime_pruned,omitempty"`
	AnytimeImprovements uint64 `json:"anytime_improvements,omitempty"`
	// SolveLatency is the cumulative histogram of solver wall-clock
	// times (cache hits excluded — they never invoke the solver).
	SolveLatency   []LatencyBucket `json:"solve_latency"`
	SolveLatencyUS int64           `json:"solve_latency_sum_us"`
	// CacheShards breaks the schedule cache down by shard (entry count,
	// evictions, capacity), exposing key-distribution skew.
	CacheShards []schedcache.ShardStat `json:"cache_shards,omitempty"`
	// Cluster-mode section (absent on single-node servers): peer
	// requests served, fill attempts by outcome, owner 429s propagated
	// to end clients, and the fleet health report. The handler fills
	// Peers from live cluster state.
	Peers              *cluster.HealthReport `json:"peers,omitempty"`
	PeerRequests       uint64                `json:"peer_requests,omitempty"`
	PeerFill           map[string]uint64     `json:"peer_fill,omitempty"`
	PeerShedPropagated uint64                `json:"peer_shed_propagated,omitempty"`
}

// snapshot assembles the exported view from the registered metrics;
// the JSON shape predates the registry and stays wire-compatible.
func (m *metrics) snapshot(uptime time.Duration, cache, sessions schedcache.Stats) Stats {
	st := Stats{
		UptimeS:             uptime.Seconds(),
		Requests:            m.reqSchedule.Value(),
		Batches:             m.reqBatch.Value(),
		BadRequests:         m.badRequests.Value(),
		Cache:               cache,
		Solves:              m.solves.Value(),
		Fallbacks:           m.fallbacks.Value(),
		SolveErrors:         m.solveErrors.Value(),
		InFlight:            m.inflight.Value(),
		Sweeps:              m.reqSweep.Value(),
		SweepBudgets:        m.sweepBudgets.Value(),
		SessionHits:         m.sessionHits.Value(),
		SessionMisses:       m.sessionMisses.Value(),
		SessionsLive:        sessions.Entries,
		SweepWorkspaces:     m.wsAllocs.Value(),
		SessionCapacity:     sessions.Capacity,
		SessionEvictions:    sessions.Evictions,
		Patches:             m.reqPatch.Value(),
		PatchBudgets:        m.patchBudgets.Value(),
		PatchDeltas:         m.patchDeltas.Value(),
		PatchChangedNodes:   m.patchChanged.Value(),
		PatchNoops:          m.patchNoops.Value(),
		BreakerTrips:        m.breakerTrips.Value(),
		SolveLatencyUS:      int64(m.latency.Sum()),
		AnytimeExpanded:     m.anytimeExpanded.Value(),
		AnytimePruned:       m.anytimePruned.Value(),
		AnytimeImprovements: m.anytimeImprovements.Value(),
	}
	st.Shed = make(map[string]uint64, len(m.shedBy))
	for mode, c := range m.shedBy {
		st.Shed[mode] = c.Value()
	}
	for i, b := range latencyBoundsUS {
		st.SolveLatency = append(st.SolveLatency, LatencyBucket{LEUS: b, Count: m.latency.Bucket(i)})
	}
	st.SolveLatency = append(st.SolveLatency, LatencyBucket{LEUS: -1, Count: m.latency.Bucket(len(latencyBoundsUS))})
	return st
}
