// Package serve is the HTTP/JSON serving layer over the hardened
// solve facade: wrbpgd's request handlers, the content-addressed
// schedule cache wiring, solver admission control and serving metrics.
//
// The request path is: decode + validate (structured 400s, no panics)
// → canonical solve.Instance → content-addressed key → schedcache.Do.
// A cache hit answers without touching the solver; a miss runs exactly
// one solve per key (singleflight), admitted through a deadline-aware
// bounded queue: the expected queue wait is estimated from the live
// slot-hold histogram, work that cannot finish inside its deadline is
// rejected with a structured 429 + Retry-After, a saturated queue
// degrades requests straight to the baseline scheduler (flagged
// fallback_cause="shed"), and a fallback-storm circuit breaker keeps
// thrashing traffic off the optimal tier entirely (docs/ROBUSTNESS.md,
// "Overload policy"). Admitted solves run under a per-request deadline
// mapped onto guard.Limits, degrading to the baseline at the deadline
// rather than failing. Only optimal results are cached — a degraded
// fallback is an artifact of that request's time budget, and a later
// request with more headroom deserves a fresh attempt.
//
// Endpoints:
//
//	POST /v1/schedule        solve one instance (cache-backed)
//	POST /v1/schedule/sweep  a budget list, one warm solver session
//	POST /v1/schedule/patch  the same, named a patch (deltas expected)
//	POST /v1/peer/schedule   the upgrade to a connection of replicas'
//	                         cache-miss fill frames (cluster mode)
//	GET  /v1/lowerbound      Proposition 2.3/2.4 bounds, no solve
//	GET  /v1/trace/{id}      span tree of a traced request
//	GET  /v1/slo             SLO burn rates per window
//	GET  /v1/cluster/stats   every replica's *_total series, summed
//	GET  /healthz            liveness
//	GET  /readyz             readiness (503 while draining or overloaded)
//	GET  /metrics            Prometheus text exposition
//
// Any other path answers a structured 404.
//
// Any request carrying "X-Wrbpg-Trace: on" is traced: the solver
// phases (canonicalize, cache, build, admission, solve, simulate,
// fallback) record spans, the response carries the trace ID in
// X-Wrbpg-Trace-Id, and the completed span tree is retrievable at
// GET /v1/trace/{id} (add ?format=chrome for a chrome://tracing /
// Perfetto trace_event array). Untraced requests pay one context
// lookup per phase and zero tracing allocations.
//
// Sweeps and patches are one budget-list path (budgets.go) over a pool
// of warm solver sessions keyed by the delta-free BaseShapeKey: a sweep
// is a patch with no deltas, k budgets cost roughly one cold solve, and
// a weight change re-solves incrementally (docs/PERFORMANCE.md).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wrbpg/internal/cdag"

	"wrbpg/internal/cluster"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
	"wrbpg/internal/obs"
	"wrbpg/internal/obs/slo"
	"wrbpg/internal/schedcache"
	"wrbpg/internal/serve/wire"
	"wrbpg/internal/solve"
)

// Trace opt-in request header and response trace-ID header.
const (
	TraceHeader   = "X-Wrbpg-Trace"
	TraceIDHeader = "X-Wrbpg-Trace-Id"
)

// Options configures a Server; zero fields take the stated defaults.
type Options struct {
	// CacheShards (default 16) and CachePerShard (default 64) size the
	// schedule cache: total capacity is the product.
	CacheShards   int
	CachePerShard int
	// MaxInflight bounds concurrent solver invocations (default
	// 2×GOMAXPROCS). Cache hits are not counted — they never solve.
	MaxInflight int
	// MaxQueue bounds requests queued for a solver slot when every
	// slot is busy (default 8×MaxInflight; negative = never queue,
	// shed the moment every slot is busy). Queued requests whose
	// deadline budget cannot survive the estimated wait are shed up
	// front with a 429 and a Retry-After derived from the queue drain
	// time; see docs/ROBUSTNESS.md, "Overload policy".
	MaxQueue int
	// Breaker* configure the fallback-storm circuit breaker: when at
	// least BreakerMinSamples of the last BreakerWindow solves exist
	// and the fallback rate among them reaches BreakerThreshold, the
	// optimal tier is presumed thrashing and requests skip straight to
	// the baseline for BreakerCooldown, after which a single half-open
	// probe decides whether to close again. Defaults: window 64
	// (negative disables the breaker), threshold 0.5, min samples 16,
	// cooldown 2s.
	BreakerWindow     int
	BreakerThreshold  float64
	BreakerMinSamples int
	BreakerCooldown   time.Duration
	// DefaultTimeout is the per-solve deadline when the request does
	// not name one (default 2s); MaxTimeout clamps request-supplied
	// deadlines (default 30s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Limits carries the resource ceilings (memo entries, search
	// states) applied to every solve; its Deadline field is ignored —
	// deadlines are derived per request.
	Limits guard.Limits
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxSweepBudgets bounds the budget list of one sweep or patch
	// request (default 128). SweepSessions caps the warm-session pool
	// backing POST /v1/schedule/sweep and /v1/schedule/patch (default
	// 32, LRU-evicted). MaxPatchDeltas bounds the delta list of one
	// sweep or patch request (default 256).
	MaxSweepBudgets int
	SweepSessions   int
	MaxPatchDeltas  int
	// TraceBuffer caps the completed traces retained for
	// GET /v1/trace/{id} (default 64, oldest evicted first).
	TraceBuffer int
	// Logger, when non-nil, receives the structured request log (one
	// line per API request with status, latency, trace ID and the
	// CostMeta fields) and the cluster peer-fill lines. Nil keeps the
	// serving layer silent — the pre-logging default, so embedded
	// servers and tests opt in explicitly.
	Logger *slog.Logger
	// SLOLatencyP99 is the latency objective's threshold: the SLO
	// engine counts a request slower than this as latency-bad (default
	// 250ms). SLOAvailability is the availability objective's target
	// fraction of requests not shed (429) or failed (5xx); default
	// 0.999. Both feed GET /v1/slo, the /readyz detail section and the
	// wrbpg_slo_* gauge families.
	SLOLatencyP99   time.Duration
	SLOAvailability float64
	// Cluster, when non-nil, enables cluster mode: local cache misses
	// whose content-addressed key the consistent-hash ring assigns to
	// another replica are peer-filled from that owner before the local
	// solver runs, and POST /v1/peer/schedule answers the other
	// replicas' fills (docs/CLUSTER.md). The caller owns the cluster's
	// health-loop lifecycle (cluster.Start); the server registers its
	// metrics and routes through it.
	Cluster *cluster.Cluster
}

// withDefaults resolves zero fields.
func (o Options) withDefaults() Options {
	if o.CacheShards <= 0 {
		o.CacheShards = 16
	}
	if o.CachePerShard <= 0 {
		o.CachePerShard = 64
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = 8 * o.MaxInflight
	}
	if o.MaxQueue < 0 {
		o.MaxQueue = 0
	}
	if o.BreakerWindow == 0 {
		o.BreakerWindow = 64
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 0.5
	}
	if o.BreakerMinSamples <= 0 {
		o.BreakerMinSamples = 16
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 2 * time.Second
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 2 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 30 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.MaxSweepBudgets <= 0 {
		o.MaxSweepBudgets = 128
	}
	if o.SweepSessions <= 0 {
		o.SweepSessions = 32
	}
	if o.MaxPatchDeltas <= 0 {
		o.MaxPatchDeltas = 256
	}
	if o.TraceBuffer <= 0 {
		o.TraceBuffer = 64
	}
	if o.SLOLatencyP99 <= 0 {
		o.SLOLatencyP99 = 250 * time.Millisecond
	}
	if o.SLOAvailability <= 0 || o.SLOAvailability >= 1 {
		o.SLOAvailability = 0.999
	}
	return o
}

// Server is the wrbpgd request handler set. Create with New.
type Server struct {
	opts  Options
	cache *schedcache.Cache[*wire.ScheduleResult]
	// sessions is the warm solver-session pool keyed by the instance
	// BaseShapeKey (budget- and delta-free identity); one LRU shard
	// keeps the live count exactly at SweepSessions.
	sessions *schedcache.Cache[*sessionEntry]
	// wsPool recycles budget-list workspaces (cost and item buffers), so
	// steady-state sweep and patch traffic allocates nothing per query.
	wsPool sync.Pool
	// adm is the deadline-aware admission queue in front of the solver
	// slots; brk is the fallback-storm breaker (nil when disabled).
	adm *admission
	brk *breaker
	// draining flips /readyz to 503 ahead of a graceful shutdown.
	draining atomic.Bool
	// cluster is the replica fleet view (nil outside cluster mode).
	cluster *cluster.Cluster
	// handler is every endpoint behind the tracing and request-obs
	// middleware; peers answers the fill frames on the connections
	// upgraded at the peer path, with serveFill.
	handler http.Handler
	peers   *cluster.PeerServer
	reg     *obs.Registry
	m       *metrics
	traces  *obs.TraceStore
	// slo tracks the latency and availability objectives over sliding
	// windows; every API request feeds it through withRequestObs.
	slo *slo.Engine
	// log is the structured request logger (nil = silent).
	log   *slog.Logger
	start time.Time
}

// New builds a Server with the given options.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		opts:     opts,
		cache:    schedcache.New[*wire.ScheduleResult](opts.CacheShards, opts.CachePerShard),
		sessions: schedcache.New[*sessionEntry](1, opts.SweepSessions),
		cluster:  opts.Cluster,
		reg:      reg,
		m:        newMetrics(reg),
		traces:   obs.NewTraceStore(opts.TraceBuffer),
		slo:      slo.New(slo.Config{LatencyTarget: opts.SLOLatencyP99, Availability: opts.SLOAvailability}),
		log:      opts.Logger,
		start:    time.Now(),
	}
	s.slo.RegisterMetrics(reg)
	s.adm = &admission{
		slots:    make(chan struct{}, opts.MaxInflight),
		maxQueue: opts.MaxQueue,
		depth:    s.m.queueDepth,
		hold:     s.m.holdUS,
	}
	if opts.BreakerWindow > 0 {
		s.brk = newBreaker(opts.BreakerWindow, opts.BreakerMinSamples,
			opts.BreakerThreshold, opts.BreakerCooldown, s.m.breakerState, s.m.breakerTrips)
	}
	s.registerFuncs()
	s.wsPool.New = func() any {
		s.m.wsAllocs.Inc()
		return &sweepWorkspace{}
	}
	s.handler = s.newHandler()
	s.peers = cluster.NewPeerServer(s.serveFill)
	return s
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.handler }

func (s *Server) newHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/schedule", s.handleSchedule)
	mux.HandleFunc("/v1/schedule/sweep", s.handleBudgets)
	mux.HandleFunc("/v1/schedule/patch", s.handleBudgets)
	mux.HandleFunc(cluster.PeerPath, s.handlePeerSchedule)
	mux.HandleFunc("/v1/lowerbound", s.handleLowerBound)
	mux.HandleFunc("/v1/trace/", s.handleTrace)
	mux.HandleFunc("/v1/slo", s.handleSLO)
	mux.HandleFunc("/v1/cluster/stats", s.handleClusterStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.Handle("/metrics", s.MetricsHandler())
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeErr(w, wire.Errorf(http.StatusNotFound, "no endpoint at %s", r.URL.Path))
	})
	return s.withTracing(s.withRequestObs(mux))
}

// MetricsHandler serves the merged Prometheus text exposition: this
// server's registry plus the process-wide solver registry.
func (s *Server) MetricsHandler() http.Handler {
	return obs.Handler(s.reg, obs.Default)
}

// withTracing wraps the endpoint mux with the per-request trace
// lifecycle: a request carrying "X-Wrbpg-Trace: on" gets a fresh
// trace on its context and a root span covering the whole handler;
// the completed trace lands in the retrieval buffer. Untraced
// requests pass through with zero overhead.
func (s *Server) withTracing(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Header.Get(TraceHeader) {
		case "on", "1", "true":
		default:
			h.ServeHTTP(w, r)
			return
		}
		s.m.traced.Inc()
		tr := obs.NewTrace()
		ctx, root := obs.StartSpan(obs.WithTrace(r.Context(), tr), "request")
		root.SetAttr("method", r.Method)
		root.SetAttr("path", r.URL.Path)
		w.Header().Set(TraceIDHeader, tr.ID())
		h.ServeHTTP(w, r.WithContext(ctx))
		root.End()
		s.traces.Put(tr)
	})
}

// handleTrace serves GET /v1/trace/{id}: the span tree of a completed
// traced request, or its chrome://tracing event array with
// ?format=chrome.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErr(w, wire.Errorf(http.StatusMethodNotAllowed, "GET required"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	if id == "" || strings.Contains(id, "/") {
		s.writeErr(w, wire.Errorf(http.StatusBadRequest, "want /v1/trace/{id}"))
		return
	}
	tr, ok := s.traces.Get(id)
	if !ok {
		s.writeErr(w, wire.Errorf(http.StatusNotFound,
			"trace %q not found (buffer keeps the last %d traced requests)", id, s.opts.TraceBuffer))
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "chrome":
		writeJSON(w, http.StatusOK, tr.ChromeTrace())
	case "", "tree":
		writeJSON(w, http.StatusOK, tr.Tree())
	default:
		s.writeErr(w, wire.Errorf(http.StatusBadRequest,
			"unknown format %q: want \"tree\" (default) or \"chrome\"", format))
	}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing useful to do mid-response
}

// appendJSON appends v to dst in the bytes writeJSON writes.
func appendJSON(dst []byte, v any) []byte {
	b, _ := json.MarshalIndent(v, "", "  ")
	return append(append(dst, b...), '\n')
}

// jsonContentType is the Content-Type of a 200 body writeAppended
// writes, shared so that setting it allocates nothing.
var jsonContentType = []string{"application/json"}

// writeAppended writes a 200 response whose JSON body appendTo builds
// in a pooled buffer, sent with its length in one write. The
// schedule and budget-list answers go this way; appendTo gives the
// bytes writeJSON would.
func writeAppended(w http.ResponseWriter, appendTo func([]byte) []byte) {
	bp := getBody()
	defer putBody(bp)
	*bp = appendTo(*bp)
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(*bp))}
	w.WriteHeader(http.StatusOK)
	w.Write(*bp) //nolint:errcheck // nothing useful to do mid-response
}

// bodyPool recycles the buffers request bodies are read into and
// responses are built in. It keeps none over maxPooledBody, so one
// large body does not stay resident.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 64 << 10

// getBody returns an empty pooled buffer.
func getBody() *[]byte {
	bp := bodyPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

func putBody(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bodyPool.Put(bp)
	}
}

// writeErr writes a structured error body; every non-2xx response
// goes through here, so clients always get {"status","error"}. A 429
// is server pushback, not a malformed request, so it carries its
// Retry-After header instead of counting into bad_requests.
func (s *Server) writeErr(w http.ResponseWriter, e *wire.Error) {
	if e.Status == http.StatusTooManyRequests && e.RetryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(e.RetryAfterS, 10))
	}
	s.countErr(e)
	writeJSON(w, e.Status, e)
}

// countErr counts e into bad_requests when it is a 4xx other than 429.
func (s *Server) countErr(e *wire.Error) {
	if e.Status >= 400 && e.Status < 500 && e.Status != http.StatusTooManyRequests {
		s.m.badRequests.Inc()
	}
}

// shedErr builds the structured 429 for a shed decision: the queue
// drain estimate rides in both the Retry-After header (set by
// writeErr) and the JSON body.
func shedErr(d *shedDecision) *wire.Error {
	return wire.Errorf(http.StatusTooManyRequests,
		"overloaded (%s): estimated queue wait %v; retry after %ds",
		d.mode, d.estWait.Round(time.Millisecond), d.retryAfter).
		WithReason("shed").WithRetryAfter(d.retryAfter)
}

// asWireErr maps an internal error onto a structured API error:
// validation failures stay 400s, client abandonment is 499, anything
// else is a 500.
func asWireErr(err error) *wire.Error {
	var we *wire.Error
	if errors.As(err, &we) {
		return we
	}
	if errors.Is(err, guard.ErrCanceled) || errors.Is(err, context.Canceled) {
		return wire.Errorf(499, "client closed request").WithReason("canceled")
	}
	return wire.Errorf(http.StatusInternalServerError, "%v", err)
}

// decodeStrict reads the body, capped at maxBytes, into a pooled
// buffer and decodes it with wire.DecodeRequest: one JSON value,
// unknown fields and trailing data refused. v does not keep the buffer.
func decodeStrict(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	bp := getBody()
	defer putBody(bp)
	var err error
	if *bp, err = readBody(*bp, r.Body); err != nil {
		// Over the cap or cut short. Replaying what arrived ahead of the
		// error lets the decoder meet it where a streaming read would: a
		// value complete before it still decodes.
		return wire.DecodeStream(io.MultiReader(bytes.NewReader(*bp), r.Body), v)
	}
	return wire.DecodeRequest(*bp, v)
}

// readBody appends what r yields up to io.EOF to buf.
func readBody(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// handleSchedule serves POST /v1/schedule.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, wire.Errorf(http.StatusMethodNotAllowed, "POST required"))
		return
	}
	s.m.reqSchedule.Inc()
	var req wire.ScheduleRequest
	if err := decodeStrict(w, r, s.opts.MaxBodyBytes, &req); err != nil {
		s.writeErr(w, asWireErr(err))
		return
	}
	// A hop-marked request came from another replica (or a client
	// playing one): treat it with peer semantics so forwards never
	// chain, whatever path it arrived on.
	peer := r.Header.Get(cluster.HopHeader) != ""
	res, st, werr := s.scheduleAs(r.Context(), &req, peer, "")
	if werr != nil {
		s.writeErr(w, werr)
		return
	}
	noteCost(w, st.Cost)
	writeAppended(w, func(b []byte) []byte { return res.AppendStamped(b, &st) })
}

// The cost blocks of cache answers: such a request paid a lookup, not
// the cached entry's solve. Shared by every hit and never written.
var (
	hitCost    = &wire.CostMeta{SourceTier: wire.TierCache}
	sharedCost = &wire.CostMeta{SourceTier: wire.TierShared}
)

// scheduleAs is the shared single-request path of /v1/schedule and the
// peer route: validate, canonicalize, cache-or-solve, stamp per-request
// fields. It returns the shared entry, which must not be written, and
// this request's stamp for it. peerCall marks a replica-to-replica
// request (never forward again, shed with 429 instead of degrading on
// queue saturation), and wantKey, when non-empty, is the forwarder's
// content-addressed key — a mismatch against the locally computed key
// is a 400, so canonicalization skew between replicas fails loudly
// instead of silently splitting the fleet's cache.
func (s *Server) scheduleAs(ctx context.Context, req *wire.ScheduleRequest, peerCall bool, wantKey string) (*wire.ScheduleResult, wire.Stamp, *wire.Error) {
	start := time.Now()
	if req.BudgetBits < 1 {
		return nil, wire.Stamp{}, wire.Errorf(http.StatusBadRequest,
			"budget_bits must be positive, got %d", req.BudgetBits)
	}
	_, csp := obs.StartSpan(ctx, "canonicalize")
	inst, err := req.Instance()
	csp.End()
	if err != nil {
		return nil, wire.Stamp{}, wire.Errorf(http.StatusBadRequest, "%v", err)
	}
	budget := req.BudgetBits
	key := inst.Key(budget)
	if wantKey != "" && wantKey != key {
		return nil, wire.Stamp{}, wire.Errorf(http.StatusBadRequest,
			"peer key mismatch: forwarder sent %s, owner computed %s (replica version skew?)", wantKey, key)
	}

	cctx, sp := obs.StartSpan(ctx, "cache")
	fill := func() (*wire.ScheduleResult, bool, error) {
		// The counts sink rides the solve context: every solver flush
		// the request drives (one-shot solvers, anytime workers) adds
		// its counts here, feeding the response's CostMeta without any
		// solver API change.
		return s.solveCold(guard.WithSink(cctx, &guard.CountsSink{}), req, &inst, key, budget, peerCall)
	}
	cached, state, err := s.cache.Do(key, fill)
	if err == nil && req.IncludeMoves && len(cached.Schedule) != cached.MoveCount {
		// A peer filled the entry for a request that did not ask for
		// moves. This one did: it refills through the ladder, answers as
		// a miss, and its answer replaces the entry.
		var cacheable bool
		if cached, cacheable, err = fill(); err == nil && cacheable {
			s.cache.Put(key, cached)
		}
		state = schedcache.Miss
	}
	sp.SetAttr("disposition", state.String())
	sp.End()
	if err != nil {
		return nil, wire.Stamp{}, asWireErr(err)
	}

	// This request's view of the entry: cache disposition, its elapsed
	// time, and the move list only when asked for.
	st := wire.Stamp{Cache: state.String(), CacheKey: key, ElapsedUS: cached.ElapsedUS, Cost: cached.Cost}
	switch state {
	case schedcache.Hit:
		st.ElapsedUS, st.Cost = wire.Elapsed(start), hitCost
	case schedcache.Shared:
		st.ElapsedUS, st.Cost = wire.Elapsed(start), sharedCost
	}
	if req.IncludeMoves {
		st.Schedule = cached.Schedule
		if !peerCall {
			// Cached cdag schedules live in canonical node numbering (the
			// cache key is isomorphism-invariant); express the moves back
			// in this requester's numbering. Peer calls stay canonical —
			// the forwarder caches the fill and remaps at its own edge.
			st.Schedule = inst.RequestSchedule(st.Schedule)
		}
	}
	return cached, st, nil
}

// minDegradeBudget is the smallest deadline budget worth a degraded
// baseline answer: below it even the linear-time baseline plus
// response encoding risks blowing the deadline, so the request is
// shed with a 429 instead.
const minDegradeBudget = 5 * time.Millisecond

// solveCold is the cache-miss path, structured as a degradation
// ladder. Tier −1 (cluster mode): if the consistent-hash ring assigns
// the key to another replica, offer the miss to that owner first
// (bounded by the peer-timeout slice of the deadline) — a filled
// answer costs this replica no solver slot and no graph build at all;
// on peer error or shed, build the graph, check that a schedule exists,
// and continue down the local ladder. Tier 0: the fallback-storm
// breaker — while it is open the optimal tier is presumed thrashing
// and the request goes straight to the baseline. Tier 1:
// deadline-aware admission — the queue wait is estimated from the live
// slot-hold histogram, doomed work is rejected up front, and the
// actual wait is capped by the request's own deadline budget. Tier 2:
// a queue-full request with deadline budget left gets the baseline
// answer now instead of a 429. Tier 3: an admitted solve runs with
// whatever deadline budget the queue wait left over. The bool reports
// cacheability — only optimal results are stored.
//
// peerCall marks a replica-to-replica request: tier −1 is skipped (a
// fill is exactly one hop) and the degrading tiers 0 and 2 shed with a
// 429 instead — the forwarder holds the request's real deadline budget
// and decides between its own baseline and propagating the shed.
func (s *Server) solveCold(ctx context.Context, req *wire.ScheduleRequest, inst *solve.Instance, key string, budget int64, peerCall bool) (*wire.ScheduleResult, bool, error) {
	deadline := s.requestDeadline(ctx, req.TimeoutMS)

	// The peer hop comes before Build: a filled answer needs no local
	// graph. An invalid request costs the hop — the owner answers 4xx,
	// and the Build below returns the same 400 a single node would.
	if !peerCall && s.cluster != nil {
		if owner, local := s.cluster.Route(key); !local {
			if res, cacheable, err, handled := s.peerFill(ctx, owner, key, req, deadline); handled {
				return res, cacheable, err
			}
		}
	}

	_, bsp := obs.StartSpan(ctx, "build")
	p, g, err := inst.Build()
	bsp.End()
	if err != nil {
		return nil, false, wire.Errorf(http.StatusBadRequest, "%v", err)
	}
	if min := core.MinExistenceBudget(g); budget < min {
		return nil, false, wire.Errorf(http.StatusBadRequest,
			"budget %d below existence bound %d (Proposition 2.3): no schedule exists", budget, min)
	}

	if !s.brk.Allow() {
		s.m.shed(shedBreaker)
		if peerCall {
			return nil, false, wire.Errorf(http.StatusTooManyRequests,
				"fallback-storm breaker open").WithReason("shed").WithRetryAfter(1)
		}
		return s.solveShed(ctx, p, inst.Label(), budget, wire.TierBreaker)
	}

	_, asp := obs.StartSpan(ctx, "admission")
	tk, shed := s.adm.Acquire(ctx, deadline)
	if shed != nil {
		asp.SetAttr("shed", shed.mode)
		asp.End()
		s.brk.Cancel()
		switch shed.mode {
		case shedCanceled:
			s.m.shed(shedCanceled)
			return nil, false, guard.Wrap(ctx.Err())
		case shedQueueFull:
			if !peerCall && (deadline == 0 || deadline >= minDegradeBudget) {
				s.m.shed(shedDegraded)
				return s.solveShed(ctx, p, inst.Label(), budget, wire.TierDegraded)
			}
			s.m.shed(shedQueueFull)
			return nil, false, shedErr(shed)
		default: // doomed: the wait estimate (or the wait itself) ate the deadline
			s.m.shed(shedDoomed)
			return nil, false, shedErr(shed)
		}
	}
	asp.End()
	defer tk.Release()

	// Queue time and solve time share the deadline budget: solve with
	// what the wait left over, floored so the solver can still unwind
	// cleanly into its own deadline fallback.
	lim := s.opts.Limits
	if deadline > 0 {
		remaining := deadline - tk.waited
		if remaining < time.Millisecond {
			remaining = time.Millisecond
		}
		lim.Deadline = remaining
	}
	s.m.inflight.Add(1)
	sctx, ssp := obs.StartSpan(ctx, "solve")
	out, err := solve.Run(sctx, p, budget, lim)
	ssp.SetAttr("source", out.Source.String())
	ssp.End()
	s.m.inflight.Add(-1)
	fallback := s.observeSolve(p.Name, out, err)
	if err != nil {
		// Cancellation says nothing about solver health; anything else
		// that reached the solver and failed counts as a degradation
		// signal for the breaker.
		if errors.Is(err, guard.ErrCanceled) || errors.Is(err, context.Canceled) {
			s.brk.Cancel()
		} else {
			s.brk.Record(true)
		}
		return nil, false, err
	}
	s.brk.Record(fallback)
	if out.Anytime != nil {
		s.m.observeAnytime(out.Anytime)
	}
	res := wire.NewScheduleResult(inst.Label(), out, core.LowerBound(g), true)
	res.Cost = costMeta(wire.TierSolve, tk.waited, out.Elapsed, guard.SinkFrom(ctx))
	return res, cacheableSource(res), nil
}

// requestDeadline maps a request's timeout_ms onto its deadline
// budget: the requested (or default) timeout, clamped by the server
// maximum and by the transport context's own deadline.
func (s *Server) requestDeadline(ctx context.Context, timeoutMS int64) time.Duration {
	want := s.opts.DefaultTimeout
	if timeoutMS > 0 {
		want = time.Duration(timeoutMS) * time.Millisecond
	}
	return guard.ClampDeadline(ctx, want, s.opts.MaxTimeout)
}

// costMeta assembles the cost block for a fresh (uncached) answer from
// the admission wait, the solver wall time and the solver-progress
// counters flushed into the request's sink.
func costMeta(tier string, wait, wall time.Duration, cs *guard.CountsSink) *wire.CostMeta {
	c := cs.Snapshot()
	return &wire.CostMeta{
		SourceTier:       tier,
		QueueWaitUS:      wait.Microseconds(),
		SolveWallUS:      wall.Microseconds(),
		StatesExpanded:   c.States,
		MemoHits:         c.MemoHits,
		MemoMisses:       c.MemoEntries,
		CellsInvalidated: c.CellsInvalidated,
		CellsReused:      c.CellsReused,
	}
}

// cacheableSource decides whether a solve result may enter the
// schedule cache (and be accepted from a peer fill): optimal results
// always; anytime results only when the search drained its frontier —
// Complete certifies the cost optimal within the no-recompute
// subspace, so serving it from cache repeats the best answer rather
// than freezing an arbitrary deadline's incumbent.
func cacheableSource(res *wire.ScheduleResult) bool {
	if res.Source == solve.SourceOptimal.String() {
		return true
	}
	return res.Source == solve.SourceAnytime.String() && res.Anytime != nil && res.Anytime.Complete
}

// solveShed is the ladder's bottom tier: answer from the baseline
// scheduler without touching the optimal tier or the solver slots.
// The result is flagged fallback with cause "shed" and is never
// cached — the next request with headroom deserves the real solve.
func (s *Server) solveShed(ctx context.Context, p solve.Problem, label string, budget int64, tier string) (*wire.ScheduleResult, bool, error) {
	sctx, ssp := obs.StartSpan(ctx, "solve")
	out, err := solve.Degraded(sctx, p, cdag.Weight(budget))
	ssp.SetAttr("source", out.Source.String())
	ssp.SetAttr("shed", "true")
	ssp.End()
	s.observeSolve(p.Name, out, err)
	if err != nil {
		return nil, false, err
	}
	res := wire.NewScheduleResult(label, out, core.LowerBound(p.G), true)
	res.Cost = costMeta(tier, 0, out.Elapsed, guard.SinkFrom(ctx))
	return res, false, nil
}

// observeSolve records one solve of the named problem in the metrics
// and logs it when it failed or degraded to the baseline: a burst of
// fallbacks means the deadline or resource ceilings are too tight for
// the traffic mix. It reports whether the answer is a fallback.
func (s *Server) observeSolve(name string, out solve.Outcome, err error) (fallback bool) {
	fallback = out.Source == solve.SourceFallback
	s.m.observeSolve(out.Elapsed, fallback, err != nil, solve.FallbackReason(out.Err))
	if s.log == nil {
		return fallback
	}
	if err != nil {
		s.log.Error("solve failed", "workload", name, "err", err)
	} else if fallback {
		s.log.Warn("solve degraded to baseline", "workload", name,
			"reason", solve.FallbackReason(out.Err), "err", out.Err, "elapsed", out.Elapsed)
	}
	return fallback
}

// handleLowerBound serves /v1/lowerbound: the compulsory-I/O lower
// bound (Proposition 2.4) and the schedule-existence bound
// (Proposition 2.3), computed without solving. Parametric families use
// GET query parameters (family, n, d, m, k, height, weights); explicit
// family:"cdag" graphs arrive as a request body (raw node/edge spec or
// interchange form, exactly as /v1/schedule takes them, no budget
// needed) on GET or POST.
func (s *Server) handleLowerBound(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		s.writeErr(w, wire.Errorf(http.StatusMethodNotAllowed, "GET or POST required"))
		return
	}
	if r.Method == http.MethodPost || r.URL.Query().Get("family") == solve.FamilyCDAG {
		// Body-borne: the way to submit family:"cdag" graphs, which don't
		// fit in a query string. Bounds are budget-free.
		var req wire.ScheduleRequest
		if err := decodeStrict(w, r, s.opts.MaxBodyBytes, &req); err != nil {
			s.writeErr(w, asWireErr(err))
			return
		}
		s.writeLowerBound(w, &req.Spec)
		return
	}
	q := r.URL.Query()
	spec := wire.Spec{
		Family:  q.Get("family"),
		Weights: wire.WeightSpec{Name: q.Get("weights")},
	}
	for _, f := range []struct {
		name string
		dst  *int
	}{{"n", &spec.N}, {"d", &spec.D}, {"m", &spec.M}, {"k", &spec.K}, {"height", &spec.Height}} {
		v := q.Get(f.name)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			s.writeErr(w, wire.Errorf(http.StatusBadRequest, "bad %s=%q: %v", f.name, v, err))
			return
		}
		*f.dst = n
	}
	s.writeLowerBound(w, &spec)
}

// writeLowerBound resolves the instance and writes its bounds.
func (s *Server) writeLowerBound(w http.ResponseWriter, spec *wire.Spec) {
	inst, err := spec.Instance()
	if err != nil {
		s.writeErr(w, wire.Errorf(http.StatusBadRequest, "%v", err))
		return
	}
	_, g, err := inst.Build()
	if err != nil {
		s.writeErr(w, wire.Errorf(http.StatusBadRequest, "%v", err))
		return
	}
	writeJSON(w, http.StatusOK, wire.LowerBoundResult{
		Workload:         inst.Label(),
		LowerBoundBits:   int64(core.LowerBound(g)),
		MinExistenceBits: int64(core.MinExistenceBudget(g)),
		Nodes:            g.Len(),
		Edges:            g.EdgeCount(),
		TotalWeightBits:  int64(g.TotalWeight()),
		SourceWeightBits: int64(g.SourceWeight()),
		SinkWeightBits:   int64(g.SinkWeight()),
	})
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

// handleReadyz serves GET /readyz: the load-balancer routing signal,
// distinct from /healthz liveness. It answers 503 while the daemon is
// draining (shutdown announced, connections about to close) or
// overloaded (admission queue at capacity), 200 otherwise — so
// balancers stop routing before requests start failing.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	switch {
	case s.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case s.adm.saturated():
		status, code = "overloaded", http.StatusServiceUnavailable
	}
	body := map[string]any{
		"status":      status,
		"queue_depth": s.adm.queued.Load(),
		"queue_limit": s.adm.maxQueue,
		"breaker":     s.brk.State(),
		// SLO detail rides along for operators; like peer health it never
		// flips readiness — burn rate is a paging signal, not a routing
		// one (pulling a replica for burning budget would shift its load
		// onto the others and burn faster).
		"slo": s.slo.Summary(),
	}
	if s.cluster != nil {
		// Peer reachability rides along for operators; it never flips
		// readiness — a replica that lost its peers still serves (it just
		// solves everything locally), and taking it out of rotation for
		// that would turn a partition into an outage.
		body["peers"] = s.cluster.Health()
	}
	writeJSON(w, code, body)
}

// BeginDrain flips /readyz to "draining" (503) so load balancers stop
// routing new work before the listener closes; in-flight requests are
// unaffected. It also stops taking peer fills as frames: upgraded
// connections, which outlive http.Server.Close and Shutdown, close
// once their in-flight frames are answered, and new upgrades are
// refused, so forwarders solve locally. The daemon calls it on
// SIGINT/SIGTERM ahead of http.Server.Shutdown.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.peers.Drain()
}

// String describes the server configuration for startup logs.
func (s *Server) String() string {
	desc := fmt.Sprintf("cache %d×%d entries, %d solver slots (+%d queue), timeout %v (max %v), breaker %s",
		s.opts.CacheShards, s.opts.CachePerShard, s.opts.MaxInflight, s.opts.MaxQueue,
		s.opts.DefaultTimeout, s.opts.MaxTimeout, s.brk.State())
	if s.cluster != nil {
		rep := s.cluster.Health()
		desc += fmt.Sprintf(", cluster %d members (self %s, peer timeout %v)",
			rep.Total, s.cluster.Self(), s.cluster.PeerTimeout())
	}
	return desc
}
