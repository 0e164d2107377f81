// Package wire defines the machine-readable request/response types
// shared by the wrbpgd HTTP API and the wrbpg CLI's -json output, so
// both surfaces emit the same result struct and downstream tooling
// parses one format.
package wire

import (
	"fmt"
	"math"
	"time"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/obs"
	"wrbpg/internal/solve"
	"wrbpg/internal/wcfg"
)

// WeightSpec selects a weight configuration: either a named preset
// ("equal", "da") or explicit word/class sizes. Explicit fields, when
// any is set, override the preset entirely.
type WeightSpec struct {
	// Name is "equal" (default) or "da" / "double-accumulator".
	Name string `json:"name,omitempty"`
	// WordBits, InputWords and NodeWords spell out a custom
	// configuration; all three must be positive when used.
	WordBits   int `json:"word_bits,omitempty"`
	InputWords int `json:"input_words,omitempty"`
	NodeWords  int `json:"node_words,omitempty"`
}

// Config resolves the spec to a wcfg.Config, rejecting non-positive
// custom weights (the negative-weight validation gap of untrusted
// requests).
func (ws WeightSpec) Config() (wcfg.Config, error) {
	if ws.WordBits != 0 || ws.InputWords != 0 || ws.NodeWords != 0 {
		if ws.WordBits < 1 || ws.InputWords < 1 || ws.NodeWords < 1 {
			return wcfg.Config{}, fmt.Errorf(
				"wire: custom weights must all be positive, got word_bits=%d input_words=%d node_words=%d",
				ws.WordBits, ws.InputWords, ws.NodeWords)
		}
		return wcfg.Config{Name: "Custom", WordBits: ws.WordBits,
			InputWords: ws.InputWords, NodeWords: ws.NodeWords}, nil
	}
	switch ws.Name {
	case "", "equal":
		return wcfg.Equal(wcfg.DefaultWordBits), nil
	case "da", "double", "double-accumulator":
		return wcfg.DoubleAccumulator(wcfg.DefaultWordBits), nil
	default:
		return wcfg.Config{}, fmt.Errorf("wire: unknown weight config %q (want equal or da)", ws.Name)
	}
}

// Spec names one instance: a family with its size parameters and node
// weights — "dwt" (N, D), "ktree" (K, Height), "mvm" (M, N), or "cdag"
// with an explicit graph — plus optional weight overrides. Every
// request type that names an instance embeds it, so its fields appear
// at the top level of the request body.
type Spec struct {
	Family string `json:"family,omitempty"`
	N      int    `json:"n,omitempty"`
	D      int    `json:"d,omitempty"`
	M      int    `json:"m,omitempty"`
	K      int    `json:"k,omitempty"`
	Height int    `json:"height,omitempty"`
	// Weights selects the node-weight configuration for the parametric
	// families; ignored for cdag.
	Weights WeightSpec `json:"weights,omitempty"`
	// Graph is the explicit CDAG of a family:"cdag" request in the
	// cdag interchange form (integer parents, topological order).
	Graph *cdag.Graph `json:"graph,omitempty"`
	// CDAG is the raw node/edge form of a family:"cdag" request: named
	// nodes with symbolic deps in any order (see GraphSpec). Exactly one
	// of Graph and CDAG may be set.
	CDAG *GraphSpec `json:"cdag,omitempty"`
	// Deltas, when present, are per-node weight overrides applied on
	// top of the configured weights (dwt and ktree only). They become
	// part of the instance's cache identity, so a patched variant never
	// collides with its base in the schedule cache. The same schema
	// feeds POST /v1/schedule/patch and the CLI's -patch mode.
	Deltas []PatchDelta `json:"deltas,omitempty"`
}

// Instance converts the spec to its canonical solve.Instance. For
// family:"cdag" the graph — whichever wire form carried it — is
// relabeled into the structural canonical form, so isomorphic
// submissions (same dataflow, different node order or names) share one
// cache key; Instance.Perm records the relabeling for callers that
// must express move lists back in the requester's numbering.
func (r *Spec) Instance() (solve.Instance, error) {
	var cfg wcfg.Config
	if r.Family != solve.FamilyCDAG {
		var err error
		if cfg, err = r.Weights.Config(); err != nil {
			return solve.Instance{}, err
		}
	}
	g := r.Graph
	if r.CDAG != nil {
		if g != nil {
			return solve.Instance{}, fmt.Errorf("wire: request sets both graph and cdag; send exactly one")
		}
		var err error
		if g, err = r.CDAG.Graph(); err != nil {
			return solve.Instance{}, fmt.Errorf("wire: %v", err)
		}
	}
	in := solve.Instance{
		Family: r.Family,
		N:      r.N, D: r.D, M: r.M,
		K: r.K, Height: r.Height,
		Cfg: cfg,
		G:   g,
	}
	ds, err := CanonicalDeltas(r.Deltas)
	if err != nil {
		return solve.Instance{}, err
	}
	in.Deltas = ds
	if err := in.Validate(); err != nil {
		return solve.Instance{}, err
	}
	in.Canonicalize()
	return in, nil
}

// ScheduleRequest asks for one solve of the instance its Spec names.
type ScheduleRequest struct {
	Spec
	// BudgetBits is the fast-memory budget B; it must be positive
	// (servers have no "default to minimum memory" convention — the
	// budget is part of the cache identity).
	BudgetBits int64 `json:"budget_bits"`
	// TimeoutMS optionally overrides the server's default solve
	// deadline, clamped to its maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// IncludeMoves asks for the full move list in the response (the
	// summary metrics are always present).
	IncludeMoves bool `json:"include_moves,omitempty"`
}

// PatchDelta is one node-weight override in the wire schema, shared by
// the deltas field of /v1/schedule, POST /v1/schedule/patch and the
// CLI's -patch mode: set the named node's weight to weight_bits.
type PatchDelta struct {
	Node       int64 `json:"node"`
	WeightBits int64 `json:"weight_bits"`
}

// CanonicalDeltas converts wire deltas to the canonical solver form:
// sorted by node, duplicate nodes merged last-wins (the order clients
// sent them in is their application order). Weight positivity and node
// range against the actual graph are the instance's job
// (solve.Instance.Validate); only the node-ID representation is
// checked here.
func CanonicalDeltas(ds []PatchDelta) ([]cdag.WeightDelta, error) {
	if len(ds) == 0 {
		return nil, nil
	}
	out := make([]cdag.WeightDelta, len(ds))
	for i, d := range ds {
		if d.Node < 0 || d.Node > math.MaxInt32 {
			return nil, fmt.Errorf("wire: deltas[%d].node %d out of range", i, d.Node)
		}
		out[i] = cdag.WeightDelta{Node: cdag.NodeID(d.Node), Weight: d.WeightBits}
	}
	return cdag.CanonicalDeltas(out), nil
}

// ScheduleResult is the shared machine-readable result of one solve,
// emitted identically by `wrbpg schedule -json` and by wrbpgd.
type ScheduleResult struct {
	// Workload is the human-readable instance label.
	Workload string `json:"workload"`
	// Source is "optimal", "anytime" (the general-DAG branch-and-bound
	// tier) or "fallback".
	Source string `json:"source"`
	// FallbackReason is the human-readable degradation cause when
	// Source is "fallback"; FallbackCause is its machine-readable
	// classification ("deadline", "budget", "panic", "canceled" or
	// "other") for clients and dashboards that must not string-match.
	FallbackReason string `json:"fallback_reason,omitempty"`
	FallbackCause  string `json:"fallback_cause,omitempty"`
	// BudgetBits, CostBits, PeakBits and LowerBoundBits are the solve
	// metrics in bits (weighted I/O cost, peak red residency, and the
	// Proposition 2.4 lower bound).
	BudgetBits     int64 `json:"budget_bits"`
	CostBits       int64 `json:"cost_bits"`
	PeakBits       int64 `json:"peak_bits"`
	LowerBoundBits int64 `json:"lower_bound_bits"`
	// MoveCount is the schedule length; MoveKinds counts M1–M4.
	MoveCount int            `json:"move_count"`
	MoveKinds map[string]int `json:"move_kinds"`
	// Anytime carries the branch-and-bound search report when Source is
	// "anytime" (the general-DAG tier).
	Anytime *AnytimeResult `json:"anytime,omitempty"`
	// Schedule is the full move list, present only when requested.
	Schedule core.Schedule `json:"schedule,omitempty"`
	// ElapsedUS is the wall-clock solve time in microseconds. On a
	// cache hit the server reports the lookup time, not the original
	// solve time.
	ElapsedUS int64 `json:"elapsed_us"`
	// CacheKey is the content-addressed identity of the instance;
	// Cache is "hit", "miss" or "shared" when served from wrbpgd and
	// empty from the CLI.
	CacheKey string `json:"cache_key,omitempty"`
	Cache    string `json:"cache,omitempty"`
	// Cost is the per-request cost accounting block, stamped by wrbpgd
	// (absent from the CLI's -json output).
	Cost *CostMeta `json:"cost,omitempty"`
}

// CostMeta is the per-request cost accounting block: where a response
// came from (SourceTier) and what serving it spent — queue wait, solve
// wall time, and the solver-progress counters teed from
// guard.TakeCounts. Every schedule/sweep/patch response carries one,
// and the serve layer's structured request log line repeats it, so
// expensive requests are attributable from either surface.
type CostMeta struct {
	// SourceTier names the degradation-ladder tier that produced the
	// response: "cache" / "shared" (local cache), "peer" (ring-owner
	// fill), "solve" (admitted local solve), "degraded" (baseline
	// fallback under shed pressure), "breaker" (peer-breaker fallback)
	// or "session" (sweep/patch warm-session answer).
	SourceTier string `json:"source_tier"`
	// QueueWaitUS is the time spent in the admission queue.
	QueueWaitUS int64 `json:"queue_wait_us,omitempty"`
	// SolveWallUS is the wall-clock time of the solve (or sweep/patch)
	// itself, excluding queueing and transport.
	SolveWallUS int64 `json:"solve_wall_us,omitempty"`
	// StatesExpanded counts tracked search states (exact/anytime tiers).
	StatesExpanded int64 `json:"states_expanded,omitempty"`
	// MemoHits / MemoMisses count warm memo probes versus fresh cells
	// created across every solver the request drove.
	MemoHits   int64 `json:"memo_hits,omitempty"`
	MemoMisses int64 `json:"memo_misses,omitempty"`
	// CellsInvalidated / CellsReused report incremental-engine work
	// (sweep and patch requests).
	CellsInvalidated int64 `json:"cells_invalidated,omitempty"`
	CellsReused      int64 `json:"cells_reused,omitempty"`
	// PeerHops counts replica-to-replica forwards taken to answer.
	PeerHops int `json:"peer_hops,omitempty"`
}

// CostMeta.SourceTier vocabulary, ordered roughly by cost: cache
// dispositions, a ring-owner fill, a warm-session answer, an admitted
// local solve, and the two shed-pressure fallbacks.
const (
	TierCache    = "cache"
	TierShared   = "shared"
	TierPeer     = "peer"
	TierSession  = "session"
	TierSolve    = "solve"
	TierDegraded = "degraded"
	TierBreaker  = "breaker"
)

// AnytimeResult reports one branch-and-bound search of the general-DAG
// anytime tier: whether the frontier drained (Complete certifies the
// cost optimal within the no-recompute subspace — such results are
// cacheable like optimal ones), the baseline seed the search improved
// on, and the search-effort counters.
type AnytimeResult struct {
	Complete     bool  `json:"complete"`
	SeedCostBits int64 `json:"seed_cost_bits"`
	Expanded     int64 `json:"expanded"`
	Pruned       int64 `json:"pruned"`
	Deduped      int64 `json:"deduped"`
	Improvements int64 `json:"improvements"`
	Workers      int   `json:"workers"`
}

// NewScheduleResult builds the shared result struct from a solve
// outcome. lb is core.LowerBound of the instance graph.
func NewScheduleResult(label string, out solve.Outcome, lb cdag.Weight, includeMoves bool) *ScheduleResult {
	r := &ScheduleResult{
		Workload:       label,
		Source:         out.Source.String(),
		BudgetBits:     int64(out.Budget),
		CostBits:       int64(out.Stats.Cost),
		PeakBits:       int64(out.Stats.PeakRedWeight),
		LowerBoundBits: int64(lb),
		MoveCount:      len(out.Schedule),
		MoveKinds: map[string]int{
			"M1": out.Stats.Moves[core.M1],
			"M2": out.Stats.Moves[core.M2],
			"M3": out.Stats.Moves[core.M3],
			"M4": out.Stats.Moves[core.M4],
		},
		ElapsedUS: out.Elapsed.Microseconds(),
	}
	if out.Source == solve.SourceFallback && out.Err != nil {
		r.FallbackReason = out.Err.Error()
		r.FallbackCause = solve.FallbackReason(out.Err)
	}
	if out.Anytime != nil {
		r.Anytime = &AnytimeResult{
			Complete:     out.Anytime.Complete,
			SeedCostBits: int64(out.Anytime.SeedCost),
			Expanded:     out.Anytime.Expanded,
			Pruned:       out.Anytime.Pruned,
			Deduped:      out.Anytime.Deduped,
			Improvements: out.Anytime.Improvements,
			Workers:      out.Anytime.Workers,
		}
	}
	if includeMoves {
		r.Schedule = out.Schedule
	}
	return r
}

// Clone returns a shallow-plus-maps copy, so per-request fields
// (Cache, ElapsedUS, Cost) can be stamped without mutating a cached
// result.
func (r *ScheduleResult) Clone() *ScheduleResult {
	cp := *r
	cp.MoveKinds = make(map[string]int, len(r.MoveKinds))
	for k, v := range r.MoveKinds {
		cp.MoveKinds[k] = v
	}
	if r.Cost != nil {
		c := *r.Cost
		cp.Cost = &c
	}
	return &cp
}

// PatchRequest asks for the optimal costs of one instance at a list of
// budgets, answered from the warm session pool: the body of both POST
// /v1/schedule/sweep and POST /v1/schedule/patch (a sweep is a patch
// with no deltas). The base instance is named either by base_key,
// resolved against the resident session pool, or inline, which always
// works and warms the pool for later base_key calls. The response
// carries per-budget costs only; fetch move lists via /v1/schedule.
type PatchRequest struct {
	// BaseKey is the content-addressed identity of the base instance
	// (solve.Instance.BaseShapeKey). Mutually exclusive with an inline
	// Spec; 404 when the session is no longer resident.
	BaseKey string `json:"base_key,omitempty"`
	// Spec names the base instance inline. Its Deltas are the weight
	// overrides defining the patched instance: the full target state
	// relative to the *base* weights (duplicate nodes merge last-wins),
	// so none answers the base. Only dwt and ktree.
	Spec
	// BudgetsBits lists the fast-memory budgets to answer, all
	// positive; answers come back in the same order.
	BudgetsBits []int64 `json:"budgets_bits"`
	// TimeoutMS optionally overrides the server's default deadline for
	// the whole request, clamped to its maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SweepRequest and SweepResponse name the budget-list types by their
// delta-free use.
type SweepRequest = PatchRequest
type SweepResponse = PatchResponse

// BaseInstance is Instance with the deltas left off.
func (r *PatchRequest) BaseInstance() (solve.Instance, error) {
	base := r.Spec
	base.Deltas = nil
	return base.Instance()
}

// SweepItem is one budget's answer. Feasible=false with no Error is a
// legitimate answer: no schedule exists under that budget. Error is
// set when that budget's query was aborted (deadline, resource
// budget, solver fault); sibling budgets are unaffected.
type SweepItem struct {
	BudgetBits int64  `json:"budget_bits"`
	CostBits   int64  `json:"cost_bits,omitempty"`
	Feasible   bool   `json:"feasible"`
	Error      *Error `json:"error,omitempty"`
}

// PatchResponse answers one budget-list request: per-budget items in
// request order, the patched instance's bounds, the session-pool
// disposition and the incremental-engine work counters.
type PatchResponse struct {
	Workload string `json:"workload"`
	// BaseKey identifies the base instance's warm session; pass it as
	// base_key in later requests to skip the inline base. PatchKey is
	// the patched instance's budget-free identity — the shape key its
	// cold-solve results are cached under (BaseKey when no deltas).
	BaseKey          string      `json:"base_key"`
	PatchKey         string      `json:"patch_key"`
	LowerBoundBits   int64       `json:"lower_bound_bits"`
	MinExistenceBits int64       `json:"min_existence_bits"`
	Items            []SweepItem `json:"items"`
	Succeeded        int         `json:"succeeded"`
	Failed           int         `json:"failed"`
	// Session is "hit" when the request was answered from an existing
	// warm session, "miss" when a base session was built cold, "shared"
	// when a concurrent request built it.
	Session string `json:"session"`
	// DeltasApplied counts the canonical deltas defining the target
	// state; ChangedNodes counts the node weights actually written (the
	// diff against the session's current state — 0 means the session
	// was already there and no memo cell was touched).
	DeltasApplied int `json:"deltas_applied"`
	ChangedNodes  int `json:"changed_nodes"`
	// CellsInvalidated / CellsReused report the memo cells cleared by
	// dependency-tracked invalidation versus those that survived — the
	// work the incremental re-solve avoided redoing.
	CellsInvalidated int64 `json:"cells_invalidated"`
	CellsReused      int64 `json:"cells_reused"`
	ElapsedUS        int64 `json:"elapsed_us"`
	// Cost is the per-request cost accounting block.
	Cost *CostMeta `json:"cost,omitempty"`
}

// PeerScheduleRequest is the body of the internal replica-to-replica
// peer-fill protocol (POST /v1/peer/schedule): a replica that missed
// its local cache forwards the schedule request to the key's ring
// owner instead of cold-solving. The endpoint is loop-guarded by the
// X-Wrbpg-Peer-Hop header — an owner answering a peer request never
// forwards again — so ring disagreement costs at most one wasted hop.
type PeerScheduleRequest struct {
	// Req is the schedule request exactly as the forwarder would solve
	// it locally (the forwarder sets include_moves so the filled cache
	// entry keeps the full move list, and timeout_ms to its peer-fill
	// deadline slice).
	Req ScheduleRequest `json:"req"`
	// Key is the forwarder's content-addressed key for Req at its
	// budget. The owner recomputes the key and rejects a mismatch with
	// a 400 — two replicas disagreeing on canonicalization (version
	// skew) must fail loudly, not silently split the fleet's cache.
	Key string `json:"key,omitempty"`
	// Origin is the forwarding replica's advertised URL (diagnostics
	// and the owner's peer-traffic logs; never routing).
	Origin string `json:"origin,omitempty"`
	// TraceParent is the forwarder's trace position ("traceid:spanid",
	// obs.TraceParent). It travels as the X-Wrbpg-Trace-Parent header —
	// the peer client injects it, the owner reads the header — so it is
	// excluded from the JSON body and old/new replicas interoperate.
	TraceParent string `json:"-"`
}

// PeerScheduleResponse is the 200 body of POST /v1/peer/schedule, as a
// packed frame or as JSON (AppendPeerResponse). When
// the forwarder propagated trace context, Trace carries the owner's
// span subtree for the forwarder to graft under its peer.fill span, so
// GET /v1/trace/{id} on the forwarder shows the complete cross-replica
// tree.
type PeerScheduleResponse struct {
	Result *ScheduleResult  `json:"result"`
	Trace  *obs.TraceExport `json:"trace,omitempty"`
}

// LowerBoundResult answers GET /v1/lowerbound: the compulsory I/O
// lower bound and the smallest budget at which any schedule exists.
type LowerBoundResult struct {
	Workload         string `json:"workload"`
	LowerBoundBits   int64  `json:"lower_bound_bits"`
	MinExistenceBits int64  `json:"min_existence_bits"`
	Nodes            int    `json:"nodes"`
	Edges            int    `json:"edges"`
	TotalWeightBits  int64  `json:"total_weight_bits"`
	SourceWeightBits int64  `json:"source_weight_bits"`
	SinkWeightBits   int64  `json:"sink_weight_bits"`
}

// Error is the structured error body of every non-2xx API response.
type Error struct {
	// Status is the HTTP status code.
	Status int `json:"status"`
	// Message is a human-readable description of what was wrong with
	// the request (or what failed serving it).
	Message string `json:"error"`
	// Reason, when set, classifies the abort machine-readably:
	// "deadline", "budget", "panic", "canceled", "shed" or "other".
	Reason string `json:"reason,omitempty"`
	// RetryAfterS, on a 429, is the server's queue-drain estimate in
	// seconds — the same value it sends in the Retry-After header.
	RetryAfterS int64 `json:"retry_after_s,omitempty"`
}

func (e *Error) Error() string { return e.Message }

// Errorf builds a structured Error.
func Errorf(status int, format string, args ...any) *Error {
	return &Error{Status: status, Message: fmt.Sprintf(format, args...)}
}

// WithReason stamps the machine-readable abort classification and
// returns e, for chaining off Errorf.
func (e *Error) WithReason(reason string) *Error {
	e.Reason = reason
	return e
}

// WithRetryAfter stamps the retry estimate (seconds) and returns e,
// for chaining off Errorf.
func (e *Error) WithRetryAfter(seconds int64) *Error {
	e.RetryAfterS = seconds
	return e
}

// Elapsed returns the microseconds since start, for servers stamping
// per-request timing onto results.
func Elapsed(start time.Time) int64 { return time.Since(start).Microseconds() }
