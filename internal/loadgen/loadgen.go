// Package loadgen generates mixed schedule/sweep/patch traffic against
// a wrbpgd endpoint — the measurement half of the overload-resilience
// story. It drives either a closed loop (N workers, each issuing the
// next request when the previous answers: measures capacity) or an
// open loop (a fixed offered rate independent of completions: measures
// behavior *beyond* capacity, where the admission queue and shed tiers
// earn their keep).
//
// Before generating load it warms up by asking /v1/lowerbound for each
// shape in the roster, learning the existence bound so every generated
// budget is feasible — a load test should exercise the solver, not the
// 400 path. Patch traffic uses the ktree shapes only: DWT node weights
// are constrained by the transform structure (Lemma 3.2), so random
// DWT deltas would be rejected as client errors.
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Shape names one parametric instance in the traffic roster.
type Shape struct {
	Family string `json:"family"`
	N      int    `json:"n,omitempty"`
	D      int    `json:"d,omitempty"`
	K      int    `json:"k,omitempty"`
	Height int    `json:"height,omitempty"`
	M      int    `json:"m,omitempty"`

	// learned during warmup
	minExist int64
	nodes    int
}

func (s Shape) label() string {
	switch s.Family {
	case "dwt":
		return fmt.Sprintf("dwt(%d,%d)", s.N, s.D)
	case "ktree":
		return fmt.Sprintf("ktree(%d,%d)", s.K, s.Height)
	case "mvm":
		return fmt.Sprintf("mvm(%d,%d)", s.M, s.N)
	}
	return s.Family
}

// DefaultShapes is the mixed roster: two DWT sizes, two k-trees, one
// MVM — small enough to solve in milliseconds, varied enough to churn
// the schedule cache and session pool.
func DefaultShapes() []Shape {
	return []Shape{
		{Family: "dwt", N: 16, D: 2},
		{Family: "dwt", N: 32, D: 4},
		{Family: "ktree", K: 2, Height: 3},
		{Family: "ktree", K: 3, Height: 3},
		{Family: "mvm", M: 6, N: 8},
	}
}

// Mix weights the traffic kinds; zero entries drop that kind.
type Mix struct {
	Schedule int `json:"schedule"`
	Sweep    int `json:"sweep"`
	Patch    int `json:"patch"`
}

// DefaultMix is schedule-heavy with a steady sweep/patch minority,
// matching the interactive-tool usage the server is designed for.
func DefaultMix() Mix { return Mix{Schedule: 6, Sweep: 2, Patch: 2} }

// Config parameterizes one load-generation run.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// BaseURLs, when non-empty, spreads traffic round-robin across a
	// replica fleet (BaseURL is then ignored). A readiness prober takes
	// non-ready replicas out of rotation and re-admits them on recovery,
	// emulating a load balancer; warmup runs against the first target.
	BaseURLs []string
	// ProbeInterval is the multi-target readiness probe period (default
	// 100ms). Single-target runs never probe.
	ProbeInterval time.Duration
	// HotBudgets, when > 0, draws every schedule budget from a fixed
	// per-shape roster of that many distinct feasible budgets instead of
	// the full [minExist, 2·minExist] range. A finite key population
	// lets fleet benchmarks compute duplicate cold solves exactly:
	// fleet-wide solves minus Result.DistinctScheduleKeys.
	HotBudgets int
	// Shapes is the instance roster (DefaultShapes when empty).
	Shapes []Shape
	// Mix weights the traffic kinds (DefaultMix when zero).
	Mix Mix
	// Workers > 0 runs a closed loop with that many concurrent
	// requesters. Rate is ignored.
	Workers int
	// Rate, with Workers == 0, runs an open loop offering Rate
	// requests/second regardless of completions.
	Rate float64
	// MaxPending caps open-loop in-flight requests; an arrival finding
	// the cap is counted Dropped, not sent (default 256). The cap keeps
	// the generator's own queueing out of the latency measurement: an
	// unbounded client would attribute its goroutine backlog to the
	// server.
	MaxPending int
	// Duration bounds the generation phase (warmup excluded).
	Duration time.Duration
	// Timeout is the per-request deadline sent as timeout_ms and used
	// as the client-side request timeout (plus slack).
	Timeout time.Duration
	// MaxRetries bounds the retry client (0 = no retries).
	MaxRetries int
	// Seed makes budget/shape choices reproducible.
	Seed int64
	// Client overrides the HTTP client (tests).
	Client Doer
}

// Result is the aggregated outcome of a run, JSON-shaped for
// wrbpgload's -out report.
type Result struct {
	Mode        string  `json:"mode"` // "closed" or "open"
	Workers     int     `json:"workers,omitempty"`
	RateOffered float64 `json:"rate_offered,omitempty"`
	DurationS   float64 `json:"duration_s"`
	Offered     int64   `json:"offered"`
	Sent        int64   `json:"sent"`
	Dropped     int64   `json:"dropped"` // open loop: pending cap hit
	Retries     int64   `json:"retries"`

	OK           int64            `json:"ok_200"`
	Shed429      int64            `json:"shed_429"`
	ClientErr    int64            `json:"client_4xx"`
	ServerErr    int64            `json:"server_5xx"`
	TransportErr int64            `json:"transport_err"`
	ByStatus     map[string]int64 `json:"by_status"`
	// ByTarget breaks the outcome down per replica on multi-target runs
	// (absent on single-target runs).
	ByTarget map[string]*TargetStats `json:"by_target,omitempty"`
	// DistinctScheduleKeys counts the distinct (shape, budget) pairs
	// sent to /v1/schedule — the exact number of cold solves a perfectly
	// deduplicating fleet would perform for this run's schedule traffic.
	DistinctScheduleKeys int `json:"distinct_schedule_keys"`

	// DegradedShed counts 200s answered by the shed baseline tier
	// (fallback_cause == "shed").
	DegradedShed int64 `json:"degraded_shed"`
	// Fallback counts all 200s with source == "fallback";
	// FallbackByCause breaks them down by fallback_cause (deadline,
	// budget, shed, …).
	Fallback        int64            `json:"fallback"`
	FallbackByCause map[string]int64 `json:"fallback_by_cause,omitempty"`
	// DeadlineBlown counts 200s that took longer than 2×timeout + 1s —
	// answers the admission layer should have shed instead.
	DeadlineBlown int64 `json:"deadline_blown"`

	ThroughputRPS float64 `json:"throughput_rps"`
	ShedRate      float64 `json:"shed_rate"`
	P50US         int64   `json:"p50_us"`
	P99US         int64   `json:"p99_us"`
	MaxUS         int64   `json:"max_us"`
}

// Run executes one load-generation pass: warmup, then closed- or
// open-loop traffic for cfg.Duration.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if len(cfg.Shapes) == 0 {
		cfg.Shapes = DefaultShapes()
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = DefaultMix()
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	cl := newRetryClient(cfg.Client, cfg.MaxRetries, cfg.Timeout)

	targets := cfg.BaseURLs
	if len(targets) == 0 {
		if cfg.BaseURL == "" {
			return nil, fmt.Errorf("need BaseURL or BaseURLs")
		}
		targets = []string{cfg.BaseURL}
	}
	shapes, err := warmup(ctx, cl, targets[0], cfg.Shapes)
	if err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	g := &generator{cfg: cfg, cl: cl, shapes: shapes, targets: newTargetPool(targets)}
	g.patchable = patchableShapes(shapes)
	if cfg.HotBudgets > 0 {
		g.hot = make(map[string][]int64, len(shapes))
		for _, s := range shapes {
			budgets := make([]int64, cfg.HotBudgets)
			// Spread the roster across (1.5·minExist, 2·minExist]: the
			// existence bound is necessary but not sufficient, so budgets
			// just above it can be infeasible for the optimal tier (or
			// worst-case branch-and-bound). Those answers never cache and
			// would turn the fixed roster into a permanent fallback storm
			// — the hot set is meant to measure caching, not feasibility
			// edges.
			step := s.minExist / int64(2*cfg.HotBudgets)
			if step < 1 {
				step = 1
			}
			for i := range budgets {
				budgets[i] = 3*s.minExist/2 + int64(i+1)*step
			}
			g.hot[s.label()] = budgets
		}
	}
	if len(targets) > 1 {
		interval := cfg.ProbeInterval
		if interval <= 0 {
			interval = 100 * time.Millisecond
		}
		pctx, stopProbe := context.WithCancel(ctx)
		defer stopProbe()
		g.targets.probe(pctx, cl.hc, interval) // initial sweep before traffic
		go g.targets.watch(pctx, cl.hc, interval)
	}
	if cfg.Workers > 0 {
		return g.closedLoop(ctx)
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("need Workers > 0 (closed loop) or Rate > 0 (open loop)")
	}
	return g.openLoop(ctx)
}

// warmup resolves each shape's existence bound and node count from
// /v1/lowerbound, so generated budgets are always feasible and patch
// deltas name real nodes.
func warmup(ctx context.Context, cl *retryClient, base string, shapes []Shape) ([]Shape, error) {
	out := make([]Shape, len(shapes))
	for i, s := range shapes {
		q := url.Values{"family": {s.Family}}
		for _, f := range []struct {
			k string
			v int
		}{{"n", s.N}, {"d", s.D}, {"k", s.K}, {"height", s.Height}, {"m", s.M}} {
			if f.v != 0 {
				q.Set(f.k, strconv.Itoa(f.v))
			}
		}
		st, body, err := cl.get(ctx, base+"/v1/lowerbound?"+q.Encode())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.label(), err)
		}
		if st != 200 {
			return nil, fmt.Errorf("%s: lowerbound status %d: %s", s.label(), st, body)
		}
		var lb struct {
			MinExistenceBits int64 `json:"min_existence_bits"`
			Nodes            int   `json:"nodes"`
		}
		if err := json.Unmarshal(body, &lb); err != nil {
			return nil, fmt.Errorf("%s: %w", s.label(), err)
		}
		s.minExist, s.nodes = lb.MinExistenceBits, lb.Nodes
		out[i] = s
	}
	return out, nil
}

func patchableShapes(shapes []Shape) []Shape {
	var out []Shape
	for _, s := range shapes {
		if s.Family == "ktree" {
			out = append(out, s)
		}
	}
	return out
}

// generator holds the per-run state shared by the loop drivers.
type generator struct {
	cfg       Config
	cl        *retryClient
	shapes    []Shape
	patchable []Shape
	targets   *targetPool
	hot       map[string][]int64 // per-shape fixed budget roster (HotBudgets mode)

	mu        sync.Mutex
	latencies []int64             // µs, successful 200s only
	seenKeys  map[string]struct{} // distinct schedule (shape, budget) pairs
	res       Result
}

// budgetFor picks a feasible budget for s: from the fixed hot roster
// when configured, otherwise uniform in [minExist, 2·minExist].
func (g *generator) budgetFor(rng *rand.Rand, s Shape) int64 {
	if roster := g.hot[s.label()]; len(roster) > 0 {
		return roster[rng.Intn(len(roster))]
	}
	return s.minExist + rng.Int63n(s.minExist+1)
}

// nextRequest picks a traffic kind by mix weight and builds its
// method, path and body. rng is per-worker: no lock on the hot path.
// schedKey identifies a /v1/schedule request's (shape, budget) pair
// for the distinct-key census, "" for other kinds.
func (g *generator) nextRequest(rng *rand.Rand) (path string, body []byte, schedKey string) {
	m := g.cfg.Mix
	total := m.Schedule + m.Sweep + m.Patch
	pick := rng.Intn(total)
	timeoutMS := g.cfg.Timeout.Milliseconds()
	sh := g.shapes[rng.Intn(len(g.shapes))]
	budget := g.budgetFor(rng, sh)

	switch {
	case pick < m.Schedule || len(g.patchable) == 0 && pick >= m.Schedule+m.Sweep:
		req := map[string]any{
			"family": sh.Family, "budget_bits": budget, "timeout_ms": timeoutMS,
		}
		addDims(req, sh)
		b, _ := json.Marshal(req)
		return "/v1/schedule", b, fmt.Sprintf("%s@%d", sh.label(), budget)
	case pick < m.Schedule+m.Sweep:
		budgets := make([]int64, 1+rng.Intn(4))
		for i := range budgets {
			budgets[i] = g.budgetFor(rng, sh)
		}
		req := map[string]any{
			"family": sh.Family, "budgets_bits": budgets, "timeout_ms": timeoutMS,
		}
		addDims(req, sh)
		b, _ := json.Marshal(req)
		return "/v1/schedule/sweep", b, ""
	default:
		ps := g.patchable[rng.Intn(len(g.patchable))]
		deltas := []map[string]any{{
			"node":        rng.Intn(ps.nodes),
			"weight_bits": 8 + rng.Int63n(57), // [8, 64]
		}}
		req := map[string]any{
			"family": ps.Family, "deltas": deltas,
			"budgets_bits": []int64{g.budgetFor(rng, ps)},
			"timeout_ms":   timeoutMS,
		}
		addDims(req, ps)
		b, _ := json.Marshal(req)
		return "/v1/schedule/patch", b, ""
	}
}

func addDims(req map[string]any, s Shape) {
	for k, v := range map[string]int{"n": s.N, "d": s.D, "k": s.K, "height": s.Height, "m": s.M} {
		if v != 0 {
			req[k] = v
		}
	}
}

// fire sends one request and records its outcome.
func (g *generator) fire(ctx context.Context, rng *rand.Rand) {
	path, body, schedKey := g.nextRequest(rng)
	target := g.targets.pick()
	start := time.Now()
	st, respBody, retries, err := g.cl.post(ctx, target+path, body)
	lat := time.Since(start)

	g.mu.Lock()
	defer g.mu.Unlock()
	g.res.Sent++
	g.res.Retries += int64(retries)
	var tgt *TargetStats
	if len(g.targets.urls) > 1 {
		if g.res.ByTarget == nil {
			g.res.ByTarget = make(map[string]*TargetStats, len(g.targets.urls))
		}
		if tgt = g.res.ByTarget[target]; tgt == nil {
			tgt = &TargetStats{}
			g.res.ByTarget[target] = tgt
		}
		tgt.Sent++
	}
	if err != nil {
		if ctx.Err() != nil {
			g.res.Sent-- // run ended mid-flight: not a sample
			if tgt != nil {
				tgt.Sent--
			}
			return
		}
		g.res.TransportErr++
		if tgt != nil {
			tgt.TransportErr++
		}
		return
	}
	if g.res.ByStatus == nil {
		g.res.ByStatus = make(map[string]int64)
	}
	g.res.ByStatus[strconv.Itoa(st)]++
	switch {
	case st == 200:
		g.res.OK++
		if tgt != nil {
			tgt.OK++
		}
		if schedKey != "" {
			// Only answered keys join the census: a 200 for a schedule
			// key means some replica solved it at least once, so fleet
			// duplicate accounting (Σ solves − distinct keys) stays
			// non-negative even when part of the traffic was shed.
			if g.seenKeys == nil {
				g.seenKeys = make(map[string]struct{})
			}
			g.seenKeys[schedKey] = struct{}{}
		}
		g.latencies = append(g.latencies, lat.Microseconds())
		if lat > 2*g.cfg.Timeout+time.Second {
			g.res.DeadlineBlown++
		}
		if path == "/v1/schedule" {
			var r struct {
				Source        string `json:"source"`
				FallbackCause string `json:"fallback_cause"`
			}
			if json.Unmarshal(respBody, &r) == nil && r.Source == "fallback" {
				g.res.Fallback++
				if g.res.FallbackByCause == nil {
					g.res.FallbackByCause = make(map[string]int64)
				}
				g.res.FallbackByCause[r.FallbackCause]++
				if r.FallbackCause == "shed" {
					g.res.DegradedShed++
				}
			}
		}
	case st == 429:
		g.res.Shed429++
		if tgt != nil {
			tgt.Shed429++
		}
	case st >= 500:
		g.res.ServerErr++
		if tgt != nil {
			tgt.ServerErr++
		}
	case st >= 400:
		g.res.ClientErr++
		if tgt != nil {
			tgt.ClientErr++
		}
	}
}

// closedLoop: Workers requesters, each issuing the next request as
// soon as the previous completes. Throughput here IS capacity.
func (g *generator) closedLoop(ctx context.Context) (*Result, error) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.Duration)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < g.cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(g.cfg.Seed + int64(id)))
			for ctx.Err() == nil {
				g.fire(ctx, rng)
			}
		}(w)
	}
	wg.Wait()
	g.res.Mode, g.res.Workers = "closed", g.cfg.Workers
	g.res.Offered = g.res.Sent
	g.finish(time.Since(start))
	return &g.res, nil
}

// openLoop: offer requests at a fixed rate regardless of completions —
// the overload probe. Arrivals beyond MaxPending in-flight are dropped
// client-side (counted, not sent) so the generator itself can't
// deadlock the measurement or pollute it with its own queueing delay.
// The ticker is clamped to a schedulable period and catches up on
// arrivals between ticks, so the offered count tracks Rate even when
// Rate exceeds the tick frequency.
func (g *generator) openLoop(ctx context.Context) (*Result, error) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.Duration)
	defer cancel()
	maxPending := g.cfg.MaxPending
	if maxPending <= 0 {
		maxPending = 256
	}
	interval := time.Duration(float64(time.Second) / g.cfg.Rate)
	if interval < 200*time.Microsecond {
		interval = 200 * time.Microsecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()

	var pending atomic.Int64
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(g.cfg.Seed))
	start := time.Now()
	var offered, dropped int64
loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case <-tick.C:
			want := int64(time.Since(start).Seconds() * g.cfg.Rate)
			for ; offered < want; offered++ {
				if pending.Load() >= int64(maxPending) {
					dropped++
					continue
				}
				pending.Add(1)
				seed := rng.Int63()
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer pending.Add(-1)
					g.fire(ctx, rand.New(rand.NewSource(seed)))
				}()
			}
		}
	}
	wg.Wait()
	g.res.Mode, g.res.RateOffered = "open", g.cfg.Rate
	g.res.Offered, g.res.Dropped = offered, dropped
	g.finish(time.Since(start))
	return &g.res, nil
}

// finish derives the aggregate fields from raw samples.
func (g *generator) finish(elapsed time.Duration) {
	g.res.DurationS = elapsed.Seconds()
	g.res.DistinctScheduleKeys = len(g.seenKeys)
	if elapsed > 0 {
		g.res.ThroughputRPS = float64(g.res.OK) / elapsed.Seconds()
	}
	if g.res.Sent > 0 {
		g.res.ShedRate = float64(g.res.Shed429+g.res.DegradedShed) / float64(g.res.Sent)
	}
	ls := g.latencies
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	if n := len(ls); n > 0 {
		g.res.P50US = ls[n/2]
		g.res.P99US = ls[n*99/100]
		g.res.MaxUS = ls[n-1]
	}
}
