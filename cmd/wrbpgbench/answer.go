// Answer checking and per-request accounting. Every answer is checked
// as it arrives: the budget it answers, cost ≥ the Proposition 2.4
// lower bound, peak ≤ budget, and for hot-cache the warmed cost. The
// first requests' outcomes are also kept for the cross-path gate.

package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"wrbpg/internal/serve/wire"
	"wrbpg/internal/solve"
)

// reply is the part of a schedule, sweep or patch response the checks
// and the metrics read.
type reply struct {
	Workload       string              `json:"workload"`
	Source         string              `json:"source"`
	BudgetBits     int64               `json:"budget_bits"`
	CostBits       int64               `json:"cost_bits"`
	PeakBits       int64               `json:"peak_bits"`
	LowerBoundBits int64               `json:"lower_bound_bits"`
	CacheKey       string              `json:"cache_key"`
	Anytime        *wire.AnytimeResult `json:"anytime"`
	Items          []wire.SweepItem    `json:"items"`
	Cost           *wire.CostMeta      `json:"cost"`
}

// outcome is what the gate compares across paths for one stream index:
// the answer's source and its costs (one per budget; -1 = infeasible).
// Tier is the cost block's source tier, which tells the library path
// where the server shed the request.
type outcome struct {
	Source   string  `json:"source"`
	Complete bool    `json:"complete"`
	Costs    []int64 `json:"costs"`
	Tier     string  `json:"tier"`
}

// gate holds what the checks need besides the request: the hot-cache
// costs recorded at warm-up, how many leading stream indices keep
// their outcome for the cross-path comparison, and whether to keep the
// per-answer detail only the layer table reads (latency by source
// tier, solved keys, queue waits). The end-to-end run leaves detail
// off, so its heap holds little beyond the server's own.
type gate struct {
	hotWant []int64
	keep    int
	detail  bool
}

// tally accumulates one client's answers; clients never share one.
type tally struct {
	g *gate

	// hist holds every latency, failures as +∞. With gate.detail, lat
	// keeps the raw latencies too and byIdx the answered ones by stream
	// index.
	hist  histogram
	lat   []time.Duration
	byIdx map[int]time.Duration
	// ratioSum and ratios sum and count cost / lower bound over answered
	// budgets.
	ratioSum float64
	ratios   int
	tiers    map[string]int // answers by cost.source_tier
	byTier   map[string][]time.Duration

	attempted, ok, errors, degraded, mismatches int
	respBytes                                   int64
	firstErr                                    string

	memoHits, memoMisses, cellsInv, cellsReused int64
	anyN, anyComplete                           int
	anyExpanded, anyPruned, anyWallUS           int64
	seedGain                                    []float64
	queueWait                                   []time.Duration
	keys                                        map[string]struct{} // keys answered by a solve, shed ones included, here or at a peer
	outs                                        map[int]outcome
}

func newTally(g *gate) *tally {
	return &tally{g: g, byIdx: map[int]time.Duration{}, tiers: map[string]int{}, byTier: map[string][]time.Duration{}, keys: map[string]struct{}{}, outs: map[int]outcome{}}
}

// record checks and accounts one answer.
func (t *tally) record(i int, req request, status int, body []byte, err error, lat time.Duration) {
	t.attempted++
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, body)
	}
	if err != nil {
		t.errors++
		t.fail(i, err)
		return
	}
	var rep reply
	if err := json.Unmarshal(body, &rep); err != nil {
		t.mismatches++
		t.fail(i, fmt.Errorf("undecodable answer: %v", err))
		return
	}
	out, err := t.check(req, &rep)
	if err != nil {
		t.mismatches++
		t.fail(i, err)
		return
	}
	t.ok++
	t.sample(lat)
	if t.g.detail && i >= 0 {
		t.byIdx[i] = lat
	}
	t.respBytes += int64(len(body))
	if i >= 0 && i < t.g.keep {
		if rep.Cost != nil {
			out.Tier = rep.Cost.SourceTier
		}
		t.outs[i] = out
	}
	if rep.Source == solve.SourceFallback.String() {
		t.degraded++
	}
	if c := rep.Cost; c != nil {
		t.tiers[c.SourceTier]++
		if t.g.detail {
			switch c.SourceTier {
			case wire.TierSolve, wire.TierPeer, wire.TierBreaker, wire.TierDegraded:
				t.keys[rep.CacheKey] = struct{}{}
			}
			t.byTier[c.SourceTier] = append(t.byTier[c.SourceTier], lat)
			if c.SourceTier == wire.TierSolve {
				t.queueWait = append(t.queueWait, time.Duration(c.QueueWaitUS)*time.Microsecond)
			}
		}
		if c.SourceTier == wire.TierSession {
			t.memoHits += c.MemoHits
			t.memoMisses += c.MemoMisses
			t.cellsInv += c.CellsInvalidated
			t.cellsReused += c.CellsReused
		}
	}
	// Every general-DAG solve counts toward the anytime layer: a search
	// that overran its deadline and degraded to the baseline did not
	// complete either.
	if rep.Cost != nil && rep.Cost.SourceTier == wire.TierSolve && strings.HasPrefix(rep.Workload, "CDAG") {
		t.anyN++
		if a := rep.Anytime; a != nil {
			if a.Complete {
				t.anyComplete++
			}
			t.anyExpanded += a.Expanded
			t.anyPruned += a.Pruned
			t.anyWallUS += rep.Cost.SolveWallUS
			t.seedGain = append(t.seedGain, float64(a.SeedCostBits)/float64(rep.CostBits))
		}
	}
}

// sample records one latency.
func (t *tally) sample(lat time.Duration) {
	if t.g.detail {
		t.lat = append(t.lat, lat)
	}
	t.hist.add(lat)
}

func (t *tally) fail(i int, err error) {
	t.sample(failedLatency)
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf("request %d: %v", i, err)
	}
}

// check validates one 200 answer against its request.
func (t *tally) check(req request, rep *reply) (outcome, error) {
	out := outcome{Source: rep.Source}
	if req.Path == pathSchedule {
		b := req.Budgets[0]
		switch {
		case rep.BudgetBits != b:
			return out, fmt.Errorf("answered budget %d, asked %d", rep.BudgetBits, b)
		case rep.CostBits < rep.LowerBoundBits:
			return out, fmt.Errorf("cost %d below lower bound %d", rep.CostBits, rep.LowerBoundBits)
		case rep.PeakBits > b:
			return out, fmt.Errorf("peak %d above budget %d", rep.PeakBits, b)
		case rep.Anytime != nil && rep.CostBits > rep.Anytime.SeedCostBits:
			return out, fmt.Errorf("anytime cost %d above its seed %d", rep.CostBits, rep.Anytime.SeedCostBits)
		}
		if req.Hot >= 0 && t.g.hotWant != nil && rep.CostBits != t.g.hotWant[req.Hot] {
			return out, fmt.Errorf("hot key %d cost %d, warmed answer %d", req.Hot, rep.CostBits, t.g.hotWant[req.Hot])
		}
		out.Complete = rep.Anytime != nil && rep.Anytime.Complete
		out.Costs = []int64{rep.CostBits}
		t.ratio(rep.CostBits, rep.LowerBoundBits)
		return out, nil
	}
	// The response's lower_bound_bits is read from the pooled session
	// after its lock is released, so a concurrent patch can change it;
	// the generator's own bound is checked instead where it has one.
	lb := rep.LowerBoundBits
	if req.LB > 0 {
		lb = req.LB
	}
	if len(rep.Items) != len(req.Budgets) {
		return out, fmt.Errorf("%d items for %d budgets", len(rep.Items), len(req.Budgets))
	}
	out.Costs = make([]int64, len(rep.Items))
	for j, it := range rep.Items {
		switch {
		case it.BudgetBits != req.Budgets[j]:
			return out, fmt.Errorf("item %d answers budget %d, asked %d", j, it.BudgetBits, req.Budgets[j])
		case it.Error != nil:
			return out, fmt.Errorf("item %d failed: %s", j, it.Error.Message)
		case !it.Feasible:
			out.Costs[j] = -1
		case it.CostBits < lb:
			return out, fmt.Errorf("item %d cost %d below lower bound %d", j, it.CostBits, lb)
		default:
			out.Costs[j] = it.CostBits
			t.ratio(it.CostBits, lb)
		}
	}
	return out, nil
}

// merge folds o into t.
func (t *tally) merge(o *tally) {
	t.hist.merge(&o.hist)
	t.lat = append(t.lat, o.lat...)
	for i, d := range o.byIdx {
		t.byIdx[i] = d
	}
	for k, v := range o.tiers {
		t.tiers[k] += v
	}
	for k, v := range o.byTier {
		t.byTier[k] = append(t.byTier[k], v...)
	}
	t.ratioSum += o.ratioSum
	t.ratios += o.ratios
	t.attempted += o.attempted
	t.ok += o.ok
	t.errors += o.errors
	t.degraded += o.degraded
	t.mismatches += o.mismatches
	t.respBytes += o.respBytes
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
	t.memoHits += o.memoHits
	t.memoMisses += o.memoMisses
	t.cellsInv += o.cellsInv
	t.cellsReused += o.cellsReused
	t.anyN += o.anyN
	t.anyComplete += o.anyComplete
	t.anyExpanded += o.anyExpanded
	t.anyPruned += o.anyPruned
	t.anyWallUS += o.anyWallUS
	t.seedGain = append(t.seedGain, o.seedGain...)
	t.queueWait = append(t.queueWait, o.queueWait...)
	for k := range o.keys {
		t.keys[k] = struct{}{}
	}
	for k, v := range o.outs {
		t.outs[k] = v
	}
}

// agree reports whether two paths' outcomes for one stream index must
// be, and are, equal: optimal answers (and sweep/patch items, which
// are exact DP costs) always; anytime answers only when both searches
// completed, since a deadline-bound search may stop anywhere above the
// optimum. Fallback answers carry no equality claim.
func agree(a, b outcome) bool {
	if a.Source == solve.SourceFallback.String() || b.Source == solve.SourceFallback.String() {
		return true
	}
	if a.Source == solve.SourceAnytime.String() || b.Source == solve.SourceAnytime.String() {
		if !a.Complete || !b.Complete {
			return true
		}
	}
	if len(a.Costs) != len(b.Costs) {
		return false
	}
	for i := range a.Costs {
		if a.Costs[i] != b.Costs[i] {
			return false
		}
	}
	return true
}

func (t *tally) ratio(cost, lb int64) {
	t.ratioSum += float64(cost) / float64(lb)
	t.ratios++
}
