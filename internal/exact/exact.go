// Package exact computes provably optimal WRBPG schedules by searching
// the full game-state space with Dijkstra's algorithm.
//
// Each game state is the vector of node labels; moves are edges whose
// cost is the weighted I/O they incur (w_v for M1/M2, zero for M3/M4).
// The search starts from C_0 (sources blue) and stops at the first
// state satisfying the stopping condition, which by Dijkstra's
// invariant carries the minimum weighted schedule cost.
//
// The state space is exponential in |V|, so this package is only
// practical for small graphs (roughly |V| ≤ 14). Its purpose is to
// certify the polynomial-time dataflow-specific schedulers: property
// tests compare their costs against this ground truth on randomly
// weighted small instances.
package exact

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
)

// ErrTooLarge is returned when the graph exceeds MaxNodes.
var ErrTooLarge = errors.New("exact: graph too large for exhaustive search")

// ErrInfeasible is returned when no valid schedule exists under the
// budget (Proposition 2.3 violated).
var ErrInfeasible = errors.New("exact: no valid schedule exists under this budget")

// MaxNodes bounds the graph size accepted by Solve. 4^20 nominal
// states is far beyond reach; the practical reachable set is much
// smaller, but we still refuse clearly hopeless inputs.
const MaxNodes = 20

type stateKey string

func encode(labels []core.Label) stateKey {
	b := make([]byte, (len(labels)+3)/4)
	for i, l := range labels {
		b[i/4] |= byte(l) << uint((i%4)*2)
	}
	return stateKey(b)
}

type item struct {
	key   stateKey
	cost  cdag.Weight
	index int
}

type pq []*item

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].cost < p[j].cost }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i]; p[i].index = i; p[j].index = j }
func (p *pq) Push(x interface{}) { it := x.(*item); it.index = len(*p); *p = append(*p, it) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*p = old[:n-1]
	return it
}

type nodeInfo struct {
	prevKey  stateKey
	prevMove core.Move
	hasPrev  bool
}

// Result of an exact search.
type Result struct {
	// Cost is the optimal weighted schedule cost.
	Cost cdag.Weight
	// Schedule is one optimal schedule achieving Cost.
	Schedule core.Schedule
	// StatesExplored counts settled Dijkstra states, for ablation
	// benchmarks comparing exact search against the DP schedulers.
	StatesExplored int
}

// Solve finds a minimum weighted-cost WRBPG schedule for g under the
// budget, or an error if the graph is too large or infeasible.
func Solve(g *cdag.Graph, budget cdag.Weight) (*Result, error) {
	return SolveCtx(context.Background(), g, budget, guard.Limits{})
}

// counters is the exact search's solver counter set (family cdag),
// resolved once so a solve's flush takes no registry lock.
var counters = guard.CountersFor("cdag")

// SolveCtx is Solve under a cancellation context and resource limits:
// the search checks for cancellation at every settled state and charges
// each newly tracked state against lim.MaxStates, returning
// guard.ErrCanceled / guard.ErrDeadline / guard.ErrBudgetExceeded
// (wrapped) when aborted. Since the state space is exponential, callers
// running exact search outside tests should always bound it this way.
func SolveCtx(ctx context.Context, g *cdag.Graph, budget cdag.Weight, lim guard.Limits) (*Result, error) {
	ck := guard.New(ctx, lim)
	defer ck.Release()
	// Export the states-explored count for this solve (the exact search
	// is the one solver whose cost is measured in states, not memo
	// cells).
	defer func() { counters.Record(ctx, ck.TakeCounts()) }()
	if g.Len() > MaxNodes {
		return nil, ErrTooLarge
	}
	if !core.ScheduleExists(g, budget) {
		return nil, ErrInfeasible
	}

	n := g.Len()
	start := make([]core.Label, n)
	for _, v := range g.Sources() {
		start[v] = core.LabelBlue
	}
	startKey := encode(start)

	dist := map[stateKey]cdag.Weight{startKey: 0}
	prev := map[stateKey]nodeInfo{}
	open := &pq{}
	heap.Init(open)
	heap.Push(open, &item{key: startKey, cost: 0})
	settled := map[stateKey]bool{}
	explored := 0

	decode := func(k stateKey) []core.Label {
		labels := make([]core.Label, n)
		for i := range labels {
			labels[i] = core.Label((k[i/4] >> uint((i%4)*2)) & 3)
		}
		return labels
	}

	isGoal := func(labels []core.Label) bool {
		for v := 0; v < n; v++ {
			id := cdag.NodeID(v)
			if g.IsSink(id) && !labels[v].HasBlue() {
				return false
			}
		}
		return true
	}

	redWeight := func(labels []core.Label) cdag.Weight {
		var s cdag.Weight
		for v, l := range labels {
			if l.HasRed() {
				s += g.Weight(cdag.NodeID(v))
			}
		}
		return s
	}

	var goalKey stateKey
	found := false

	for open.Len() > 0 {
		if ck.Tick() != nil {
			break
		}
		cur := heap.Pop(open).(*item)
		if settled[cur.key] {
			continue
		}
		settled[cur.key] = true
		explored++
		labels := decode(cur.key)
		if isGoal(labels) {
			goalKey = cur.key
			found = true
			break
		}
		rw := redWeight(labels)
		for v := 0; v < n; v++ {
			id := cdag.NodeID(v)
			w := g.Weight(id)
			l := labels[v]
			try := func(m core.Move, next core.Label, cost cdag.Weight) {
				old := labels[v]
				labels[v] = next
				k := encode(labels)
				labels[v] = old
				nd := cur.cost + cost
				if d, ok := dist[k]; !ok || nd < d {
					// Charge only newly tracked states against the limit;
					// relaxations revisit states already paid for.
					if !ok && ck.AddStates(1) != nil {
						return
					}
					dist[k] = nd
					prev[k] = nodeInfo{prevKey: cur.key, prevMove: m, hasPrev: true}
					heap.Push(open, &item{key: k, cost: nd})
				}
			}
			switch l {
			case core.LabelBlue:
				if rw+w <= budget {
					try(core.Move{Kind: core.M1, Node: id}, core.LabelBoth, w)
				}
			case core.LabelRed:
				try(core.Move{Kind: core.M2, Node: id}, core.LabelBoth, w)
				try(core.Move{Kind: core.M4, Node: id}, core.LabelNone, 0)
			case core.LabelBoth:
				try(core.Move{Kind: core.M4, Node: id}, core.LabelBlue, 0)
			}
			// M3: compute v if it has no red pebble, is not a source,
			// and all parents are red.
			if !l.HasRed() && !g.IsSource(id) && rw+w <= budget {
				ok := true
				for _, p := range g.Parents(id) {
					if !labels[p].HasRed() {
						ok = false
						break
					}
				}
				if ok {
					next := core.LabelRed
					if l.HasBlue() {
						next = core.LabelBoth
					}
					try(core.Move{Kind: core.M3, Node: id}, next, 0)
				}
			}
		}
	}

	if err := ck.Err(); err != nil {
		return nil, fmt.Errorf("exact: %w", err)
	}
	if !found {
		return nil, ErrInfeasible
	}

	// Reconstruct the move sequence by walking predecessors.
	var rev core.Schedule
	k := goalKey
	for k != startKey {
		info := prev[k]
		if !info.hasPrev {
			break
		}
		rev = append(rev, info.prevMove)
		k = info.prevKey
	}
	sched := make(core.Schedule, len(rev))
	for i := range rev {
		sched[i] = rev[len(rev)-1-i]
	}
	return &Result{Cost: dist[goalKey], Schedule: sched, StatesExplored: explored}, nil
}

// MinimumBudget returns the smallest budget (searching by the given
// step, starting at the existence bound) whose exact optimal cost
// equals the algorithmic lower bound — the exact counterpart of
// Definition 2.6 for small graphs. The second return is that cost.
func MinimumBudget(g *cdag.Graph, step cdag.Weight) (cdag.Weight, cdag.Weight, error) {
	lb := core.LowerBound(g)
	b := core.MinExistenceBudget(g)
	if step <= 0 {
		step = 1
	}
	// Round up to a multiple of step.
	if r := b % step; r != 0 {
		b += step - r
	}
	limit := g.TotalWeight() + step
	for ; b <= limit; b += step {
		res, err := Solve(g, b)
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			return 0, 0, err
		}
		if res.Cost == lb {
			return b, res.Cost, nil
		}
	}
	return 0, 0, errors.New("exact: lower bound not attained up to total graph weight")
}

// CostOrInf returns the exact optimal cost, or math.MaxInt64 when no
// schedule exists — mirroring the ∞ entries of the paper's recurrences.
func CostOrInf(g *cdag.Graph, budget cdag.Weight) cdag.Weight {
	res, err := Solve(g, budget)
	if err != nil {
		return math.MaxInt64
	}
	return res.Cost
}
