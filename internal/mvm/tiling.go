package mvm

import (
	"context"
	"fmt"
	"math"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
	"wrbpg/internal/par"
)

// Inf is the sentinel cost of an infeasible configuration.
const Inf cdag.Weight = math.MaxInt64 / 4

// TileConfig parameterizes the tiling scheduler of Section 4.3.
//
// Height is the tile height h: the number of output rows whose
// partial sums stay resident in fast memory while the tile streams
// across the matrix columns (the "accumulators simultaneously in fast
// memory"). ResidentVector is the number of leading vector entries
// kept resident across all tiles; the remaining n−ResidentVector
// entries are reloaded once per tile. The tile width is one column,
// the shape the paper finds best in most cases.
type TileConfig struct {
	Height         int
	ResidentVector int
}

func (tc TileConfig) String() string {
	return fmt.Sprintf("tile{h=%d, residentVec=%d}", tc.Height, tc.ResidentVector)
}

// validate clamps and checks a configuration against the graph.
func (g *Graph) validate(tc TileConfig) (TileConfig, error) {
	if tc.Height < 1 || tc.Height > g.M {
		return tc, fmt.Errorf("mvm: tile height %d out of range [1,%d]", tc.Height, g.M)
	}
	if tc.ResidentVector < 0 || tc.ResidentVector > g.N {
		return tc, fmt.Errorf("mvm: resident vector %d out of range [0,%d]", tc.ResidentVector, g.N)
	}
	return tc, nil
}

// TileSchedule generates the full WRBPG schedule for the
// configuration. The schedule is budget-independent; its peak red
// weight is PredictPeak(tc) and its cost PredictCost(tc), both
// verified against core.Simulate in the package tests.
//
// Per tile (block of Height rows), the schedule streams columns
// left to right. A transient column's x is loaded at the top of the
// column and dropped right after its last product in the tile, so it
// never overlaps the final row's accumulation. Each matrix entry is
// loaded exactly once overall; each output is stored exactly once —
// the property that separates the tiling scheduler from IOOpt's
// read-and-write-every-output strategy (Section 5.2).
func (g *Graph) TileSchedule(tc TileConfig) (core.Schedule, error) {
	tc, err := g.validate(tc)
	if err != nil {
		return nil, err
	}
	var s core.Schedule
	mv := func(k core.MoveKind, v cdag.NodeID) {
		s = append(s, core.Move{Kind: k, Node: v})
	}
	// Resident vector prefix, loaded once.
	for c := 1; c <= tc.ResidentVector; c++ {
		mv(core.M1, g.X[c-1])
	}
	for lo := 1; lo <= g.M; lo += tc.Height {
		hi := lo + tc.Height - 1
		if hi > g.M {
			hi = g.M
		}
		for c := 1; c <= g.N; c++ {
			transient := c > tc.ResidentVector
			if transient {
				mv(core.M1, g.X[c-1])
			}
			for r := lo; r <= hi; r++ {
				mv(core.M1, g.A[r-1][c-1])
				mv(core.M3, g.Prod[r-1][c-1])
				mv(core.M4, g.A[r-1][c-1])
				if transient && r == hi {
					// Last use of x_c within this tile.
					mv(core.M4, g.X[c-1])
				}
				if c >= 2 {
					mv(core.M3, g.Acc[r-1][c-2])
					mv(core.M4, g.Prod[r-1][c-1])
					mv(core.M4, g.Head(r, c-1))
				} else if g.N == 1 {
					// Products are the outputs; store immediately so
					// no head accumulates.
					mv(core.M2, g.Prod[r-1][0])
					mv(core.M4, g.Prod[r-1][0])
				}
			}
		}
		if g.N >= 2 {
			for r := lo; r <= hi; r++ {
				out := g.Output(r)
				mv(core.M2, out)
				mv(core.M4, out)
			}
		}
	}
	for c := 1; c <= tc.ResidentVector; c++ {
		mv(core.M4, g.X[c-1])
	}
	return s, nil
}

// Tiles returns ⌈m/h⌉, the number of tiles (row blocks).
func (g *Graph) Tiles(tc TileConfig) int {
	return (g.M + tc.Height - 1) / tc.Height
}

// PredictCost returns the weighted I/O of TileSchedule(tc) in closed
// form: the algorithmic lower bound plus one reload of every
// non-resident vector entry per additional tile.
func (g *Graph) PredictCost(tc TileConfig) cdag.Weight {
	wi := g.Cfg.Input()
	extra := cdag.Weight(g.Tiles(tc)-1) * cdag.Weight(g.N-tc.ResidentVector) * wi
	return g.lb + extra
}

// PredictPeak returns the peak red weight of TileSchedule(tc) in
// closed form (bits). The three candidate peaks are: a product
// computation with the tile's heads, the matrix entry and the column
// x resident; an accumulation of a non-final row with the transient x
// still resident; and an accumulation of the final row after the
// transient x has been dropped.
func (g *Graph) PredictPeak(tc TileConfig) cdag.Weight {
	wi, wn := g.Cfg.Input(), g.Cfg.Node()
	resident := cdag.Weight(tc.ResidentVector) * wi
	if g.N == 1 {
		// x + a + product; resident x (vc=1) replaces the transient x.
		if tc.ResidentVector == 1 {
			return wi + wi + wn
		}
		return 2*wi + wn
	}
	h := cdag.Weight(tc.Height)
	if int(h) > g.M {
		h = cdag.Weight(g.M)
	}
	var xExtra cdag.Weight
	if tc.ResidentVector < g.N {
		xExtra = wi
	}
	p1 := (h+1)*wn + wi + xExtra
	p3 := (h + 2) * wn
	peak := p1
	if tc.Height >= 2 {
		if p2 := (h+2)*wn + xExtra; p2 > peak {
			peak = p2
		}
	}
	if p3 > peak {
		peak = p3
	}
	return resident + peak
}

// Candidates returns the tile heights worth searching: for each
// distinct tile count q = ⌈m/h⌉ the smallest h achieving it, since
// cost depends on h only through q while peak grows with h. The set
// depends only on M, so Build computes it once; Candidates returns a
// copy (Search reads the cached slice directly and allocates nothing).
func (g *Graph) Candidates() []int {
	cand := g.cand
	if cand == nil {
		cand = g.candidates()
	}
	out := make([]int, len(cand))
	copy(out, cand)
	return out
}

// candidates enumerates the distinct heights. As q grows the height
// ⌈m/q⌉ is non-increasing, so duplicates are always adjacent and a
// single previous-value check replaces the former seen-map. There are
// at most 2⌊√m⌋+1 of them, so out never regrows.
func (g *Graph) candidates() []int {
	out := make([]int, 0, 2*isqrt(g.M)+1)
	prev := -1
	for q := 1; q <= g.M; q++ {
		h := (g.M + q - 1) / q
		if h != prev {
			out = append(out, h)
			prev = h
		}
	}
	return out
}

// isqrt returns ⌊√n⌋; Candidates yields at most 2⌊√m⌋+1 distinct heights.
func isqrt(n int) int {
	if n <= 0 {
		return 0
	}
	r := int(math.Sqrt(float64(n)))
	for r*r > n {
		r--
	}
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// searchParallelThreshold is the candidate count above which Search
// fans the height axis out across the par worker pool. Package tests
// lower it to force the parallel path on small graphs.
var searchParallelThreshold = 64

// searchResult is one candidate height's best configuration.
type searchResult struct {
	tc   TileConfig
	cost cdag.Weight
	peak cdag.Weight
}

// searchHeight evaluates the two interesting resident-vector choices
// for one candidate height: a fully resident vector, and the largest
// vc < n the leftover budget allows (peak is monotone in vc, cost
// strictly decreases with vc, so intermediate values never win).
// PredictPeak is evaluated exactly once per configuration.
func (g *Graph) searchHeight(h int, budget cdag.Weight) searchResult {
	wi := g.Cfg.Input()
	best := searchResult{cost: Inf, peak: Inf}
	for _, full := range []bool{true, false} {
		tc := TileConfig{Height: h}
		if full {
			tc.ResidentVector = g.N
		} else {
			base := g.PredictPeak(TileConfig{Height: h})
			if base > budget {
				continue
			}
			vc := int((budget - base) / wi)
			if vc > g.N-1 {
				vc = g.N - 1
			}
			tc.ResidentVector = vc
		}
		peak := g.PredictPeak(tc)
		if peak > budget {
			continue
		}
		cost := g.PredictCost(tc)
		if cost < best.cost || (cost == best.cost && peak < best.peak) {
			best = searchResult{tc: tc, cost: cost, peak: peak}
		}
	}
	return best
}

// Search returns the minimum-cost tile configuration whose peak fits
// the budget, or an error when no configuration fits. For each
// candidate height it gives any leftover budget to the resident
// vector, which strictly reduces cost. Large candidate sets are
// fanned out across the par worker pool; ties between heights resolve
// to the earlier (larger-height) candidate in both paths, so the
// parallel search returns exactly the serial configuration.
func (g *Graph) Search(budget cdag.Weight) (TileConfig, cdag.Weight, error) {
	return g.sharedSearch(nil, budget)
}

// SearchCtx is Search under a cancellation context and resource
// limits: the height sweep checks for cancellation per candidate and
// the parallel fan-out stops dispatching chunks once the context dies,
// returning guard.ErrCanceled / guard.ErrDeadline (wrapped).
func (g *Graph) SearchCtx(ctx context.Context, lim guard.Limits, budget cdag.Weight) (TileConfig, cdag.Weight, error) {
	ck := guard.New(ctx, lim)
	defer ck.Release()
	defer func() { guard.CountersFor("mvm").Record(ck.TakeCounts()) }()
	tc, cost, err := g.sharedSearch(ck, budget)
	if cerr := ck.Err(); cerr != nil {
		return TileConfig{}, 0, fmt.Errorf("mvm: %w", cerr)
	}
	return tc, cost, err
}

// sharedSearch implements Search for an optional guard. ck == nil is
// the plain Search hot path and must stay allocation-free (the
// candidate heights are cached on the graph); every guard access below
// is nil-safe.
func (g *Graph) sharedSearch(ck *guard.Checker, budget cdag.Weight) (TileConfig, cdag.Weight, error) {
	heights := g.cand
	if heights == nil {
		heights = g.candidates() // hand-constructed Graph (tests)
	}
	best := searchResult{cost: Inf, peak: Inf}
	if len(heights) >= searchParallelThreshold {
		chunks := par.Chunks(len(heights), 0)
		parts, err := par.MapCtx(ck.Context(), 0, chunks, func(c [2]int) (searchResult, error) {
			b := searchResult{cost: Inf, peak: Inf}
			for _, h := range heights[c[0]:c[1]] {
				if r := g.searchHeight(h, budget); r.cost < b.cost || (r.cost == b.cost && r.peak < b.peak) {
					b = r
				}
			}
			return b, nil
		})
		if err != nil {
			return TileConfig{}, 0, fmt.Errorf("mvm: search aborted: %w", err)
		}
		for _, r := range parts {
			if r.cost < best.cost || (r.cost == best.cost && r.peak < best.peak) {
				best = r
			}
		}
	} else {
		for _, h := range heights {
			if ck != nil && ck.Tick() != nil {
				return TileConfig{}, 0, fmt.Errorf("mvm: search aborted: %w", ck.Err())
			}
			if r := g.searchHeight(h, budget); r.cost < best.cost || (r.cost == best.cost && r.peak < best.peak) {
				best = r
			}
		}
	}
	if best.cost >= Inf {
		return TileConfig{}, Inf, fmt.Errorf("mvm: no tile configuration fits budget %d (tiling minimum %d): %w", budget, g.TilingMinBudget(), guard.ErrOptimalInfeasible)
	}
	return best.tc, best.cost, nil
}

// MinCost returns the best tiling cost under the budget, or Inf when
// no configuration fits.
func (g *Graph) MinCost(budget cdag.Weight) cdag.Weight {
	_, cost, err := g.Search(budget)
	if err != nil {
		return Inf
	}
	return cost
}

// TilingMinBudget returns the smallest budget any tile configuration
// fits in: a single row with no resident vector.
func (g *Graph) TilingMinBudget() cdag.Weight {
	return g.PredictPeak(TileConfig{Height: 1})
}

// MinMemory returns the minimum fast memory size of Definition 2.6
// under the tiling scheduler: the smallest budget whose best tiling
// cost equals the algorithmic lower bound. The lower bound is reached
// exactly when a configuration with one tile (h = m) or a fully
// resident vector (vc = n) fits, so the answer is the smaller of
// those two peaks.
func (g *Graph) MinMemory() cdag.Weight {
	a := g.PredictPeak(TileConfig{Height: g.M})
	b := g.PredictPeak(TileConfig{Height: 1, ResidentVector: g.N})
	if b < a {
		return b
	}
	return a
}
