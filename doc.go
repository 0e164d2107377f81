// Package wrbpg implements the Weighted Red-Blue Pebble Game and the
// dataflow-specific scheduling and memory-design algorithms of
// "Dataflow-Specific Algorithms for Resource-Constrained Scheduling
// and Memory Design" (SPAA 2025).
//
// The root package is a thin facade over the implementation packages:
//
//   - internal/cdag      node-weighted computational DAGs
//   - internal/core      the game: moves, schedules, simulator, bounds
//   - internal/dwt       DWT(n,d) graphs and the optimum scheduler (Alg. 1)
//   - internal/ktree     k-ary tree graphs and the Pt DP (Eq. 6)
//   - internal/memstate  initial/reuse memory-state DP (Eq. 8, k = 2)
//   - internal/mvm       MVM(m,n) graphs and the tiling scheduler
//   - internal/baseline  layer-by-layer and greedy baselines
//   - internal/ioopt     IOOpt bound models for MVM
//   - internal/exact     exhaustive optimal search (certification)
//   - internal/memdesign minimum-memory search and capacity specs
//   - internal/synth     SRAM synthesis model (area/power/layout)
//   - internal/machine   numeric execution of schedules
//   - internal/bench     regeneration of every paper table and figure
//
// Extensions along the paper's stated future-work axes:
//
//   - internal/fft       radix-2 butterfly graphs, blocked scheduling
//   - internal/conv      T-tap FIR/wavelet dataflows
//   - internal/mmm       matrix-matrix tiling
//   - internal/banded    structured-sparse matrix-vector products
//   - internal/pipeline  modular schedule composition
//   - internal/energy    schedule → energy/power estimates
//   - internal/dse       mixed-precision design-space exploration
//
// See README.md for a quickstart, DESIGN.md for the full system
// inventory, docs/MODEL.md for a tutorial and docs/TRACEABILITY.md
// for the paper→code→test map; bench_test.go in this directory
// regenerates the paper's evaluation (one benchmark per table and
// figure).
package wrbpg

import (
	"wrbpg/internal/banded"
	"wrbpg/internal/cdag"
	"wrbpg/internal/conv"
	"wrbpg/internal/core"
	"wrbpg/internal/dwt"
	"wrbpg/internal/fft"
	"wrbpg/internal/mmm"
	"wrbpg/internal/mvm"
	"wrbpg/internal/wcfg"
)

// Re-exported core vocabulary, so small programs can depend on the
// facade alone.
type (
	// Graph is a node-weighted CDAG.
	Graph = cdag.Graph
	// NodeID identifies a node in a Graph.
	NodeID = cdag.NodeID
	// Weight is a node weight or budget in bits.
	Weight = cdag.Weight
	// Move is a single game move (M1..M4 on a node).
	Move = core.Move
	// Schedule is a sequence of moves.
	Schedule = core.Schedule
	// Stats summarises a simulated schedule.
	Stats = core.Stats
	// WeightConfig selects the Equal / Double Accumulator weighting.
	WeightConfig = wcfg.Config
)

// Move kinds of the game.
const (
	M1 = core.M1
	M2 = core.M2
	M3 = core.M3
	M4 = core.M4
)

// Equal returns the uniform one-word-per-node weighting.
func Equal(wordBits int) WeightConfig { return wcfg.Equal(wordBits) }

// DoubleAccumulator returns the mixed-precision weighting where
// non-input nodes weigh two words.
func DoubleAccumulator(wordBits int) WeightConfig { return wcfg.DoubleAccumulator(wordBits) }

// Simulate validates a schedule against the game rules and the
// weighted red pebble constraint, returning its stats.
func Simulate(g *Graph, budget Weight, s Schedule) (Stats, error) {
	return core.Simulate(g, budget, s)
}

// LowerBound returns the algorithmic lower bound of Proposition 2.4.
func LowerBound(g *Graph) Weight { return core.LowerBound(g) }

// BuildDWT constructs a DWT(n, d) graph under the weighting.
func BuildDWT(n, d int, cfg WeightConfig) (*dwt.Graph, error) {
	return dwt.Build(n, d, dwt.ConfigWeights(cfg))
}

// ScheduleDWT returns an optimum schedule and its cost for a DWT
// graph under the budget.
func ScheduleDWT(g *dwt.Graph, budget Weight) (Schedule, Weight, error) {
	s, err := dwt.NewScheduler(g)
	if err != nil {
		return nil, 0, err
	}
	sched, err := s.Schedule(budget)
	if err != nil {
		return nil, 0, err
	}
	return sched, s.MinCost(budget), nil
}

// BuildMVM constructs an MVM(m, n) graph under the weighting.
func BuildMVM(m, n int, cfg WeightConfig) (*mvm.Graph, error) {
	return mvm.Build(m, n, cfg)
}

// BuildFFT constructs the radix-2 butterfly graph of an n-point
// transform (extension; see internal/fft).
func BuildFFT(n int, cfg WeightConfig) (*fft.Graph, error) {
	return fft.Build(n, cfg)
}

// ScheduleFFT returns the best blocked schedule and its cost under
// the budget.
func ScheduleFFT(g *fft.Graph, budget Weight) (Schedule, Weight, error) {
	t, cost, err := g.Search(budget)
	if err != nil {
		return nil, 0, err
	}
	sched, err := g.BlockedSchedule(t)
	if err != nil {
		return nil, 0, err
	}
	return sched, cost, nil
}

// BuildMMM constructs a matrix-matrix MMM(m, k, n) graph (extension;
// see internal/mmm).
func BuildMMM(m, k, n int, cfg WeightConfig) (*mmm.Graph, error) {
	return mmm.Build(m, k, n, cfg)
}

// ScheduleMMM returns the best tiling/residency schedule and its cost
// under the budget.
func ScheduleMMM(g *mmm.Graph, budget Weight) (Schedule, Weight, error) {
	c, cost, err := g.Search(budget)
	if err != nil {
		return nil, 0, err
	}
	sched, err := g.Schedule(c)
	if err != nil {
		return nil, 0, err
	}
	return sched, cost, nil
}

// BuildConv constructs a T-tap FIR/wavelet dataflow (extension; see
// internal/conv).
func BuildConv(n, taps, down int, cfg WeightConfig) (*conv.Graph, error) {
	return conv.Build(n, taps, down, cfg)
}

// ScheduleConv returns the best sliding-window schedule and its cost
// under the budget.
func ScheduleConv(g *conv.Graph, budget Weight) (Schedule, Weight, error) {
	c, cost, err := g.Search(budget)
	if err != nil {
		return nil, 0, err
	}
	sched, err := g.Schedule(c)
	if err != nil {
		return nil, 0, err
	}
	return sched, cost, nil
}

// BuildBanded constructs a banded (structured-sparse) matrix-vector
// graph (extension; see internal/banded).
func BuildBanded(n, w int, cfg WeightConfig) (*banded.Graph, error) {
	return banded.Build(n, w, cfg)
}

// ScheduleMVM returns the best tiling schedule and its cost for an
// MVM graph under the budget.
func ScheduleMVM(g *mvm.Graph, budget Weight) (Schedule, Weight, error) {
	tc, cost, err := g.Search(budget)
	if err != nil {
		return nil, 0, err
	}
	sched, err := g.TileSchedule(tc)
	if err != nil {
		return nil, 0, err
	}
	return sched, cost, nil
}
