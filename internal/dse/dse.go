// Package dse explores the mixed-precision design space the paper's
// introduction motivates: "compute logic attached to memory which may
// vary in bit-width to the lowest possible value that still achieves
// the desired accuracy for the computational task, thereby minimizing
// power". For each candidate precision configuration it derives the
// scheduler's minimum fast memory, synthesizes the power-of-two
// macro, and estimates per-window energy — producing the
// precision-versus-energy frontier a neuroengineer actually chooses
// from.
package dse

import (
	"context"
	"fmt"
	"sort"

	"wrbpg/internal/baseline"
	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/dwt"
	"wrbpg/internal/energy"
	"wrbpg/internal/guard"
	"wrbpg/internal/memdesign"
	"wrbpg/internal/mvm"
	"wrbpg/internal/synth"
	"wrbpg/internal/wcfg"
)

// shape is the graph-determining part of a precision configuration:
// two configs with equal shapes (differing only in display name) build
// identical graphs, so they share one warm solver during exploration
// and the second evaluation runs entirely on memo hits.
type shape struct{ wb, iw, nw int }

func shapeOf(cfg wcfg.Config) shape {
	return shape{cfg.WordBits, cfg.InputWords, cfg.NodeWords}
}

// Point is one evaluated design.
type Point struct {
	// Cfg is the precision configuration.
	Cfg wcfg.Config
	// MinMemoryBits is the scheduler's minimum fast memory
	// (Definition 2.6); Spec its word/pow-2 form.
	MinMemoryBits cdag.Weight
	Spec          memdesign.Spec
	// CostBits is the schedule's weighted I/O at that memory.
	CostBits cdag.Weight
	// Macro is the synthesized SRAM; Energy the per-window estimate.
	Macro  synth.Macro
	Energy energy.Report
}

// evaluator derives minimum memory, schedule length and cost for one
// precision configuration.
type evaluator func(cfg wcfg.Config) (minMem cdag.Weight, moves int, stats core.Stats, err error)

func explore(cfgs []wcfg.Config, proc synth.Process, ep energy.Params, eval evaluator) ([]Point, error) {
	var out []Point
	for _, cfg := range cfgs {
		minMem, moves, stats, err := eval(cfg)
		if err != nil {
			return nil, fmt.Errorf("dse: %s: %w", cfg.Name, err)
		}
		spec := memdesign.NewSpec(minMem, cfg.WordBits)
		// Round to a power-of-two word count so odd word sizes (12-bit
		// samples are common in neural ADCs) stay synthesizable.
		macro, err := synth.Synthesize(spec.Pow2WordCapacity(), cfg.WordBits, proc)
		if err != nil {
			return nil, fmt.Errorf("dse: %s: %w", cfg.Name, err)
		}
		rep, err := energy.Estimate(stats, moves, macro, ep)
		if err != nil {
			return nil, fmt.Errorf("dse: %s: %w", cfg.Name, err)
		}
		out = append(out, Point{
			Cfg: cfg, MinMemoryBits: minMem, Spec: spec,
			CostBits: stats.Cost, Macro: macro, Energy: rep,
		})
	}
	return out, nil
}

// Precisions builds the candidate grid: every input word size paired
// with every accumulator multiple.
func Precisions(wordBits []int, accWords []int) []wcfg.Config {
	var out []wcfg.Config
	for _, wb := range wordBits {
		for _, aw := range accWords {
			cfg := wcfg.Config{
				Name:       fmt.Sprintf("in%d/acc%d", wb, wb*aw),
				WordBits:   wb,
				InputWords: 1,
				NodeWords:  aw,
			}
			out = append(out, cfg)
		}
	}
	return out
}

// ExploreDWT evaluates the grid on DWT(n, d) with the optimum
// scheduler. Configs sharing a weight shape reuse one warm
// dwt.Scheduler: the minimum-memory binary search probes and the final
// schedule all land in the same P(v, b) memo.
func ExploreDWT(n, d int, cfgs []wcfg.Config, proc synth.Process, ep energy.Params) ([]Point, error) {
	ctx := context.Background()
	scheds := make(map[shape]*dwt.Scheduler, len(cfgs))
	return explore(cfgs, proc, ep, func(cfg wcfg.Config) (cdag.Weight, int, core.Stats, error) {
		s, ok := scheds[shapeOf(cfg)]
		if !ok {
			g, err := dwt.Build(n, d, dwt.ConfigWeights(cfg))
			if err != nil {
				return 0, 0, core.Stats{}, err
			}
			if s, err = dwt.NewScheduler(g); err != nil {
				return 0, 0, core.Stats{}, err
			}
			scheds[shapeOf(cfg)] = s
		}
		g := s.Graph().G
		b, err := memdesign.SearchMonotoneSession(ctx, guard.Limits{}, s,
			core.LowerBound(g), core.MinExistenceBudget(g), g.TotalWeight(),
			cdag.Weight(cfg.WordBits))
		if err != nil {
			return 0, 0, core.Stats{}, err
		}
		sched, err := s.ScheduleCtx(ctx, guard.Limits{}, b)
		if err != nil {
			return 0, 0, core.Stats{}, err
		}
		stats, err := core.Simulate(g, b, sched)
		return b, len(sched), stats, err
	})
}

// ExploreMVM evaluates the grid on MVM(m, n) with the tiling
// scheduler. Configs sharing a weight shape reuse one warm
// mvm.Session, so repeated budgets answer from the tile-search memo.
func ExploreMVM(m, n int, cfgs []wcfg.Config, proc synth.Process, ep energy.Params) ([]Point, error) {
	ctx := context.Background()
	sessions := make(map[shape]*mvm.Session, len(cfgs))
	return explore(cfgs, proc, ep, func(cfg wcfg.Config) (cdag.Weight, int, core.Stats, error) {
		se, ok := sessions[shapeOf(cfg)]
		if !ok {
			g, err := mvm.Build(m, n, cfg)
			if err != nil {
				return 0, 0, core.Stats{}, err
			}
			se = mvm.NewSession(g)
			sessions[shapeOf(cfg)] = se
		}
		g := se.Graph()
		b := g.MinMemory()
		sched, err := se.ScheduleCtx(ctx, guard.Limits{}, b)
		if err != nil {
			return 0, 0, core.Stats{}, err
		}
		stats, err := core.Simulate(g.G, b, sched)
		return b, len(sched), stats, err
	})
}

// ExploreDWTBaseline evaluates the grid with the layer-by-layer
// scheduler — the "what if you don't have the optimal scheduler"
// column of the design space.
func ExploreDWTBaseline(n, d int, cfgs []wcfg.Config, proc synth.Process, ep energy.Params) ([]Point, error) {
	return explore(cfgs, proc, ep, func(cfg wcfg.Config) (cdag.Weight, int, core.Stats, error) {
		g, err := dwt.Build(n, d, dwt.ConfigWeights(cfg))
		if err != nil {
			return 0, 0, core.Stats{}, err
		}
		b, err := baseline.MinMemory(g.G, g.Layers, cdag.Weight(cfg.WordBits))
		if err != nil {
			return 0, 0, core.Stats{}, err
		}
		sched, err := baseline.LayerByLayer(g.G, g.Layers, b)
		if err != nil {
			return 0, 0, core.Stats{}, err
		}
		stats, err := core.Simulate(g.G, b, sched)
		return b, len(sched), stats, err
	})
}

// Pareto returns the non-dominated points under (input precision ↑,
// total energy ↓): a point survives unless some other point has at
// least its precision and strictly less energy, or more precision
// and no more energy. The result is sorted by precision.
func Pareto(points []Point) []Point {
	var out []Point
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if q.Cfg.WordBits >= p.Cfg.WordBits && q.Energy.TotalPJ < p.Energy.TotalPJ {
				dominated = true
				break
			}
			if q.Cfg.WordBits > p.Cfg.WordBits && q.Energy.TotalPJ <= p.Energy.TotalPJ {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cfg.WordBits != out[j].Cfg.WordBits {
			return out[i].Cfg.WordBits < out[j].Cfg.WordBits
		}
		return out[i].Energy.TotalPJ < out[j].Energy.TotalPJ
	})
	return out
}
