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
	"fmt"
	"sort"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/dwt"
	"wrbpg/internal/energy"
	"wrbpg/internal/memdesign"
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
	scheds := make(map[shape]*dwt.Scheduler, len(cfgs))
	var out []Point
	for _, cfg := range cfgs {
		p, err := evalDWT(n, d, cfg, scheds, proc, ep)
		if err != nil {
			return nil, fmt.Errorf("dse: %s: %w", cfg.Name, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// evalDWT derives one configuration's minimum memory and the cost of
// its optimal schedule there, synthesizes the macro and estimates the
// per-window energy.
func evalDWT(n, d int, cfg wcfg.Config, scheds map[shape]*dwt.Scheduler, proc synth.Process, ep energy.Params) (Point, error) {
	s, ok := scheds[shapeOf(cfg)]
	if !ok {
		g, err := dwt.Build(n, d, dwt.ConfigWeights(cfg))
		if err != nil {
			return Point{}, err
		}
		if s, err = dwt.NewScheduler(g); err != nil {
			return Point{}, err
		}
		scheds[shapeOf(cfg)] = s
	}
	b, err := s.MinMemory(cdag.Weight(cfg.WordBits))
	if err != nil {
		return Point{}, err
	}
	sched, err := s.Schedule(b)
	if err != nil {
		return Point{}, err
	}
	stats, err := core.Simulate(s.Graph().G, b, sched)
	if err != nil {
		return Point{}, err
	}
	spec := memdesign.NewSpec(b, cfg.WordBits)
	// Round to a power-of-two word count so odd word sizes (12-bit
	// samples are common in neural ADCs) stay synthesizable.
	macro, err := synth.Synthesize(spec.Pow2WordCapacity(), cfg.WordBits, proc)
	if err != nil {
		return Point{}, err
	}
	rep, err := energy.Estimate(stats, len(sched), macro, ep)
	if err != nil {
		return Point{}, err
	}
	return Point{
		Cfg: cfg, MinMemoryBits: b, Spec: spec,
		CostBits: stats.Cost, Macro: macro, Energy: rep,
	}, nil
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
