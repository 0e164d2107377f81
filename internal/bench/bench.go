// Package bench regenerates every table and figure of the paper's
// evaluation (Section 5): the I/O-versus-memory curves of Figure 5,
// the minimum-memory scaling of Figure 6, the memory sizes of
// Table 1, the synthesis metrics of Figure 7 and the layout
// comparison of Figure 8. cmd/experiments renders these as text; the
// repository-root benchmarks time them.
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"wrbpg/internal/baseline"
	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/dwt"
	"wrbpg/internal/ioopt"
	"wrbpg/internal/memdesign"
	"wrbpg/internal/mvm"
	"wrbpg/internal/par"
	"wrbpg/internal/synth"
	"wrbpg/internal/wcfg"
)

// Workload dimensions of Section 5.1.
const (
	DWTInputs = 256
	DWTLevels = 8
	MVMRows   = 96
	MVMCols   = 120
	WordBits  = wcfg.DefaultWordBits
)

// Configs returns the two node-weight configurations evaluated.
func Configs() []wcfg.Config {
	return []wcfg.Config{wcfg.Equal(WordBits), wcfg.DoubleAccumulator(WordBits)}
}

// LogBudgets returns word-aligned budgets from lo to hi (inclusive)
// growing geometrically by ratio, in bits.
func LogBudgets(lo, hi cdag.Weight, ratio float64, wordBits int) []cdag.Weight {
	if ratio <= 1 {
		ratio = 1.25
	}
	wb := cdag.Weight(wordBits)
	align := func(b cdag.Weight) cdag.Weight {
		if r := b % wb; r != 0 {
			b += wb - r
		}
		return b
	}
	set := map[cdag.Weight]bool{}
	for b := float64(lo); cdag.Weight(b) <= hi; b *= ratio {
		set[align(cdag.Weight(b))] = true
	}
	set[align(lo)] = true
	set[align(hi)] = true
	var out []cdag.Weight
	for b := range set {
		if b >= lo && b <= hi+wb {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// The sweeps of Figures 5 and 6 are embarrassingly parallel, so each
// fans out across workers goroutines (≤ 0 selects GOMAXPROCS) with
// par.MapCtx. Rows are identical at every worker count. The first
// error aborts the sweep (jobs not yet started are skipped); once ctx
// dies no further point is dispatched and the typed reason
// (guard.ErrCanceled / guard.ErrDeadline) is returned.

// Fig5DWTRow is one budget point of Figure 5a/5b: bits transferred by
// each approach for DWT(256,8).
type Fig5DWTRow struct {
	BudgetBits    cdag.Weight
	AlgorithmicLB cdag.Weight
	LayerByLayer  cdag.Weight
	Optimum       cdag.Weight
}

// Fig5DWT sweeps fast memory sizes for DWT(n,d) under cfg. A nil
// budget list selects a default log sweep from the existence bound to
// past both approaches' convergence. The budget axis is split into
// contiguous chunks, one dwt.Scheduler per chunk: the scheduler's memo
// is not safe for concurrent use, and chunking keeps the within-chunk
// memo reuse (adjacent budgets solve overlapping subproblems). One
// worker makes one chunk, so one warm scheduler answers every budget.
func Fig5DWT(ctx context.Context, cfg wcfg.Config, n, d int, budgets []cdag.Weight, workers int) ([]Fig5DWTRow, error) {
	g, err := dwt.Build(n, d, dwt.ConfigWeights(cfg))
	if err != nil {
		return nil, err
	}
	lb := core.LowerBound(g.G)
	if budgets == nil {
		lblMem, err := baseline.MinMemory(g.G, g.Layers, cdag.Weight(cfg.WordBits))
		if err != nil {
			return nil, err
		}
		budgets = LogBudgets(core.MinExistenceBudget(g.G), 2*lblMem, 1.3, cfg.WordBits)
	}
	chunks := par.Chunks(len(budgets), workers)
	parts, err := par.MapCtx(ctx, workers, chunks, func(c [2]int) ([]Fig5DWTRow, error) {
		sched, err := dwt.NewScheduler(g)
		if err != nil {
			return nil, err
		}
		rows := make([]Fig5DWTRow, 0, c[1]-c[0])
		for _, b := range budgets[c[0]:c[1]] {
			lbl, err := baseline.Cost(g.G, g.Layers, b)
			if err != nil {
				return nil, fmt.Errorf("bench: layer-by-layer at %d: %w", b, err)
			}
			opt := sched.MinCost(b)
			if opt >= dwt.Inf {
				return nil, fmt.Errorf("bench: optimum infeasible at %d", b)
			}
			rows = append(rows, Fig5DWTRow{BudgetBits: b, AlgorithmicLB: lb, LayerByLayer: lbl, Optimum: opt})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig5DWTRow
	for _, p := range parts {
		rows = append(rows, p...)
	}
	return rows, nil
}

// Fig5MVMRow is one budget point of Figure 5c/5d for MVM(96,120).
type Fig5MVMRow struct {
	BudgetBits cdag.Weight
	IOOptLB    cdag.Weight
	IOOptUB    cdag.Weight
	Tiling     cdag.Weight
}

// Fig5MVM sweeps fast memory sizes for MVM(m,n) under cfg, one budget
// per job: mvm cost prediction is closed-form and stateless, so
// budgets share the graph safely.
func Fig5MVM(ctx context.Context, cfg wcfg.Config, m, n int, budgets []cdag.Weight, workers int) ([]Fig5MVMRow, error) {
	g, err := mvm.Build(m, n, cfg)
	if err != nil {
		return nil, err
	}
	model := ioopt.New(m, n, cfg)
	if budgets == nil {
		hi := 2 * model.MinMemoryBits()
		budgets = LogBudgets(g.TilingMinBudget(), hi, 1.3, cfg.WordBits)
	}
	pts, err := par.MapCtx(ctx, workers, budgets, func(b cdag.Weight) (Fig5MVMRow, error) {
		words := int(b) / cfg.WordBits
		tiling := g.MinCost(b)
		if tiling >= mvm.Inf {
			// Below the tiling minimum; the paper's axis starts above
			// it. Marked by a zero BudgetBits and filtered below.
			return Fig5MVMRow{}, nil
		}
		return Fig5MVMRow{
			BudgetBits: b,
			IOOptLB:    model.LowerBound(words),
			IOOptUB:    model.UpperBound(words),
			Tiling:     tiling,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig5MVMRow, 0, len(pts))
	for _, r := range pts {
		if r.BudgetBits != 0 {
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// Fig6DWTRow is one problem size of Figure 6a/6b: minimum fast memory
// for DWT(n, d*) with d* the largest level n admits.
type Fig6DWTRow struct {
	N, D         int
	LayerByLayer cdag.Weight
	Optimum      cdag.Weight
}

// Fig6DWT scans even n in [2, maxN], one problem size per job.
func Fig6DWT(ctx context.Context, cfg wcfg.Config, maxN, workers int) ([]Fig6DWTRow, error) {
	var sizes []int
	for n := 2; n <= maxN; n += 2 {
		sizes = append(sizes, n)
	}
	step := cdag.Weight(cfg.WordBits)
	return par.MapCtx(ctx, workers, sizes, func(n int) (Fig6DWTRow, error) {
		d := dwt.MaxLevel(n)
		g, err := dwt.Build(n, d, dwt.ConfigWeights(cfg))
		if err != nil {
			return Fig6DWTRow{}, err
		}
		s, err := dwt.NewScheduler(g)
		if err != nil {
			return Fig6DWTRow{}, err
		}
		opt, err := s.MinMemory(step)
		if err != nil {
			return Fig6DWTRow{}, err
		}
		lbl, err := baseline.MinMemory(g.G, g.Layers, step)
		if err != nil {
			return Fig6DWTRow{}, err
		}
		return Fig6DWTRow{N: n, D: d, LayerByLayer: lbl, Optimum: opt}, nil
	})
}

// Fig6MVMRow is one problem size of Figure 6c/6d: minimum fast memory
// for MVM(96, n).
type Fig6MVMRow struct {
	N       int
	IOOptUB cdag.Weight
	Tiling  cdag.Weight
}

// Fig6MVM scans n in [1, maxN] with m rows, one problem size per job.
func Fig6MVM(ctx context.Context, cfg wcfg.Config, m, maxN, workers int) ([]Fig6MVMRow, error) {
	var sizes []int
	for n := 1; n <= maxN; n++ {
		sizes = append(sizes, n)
	}
	return par.MapCtx(ctx, workers, sizes, func(n int) (Fig6MVMRow, error) {
		g, err := mvm.Build(m, n, cfg)
		if err != nil {
			return Fig6MVMRow{}, err
		}
		model := ioopt.New(m, n, cfg)
		return Fig6MVMRow{N: n, IOOptUB: model.MinMemoryBits(), Tiling: g.MinMemory()}, nil
	})
}

// Table1Row mirrors one row of Table 1.
type Table1Row struct {
	Workload string
	Weights  string
	Approach string
	Ours     bool
	Spec     memdesign.Spec
}

// Table1 computes all eight rows of Table 1.
func Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, cfg := range Configs() {
		g, err := dwt.Build(DWTInputs, DWTLevels, dwt.ConfigWeights(cfg))
		if err != nil {
			return nil, err
		}
		s, err := dwt.NewScheduler(g)
		if err != nil {
			return nil, err
		}
		opt, err := s.MinMemory(cdag.Weight(cfg.WordBits))
		if err != nil {
			return nil, err
		}
		lbl, err := baseline.MinMemory(g.G, g.Layers, cdag.Weight(cfg.WordBits))
		if err != nil {
			return nil, err
		}
		wl := fmt.Sprintf("DWT(%d, %d)", DWTInputs, DWTLevels)
		rows = append(rows,
			Table1Row{wl, cfg.Name, "Optimum*", true, memdesign.NewSpec(opt, cfg.WordBits)},
			Table1Row{wl, cfg.Name, "Layer-by-Layer", false, memdesign.NewSpec(lbl, cfg.WordBits)},
		)
	}
	for _, cfg := range Configs() {
		g, err := mvm.Build(MVMRows, MVMCols, cfg)
		if err != nil {
			return nil, err
		}
		model := ioopt.New(MVMRows, MVMCols, cfg)
		wl := fmt.Sprintf("MVM(%d, %d)", MVMRows, MVMCols)
		rows = append(rows,
			Table1Row{wl, cfg.Name, "Tiling*", true, memdesign.NewSpec(g.MinMemory(), cfg.WordBits)},
			Table1Row{wl, cfg.Name, "IOOpt UB", false, memdesign.NewSpec(model.MinMemoryBits(), cfg.WordBits)},
		)
	}
	return rows, nil
}

// Fig7Row pairs a Table 1 design point with its synthesized macro.
type Fig7Row struct {
	Table1Row
	Macro synth.Macro
}

// Fig7 synthesizes the power-of-two capacity of every Table 1 row
// under the process model.
func Fig7(p synth.Process) ([]Fig7Row, error) {
	t1, err := Table1()
	if err != nil {
		return nil, err
	}
	var rows []Fig7Row
	for _, r := range t1 {
		m, err := synth.Synthesize(r.Spec.Pow2Bits, r.Spec.WordBits, p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig7Row{Table1Row: r, Macro: m})
	}
	return rows, nil
}

// Fig8Pair is one subfigure of Figure 8: our macro against the
// corresponding baseline macro for the same workload and weighting.
type Fig8Pair struct {
	Label    string
	Ours     Fig7Row
	Baseline Fig7Row
}

// Fig8 pairs the Fig7 rows per workload/weighting.
func Fig8(p synth.Process) ([]Fig8Pair, error) {
	rows, err := Fig7(p)
	if err != nil {
		return nil, err
	}
	var pairs []Fig8Pair
	for i := 0; i+1 < len(rows); i += 2 {
		if !rows[i].Ours || rows[i+1].Ours {
			return nil, fmt.Errorf("bench: unexpected Fig7 row pairing at %d", i)
		}
		pairs = append(pairs, Fig8Pair{
			Label:    fmt.Sprintf("%s %s", rows[i].Weights, rows[i].Workload),
			Ours:     rows[i],
			Baseline: rows[i+1],
		})
	}
	return pairs, nil
}

// WriteTable renders rows with aligned columns.
func WriteTable(w io.Writer, headers []string, rows [][]string) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, h := range headers {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	for _, r := range rows {
		for i, c := range r {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, c)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}
