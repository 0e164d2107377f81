package wrbpg

// One benchmark per table and figure of the paper's evaluation
// (Section 5), plus ablation benchmarks for the design choices called
// out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The benchmarks exercise the same code paths cmd/experiments renders;
// EXPERIMENTS.md records the regenerated values against the paper's.

import (
	"context"
	"testing"

	"wrbpg/internal/banded"
	"wrbpg/internal/baseline"
	"wrbpg/internal/bench"
	"wrbpg/internal/cdag"
	"wrbpg/internal/conv"
	"wrbpg/internal/core"
	"wrbpg/internal/dwt"
	"wrbpg/internal/exact"
	"wrbpg/internal/fft"
	"wrbpg/internal/ktree"
	"wrbpg/internal/mmm"
	"wrbpg/internal/mvm"
	"wrbpg/internal/pipeline"
	"wrbpg/internal/synth"
	"wrbpg/internal/wcfg"
)

// --- Figure 5: bits transferred vs fast memory size ---------------

func benchFig5DWT(b *testing.B, cfg wcfg.Config) {
	b.Helper()
	if testing.Short() {
		b.Skip("full Figure 5 DWT sweep; skipped in -short mode")
	}
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig5DWT(context.Background(), cfg, bench.DWTInputs, bench.DWTLevels, nil, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig5aDWTEqual(b *testing.B)     { benchFig5DWT(b, wcfg.Equal(16)) }
func BenchmarkFig5bDWTDoubleAcc(b *testing.B) { benchFig5DWT(b, wcfg.DoubleAccumulator(16)) }

func benchFig5MVM(b *testing.B, cfg wcfg.Config) {
	b.Helper()
	if testing.Short() {
		b.Skip("full Figure 5 MVM sweep; skipped in -short mode")
	}
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig5MVM(context.Background(), cfg, bench.MVMRows, bench.MVMCols, nil, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig5cMVMEqual(b *testing.B)     { benchFig5MVM(b, wcfg.Equal(16)) }
func BenchmarkFig5dMVMDoubleAcc(b *testing.B) { benchFig5MVM(b, wcfg.DoubleAccumulator(16)) }

// --- Figure 6: minimum fast memory size vs problem size -----------

func benchFig6DWT(b *testing.B, cfg wcfg.Config) {
	b.Helper()
	if testing.Short() {
		b.Skip("full Figure 6 DWT sweep; skipped in -short mode")
	}
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig6DWT(context.Background(), cfg, bench.DWTInputs, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != bench.DWTInputs/2 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkFig6aDWTEqual(b *testing.B)     { benchFig6DWT(b, wcfg.Equal(16)) }
func BenchmarkFig6bDWTDoubleAcc(b *testing.B) { benchFig6DWT(b, wcfg.DoubleAccumulator(16)) }

func benchFig6MVM(b *testing.B, cfg wcfg.Config) {
	b.Helper()
	if testing.Short() {
		b.Skip("full Figure 6 MVM sweep; skipped in -short mode")
	}
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig6MVM(context.Background(), cfg, bench.MVMRows, bench.MVMCols, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != bench.MVMCols {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkFig6cMVMEqual(b *testing.B)     { benchFig6MVM(b, wcfg.Equal(16)) }
func BenchmarkFig6dMVMDoubleAcc(b *testing.B) { benchFig6MVM(b, wcfg.DoubleAccumulator(16)) }

// --- Table 1: minimum fast memory sizes ---------------------------

func BenchmarkTable1(b *testing.B) {
	if testing.Short() {
		b.Skip("full Table 1 computation; skipped in -short mode")
	}
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatal("want 8 rows")
		}
	}
}

// --- Figure 7: synthesis metrics of the Table 1 capacities --------

func BenchmarkFig7Synthesis(b *testing.B) {
	if testing.Short() {
		b.Skip("Table 1 plus synthesis; skipped in -short mode")
	}
	p := synth.TSMC65()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig7(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatal("want 8 macros")
		}
	}
}

// --- Figure 8: layout comparison -----------------------------------

func BenchmarkFig8Layouts(b *testing.B) {
	if testing.Short() {
		b.Skip("Table 1 plus layout rendering; skipped in -short mode")
	}
	p := synth.TSMC65()
	for i := 0; i < b.N; i++ {
		pairs, err := bench.Fig8(p)
		if err != nil {
			b.Fatal(err)
		}
		for _, pr := range pairs {
			if pr.Ours.Macro.Layout(64) == "" || pr.Baseline.Macro.Layout(64) == "" {
				b.Fatal("empty layout")
			}
		}
	}
}

// --- Ablations ------------------------------------------------------

// BenchmarkAblationDWTMemoOn/Off: the memoization that makes
// Algorithm 1 polynomial (Theorem 3.5) versus the raw exponential
// recursion, on DWT(64,6).
func BenchmarkAblationDWTMemoOn(b *testing.B) {
	g, err := dwt.Build(64, 6, dwt.ConfigWeights(wcfg.Equal(16)))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s, _ := dwt.NewScheduler(g)
		if c := s.MinCost(96); c >= dwt.Inf {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkAblationDWTMemoOff(b *testing.B) {
	if testing.Short() {
		b.Skip("exponential no-memo recursion; skipped in -short mode")
	}
	g, err := dwt.Build(64, 6, dwt.ConfigWeights(wcfg.Equal(16)))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if c := dwt.MinCostNoMemo(g, 96); c >= dwt.Inf {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkAblationKtreePruned/Full: the reduced 4-strategy set of
// Eq. 4 versus the full 2^k·k! enumeration of Eq. 3.
func BenchmarkAblationKtreePruned(b *testing.B) {
	tr, err := ktree.FullTree(2, 6, func(d, i int) cdag.Weight { return 16 })
	if err != nil {
		b.Fatal(err)
	}
	budget := core.MinExistenceBudget(tr.G) + 64
	for i := 0; i < b.N; i++ {
		s := ktree.NewScheduler(tr)
		if c := s.MinCost(budget); c >= ktree.Inf {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkAblationKtreeFull(b *testing.B) {
	tr, err := ktree.FullTree(2, 6, func(d, i int) cdag.Weight { return 16 })
	if err != nil {
		b.Fatal(err)
	}
	budget := core.MinExistenceBudget(tr.G) + 64
	for i := 0; i < b.N; i++ {
		if c := ktree.MinCostFullStrategySet(tr, budget); c >= ktree.Inf {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkAblationBaselineAlternate/Ascending: the alternating
// traversal direction of Section 5.1 versus plain ascending order.
func BenchmarkAblationBaselineAlternate(b *testing.B) {
	g, err := dwt.Build(256, 8, dwt.ConfigWeights(wcfg.Equal(16)))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := baseline.LayerByLayer(g.G, g.Layers, 2048); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBaselineAscending(b *testing.B) {
	g, err := dwt.Build(256, 8, dwt.ConfigWeights(wcfg.Equal(16)))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := baseline.LayerByLayerAscending(g.G, g.Layers, 2048); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extensions beyond the paper ------------------------------------

// BenchmarkExtensionFFTSweep: blocked FFT schedules across all block
// sizes on FFT(256) — the Hong–Kung n log n / log S law inside the
// WRBPG.
func BenchmarkExtensionFFTSweep(b *testing.B) {
	g, err := fft.Build(256, wcfg.Equal(16))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for t := 1; t <= g.K; t++ {
			sched, err := g.BlockedSchedule(t)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.Simulate(g.G, g.PredictPeak(t), sched); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExtensionMMMSweep: the three GEMM strategy families on
// MMM(24,24,24).
func BenchmarkExtensionMMMSweep(b *testing.B) {
	g, err := mmm.Build(24, 24, 24, wcfg.Equal(16))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, c := range []mmm.Config{
			{Strategy: mmm.CTile, TileRows: 8, TileCols: 8},
			{Strategy: mmm.BResident},
			{Strategy: mmm.AResident},
		} {
			sched, err := g.Schedule(c)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.Simulate(g.G, g.PredictPeak(c), sched); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExtensionConvSweep: sliding-window FIR schedules across
// buffer sizes (Daubechies-4 shape).
func BenchmarkExtensionConvSweep(b *testing.B) {
	g, err := conv.Build(1024, 4, 2, wcfg.Equal(16))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for c := 0; c <= g.Taps; c++ {
			sched, err := g.Schedule(c)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.Simulate(g.G, g.PredictPeak(c), sched); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExtensionPipeline: composing and validating the DWT→MVM
// BCI pipeline.
func BenchmarkExtensionPipeline(b *testing.B) {
	cfg := wcfg.Equal(16)
	dg, err := dwt.Build(64, 6, dwt.ConfigWeights(cfg))
	if err != nil {
		b.Fatal(err)
	}
	ds, err := dwt.NewScheduler(dg)
	if err != nil {
		b.Fatal(err)
	}
	dBudget, err := ds.MinMemory(16)
	if err != nil {
		b.Fatal(err)
	}
	dSched, err := ds.Schedule(dBudget)
	if err != nil {
		b.Fatal(err)
	}
	mg, err := mvm.Build(4, 64, cfg)
	if err != nil {
		b.Fatal(err)
	}
	tc, _, err := mg.Search(mg.MinMemory())
	if err != nil {
		b.Fatal(err)
	}
	mSched, err := mg.TileSchedule(tc)
	if err != nil {
		b.Fatal(err)
	}
	stages := []pipeline.Stage{
		{Name: "dwt", G: dg.G, Schedule: dSched, Outputs: dg.G.Sinks()},
		{Name: "decode", G: mg.G, Schedule: mSched, Inputs: mg.X, Outputs: mg.Outputs()},
	}
	budget, err := pipeline.MinBudget(stages...)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Compose(budget, stages...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionBandedSweep: banded MVM sliding-window schedules
// across bandwidths on a 128×128 operator.
func BenchmarkExtensionBandedSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range []int{0, 2, 8, 32} {
			g, err := banded.Build(128, w, wcfg.Equal(16))
			if err != nil {
				b.Fatal(err)
			}
			sched := g.Schedule()
			_, peak := g.Metrics()
			if _, err := core.Simulate(g.G, peak, sched); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationExactVsDP: exhaustive state-space optimum vs the
// polynomial DP on a small instance, for the certification cost.
func BenchmarkAblationExactSolver(b *testing.B) {
	g, err := dwt.Build(4, 2, dwt.ConfigWeights(wcfg.Equal(1)))
	if err != nil {
		b.Fatal(err)
	}
	budget := core.MinExistenceBudget(g.G)
	for i := 0; i < b.N; i++ {
		if _, err := exact.Solve(g.G, budget); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDPSolver(b *testing.B) {
	g, err := dwt.Build(4, 2, dwt.ConfigWeights(wcfg.Equal(1)))
	if err != nil {
		b.Fatal(err)
	}
	budget := core.MinExistenceBudget(g.G)
	for i := 0; i < b.N; i++ {
		s, _ := dwt.NewScheduler(g)
		if c := s.MinCost(budget); c >= dwt.Inf {
			b.Fatal("infeasible")
		}
	}
}
