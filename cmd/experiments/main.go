// Command experiments regenerates every table and figure of the
// paper's evaluation (Section 5) as aligned text tables.
//
// Usage:
//
//	experiments [-table1] [-fig5] [-fig6] [-fig7] [-fig8] [-dse] [-all] [-short] [-timeout D]
//
// With no figure selected, -all is assumed. -short reduces the Figure
// 5/6 sweep sizes for quick runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"

	"wrbpg/internal/bench"
	"wrbpg/internal/cdag"
	"wrbpg/internal/dse"
	"wrbpg/internal/energy"
	"wrbpg/internal/guard"
	"wrbpg/internal/memdesign"
	"wrbpg/internal/obs"
	"wrbpg/internal/synth"
)

var (
	flagTable1 = flag.Bool("table1", false, "print Table 1 (minimum fast memory sizes)")
	flagFig5   = flag.Bool("fig5", false, "print Figure 5 (bits transferred vs fast memory)")
	flagFig6   = flag.Bool("fig6", false, "print Figure 6 (minimum fast memory vs problem size)")
	flagFig7   = flag.Bool("fig7", false, "print Figure 7 (synthesis metrics)")
	flagFig8   = flag.Bool("fig8", false, "print Figure 8 (layouts)")
	flagDSE    = flag.Bool("dse", false, "print the mixed-precision design-space exploration")
	flagAll    = flag.Bool("all", false, "print everything")
	flagShort  = flag.Bool("short", false, "reduced sweeps for quick runs")
	flagTime   = flag.Duration("timeout", 0, "wall-clock limit for the whole run (0 = none)")
)

// runCtx carries cancellation (Ctrl-C, -timeout) into the parallel
// figure sweeps.
var runCtx = context.Background()

// stdout receives every table; the golden test swaps in a buffer.
var stdout io.Writer = os.Stdout

// logger is replaced in main once -log-format / -log-level are parsed.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func fatalf(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}

func fatal(v any) { fatalf("%v", v) }

// fatalIfSweepFailed distinguishes a cancelled sweep from a real
// failure in its error message.
func fatalIfSweepFailed(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, guard.ErrCanceled) || errors.Is(err, guard.ErrDeadline) {
		fatalf("sweep aborted: %v", err)
	}
	fatal(err)
}

func main() {
	logFlags := obs.AddLogFlags(flag.CommandLine)
	flag.Parse()
	if l, err := logFlags.Logger(os.Stderr); err != nil {
		fatalf("%v", err)
	} else {
		logger = l
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *flagTime > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *flagTime)
		defer cancel()
	}
	runCtx = ctx
	render()
}

// render prints every selected table and figure to stdout.
func render() {
	if !*flagTable1 && !*flagFig5 && !*flagFig6 && !*flagFig7 && !*flagFig8 && !*flagDSE {
		*flagAll = true
	}
	if *flagAll || *flagFig5 {
		fig5()
	}
	if *flagAll || *flagFig6 {
		fig6()
	}
	if *flagAll || *flagTable1 {
		table1()
	}
	if *flagAll || *flagFig7 {
		fig7()
	}
	if *flagAll || *flagFig8 {
		fig8()
	}
	if *flagAll || *flagDSE {
		dse2()
	}
}

// dse2 prints the mixed-precision exploration (extension beyond the
// paper's two fixed configurations).
func dse2() {
	header("Design-space exploration: DWT(256,8) precision grid (extension)")
	cfgs := dse.Precisions([]int{8, 12, 16}, []int{1, 2})
	pts, err := dse.ExploreDWT(bench.DWTInputs, bench.DWTLevels, cfgs, synth.TSMC65(), energy.Default65nm())
	if err != nil {
		fatal(err)
	}
	front := dse.Pareto(pts)
	onFront := map[string]bool{}
	for _, f := range front {
		onFront[f.Cfg.Name] = true
	}
	var out [][]string
	for _, p := range pts {
		mark := ""
		if onFront[p.Cfg.Name] {
			mark = "*"
		}
		out = append(out, []string{
			p.Cfg.Name + mark,
			fmt.Sprint(p.MinMemoryBits),
			fmt.Sprint(p.Spec.Pow2WordCapacity()),
			fmt.Sprint(p.CostBits),
			fmt.Sprintf("%.0f", p.Macro.AreaLambda2),
			fmt.Sprintf("%.1f", p.Energy.TotalPJ/1e3),
			fmt.Sprintf("%.3f", p.Energy.AvgPowerMW),
		})
	}
	must(bench.WriteTable(stdout, []string{
		"Precision", "MinMem(bits)", "Synth(bits)", "I/O(bits)", "Area(λ²)", "Energy(nJ)", "AvgPwr(mW)",
	}, out))
	fmt.Fprintln(stdout, "\n  * = on the precision-vs-energy Pareto frontier")
}

func header(s string) {
	fmt.Fprintf(stdout, "\n================ %s ================\n\n", s)
}

func fig5() {
	dwtN, dwtD := bench.DWTInputs, bench.DWTLevels
	mvmM, mvmN := bench.MVMRows, bench.MVMCols
	if *flagShort {
		dwtN, dwtD = 64, 6
		mvmM, mvmN = 24, 30
	}
	for _, cfg := range bench.Configs() {
		header(fmt.Sprintf("Figure 5: %s DWT(%d,%d) — bits transferred vs fast memory", cfg.Name, dwtN, dwtD))
		rows, err := bench.Fig5DWT(runCtx, cfg, dwtN, dwtD, nil, 0)
		fatalIfSweepFailed(err)
		var out [][]string
		for _, r := range rows {
			out = append(out, []string{
				fmt.Sprint(r.BudgetBits),
				fmt.Sprint(r.AlgorithmicLB),
				fmt.Sprint(r.LayerByLayer),
				fmt.Sprint(r.Optimum),
			})
		}
		must(bench.WriteTable(stdout,
			[]string{"FastMem(bits)", "AlgorithmicLB", "Layer-by-Layer", "Optimum(Ours)"}, out))
	}
	for _, cfg := range bench.Configs() {
		header(fmt.Sprintf("Figure 5: %s MVM(%d,%d) — bits transferred vs fast memory", cfg.Name, mvmM, mvmN))
		rows, err := bench.Fig5MVM(runCtx, cfg, mvmM, mvmN, nil, 0)
		fatalIfSweepFailed(err)
		var out [][]string
		for _, r := range rows {
			out = append(out, []string{
				fmt.Sprint(r.BudgetBits),
				fmt.Sprint(r.IOOptLB),
				ubString(r.IOOptUB),
				fmt.Sprint(r.Tiling),
			})
		}
		must(bench.WriteTable(stdout,
			[]string{"FastMem(bits)", "IOOpt LB", "IOOpt UB", "Tiling(Ours)"}, out))
	}
}

func ubString(w cdag.Weight) string {
	if w > 1<<60 {
		return "inf"
	}
	return fmt.Sprint(w)
}

func fig6() {
	maxN := bench.DWTInputs
	mvmN := bench.MVMCols
	if *flagShort {
		maxN, mvmN = 64, 40
	}
	for _, cfg := range bench.Configs() {
		header(fmt.Sprintf("Figure 6: %s DWT(n, d*) — minimum fast memory (bits) vs n", cfg.Name))
		rows, err := bench.Fig6DWT(runCtx, cfg, maxN, 0)
		fatalIfSweepFailed(err)
		var out [][]string
		for _, r := range rows {
			out = append(out, []string{
				fmt.Sprint(r.N), fmt.Sprint(r.D),
				fmt.Sprint(r.LayerByLayer), fmt.Sprint(r.Optimum),
			})
		}
		must(bench.WriteTable(stdout, []string{"n", "d*", "Layer-by-Layer", "Optimum(Ours)"}, out))
	}
	for _, cfg := range bench.Configs() {
		header(fmt.Sprintf("Figure 6: %s MVM(%d, n) — minimum fast memory (bits) vs n", cfg.Name, bench.MVMRows))
		rows, err := bench.Fig6MVM(runCtx, cfg, bench.MVMRows, mvmN, 0)
		fatalIfSweepFailed(err)
		var out [][]string
		for _, r := range rows {
			out = append(out, []string{fmt.Sprint(r.N), fmt.Sprint(r.IOOptUB), fmt.Sprint(r.Tiling)})
		}
		must(bench.WriteTable(stdout, []string{"n", "IOOpt UB", "Tiling(Ours)"}, out))
	}
}

func table1() {
	header("Table 1: minimum fast memory size comparison (* = our approaches)")
	rows, err := bench.Table1()
	if err != nil {
		fatal(err)
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Workload, r.Weights, r.Approach,
			fmt.Sprint(r.Spec.Words), fmt.Sprint(r.Spec.WordBits),
			fmt.Sprint(r.Spec.MinBits), fmt.Sprint(r.Spec.Pow2Bits),
		})
	}
	must(bench.WriteTable(stdout, []string{
		"Workload", "Node Weights", "Approach", "MinFastMem(words)",
		"WordSize(bits)", "MinCapacity(bits)", "Pow2Capacity(bits)",
	}, out))

	fmt.Fprintln(stdout)
	for i := 0; i+1 < len(rows); i += 2 {
		ours, base := rows[i], rows[i+1]
		fmt.Fprintf(stdout, "  %s %s: %s reduces minimum memory by %.1f%% vs %s\n",
			ours.Weights, ours.Workload, ours.Approach,
			memdesign.Reduction(base.Spec.MinBits, ours.Spec.MinBits), base.Approach)
	}
}

func fig7() {
	header("Figure 7: synthesized memory metrics (AMC-model, TSMC 65 nm)")
	rows, err := bench.Fig7(synth.TSMC65())
	if err != nil {
		fatal(err)
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%s %s", r.Weights, r.Workload), r.Approach,
			fmt.Sprint(r.Spec.Pow2Bits),
			fmt.Sprintf("%.0f", r.Macro.AreaLambda2),
			fmt.Sprintf("%.2f", r.Macro.LeakageMW),
			fmt.Sprintf("%.1f", r.Macro.ReadPowerMW),
			fmt.Sprintf("%.1f", r.Macro.WritePowerMW),
			fmt.Sprintf("%.1f", r.Macro.ReadGBs),
			fmt.Sprintf("%.1f", r.Macro.WriteGBs),
		})
	}
	must(bench.WriteTable(stdout, []string{
		"Workload", "Approach", "Capacity(bits)", "Area(λ²)",
		"Leakage(mW)", "ReadPwr(mW)", "WritePwr(mW)", "Read(GB/s)", "Write(GB/s)",
	}, out))

	fmt.Fprintln(stdout)
	var areaRed, leakRed float64
	pairs := 0
	for i := 0; i+1 < len(rows); i += 2 {
		ours, base := rows[i], rows[i+1]
		areaRed += 100 * (base.Macro.AreaLambda2 - ours.Macro.AreaLambda2) / base.Macro.AreaLambda2
		leakRed += 100 * (base.Macro.LeakageMW - ours.Macro.LeakageMW) / base.Macro.LeakageMW
		pairs++
	}
	fmt.Fprintf(stdout, "  average area reduction:    %.1f%% (paper: 63%%)\n", areaRed/float64(pairs))
	fmt.Fprintf(stdout, "  average leakage reduction: %.1f%% (paper: 43.4%%)\n", leakRed/float64(pairs))
}

func fig8() {
	header("Figure 8: physical layout comparison (equal scale)")
	pairs, err := bench.Fig8(synth.TSMC65())
	if err != nil {
		fatal(err)
	}
	for _, p := range pairs {
		scale := p.Baseline.Macro.WidthLambda / 48
		fmt.Fprintf(stdout, "--- %s ---\n", p.Label)
		fmt.Fprintf(stdout, "%s (%d bits, %.0f×%.0f λ):\n%s\n",
			p.Ours.Approach, p.Ours.Spec.Pow2Bits, p.Ours.Macro.WidthLambda, p.Ours.Macro.HeightLambda,
			p.Ours.Macro.Layout(scale))
		fmt.Fprintf(stdout, "%s (%d bits, %.0f×%.0f λ):\n%s\n",
			p.Baseline.Approach, p.Baseline.Spec.Pow2Bits, p.Baseline.Macro.WidthLambda, p.Baseline.Macro.HeightLambda,
			p.Baseline.Macro.Layout(scale))
	}
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}
