// Command wrbpg is a CLI for the Weighted Red-Blue Pebble Game
// library: build the paper's dataflow graphs, run schedulers,
// validate schedules, search minimum memory sizes, and synthesize
// memory macros.
//
// Usage:
//
//	wrbpg info     -workload dwt|mvm|cdag [-n N] [-d D] [-m M] [-graph FILE] [-weights equal|da]
//	wrbpg schedule -workload dwt|mvm|cdag -budget BITS [...] [-moves] [-json] [-patch FILE]
//	wrbpg minmem   -workload dwt|mvm [...]
//	wrbpg synth    -bits CAPACITY [-word BITS]
//	wrbpg dot      -workload dwt|mvm [...]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"wrbpg/internal/anytime"
	"wrbpg/internal/baseline"
	"wrbpg/internal/cdag"
	"wrbpg/internal/conv"
	"wrbpg/internal/core"
	"wrbpg/internal/dwt"
	"wrbpg/internal/fft"
	"wrbpg/internal/guard"
	"wrbpg/internal/ioopt"
	"wrbpg/internal/memdesign"
	"wrbpg/internal/mmm"
	"wrbpg/internal/mvm"
	"wrbpg/internal/obs"
	"wrbpg/internal/serve/wire"
	"wrbpg/internal/solve"
	"wrbpg/internal/synth"
	"wrbpg/internal/wcfg"
)

// logger is the process logger; subcommands reconfigure it from the
// shared -log-format/-log-level flags right after parsing.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

// initLog resolves the shared logging flags into the process logger.
func initLog(lf *obs.LogFlags) {
	l, err := lf.Logger(os.Stderr)
	if err != nil {
		fatalf("%v", err)
	}
	logger = l
}

// fatalf logs at error level and exits non-zero — the structured
// replacement for log.Fatalf.
func fatalf(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}

// fatal is fatalf for a bare error or value.
func fatal(v any) { fatalf("%v", v) }

type workloadFlags struct {
	workload string
	n, d, m  int
	k, taps  int
	weights  string
	graph    string
	log      *obs.LogFlags
}

func addWorkloadFlags(fs *flag.FlagSet) *workloadFlags {
	wf := &workloadFlags{}
	fs.StringVar(&wf.workload, "workload", "dwt", "dwt, mvm, fft, mmm, conv or cdag")
	fs.StringVar(&wf.graph, "graph", "",
		"CDAG JSON file for -workload cdag (raw node/edge spec or the interchange form)")
	fs.IntVar(&wf.n, "n", 256, "DWT/FFT/conv inputs, MVM/MMM columns")
	fs.IntVar(&wf.d, "d", 8, "DWT level / conv downsample")
	fs.IntVar(&wf.m, "m", 96, "MVM/MMM rows")
	fs.IntVar(&wf.k, "k", 16, "MMM inner dimension")
	fs.IntVar(&wf.taps, "taps", 4, "conv filter taps")
	fs.StringVar(&wf.weights, "weights", "equal", "equal or da (double accumulator)")
	wf.log = obs.AddLogFlags(fs)
	return wf
}

func (wf *workloadFlags) config() wcfg.Config {
	switch wf.weights {
	case "equal":
		return wcfg.Equal(wcfg.DefaultWordBits)
	case "da", "double", "double-accumulator":
		return wcfg.DoubleAccumulator(wcfg.DefaultWordBits)
	default:
		fatalf("unknown weights %q (want equal or da)", wf.weights)
		panic("unreachable")
	}
}

// built bundles whichever workload graph was constructed; exactly one
// typed field is non-nil. A dwt workload carries its scheduler, so the
// minimum-memory search and the schedule share one warm memo.
type built struct {
	g    *cdag.Graph
	dwt  *dwt.Scheduler
	mvm  *mvm.Graph
	fft  *fft.Graph
	mmm  *mmm.Graph
	conv *conv.Graph
	// cdag marks an arbitrary user-supplied graph (-workload cdag);
	// only g is set and scheduling goes through the anytime tier.
	cdag  bool
	label string
}

// build constructs the selected workload graph.
func (wf *workloadFlags) build() built {
	cfg := wf.config()
	switch wf.workload {
	case "dwt":
		g, err := dwt.Build(wf.n, wf.d, dwt.ConfigWeights(cfg))
		if err != nil {
			fatal(err)
		}
		s, err := dwt.NewScheduler(g)
		if err != nil {
			fatal(err)
		}
		return built{g: g.G, dwt: s, label: fmt.Sprintf("%s DWT(%d,%d)", cfg.Name, wf.n, wf.d)}
	case "mvm":
		g, err := mvm.Build(wf.m, wf.n, cfg)
		if err != nil {
			fatal(err)
		}
		return built{g: g.G, mvm: g, label: fmt.Sprintf("%s MVM(%d,%d)", cfg.Name, wf.m, wf.n)}
	case "fft":
		g, err := fft.Build(wf.n, cfg)
		if err != nil {
			fatal(err)
		}
		return built{g: g.G, fft: g, label: fmt.Sprintf("%s FFT(%d)", cfg.Name, wf.n)}
	case "mmm":
		g, err := mmm.Build(wf.m, wf.k, wf.n, cfg)
		if err != nil {
			fatal(err)
		}
		return built{g: g.G, mmm: g, label: fmt.Sprintf("%s MMM(%d,%d,%d)", cfg.Name, wf.m, wf.k, wf.n)}
	case "conv":
		g, err := conv.Build(wf.n, wf.taps, wf.d, cfg)
		if err != nil {
			fatal(err)
		}
		return built{g: g.G, conv: g, label: fmt.Sprintf("%s Conv(%d,%d,%d)", cfg.Name, wf.n, wf.taps, wf.d)}
	case "cdag":
		if wf.graph == "" {
			fatalf("-workload cdag requires -graph FILE")
		}
		g, err := loadGraphFile(wf.graph)
		if err != nil {
			fatal(err)
		}
		if err := g.Validate(); err != nil {
			fatal(err)
		}
		return built{g: g, cdag: true, label: fmt.Sprintf("CDAG(%d nodes)", g.Len())}
	default:
		fatalf("unknown workload %q (want dwt, mvm, fft, mmm, conv or cdag)", wf.workload)
		panic("unreachable")
	}
}

// loadGraphFile parses a CDAG from disk: the raw node/edge spec (named
// deps, any order — the same schema POST /v1/schedule takes) is tried
// first, falling back to the cdag interchange form (integer parents in
// topological order, as written by MarshalJSON).
func loadGraphFile(path string) (*cdag.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec wire.GraphSpec
	if err := dec.Decode(&spec); err == nil && len(spec.Nodes) > 0 && spec.Nodes[0].Name != "" {
		g, err := spec.Graph()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		return g, nil
	}
	var g cdag.Graph
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: not a raw node/edge spec and not the cdag interchange form: %v", path, err)
	}
	return &g, nil
}

func main() {
	// Library invariant violations surface as panics; report them as
	// ordinary fatal errors instead of a stack-trace crash.
	defer func() {
		if r := recover(); r != nil {
			fatalf("internal error: %v", r)
		}
	}()
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "info":
		cmdInfo(os.Args[2:])
	case "schedule":
		cmdSchedule(os.Args[2:])
	case "minmem":
		cmdMinMem(os.Args[2:])
	case "synth":
		cmdSynth(os.Args[2:])
	case "compile":
		cmdCompile(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "dot":
		cmdDOT(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		logger.Error("unknown subcommand", "cmd", os.Args[1])
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: wrbpg <info|schedule|minmem|synth|compile|verify|dot> [flags]
  info      graph statistics and bounds
  schedule  run the optimal scheduler at a budget and validate
  minmem    minimum fast memory per approach (Definition 2.6)
  synth     synthesize an SRAM macro for a capacity
  compile   write a schedule manifest (JSON) for deployment
  verify    re-validate a manifest against its workload
  dot       emit the graph in Graphviz DOT`)
	os.Exit(2)
}

// plan schedules the built workload at budget (0 = its minimum
// memory): it searches the family's configuration, builds the
// schedule, and returns the budget used, the schedule and the detail
// line the text report prints first (tile configuration, block
// exponent, strategy, window buffer or anytime report; none for dwt).
// lim bounds only the cdag anytime search. compile, the text path of
// schedule and the solve facade's fft/mmm/conv problems all call it.
func plan(w built, budget cdag.Weight, lim guard.Limits) (cdag.Weight, core.Schedule, string, error) {
	b, err := defaultBudget(w, budget)
	if err != nil {
		return 0, nil, "", err
	}
	switch {
	case w.dwt != nil:
		sched, err := w.dwt.Schedule(b)
		return b, sched, "", err
	case w.mvm != nil:
		tc, _, err := w.mvm.Search(b)
		if err != nil {
			return 0, nil, "", err
		}
		sched, err := w.mvm.TileSchedule(tc)
		return b, sched, fmt.Sprintf("tile configuration: %v", tc), err
	case w.fft != nil:
		t, _, err := w.fft.Search(b)
		if err != nil {
			return 0, nil, "", err
		}
		sched, err := w.fft.BlockedSchedule(t)
		return b, sched, fmt.Sprintf("block exponent: %d (%d passes)", t, w.fft.Passes(t)), err
	case w.mmm != nil:
		c, _, err := w.mmm.Search(b)
		if err != nil {
			return 0, nil, "", err
		}
		sched, err := w.mmm.Schedule(c)
		return b, sched, fmt.Sprintf("strategy: %v", c), err
	case w.conv != nil:
		c, _, err := w.conv.Search(b)
		if err != nil {
			return 0, nil, "", err
		}
		sched, err := w.conv.Schedule(c)
		return b, sched, fmt.Sprintf("resident window buffer: %d inputs", c), err
	case w.cdag:
		res, err := anytime.Search(context.Background(), w.g, b, lim, anytime.Options{})
		if err != nil {
			return 0, nil, "", err
		}
		return b, res.Schedule, fmt.Sprintf("anytime: seed %d -> %d bits (complete=%v, %d states expanded)",
			res.SeedCost, res.Cost, res.Complete, res.Expanded), nil
	}
	return 0, nil, "", fmt.Errorf("no workload built")
}

// cdagCLIDeadline bounds the anytime search when the CLI schedules an
// arbitrary graph without an explicit -timeout: long enough to drain
// small graphs (a certified answer), short enough to stay interactive.
const cdagCLIDeadline = 2 * time.Second

// limits picks the solve limits for every CLI path: the -timeout
// deadline, or cdagCLIDeadline for a cdag workload given none.
func limits(w built, timeout time.Duration) guard.Limits {
	if timeout == 0 && w.cdag {
		timeout = cdagCLIDeadline
	}
	return guard.Limits{Deadline: timeout}
}

func cmdCompile(args []string) {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	wf := addWorkloadFlags(fs)
	budget := fs.Int64("budget", 0, "fast memory budget in bits (0 = minimum memory)")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	initLog(wf.log)
	w := wf.build()
	b, sched, _, err := plan(w, cdag.Weight(*budget), limits(w, 0))
	if err != nil {
		fatal(err)
	}
	m, err := core.NewManifest(w.label, w.g, b, sched)
	if err != nil {
		fatal(err)
	}
	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		dst = f
	}
	if err := core.WriteManifest(dst, m); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "compiled %s: %d moves, %d bits I/O at %d bits fast memory\n",
		w.label, len(m.Moves), m.CostBits, m.BudgetBits)
}

func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	wf := addWorkloadFlags(fs)
	in := fs.String("manifest", "", "manifest file to verify")
	fs.Parse(args)
	initLog(wf.log)
	if *in == "" {
		fatal("verify: -manifest is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	m, err := core.ReadManifest(f)
	if err != nil {
		fatal(err)
	}
	w := wf.build()
	if err := m.Verify(w.g); err != nil {
		fatalf("verification FAILED: %v", err)
	}
	fmt.Printf("manifest %q verifies against %s: cost %d bits, peak %d bits at budget %d\n",
		m.Workload, w.label, m.CostBits, m.PeakBits, m.BudgetBits)
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	wf := addWorkloadFlags(fs)
	fs.Parse(args)
	initLog(wf.log)
	b := wf.build()
	g, label := b.g, b.label
	fmt.Printf("%s\n", label)
	fmt.Printf("  nodes:            %d\n", g.Len())
	fmt.Printf("  edges:            %d\n", g.EdgeCount())
	fmt.Printf("  sources:          %d (weight %d bits)\n", len(g.Sources()), g.SourceWeight())
	fmt.Printf("  sinks:            %d (weight %d bits)\n", len(g.Sinks()), g.SinkWeight())
	fmt.Printf("  total weight:     %d bits\n", g.TotalWeight())
	fmt.Printf("  algorithmic LB:   %d bits (Proposition 2.4)\n", core.LowerBound(g))
	fmt.Printf("  existence bound:  %d bits (Proposition 2.3)\n", core.MinExistenceBudget(g))
}

// defaultBudget resolves the budget-0 convention: a zero budget means
// the workload's minimum memory (the existence bound for cdag); any
// other budget is returned as is.
func defaultBudget(w built, b cdag.Weight) (cdag.Weight, error) {
	if b != 0 {
		return b, nil
	}
	switch {
	case w.dwt != nil:
		return w.dwt.MinMemory(16)
	case w.mvm != nil:
		return w.mvm.MinMemory(), nil
	case w.fft != nil:
		return w.fft.MinMemory(), nil
	case w.mmm != nil:
		return w.mmm.MinMemory(), nil
	case w.conv != nil:
		return w.conv.MinMemory(), nil
	case w.cdag:
		return core.MinExistenceBudget(w.g), nil
	}
	return 0, fmt.Errorf("no workload built")
}

// problemFor adapts the built workload to the solve facade. The dwt
// and mvm solvers cancel cooperatively; the others rely on the
// facade's goroutine isolation to honour the deadline.
func problemFor(w built) solve.Problem {
	switch {
	case w.dwt != nil:
		return solve.DWT(w.dwt.Graph())
	case w.mvm != nil:
		return solve.MVM(w.mvm)
	case w.cdag:
		return solve.AnytimeCDAG(w.g)
	case w.fft != nil:
		return planProblem("fft", w)
	case w.mmm != nil:
		return planProblem("mmm", w)
	default:
		return planProblem("conv", w)
	}
}

// planProblem wraps plan as a solve.Problem's optimal solver.
func planProblem(name string, w built) solve.Problem {
	return solve.Problem{Name: name, G: w.g,
		Optimal: func(ctx context.Context, lim guard.Limits, b cdag.Weight) (core.Schedule, error) {
			_, sched, _, err := plan(w, b, lim)
			return sched, err
		}}
}

// runSolve schedules through the hardened solve facade, the path the
// -json output and -timeout share.
func runSolve(w built, b cdag.Weight, timeout time.Duration) (solve.Outcome, error) {
	return solve.Run(context.Background(), problemFor(w), b, limits(w, timeout))
}

func cmdSchedule(args []string) {
	fs := flag.NewFlagSet("schedule", flag.ExitOnError)
	wf := addWorkloadFlags(fs)
	budget := fs.Int64("budget", 0, "fast memory budget in bits (0 = minimum memory)")
	moves := fs.Bool("moves", false, "print the full move sequence")
	trace := fs.Bool("trace", false, "print the fast-memory occupancy sparkline")
	timeout := fs.Duration("timeout", 0,
		"wall-clock limit for the solve; on expiry degrade to the baseline scheduler (0 = no limit)")
	jsonOut := fs.Bool("json", false,
		"emit the machine-readable result (the wrbpgd wire format) instead of the text report")
	patchFile := fs.String("patch", "",
		"JSON file of weight deltas [{\"node\":N,\"weight_bits\":W},...] applied to the warm base session "+
			"before re-solving incrementally (requires -json; dwt workload only)")
	fs.Parse(args)
	initLog(wf.log)
	w := wf.build()
	if *patchFile != "" && !*jsonOut {
		fatal("-patch requires -json (the result is the wrbpgd patch wire format)")
	}
	b, err := defaultBudget(w, cdag.Weight(*budget))
	if err != nil {
		fatal(err)
	}
	switch {
	case *patchFile != "":
		res, err := schedulePatch(wf, b, *patchFile, *timeout)
		if err != nil {
			fatal(err)
		}
		writeJSON(res)
	case *jsonOut:
		// The -json path always goes through the hardened solve facade
		// so the CLI and wrbpgd emit the identical result struct.
		out, err := runSolve(w, b, *timeout)
		if err != nil {
			fatal(err)
		}
		writeJSON(wire.NewScheduleResult(w.label, out, core.LowerBound(w.g), *moves))
	case *timeout > 0:
		out, err := runSolve(w, b, *timeout)
		if err != nil {
			fatal(err)
		}
		if out.Source == solve.SourceFallback {
			logger.Warn("degraded: optimal solve abandoned; using baseline schedule",
				"reason", solve.FallbackReason(out.Err), "err", out.Err)
		}
		fmt.Printf("path: %s (%s)\n", out.Source, out.Elapsed.Round(time.Microsecond))
		printScheduleReport(w, b, out.Schedule, *moves, *trace)
	default:
		_, sched, detail, err := plan(w, b, limits(w, 0))
		if err != nil {
			fatal(err)
		}
		if detail != "" {
			fmt.Println(detail)
		}
		printScheduleReport(w, b, sched, *moves, *trace)
	}
}

// writeJSON prints v as indented JSON on stdout.
func writeJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

// schedulePatch is the CLI face of the incremental re-solve engine:
// build the base session, warm it at the budget, move it to the delta
// file's target state with dependency-tracked invalidation, and
// re-answer the budget from the surviving memo cells. It emits the
// same wire.PatchResponse the wrbpgd patch endpoint returns, so the
// examples/patch walkthrough scripts work against either surface.
func schedulePatch(wf *workloadFlags, b cdag.Weight, file string, timeout time.Duration) (*wire.PatchResponse, error) {
	if wf.workload != "dwt" {
		return nil, fmt.Errorf("-patch supports the incremental dwt workload, not %q", wf.workload)
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var wds []wire.PatchDelta
	if err := json.Unmarshal(raw, &wds); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	if len(wds) == 0 {
		return nil, fmt.Errorf("%s: no deltas", file)
	}
	ds, err := wire.CanonicalDeltas(wds)
	if err != nil {
		return nil, err
	}
	inst := solve.Instance{Family: solve.FamilyDWT, N: wf.n, D: wf.d, Cfg: wf.config()}
	se, err := solve.NewSession(inst)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ctx := context.Background()
	lim := guard.Limits{Deadline: timeout}
	// Warm the base memo first, so the reported reuse measures what the
	// incremental engine saved versus a cold re-solve.
	if _, err := se.CostCtx(ctx, lim, b); err != nil {
		return nil, err
	}
	st, err := se.PatchTo(ds)
	if err != nil {
		return nil, err
	}
	pts, err := se.SweepCosts(ctx, lim, []cdag.Weight{b}, nil)
	if err != nil {
		return nil, err
	}
	if pts[0].Err != nil {
		return nil, pts[0].Err
	}
	inst.Deltas = ds
	it := wire.SweepItem{BudgetBits: int64(pts[0].Budget), Feasible: pts[0].Feasible}
	if pts[0].Feasible {
		it.CostBits = int64(pts[0].Cost)
	}
	return &wire.PatchResponse{
		Workload:         se.Label(),
		BaseKey:          inst.BaseShapeKey(),
		PatchKey:         inst.ShapeKey(),
		LowerBoundBits:   int64(se.LowerBound()),
		MinExistenceBits: int64(se.MinExistence()),
		Items:            []wire.SweepItem{it},
		Succeeded:        1,
		Session:          "cli",
		DeltasApplied:    len(ds),
		ChangedNodes:     st.Changed,
		CellsInvalidated: st.Invalidated,
		CellsReused:      st.Reused,
		ElapsedUS:        wire.Elapsed(start),
	}, nil
}

// printScheduleReport validates the schedule and prints the shared
// summary block of the schedule subcommand.
func printScheduleReport(w built, b cdag.Weight, sched core.Schedule, moves, trace bool) {
	stats, err := core.Simulate(w.g, b, sched)
	if err != nil {
		fatalf("schedule failed validation: %v", err)
	}
	fmt.Printf("%s at %d bits:\n", w.label, b)
	fmt.Printf("  moves:        %d (M1 %d, M2 %d, M3 %d, M4 %d)\n",
		len(sched), stats.Moves[core.M1], stats.Moves[core.M2], stats.Moves[core.M3], stats.Moves[core.M4])
	fmt.Printf("  weighted I/O: %d bits (LB %d)\n", stats.Cost, core.LowerBound(w.g))
	fmt.Printf("  peak red:     %d bits\n", stats.PeakRedWeight)
	if trace {
		tr, err := core.OccupancyTrace(w.g, b, sched)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  occupancy:    %s\n", core.Sparkline(tr, b, 72))
	}
	if moves {
		fmt.Println(sched)
	}
}

func cmdMinMem(args []string) {
	fs := flag.NewFlagSet("minmem", flag.ExitOnError)
	wf := addWorkloadFlags(fs)
	fs.Parse(args)
	initLog(wf.log)
	w := wf.build()
	cfg := wf.config()
	fmt.Printf("%s minimum fast memory (Definition 2.6):\n", w.label)
	switch {
	case w.dwt != nil:
		opt, err := w.dwt.MinMemory(16)
		if err != nil {
			fatal(err)
		}
		dg := w.dwt.Graph()
		lbl, err := baseline.MinMemory(dg.G, dg.Layers, 16)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  optimum (ours):  %v\n", memdesign.NewSpec(opt, cfg.WordBits))
		fmt.Printf("  layer-by-layer:  %v\n", memdesign.NewSpec(lbl, cfg.WordBits))
		fmt.Printf("  reduction:       %.1f%%\n", memdesign.Reduction(lbl, opt))
	case w.mvm != nil:
		model := ioopt.New(wf.m, wf.n, cfg)
		tiling := w.mvm.MinMemory()
		io := model.MinMemoryBits()
		fmt.Printf("  tiling (ours):   %v\n", memdesign.NewSpec(tiling, cfg.WordBits))
		fmt.Printf("  IOOpt UB:        %v\n", memdesign.NewSpec(io, cfg.WordBits))
		fmt.Printf("  reduction:       %.1f%%\n", memdesign.Reduction(io, tiling))
	case w.fft != nil:
		fmt.Printf("  blocked (t=%d):  %v\n", w.fft.K, memdesign.NewSpec(w.fft.MinMemory(), cfg.WordBits))
	case w.mmm != nil:
		c, _, err := w.mmm.Search(w.mmm.MinMemory())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %-15v %v\n", c, memdesign.NewSpec(w.mmm.MinMemory(), cfg.WordBits))
	case w.conv != nil:
		fmt.Printf("  full window:     %v\n", memdesign.NewSpec(w.conv.MinMemory(), cfg.WordBits))
	case w.cdag:
		fmt.Printf("  existence bound: %v (Proposition 2.3)\n",
			memdesign.NewSpec(core.MinExistenceBudget(w.g), cfg.WordBits))
	}
}

func cmdSynth(args []string) {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	bits := fs.Int64("bits", 2048, "capacity in bits")
	word := fs.Int("word", 16, "word size in bits")
	lf := obs.AddLogFlags(fs)
	fs.Parse(args)
	initLog(lf)
	m, err := synth.Synthesize(cdag.Weight(*bits), *word, synth.TSMC65())
	if err != nil {
		fatal(err)
	}
	fmt.Println(m)
	fmt.Print(m.Layout(m.WidthLambda / 40))
}

func cmdDOT(args []string) {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	wf := addWorkloadFlags(fs)
	fs.Parse(args)
	initLog(wf.log)
	w := wf.build()
	fmt.Print(w.g.DOT(w.label))
}
