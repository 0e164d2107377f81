package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/dwt"
	"wrbpg/internal/guard"
	"wrbpg/internal/ktree"
	"wrbpg/internal/memstate"
	"wrbpg/internal/mvm"
	"wrbpg/internal/schedcache"
	"wrbpg/internal/serve"
	"wrbpg/internal/serve/wire"
	"wrbpg/internal/solve"
)

// PerfResult is one kernel's measurement, comparable across commits:
// ns/op plus the allocator counters that the DP hot paths are
// expected to keep at zero on memo hits.
type PerfResult struct {
	Name string `json:"name"`
	// Layer is the request layer the kernel times, when it times one.
	Layer       string  `json:"layer,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// PerfReport is the BENCH_*.json document emitted by
// cmd/experiments -bench-json: environment metadata plus one
// PerfResult per hot-path kernel.
type PerfReport struct {
	GoOS       string       `json:"goos"`
	GoArch     string       `json:"goarch"`
	NumCPU     int          `json:"num_cpu"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Results    []PerfResult `json:"results"`
}

// perfKernel is one entry of the regression suite. setup runs outside
// the timed region and returns the per-iteration body.
type perfKernel struct {
	name  string
	setup func() (func() error, error)
}

// sweepTree builds the k-ary instance the sweep kernels share: a full
// tree under the paper's Double Accumulator weighting (32-bit
// accumulators over 16-bit inputs), the same depth-staggered weight
// profile the Table-1 workloads use.
func sweepTree(k, height int) (*ktree.Tree, error) {
	cfg := Configs()[1]
	return ktree.FullTree(k, height, func(depth, index int) cdag.Weight {
		if depth == height {
			return cfg.Input()
		}
		return cfg.Node()
	})
}

// sweepBudgets returns n budgets descending geometrically from the
// total weight to the existence bound — the grid a Figure-5 curve
// samples, answered largest-first so the first solve warms the memo
// for the rest.
func sweepBudgets(min, total cdag.Weight, n int) []cdag.Weight {
	lo, hi := 1.0001, 8.0
	var ratio float64
	for it := 0; it < 60; it++ {
		ratio = (lo + hi) / 2
		p := 1.0
		for i := 0; i < n-1; i++ {
			p *= ratio
		}
		if float64(min)*p > float64(total) {
			hi = ratio
		} else {
			lo = ratio
		}
	}
	out := make([]cdag.Weight, n)
	b := float64(min)
	for i := range out {
		out[n-1-i] = cdag.Weight(b + 0.5)
		b *= ratio
	}
	return out
}

// perfKernels returns the hot-path suite: DP cost evaluation with
// warm memos (the packed-key lookups that must not allocate), cold
// full sweeps, the tile search, and graph construction.
func perfKernels() []perfKernel {
	return []perfKernel{
		{"MemstateSchedulerCostWarm", func() (func() error, error) {
			tr, err := ktree.FullTree(2, 6, func(d, i int) cdag.Weight { return 1 + cdag.Weight((d+i)%3) })
			if err != nil {
				return nil, err
			}
			s, err := memstate.NewScheduler(tr.G)
			if err != nil {
				return nil, err
			}
			leaf := tr.G.Sources()[0]
			reuse := memstate.NewBitset(leaf)
			b := core.MinExistenceBudget(tr.G) + 4
			s.Cost(tr.Root, b, memstate.Bitset{}, reuse)
			return func() error { s.Cost(tr.Root, b, memstate.Bitset{}, reuse); return nil }, nil
		}},
		{"MemstateKSchedulerCostWarm", func() (func() error, error) {
			tr, err := ktree.FullTree(3, 3, func(d, i int) cdag.Weight { return 1 + cdag.Weight(i%2) })
			if err != nil {
				return nil, err
			}
			s, err := memstate.NewKScheduler(tr.G)
			if err != nil {
				return nil, err
			}
			leaf := tr.G.Sources()[0]
			reuse := memstate.NewBitset(leaf)
			b := core.MinExistenceBudget(tr.G) + 4
			s.Cost(tr.Root, b, memstate.Bitset{}, reuse)
			return func() error { s.Cost(tr.Root, b, memstate.Bitset{}, reuse); return nil }, nil
		}},
		{"MemstateKSchedulerCostCold", func() (func() error, error) {
			tr, err := ktree.FullTree(3, 3, func(d, i int) cdag.Weight { return 1 + cdag.Weight(i%2) })
			if err != nil {
				return nil, err
			}
			b := core.MinExistenceBudget(tr.G) + 4
			return func() error {
				s, err := memstate.NewKScheduler(tr.G)
				if err != nil {
					return err
				}
				s.PlainCost(tr.Root, b)
				return nil
			}, nil
		}},
		{"KtreeMinCostWarm", func() (func() error, error) {
			tr, err := ktree.FullTree(4, 3, func(d, i int) cdag.Weight { return 1 + cdag.Weight((d+i)%2) })
			if err != nil {
				return nil, err
			}
			s := ktree.NewScheduler(tr)
			b := core.MinExistenceBudget(tr.G) + 3
			s.MinCost(b)
			return func() error { s.MinCost(b); return nil }, nil
		}},
		{"KtreeMinCostCold", func() (func() error, error) {
			tr, err := ktree.FullTree(4, 3, func(d, i int) cdag.Weight { return 1 + cdag.Weight((d+i)%2) })
			if err != nil {
				return nil, err
			}
			b := core.MinExistenceBudget(tr.G) + 3
			return func() error { ktree.NewScheduler(tr).MinCost(b); return nil }, nil
		}},
		{"DWTMinCostCold", func() (func() error, error) {
			cfg := Configs()[0]
			g, err := dwt.Build(64, 6, dwt.ConfigWeights(cfg))
			if err != nil {
				return nil, err
			}
			b := core.MinExistenceBudget(g.G) + 4*cdag.Weight(cfg.WordBits)
			return func() error {
				s, err := dwt.NewScheduler(g)
				if err != nil {
					return err
				}
				s.MinCost(b)
				return nil
			}, nil
		}},
		{"MVMSearch", func() (func() error, error) {
			cfg := Configs()[0]
			g, err := mvm.Build(MVMRows, MVMCols, cfg)
			if err != nil {
				return nil, err
			}
			b := g.TilingMinBudget() + 20*cdag.Weight(cfg.WordBits)
			return func() error {
				_, _, err := g.Search(b)
				return err
			}, nil
		}},
		{"MVMMinMemory", func() (func() error, error) {
			cfg := Configs()[0]
			g, err := mvm.Build(MVMRows, MVMCols, cfg)
			if err != nil {
				return nil, err
			}
			return func() error { g.MinMemory(); return nil }, nil
		}},
		{"KtreeFullTreeBuild", func() (func() error, error) {
			return func() error {
				_, err := ktree.FullTree(2, 7, func(d, i int) cdag.Weight { return 1 })
				return err
			}, nil
		}},
		// The cold-build kernels time Instance.Build for the largest
		// shape of each family in wrbpgbench's cold-solve workload, every
		// check included; ColdSolveMVM adds the optimal tile search and
		// the Simulate validation that complete a cold answer.
		{"ColdBuildDWT", coldBuild(solve.Instance{Family: solve.FamilyDWT, N: 128, D: 7, Cfg: Configs()[0]})},
		{"ColdBuildKTree", coldBuild(solve.Instance{Family: solve.FamilyKTree, K: 2, Height: 8, Cfg: Configs()[0]})},
		{"ColdBuildMVM", coldBuild(solve.Instance{Family: solve.FamilyMVM, M: 16, N: 32, Cfg: Configs()[0]})},
		{"ColdSolveMVM", func() (func() error, error) {
			return func() error {
				_, _, _, err := coldMVM()
				return err
			}, nil
		}},
		// The schedcache pair measures the serving layer's cache around
		// a realistic key population: a hit must stay allocation-light
		// (one LRU bump under a shard lock), and a keyed miss that finds
		// the value absent must stay cheap relative to any solve.
		{"SchedcacheHit", func() (func() error, error) {
			c := schedcache.New[int](16, 64)
			keys := make([]string, 256)
			for i := range keys {
				keys[i] = fmt.Sprintf("dwt/%032x", i)
				c.Put(keys[i], i)
			}
			var i int
			return func() error {
				k := keys[i&(len(keys)-1)]
				i++
				if _, _, err := c.Do(k, func() (int, bool, error) {
					return 0, false, fmt.Errorf("bench: unexpected miss for %s", k)
				}); err != nil {
					return err
				}
				return nil
			}, nil
		}},
		// The sweep-engine kernels back the warm-start acceptance claim:
		// a 16-budget sweep against one warm scheduler must cost < 2× a
		// single cold solve at the largest budget (the interval memo
		// shares all sub-budget cells), and the serving path's warm
		// sweep must not allocate. The budget grid is the Figure-5
		// pattern — geometric from the existence bound to the total
		// weight, answered largest-first — under the paper's Double
		// Accumulator weighting, whose per-level weights stagger the
		// subtree existence bounds the way real mixed-precision
		// workloads do.
		{"KtreeSweep16Cold", func() (func() error, error) {
			tr, err := sweepTree(4, 3)
			if err != nil {
				return nil, err
			}
			budgets := sweepBudgets(core.MinExistenceBudget(tr.G), tr.G.TotalWeight(), 16)
			return func() error {
				s := ktree.NewScheduler(tr)
				for _, b := range budgets {
					s.MinCost(b)
				}
				return nil
			}, nil
		}},
		{"KtreeMinCostColdMax", func() (func() error, error) {
			tr, err := sweepTree(4, 3)
			if err != nil {
				return nil, err
			}
			max := sweepBudgets(core.MinExistenceBudget(tr.G), tr.G.TotalWeight(), 16)[0]
			return func() error { ktree.NewScheduler(tr).MinCost(max); return nil }, nil
		}},
		{"MemstateKSweep16Cold", func() (func() error, error) {
			tr, err := sweepTree(3, 3)
			if err != nil {
				return nil, err
			}
			reuse := memstate.NewBitset(tr.G.Sources()[0])
			budgets := sweepBudgets(core.MinExistenceBudget(tr.G), tr.G.TotalWeight(), 16)
			return func() error {
				s, err := memstate.NewKScheduler(tr.G)
				if err != nil {
					return err
				}
				for _, b := range budgets {
					s.Cost(tr.Root, b, memstate.Bitset{}, reuse)
				}
				return nil
			}, nil
		}},
		{"MemstateKSchedulerCostColdMax", func() (func() error, error) {
			tr, err := sweepTree(3, 3)
			if err != nil {
				return nil, err
			}
			reuse := memstate.NewBitset(tr.G.Sources()[0])
			max := sweepBudgets(core.MinExistenceBudget(tr.G), tr.G.TotalWeight(), 16)[0]
			return func() error {
				s, err := memstate.NewKScheduler(tr.G)
				if err != nil {
					return err
				}
				s.Cost(tr.Root, max, memstate.Bitset{}, reuse)
				return nil
			}, nil
		}},
		{"ServeSweepWarm", func() (func() error, error) {
			// The full serving sweep core — a delta-free PatchCosts:
			// session-pool hit plus 16 warm budget queries — measured
			// steady-state: the workspace slices and base key are reused
			// exactly as the handler reuses its pooled workspace, so this
			// kernel must report 0 allocs/op.
			srv := serve.New(serve.Options{})
			in := solve.Instance{Family: solve.FamilyKTree, K: 4, Height: 3, Cfg: Configs()[0]}
			se, err := solve.NewSession(in)
			if err != nil {
				return nil, err
			}
			key := in.BaseShapeKey()
			max := se.MinExistence() + 18
			budgets := make([]cdag.Weight, 0, 16)
			for b := max; b > max-16; b-- {
				budgets = append(budgets, b)
			}
			pts := make([]solve.CostPoint, 0, 16)
			ctx := context.Background()
			body := func() error {
				_, _, err := srv.PatchCosts(ctx, &in, key, budgets, pts[:0])
				return err
			}
			return body, body()
		}},
		// The incremental-engine kernels back the patch acceptance
		// claims: a single-node weight delta followed by a re-query
		// against the warm session (the *PatchResolveWarm kernels, which
		// must report 0 allocs/op) versus rebuilding the scheduler cold
		// on the same patched graph (the *PatchResolveCold pair). The
		// warm path re-solves only the dirtied subtree cone / root chain
		// — the ≥5× cold/warm ratio recorded in BENCH_6.json.
		{"DWTPatchResolveWarm", func() (func() error, error) {
			cfg := Configs()[0]
			g, err := dwt.Build(64, 6, dwt.ConfigWeights(cfg))
			if err != nil {
				return nil, err
			}
			se, err := dwt.NewSession(g)
			if err != nil {
				return nil, err
			}
			// Patch an input-layer node: layer-1 weights are outside the
			// Lemma 3.2 pair constraint, so both toggle states are valid.
			node := g.G.Sources()[0]
			w := g.G.Weight(node)
			b := core.MinExistenceBudget(g.G) + 4*cdag.Weight(cfg.WordBits)
			deltas := [2][]cdag.WeightDelta{
				{{Node: node, Weight: w + 1}},
				{{Node: node, Weight: w}},
			}
			ctx := context.Background()
			var lim guard.Limits
			var i int
			body := func() error {
				if _, _, err := se.Patch(deltas[i&1]); err != nil {
					return err
				}
				i++
				_, err := se.CostCtx(ctx, lim, b)
				return err
			}
			// Warm both toggle states so every budget index exists and
			// the memo rows have their final capacity.
			if err := body(); err != nil {
				return nil, err
			}
			return body, body()
		}},
		{"DWTPatchResolveCold", func() (func() error, error) {
			cfg := Configs()[0]
			g, err := dwt.Build(64, 6, dwt.ConfigWeights(cfg))
			if err != nil {
				return nil, err
			}
			node := g.G.Sources()[0]
			w := g.G.Weight(node)
			b := core.MinExistenceBudget(g.G) + 4*cdag.Weight(cfg.WordBits)
			var i int
			return func() error {
				if err := g.G.TrySetWeight(node, w+cdag.Weight(i&1)); err != nil {
					return err
				}
				i++
				s, err := dwt.NewScheduler(g)
				if err != nil {
					return err
				}
				s.MinCost(b)
				return nil
			}, nil
		}},
		{"KtreePatchResolveWarm", func() (func() error, error) {
			tr, err := ktree.FullTree(4, 4, func(d, i int) cdag.Weight { return 1 + cdag.Weight((d+i)%2) })
			if err != nil {
				return nil, err
			}
			se := ktree.NewSession(tr)
			node := tr.G.Sources()[0]
			w := tr.G.Weight(node)
			b := core.MinExistenceBudget(tr.G) + 4
			deltas := [2][]cdag.WeightDelta{
				{{Node: node, Weight: w + 1}},
				{{Node: node, Weight: w}},
			}
			ctx := context.Background()
			var lim guard.Limits
			var i int
			body := func() error {
				if _, _, err := se.Patch(deltas[i&1]); err != nil {
					return err
				}
				i++
				_, err := se.CostCtx(ctx, lim, b)
				return err
			}
			if err := body(); err != nil {
				return nil, err
			}
			return body, body()
		}},
		{"KtreePatchResolveCold", func() (func() error, error) {
			tr, err := ktree.FullTree(4, 4, func(d, i int) cdag.Weight { return 1 + cdag.Weight((d+i)%2) })
			if err != nil {
				return nil, err
			}
			node := tr.G.Sources()[0]
			w := tr.G.Weight(node)
			b := core.MinExistenceBudget(tr.G) + 4
			var i int
			return func() error {
				if err := tr.G.TrySetWeight(node, w+cdag.Weight(i&1)); err != nil {
					return err
				}
				i++
				ktree.NewScheduler(tr).MinCost(b)
				return nil
			}, nil
		}},
		{"MemstatePatchResolveWarm", func() (func() error, error) {
			tr, err := ktree.FullTree(2, 5, func(d, i int) cdag.Weight { return 1 + cdag.Weight(i%2) })
			if err != nil {
				return nil, err
			}
			se, err := memstate.NewSession(tr.G, tr.Root, memstate.Bitset{}, memstate.Bitset{})
			if err != nil {
				return nil, err
			}
			node := tr.G.Sources()[0]
			w := tr.G.Weight(node)
			b := core.MinExistenceBudget(tr.G) + 4
			deltas := [2][]cdag.WeightDelta{
				{{Node: node, Weight: w + 1}},
				{{Node: node, Weight: w}},
			}
			ctx := context.Background()
			var lim guard.Limits
			var i int
			body := func() error {
				if _, _, err := se.Patch(deltas[i&1]); err != nil {
					return err
				}
				i++
				_, err := se.CostCtx(ctx, lim, b)
				return err
			}
			if err := body(); err != nil {
				return nil, err
			}
			return body, body()
		}},
		{"MemstatePatchResolveCold", func() (func() error, error) {
			tr, err := ktree.FullTree(2, 5, func(d, i int) cdag.Weight { return 1 + cdag.Weight(i%2) })
			if err != nil {
				return nil, err
			}
			node := tr.G.Sources()[0]
			w := tr.G.Weight(node)
			b := core.MinExistenceBudget(tr.G) + 4
			var i int
			return func() error {
				if err := tr.G.TrySetWeight(node, w+cdag.Weight(i&1)); err != nil {
					return err
				}
				i++
				s, err := memstate.NewKScheduler(tr.G)
				if err != nil {
					return err
				}
				s.PlainCost(tr.Root, b)
				return nil
			}, nil
		}},
		{"ServePatchWarm", func() (func() error, error) {
			// The full serving patch core — session-pool hit, delta diff
			// with dependency-tracked invalidation, 16 warm budget queries
			// — measured steady-state like ServeSweepWarm: keys and delta
			// slices precomputed, workspace slices reused, 0 allocs/op.
			srv := serve.New(serve.Options{})
			in := solve.Instance{Family: solve.FamilyKTree, K: 4, Height: 3, Cfg: Configs()[0]}
			se, err := solve.NewSession(in)
			if err != nil {
				return nil, err
			}
			node := se.Graph().Sources()[0]
			w := se.Graph().Weight(node)
			baseKey := in.BaseShapeKey()
			max := se.MinExistence() + 20
			budgets := make([]cdag.Weight, 0, 16)
			for b := max; b > max-16; b-- {
				budgets = append(budgets, b)
			}
			insts := [2]solve.Instance{in, in}
			insts[0].Deltas = []cdag.WeightDelta{{Node: node, Weight: w + 1}}
			insts[1].Deltas = []cdag.WeightDelta{{Node: node, Weight: w + 2}}
			pts := make([]solve.CostPoint, 0, 16)
			ctx := context.Background()
			var i int
			body := func() error {
				_, _, err := srv.PatchCosts(ctx, &insts[i&1], baseKey, budgets, pts[:0])
				i++
				return err
			}
			if err := body(); err != nil {
				return nil, err
			}
			return body, body()
		}},
		// A peer fill's serialization: the owner encodes the envelope
		// carrying a full mvm(16,32) move list, the forwarder decodes it,
		// as the packed frame new replicas exchange and as the JSON
		// envelope older forwarders get.
		{"PeerEnvelopeRoundTrip", peerEnvelopeRoundTrip(wire.EnvelopePacked)},
		{"PeerEnvelopeRoundTripJSON", peerEnvelopeRoundTrip(wire.EnvelopeJSON)},
		{"SchedcacheMissKey", func() (func() error, error) {
			cfg := Configs()[0]
			in := solve.Instance{Family: solve.FamilyDWT, N: 64, D: 6, Cfg: cfg}
			c := schedcache.New[int](16, 64)
			var b int64
			return func() error {
				// Fresh budget each iteration keeps every lookup a miss:
				// key derivation (sha256 canonicalization) + singleflight
				// leader dispatch, with a trivial fill standing in for
				// the solve.
				b++
				_, _, err := c.Do(in.Key(b), func() (int, bool, error) { return int(b), true, nil })
				return err
			}, nil
		}},
	}
}

// kernelLayers names the request layer a kernel times, in the per-layer
// vocabulary of cmd/wrbpgbench's traced run; untagged kernels time
// solver internals below any one layer.
var kernelLayers = map[string]string{
	"ColdBuildDWT":              "solve.build",
	"ColdBuildKTree":            "solve.build",
	"ColdBuildMVM":              "solve.build",
	"ColdSolveMVM":              "solve.optimal",
	"SchedcacheHit":             "schedcache.probe",
	"SchedcacheMissKey":         "schedcache.probe",
	"ServeSweepWarm":            "session.sweep",
	"ServePatchWarm":            "session.patch",
	"PeerEnvelopeRoundTrip":     "cluster.peer_fill",
	"PeerEnvelopeRoundTripJSON": "cluster.peer_fill",
}

// coldBuild returns the setup of a kernel that builds in from
// scratch on every iteration.
func coldBuild(in solve.Instance) func() (func() error, error) {
	return func() (func() error, error) {
		return func() error {
			_, _, err := in.Build()
			return err
		}, nil
	}
}

// coldMVM is a cold answer for the largest shape of wrbpgbench's
// cold-solve and fleet-3 workloads: mvm(16,32) built from scratch and
// solved optimally at 1.5× its existence bound, Simulate included.
func coldMVM() (solve.Instance, solve.Outcome, *cdag.Graph, error) {
	in := solve.Instance{Family: solve.FamilyMVM, M: 16, N: 32, Cfg: Configs()[0]}
	p, g, err := in.Build()
	if err != nil {
		return in, solve.Outcome{}, nil, err
	}
	out, err := solve.Run(context.Background(), p, core.MinExistenceBudget(g)*3/2, guard.Limits{})
	if err != nil {
		return in, out, g, err
	}
	if out.Source != solve.SourceOptimal {
		return in, out, g, fmt.Errorf("bench: mvm(16,32) answered %s, want optimal", out.Source)
	}
	return in, out, g, nil
}

// peerFillResult is the result a peer fill carries in the fleet-3
// benchmark's largest shape: coldMVM's answer with its full move list.
func peerFillResult() (*wire.ScheduleResult, error) {
	in, out, g, err := coldMVM()
	if err != nil {
		return nil, err
	}
	return wire.NewScheduleResult(in.Label(), out, core.LowerBound(g), true), nil
}

// peerEnvelopeRoundTrip is the setup of a kernel that encodes
// peerFillResult's envelope in the given form, as the owner does, and
// decodes it, as the forwarder does.
func peerEnvelopeRoundTrip(form string) func() (func() error, error) {
	return func() (func() error, error) {
		res, err := peerFillResult()
		if err != nil {
			return nil, err
		}
		env := &wire.PeerScheduleResponse{Result: res}
		ct := wire.PeerContentType(form)
		return func() error {
			body, err := wire.AppendPeerResponse(nil, env, form)
			if err != nil {
				return err
			}
			back, err := wire.DecodePeerResponse(ct, body)
			if err != nil {
				return err
			}
			if len(back.Result.Schedule) != len(res.Schedule) {
				return fmt.Errorf("bench: envelope round trip kept %d of %d moves", len(back.Result.Schedule), len(res.Schedule))
			}
			return nil
		}, nil
	}
}

// RunPerfSuite measures every kernel with testing.Benchmark and
// returns the report. It is callable from a plain binary — the
// standard benchmark machinery does not require a test context.
func RunPerfSuite() (PerfReport, error) {
	rep := PerfReport{
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, k := range perfKernels() {
		body, err := k.setup()
		if err != nil {
			return rep, fmt.Errorf("bench: perf kernel %s: %w", k.name, err)
		}
		var runErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := body(); err != nil {
					runErr = err
					b.Fatalf("bench: perf kernel %s: %v", k.name, err)
				}
			}
		})
		if runErr != nil {
			return rep, fmt.Errorf("bench: perf kernel %s: %w", k.name, runErr)
		}
		rep.Results = append(rep.Results, PerfResult{
			Name:        k.name,
			Layer:       kernelLayers[k.name],
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return rep, nil
}

// RunPerfSuiteQuick runs every kernel body exactly once and reports
// wall-clock-only results (Iterations=1, no allocator counters). It is
// the CI smoke mode: it proves each kernel still sets up and runs, and
// produces a BENCH_*.json artifact in seconds, without the statistical
// weight of RunPerfSuite. Quick reports are not comparable baselines.
func RunPerfSuiteQuick() (PerfReport, error) {
	rep := PerfReport{
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, k := range perfKernels() {
		body, err := k.setup()
		if err != nil {
			return rep, fmt.Errorf("bench: perf kernel %s: %w", k.name, err)
		}
		start := time.Now()
		if err := body(); err != nil {
			return rep, fmt.Errorf("bench: perf kernel %s: %w", k.name, err)
		}
		rep.Results = append(rep.Results, PerfResult{
			Name:       k.name,
			Layer:      kernelLayers[k.name],
			Iterations: 1,
			NsPerOp:    float64(time.Since(start).Nanoseconds()),
		})
	}
	return rep, nil
}

// WriteJSON emits the report as indented JSON (the BENCH_*.json
// format; see docs/PERFORMANCE.md for the benchstat workflow).
func (r PerfReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
