package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"wrbpg/internal/bitset"
	"wrbpg/internal/cdag"
	"wrbpg/internal/cluster"
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

// perfKernel is one hot-path kernel. setup runs outside the timed
// region and returns the per-iteration body.
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
			reuse := bitset.New(leaf)
			b := core.MinExistenceBudget(tr.G) + 4
			s.Cost(tr.Root, b, bitset.Set{}, reuse)
			return func() error { s.Cost(tr.Root, b, bitset.Set{}, reuse); return nil }, nil
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
		{"DWTSweep16Cold", func() (func() error, error) {
			g, err := dwt.Build(64, 6, dwt.ConfigWeights(Configs()[0]))
			if err != nil {
				return nil, err
			}
			budgets := sweepBudgets(core.MinExistenceBudget(g.G), g.G.TotalWeight(), 16)
			return func() error {
				s, err := dwt.NewScheduler(g)
				if err != nil {
					return err
				}
				for _, b := range budgets {
					s.MinCost(b)
				}
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
		// check included. The shape's topology comes from solve's shape
		// table, as it does for every request after the first of a
		// shape, so they time the reuse path: weights filled in over a
		// shared topology. The first-build kernels time the family
		// builders themselves, topology included, as the first request
		// of a shape pays them. The cold-solve kernels add the optimal
		// solve and the Simulate validation that complete a cold answer.
		{"ColdBuildDWT", coldBuild(coldDWT)},
		{"ColdBuildKTree", coldBuild(coldKTree)},
		{"ColdBuildMVM", coldBuild(coldMVM)},
		{"FirstBuildDWT", func() (func() error, error) {
			return func() error {
				_, err := dwt.Build(coldDWT.N, coldDWT.D, dwt.ConfigWeights(coldDWT.Cfg))
				return err
			}, nil
		}},
		{"FirstBuildKTree", func() (func() error, error) {
			in := coldKTree
			return func() error {
				_, err := ktree.FullTree(in.K, in.Height, func(depth, _ int) cdag.Weight {
					if depth == in.Height {
						return in.Cfg.Input()
					}
					return in.Cfg.Node()
				})
				return err
			}, nil
		}},
		{"FirstBuildMVM", func() (func() error, error) {
			return func() error {
				_, err := mvm.Build(coldMVM.M, coldMVM.N, coldMVM.Cfg)
				return err
			}, nil
		}},
		{"ColdSolveDWT", coldSolveKernel(coldDWT)},
		{"ColdSolveKTree", coldSolveKernel(coldKTree)},
		{"ColdSolveKTree3", coldSolveKernel(coldKTree3)},
		{"ColdSolveMVM", coldSolveKernel(coldMVM)},
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
		// against the warm scheduler (the *PatchResolveWarm kernels, which
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
			se, err := dwt.NewScheduler(g)
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
				if _, _, err := se.SetWeights(deltas[i&1]); err != nil {
					return err
				}
				i++
				_, err := se.CostCtx(ctx, lim, b)
				return err
			}
			// Warm both toggle states so every budget interval exists
			// and the memo rows have their final capacity.
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
			se := ktree.NewScheduler(tr)
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
				if _, _, err := se.SetWeights(deltas[i&1]); err != nil {
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
		// A peer fill's serialization: the owner encodes the packed frame
		// carrying a full mvm(16,32) move list, the forwarder decodes it.
		{"PeerEnvelopeRoundTrip", peerEnvelopeRoundTrip},
		// A fill without moves, as fleet-3 runs it: the forwarder encodes
		// the fill request, the owner the frame of a dwt(64,6) cold
		// answer, and the forwarder decodes the frame.
		{"PeerFillCodec", peerFillCodec},
		// Layer cluster.peer_fill: the same fill sent by a forwarder's
		// cluster.Fill to an owner, two in-process cluster-mode servers
		// on loopback. The owner answers from its cache, so the kernel
		// is the hop's transport and both ends' codec and handler.
		{"PeerFillLoopback", peerFillLoopback},
		// The wire layers of a schedule request, on the bodies wrbpgbench
		// sends: a parametric hot-cache key, a hot-cache graph as a
		// 20-node raw spec, and a 48-node cdag-anytime graph in the
		// interchange form, each decoded as the server decodes a body;
		// then a cache hit's response and an 8-budget sweep's, encoded as
		// the server writes them.
		{"WireDecodeParam", wireDecode(func() ([]byte, error) {
			return []byte(`{"family":"dwt","n":32,"d":4,"budget_bits":1400}`), nil
		})},
		{"WireDecodeSpec20", wireDecode(func() ([]byte, error) { return specBody(cdag.Random(20, 20)) })},
		{"WireDecodeGraph48", wireDecode(func() ([]byte, error) {
			g := cdag.Random(48, 48)
			return json.Marshal(benchBody{Family: solve.FamilyCDAG, BudgetBits: int64(core.MinExistenceBudget(g)) * 3 / 2, Graph: g, TimeoutMS: 30})
		})},
		{"WireEncodeHit", func() (func() error, error) {
			in := solve.Instance{Family: solve.FamilyMVM, M: 6, N: 8, Cfg: Configs()[0]}
			p, g, err := in.Build()
			if err != nil {
				return nil, err
			}
			out, err := solve.Run(context.Background(), p, core.MinExistenceBudget(g)*3/2, guard.Limits{})
			if err != nil {
				return nil, err
			}
			res := wire.NewScheduleResult(in.Label(), out, core.LowerBound(g), true)
			res.Cost = &wire.CostMeta{SourceTier: wire.TierSolve, SolveWallUS: 180, MemoMisses: 412}
			st := wire.Stamp{Cache: "hit", CacheKey: in.Key(int64(out.Budget)), ElapsedUS: 9,
				Cost: &wire.CostMeta{SourceTier: wire.TierCache}}
			var buf []byte
			return func() error {
				buf = res.AppendStamped(buf[:0], &st)
				return nil
			}, nil
		}},
		{"WireEncodeSweep8", func() (func() error, error) {
			resp := &wire.PatchResponse{Workload: "KTree(k=4,h=3)", BaseKey: strings.Repeat("5e", 32),
				PatchKey: strings.Repeat("a7", 32), LowerBoundBits: 1344, MinExistenceBits: 208,
				Session: "hit", CellsReused: 96, ElapsedUS: 41,
				Cost: &wire.CostMeta{SourceTier: wire.TierSession, SolveWallUS: 12, MemoHits: 88}}
			for b := int64(0); b < 8; b++ {
				resp.Items = append(resp.Items, wire.SweepItem{BudgetBits: 208 + 64*b, CostBits: 2400 - 130*b, Feasible: true})
			}
			resp.Succeeded = len(resp.Items)
			var buf []byte
			return func() error {
				buf = resp.AppendJSON(buf[:0])
				return nil
			}, nil
		}},
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

// BenchmarkKernels runs every perf kernel as a sub-benchmark of its
// own name; one kernel alone is -bench 'Kernels/<name>$'.
func BenchmarkKernels(b *testing.B) {
	for _, k := range perfKernels() {
		b.Run(k.name, func(b *testing.B) {
			body, err := k.setup()
			if err != nil {
				b.Fatalf("setup: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := body(); err != nil {
					b.Fatalf("kernel body: %v", err)
				}
			}
		})
	}
}

// The largest shape of each family in wrbpgbench's cold-solve and
// fleet-3 workloads, under the Equal weighting, and the k = 3 tree
// that the cold-solve and session-mix ktree bases also solve.
var (
	coldDWT    = solve.Instance{Family: solve.FamilyDWT, N: 128, D: 7, Cfg: Configs()[0]}
	coldKTree  = solve.Instance{Family: solve.FamilyKTree, K: 2, Height: 8, Cfg: Configs()[0]}
	coldKTree3 = solve.Instance{Family: solve.FamilyKTree, K: 3, Height: 4, Cfg: Configs()[0]}
	coldMVM    = solve.Instance{Family: solve.FamilyMVM, M: 16, N: 32, Cfg: Configs()[0]}
)

// coldBuild returns the setup of a kernel that builds in through
// Instance.Build on every iteration.
func coldBuild(in solve.Instance) func() (func() error, error) {
	return func() (func() error, error) {
		return func() error {
			_, _, err := in.Build()
			return err
		}, nil
	}
}

// coldSolveKernel returns the setup of a kernel that answers in cold
// on every iteration (see coldSolve).
func coldSolveKernel(in solve.Instance) func() (func() error, error) {
	return func() (func() error, error) {
		return func() error {
			_, _, err := coldSolve(in)
			return err
		}, nil
	}
}

// coldSolve is a cold answer: in built through Instance.Build and
// solved optimally at 1.5× its existence bound, Simulate included.
func coldSolve(in solve.Instance) (solve.Outcome, *cdag.Graph, error) {
	p, g, err := in.Build()
	if err != nil {
		return solve.Outcome{}, nil, err
	}
	out, err := solve.Run(context.Background(), p, core.MinExistenceBudget(g)*3/2, guard.Limits{})
	if err != nil {
		return out, g, err
	}
	if out.Source != solve.SourceOptimal {
		return out, g, fmt.Errorf("bench: %s answered %s, want optimal", in.Label(), out.Source)
	}
	return out, g, nil
}

// peerFillResult is the result a peer fill carries in the fleet-3
// benchmark's largest shape: mvm(16,32)'s cold answer with its full
// move list.
func peerFillResult() (*wire.ScheduleResult, error) {
	out, g, err := coldSolve(coldMVM)
	if err != nil {
		return nil, err
	}
	return wire.NewScheduleResult(coldMVM.Label(), out, core.LowerBound(g), true), nil
}

// peerEnvelopeRoundTrip is the setup of a kernel that encodes
// peerFillResult's envelope as a packed frame, as the owner does, and
// decodes it, as the forwarder does.
func peerEnvelopeRoundTrip() (func() error, error) {
	res, err := peerFillResult()
	if err != nil {
		return nil, err
	}
	env := &wire.PeerScheduleResponse{Result: res}
	return func() error {
		body, err := wire.AppendPeerResponse(nil, env)
		if err != nil {
			return err
		}
		back, err := wire.DecodePeerResponse(wire.PeerMediaType, body, true)
		if err != nil {
			return err
		}
		if len(back.Result.Schedule) != len(res.Schedule) {
			return fmt.Errorf("bench: envelope round trip kept %d of %d moves", len(back.Result.Schedule), len(res.Schedule))
		}
		return nil
	}, nil
}

// leanPeerFill is a fill of a dwt(64,6) cold answer without moves:
// the forwarder's request, and the owner's shared entry and stamp.
func leanPeerFill() (*wire.PeerScheduleRequest, *wire.ScheduleResult, *wire.Stamp, error) {
	in := solve.Instance{Family: solve.FamilyDWT, N: 64, D: 6, Cfg: Configs()[0]}
	out, g, err := coldSolve(in)
	if err != nil {
		return nil, nil, nil, err
	}
	res := wire.NewScheduleResult(in.Label(), out, core.LowerBound(g), true)
	res.Cost = &wire.CostMeta{SourceTier: wire.TierSolve, SolveWallUS: 61, MemoMisses: 137}
	key := in.Key(int64(out.Budget))
	preq := &wire.PeerScheduleRequest{
		Req: wire.ScheduleRequest{Spec: wire.Spec{Family: solve.FamilyDWT, N: 64, D: 6,
			Weights: wire.WeightSpec{WordBits: 16, InputWords: 1, NodeWords: 1}},
			BudgetBits: int64(out.Budget), TimeoutMS: 1000},
		Key: key, Origin: "http://127.0.0.1:40123",
	}
	st := &wire.Stamp{Cache: "miss", CacheKey: key, ElapsedUS: res.ElapsedUS, Cost: res.Cost}
	return preq, res, st, nil
}

// peerFillCodec is the setup of a kernel that runs both ends' codec of
// one lean peer fill: request encode, frame encode, frame decode.
func peerFillCodec() (func() error, error) {
	preq, res, st, err := leanPeerFill()
	if err != nil {
		return nil, err
	}
	var req, frame []byte
	return func() error {
		if req, err = wire.AppendPeerRequest(req[:0], preq); err != nil {
			return err
		}
		frame, err = wire.AppendPeerFrame(frame[:0], res, st, nil)
		if err != nil {
			return err
		}
		env, err := wire.DecodePeerResponse(wire.PeerMediaType, frame, false)
		if err != nil {
			return err
		}
		if env.Result.CostBits != res.CostBits || env.Result.Schedule != nil {
			return fmt.Errorf("bench: lean fill decoded as %+v", env.Result)
		}
		return nil
	}, nil
}

// peerFillLoopback is the setup of a kernel that times one
// leanPeerFill fill over loopback, under a deadline as the serving
// layer's fills run.
func peerFillLoopback() (func() error, error) {
	preq, res, _, err := leanPeerFill()
	if err != nil {
		return nil, err
	}
	fwd, owner, err := loopbackPair()
	if err != nil {
		return nil, err
	}
	body := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		got, _, apiErr, err := fwd.Fill(ctx, owner, preq)
		switch {
		case err != nil:
			return err
		case apiErr != nil:
			return apiErr
		case got.CostBits != res.CostBits:
			return fmt.Errorf("bench: loopback fill answered cost %d, want %d", got.CostBits, res.CostBits)
		}
		return nil
	}
	// The first fill solves at the owner; the timed ones hit its cache.
	return body, body()
}

// loopback is the forwarder and owner pair every PeerFillLoopback run
// shares: servers started once, for the life of the test binary.
var loopback struct {
	once  sync.Once
	fwd   *cluster.Cluster
	owner string
	err   error
}

// loopbackPair returns a forwarder's cluster and the URL of the owner
// it fills from, two cluster-mode servers on loopback listeners.
func loopbackPair() (*cluster.Cluster, string, error) {
	loopback.once.Do(func() {
		var lns [2]net.Listener
		var urls [2]string
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				loopback.err = err
				return
			}
			lns[i], urls[i] = ln, "http://"+ln.Addr().String()
		}
		for i, ln := range lns {
			c, err := cluster.New(cluster.Config{Self: urls[i], Peers: []string{urls[1-i]}})
			if err != nil {
				loopback.err = err
				return
			}
			hs := &http.Server{Handler: serve.New(serve.Options{Cluster: c}).Handler(), ReadHeaderTimeout: 10 * time.Second}
			go hs.Serve(ln) //nolint:errcheck // serves until the test binary exits
			if i == 0 {
				loopback.fwd = c
			}
		}
		loopback.owner = urls[1]
	})
	return loopback.fwd, loopback.owner, loopback.err
}

// wireDecode is the setup of a kernel that decodes the request body
// body builds, as the server's handlers decode one.
func wireDecode(body func() ([]byte, error)) func() (func() error, error) {
	return func() (func() error, error) {
		b, err := body()
		if err != nil {
			return nil, err
		}
		return func() error {
			var req wire.ScheduleRequest
			return wire.DecodeRequest(b, &req)
		}, nil
	}
}

// benchBody is a schedule request body as wrbpgbench encodes one: its
// optional fields are left out, weights included.
type benchBody struct {
	Family     string          `json:"family"`
	BudgetBits int64           `json:"budget_bits"`
	Graph      *cdag.Graph     `json:"graph,omitempty"`
	CDAG       *wire.GraphSpec `json:"cdag,omitempty"`
	TimeoutMS  int64           `json:"timeout_ms,omitempty"`
}

// specBody submits g in the raw node/edge form with node names of its
// own, as hot-cache submits its graphs.
func specBody(g *cdag.Graph) ([]byte, error) {
	spec := &wire.GraphSpec{Nodes: make([]wire.GraphNode, g.Len())}
	for v := range spec.Nodes {
		id := cdag.NodeID(v)
		nd := wire.GraphNode{Name: fmt.Sprintf("t%d", 700000+v), WeightBits: g.Weight(id)}
		for _, p := range g.Parents(id) {
			nd.Deps = append(nd.Deps, fmt.Sprintf("t%d", 700000+p))
		}
		spec.Nodes[v] = nd
	}
	return json.Marshal(benchBody{Family: solve.FamilyCDAG, BudgetBits: int64(core.MinExistenceBudget(g)) * 3 / 2, CDAG: spec})
}
