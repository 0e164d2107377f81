package solve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/dwt"
	"wrbpg/internal/guard"
	"wrbpg/internal/ktree"
	"wrbpg/internal/mvm"
	"wrbpg/internal/wcfg"
)

// topologyConfigs returns 64 weight configurations: word sizes 8, 16,
// 32 and 64 bits, each with 1–4 words per input and per node.
func topologyConfigs() []wcfg.Config {
	var out []wcfg.Config
	for _, wb := range []int{8, 16, 32, 64} {
		for iw := 1; iw <= 4; iw++ {
			for nw := 1; nw <= 4; nw++ {
				out = append(out, wcfg.Config{Name: "Custom", WordBits: wb, InputWords: iw, NodeWords: nw})
			}
		}
	}
	return out
}

// topologyShapes lists three shapes per family, among them the six
// shapes of wrbpgbench's cold-solve workload.
func topologyShapes() []Instance {
	return []Instance{
		{Family: FamilyDWT, N: 64, D: 6}, {Family: FamilyDWT, N: 128, D: 7}, {Family: FamilyDWT, N: 24, D: 3},
		{Family: FamilyKTree, K: 3, Height: 4}, {Family: FamilyKTree, K: 2, Height: 8}, {Family: FamilyKTree, K: 4, Height: 2},
		{Family: FamilyMVM, M: 12, N: 16}, {Family: FamilyMVM, M: 16, N: 32}, {Family: FamilyMVM, M: 5, N: 1},
	}
}

// freshGraph builds the instance's graph with the family builder alone,
// bypassing the shape table, and applies its deltas.
func freshGraph(t *testing.T, in Instance) *cdag.Graph {
	t.Helper()
	var g *cdag.Graph
	switch in.Family {
	case FamilyDWT:
		dg, err := dwt.Build(in.N, in.D, dwt.ConfigWeights(in.Cfg))
		if err != nil {
			t.Fatal(err)
		}
		g = dg.G
	case FamilyKTree:
		tr, err := ktree.FullTree(in.K, in.Height, func(depth, _ int) cdag.Weight {
			if depth == in.Height {
				return in.Cfg.Input()
			}
			return in.Cfg.Node()
		})
		if err != nil {
			t.Fatal(err)
		}
		g = tr.G
	case FamilyMVM:
		mg, err := mvm.Build(in.M, in.N, in.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		g = mg.G
	}
	for _, d := range in.Deltas {
		g.SetWeight(d.Node, d.Weight)
	}
	return g
}

// sameGraph fails unless got and want agree on weights, parents,
// children, names and both Proposition 2.3/2.4 bounds.
func sameGraph(t *testing.T, label string, got, want *cdag.Graph) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s: weights, parents or names differ from a fresh build", label)
	}
	for v := 0; v < want.Len(); v++ {
		if id := cdag.NodeID(v); !slices.Equal(got.Children(id), want.Children(id)) {
			t.Fatalf("%s: children of %d = %v, fresh %v", label, v, got.Children(id), want.Children(id))
		}
	}
	if a, b := core.MinExistenceBudget(got), core.MinExistenceBudget(want); a != b {
		t.Fatalf("%s: MinExistenceBudget %d, fresh %d", label, a, b)
	}
	if a, b := core.LowerBound(got), core.LowerBound(want); a != b {
		t.Fatalf("%s: LowerBound %d, fresh %d", label, a, b)
	}
}

// sharesAdjacency reports whether two graphs read one adjacency array.
func sharesAdjacency(a, b *cdag.Graph) bool {
	last := cdag.NodeID(a.Len() - 1)
	return b.Len() == a.Len() && &a.Parents(last)[0] == &b.Parents(last)[0]
}

// TestTopologyReuseInvisible: a graph whose topology comes from the
// shape table equals a fresh family build, weights, structure, names
// and bounds, for every family and three shapes each, under 64 weight
// configurations, with and without deltas, from Instance.build and
// from NewSession alike. The family-typed extras (the mvm lower bound
// and tile heights) match too.
func TestTopologyReuseInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, shape := range topologyShapes() {
		for _, cfg := range topologyConfigs() {
			in := shape
			in.Cfg = cfg
			variants := []Instance{in}
			if in.Family != FamilyMVM {
				f, err := in.build()
				if err != nil {
					t.Fatal(err)
				}
				patched := in
				patched.Deltas = patchTargets(rng, f.g.Sources(), 4)
				variants = append(variants, patched)
			}
			for _, v := range variants {
				label := fmt.Sprintf("%s deltas=%v", v.Label(), v.Deltas)
				want := freshGraph(t, v)
				f, err := v.build()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameGraph(t, label+" build", f.g, want)
				s, err := NewSession(v)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameGraph(t, label+" session", s.Graph(), want)
				if s.LowerBound() != core.LowerBound(want) || s.MinExistence() != core.MinExistenceBudget(want) {
					t.Fatalf("%s: session bounds %d/%d differ from a fresh build", label, s.LowerBound(), s.MinExistence())
				}
				if f.mvm != nil {
					fresh, err := mvm.Build(v.M, v.N, v.Cfg)
					if err != nil {
						t.Fatal(err)
					}
					tc := mvm.TileConfig{Height: 1}
					if f.mvm.PredictCost(tc) != fresh.PredictCost(tc) || !slices.Equal(f.mvm.Candidates(), fresh.Candidates()) {
						t.Fatalf("%s: mvm lower bound or candidate heights differ from a fresh build", label)
					}
				}
			}
		}
	}
}

// TestTopologySlotCollisionEvicts: two shapes that map to one slot of
// the table take turns in it, and each build still equals a fresh one.
func TestTopologySlotCollisionEvicts(t *testing.T) {
	a := Instance{Family: FamilyDWT, N: 64, D: 6, Cfg: equalCfg()}
	var b Instance
	for j := 1; b.Family == ""; j++ {
		if j > 100*shapeSlots {
			t.Fatal("no dwt(8j, 3) shares a slot with dwt(64,6)")
		}
		if (shapeKey{FamilyDWT, 8 * j, 3}).slot() == (shapeKey{FamilyDWT, a.N, a.D}).slot() {
			b = Instance{Family: FamilyDWT, N: 8 * j, D: 3, Cfg: equalCfg()}
		}
	}
	for round := 0; round < 3; round++ {
		for _, in := range []Instance{a, b} {
			f, err := in.build()
			if err != nil {
				t.Fatal(err)
			}
			sameGraph(t, in.Label(), f.g, freshGraph(t, in))
		}
	}
}

// sharedPair builds a and b, two weightings of one shape, and fails
// unless their graphs share one topology.
func sharedPair(t *testing.T, a, b Instance) (*cdag.Graph, *cdag.Graph) {
	t.Helper()
	_, ga, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, gb, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !sharesAdjacency(ga, gb) {
		t.Fatalf("%s and %s do not share a topology", a.Label(), b.Label())
	}
	return ga, gb
}

// TestTopologySharedAcrossConfigs: two instances of one shape under
// different weightings share one adjacency and keep their own weights.
func TestTopologySharedAcrossConfigs(t *testing.T) {
	cfgs := topologyConfigs()
	for _, shape := range topologyShapes() {
		a, b := shape, shape
		a.Cfg, b.Cfg = cfgs[0], cfgs[len(cfgs)-1]
		ga, gb := sharedPair(t, a, b)
		sameGraph(t, a.Label(), ga, freshGraph(t, a))
		sameGraph(t, b.Label(), gb, freshGraph(t, b))
	}
}

// TestTopologyAddNodeLeavesTableAndSiblings: AddNode on a graph Build
// returned copies its shared adjacency first, so a sibling of the same
// shape is unchanged, and later builds of the shape, which read the
// table's topology, still equal fresh ones.
func TestTopologyAddNodeLeavesTableAndSiblings(t *testing.T) {
	cfgs := topologyConfigs()
	for _, shape := range topologyShapes() {
		a, b, c := shape, shape, shape
		a.Cfg, b.Cfg, c.Cfg = cfgs[0], cfgs[21], cfgs[42]
		ga, gb := sharedPair(t, a, b)
		want := freshGraph(t, b)
		// A sink's child window has spare slots in the shared slab: an
		// AddNode that wrote in place would give it a child in every
		// graph of the shape.
		sinks := ga.Sinks()
		x := ga.AddNode(1, "extra", 0, sinks[len(sinks)-1])
		if ga.Len() != want.Len()+1 || !ga.HasEdge(0, x) {
			t.Fatalf("%s: AddNode did not extend the graph it was called on", a.Label())
		}
		sameGraph(t, b.Label()+" sibling", gb, want)
		_, gc, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, c.Label()+" rebuilt", gc, freshGraph(t, c))
	}
}

// TestTopologyConcurrentSolvesMatchSequential runs cold solves and
// patched sessions of one shape per family, under different weight
// configurations, from several goroutines at once. Every answer must
// match the one computed sequentially beforehand; under -race, any
// write to a shared topology fails the test.
func TestTopologyConcurrentSolvesMatchSequential(t *testing.T) {
	type job struct {
		base, inst Instance // inst is base, patched for dwt and ktree
		budget     cdag.Weight
		sched      core.Schedule
		cost       cdag.Weight
	}
	rng := rand.New(rand.NewSource(5))
	var jobs []job
	cfgs := topologyConfigs()
	for _, shape := range []Instance{{Family: FamilyDWT, N: 32, D: 4}, {Family: FamilyKTree, K: 3, Height: 3}, {Family: FamilyMVM, M: 6, N: 5}} {
		for c := 0; c < len(cfgs); c += 9 {
			j := job{base: shape}
			j.base.Cfg = cfgs[c]
			j.inst = j.base
			if shape.Family != FamilyMVM {
				f, err := j.base.build()
				if err != nil {
					t.Fatal(err)
				}
				j.inst.Deltas = patchTargets(rng, f.g.Sources(), 3)
			}
			p, g, err := j.inst.Build()
			if err != nil {
				t.Fatal(err)
			}
			// The tile search needs about twice the existence bound.
			j.budget = core.MinExistenceBudget(g) * 5 / 4
			if shape.Family == FamilyMVM {
				j.budget *= 2
			}
			out, err := Run(context.Background(), p, j.budget, guard.Limits{})
			if err != nil || out.Source != SourceOptimal {
				t.Fatalf("%s: sequential solve %v (%v)", j.inst.Label(), out.Source, err)
			}
			j.sched, j.cost = out.Schedule, out.Stats.Cost
			jobs = append(jobs, j)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// Each goroutine walks the jobs from its own offset, half
				// of them through cold solves and half through sessions.
				j := jobs[(i+w*len(jobs)/8)%len(jobs)]
				var sched core.Schedule
				var cost cdag.Weight
				if w%2 == 0 {
					p, _, err := j.inst.Build()
					if err != nil {
						errs <- err
						return
					}
					out, err := Run(context.Background(), p, j.budget, guard.Limits{})
					if err != nil {
						errs <- err
						return
					}
					sched, cost = out.Schedule, out.Stats.Cost
				} else {
					s, err := NewSession(j.base)
					if err == nil {
						_, err = s.PatchTo(j.inst.Deltas)
					}
					if err == nil {
						cost, err = s.CostCtx(context.Background(), guard.Limits{}, j.budget)
					}
					if err == nil {
						sched, err = s.ScheduleCtx(context.Background(), guard.Limits{}, j.budget)
					}
					if err != nil {
						errs <- err
						return
					}
				}
				if cost != j.cost || !slices.Equal(sched, j.sched) {
					errs <- fmt.Errorf("%s deltas=%v at %d: goroutine %d got cost %d (%d moves), sequential %d (%d moves)",
						j.inst.Label(), j.inst.Deltas, j.budget, w, cost, len(sched), j.cost, len(j.sched))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// liveTopology reports whether a table entry's topology is still
// reachable.
func liveTopology(e *shapeEntry) bool {
	switch w := e.topo.(type) {
	case weak.Pointer[dwt.Topology]:
		return w.Value() != nil
	case weak.Pointer[ktree.Topology]:
		return w.Value() != nil
	case weak.Pointer[mvm.Topology]:
		return w.Value() != nil
	}
	panic(fmt.Sprintf("shape table entry of type %T", e.topo))
}

// TestTopologyTableEmptiesAfterTwoGCs: the table holds a built shape's
// topology while a graph of the shape is alive, and once none is, two
// collections leave no topology in it. Every shape is solved cold a few
// times first, so the dwt and ktree entries' pools hold schedulers,
// which hold their last graph and so the topology: the pools do not pin
// a shape past the two collections either.
func TestTopologyTableEmptiesAfterTwoGCs(t *testing.T) {
	func() {
		var graphs []*cdag.Graph
		var keys []shapeKey
		for _, in := range []Instance{{Family: FamilyDWT, N: 40, D: 3}, {Family: FamilyKTree, K: 5, Height: 2}, {Family: FamilyMVM, M: 7, N: 9}} {
			var g *cdag.Graph
			for _, c := range []int{5, 17, 40} {
				in.Cfg = topologyConfigs()[c]
				p, pg, err := in.Build()
				if err != nil {
					t.Fatal(err)
				}
				// The tile search needs about twice the existence bound.
				g = pg
				out, err := Run(context.Background(), p, core.MinExistenceBudget(g)*5/2, guard.Limits{})
				if err != nil || out.Source != SourceOptimal {
					t.Fatalf("%s: cold solve answered %v (%v)", in.Label(), out.Source, err)
				}
			}
			graphs = append(graphs, g)
			switch in.Family {
			case FamilyDWT:
				keys = append(keys, shapeKey{in.Family, in.N, in.D})
			case FamilyKTree:
				keys = append(keys, shapeKey{in.Family, in.K, in.Height})
			case FamilyMVM:
				keys = append(keys, shapeKey{in.Family, in.M, in.N})
			}
		}
		// A collection while the graphs are alive keeps their topologies.
		runtime.GC()
		for _, k := range keys {
			if e := shapes[k.slot()].Load(); e == nil || e.key != k || !liveTopology(e) {
				t.Fatalf("%v: the table lost the topology of a live graph", k)
			}
		}
		runtime.KeepAlive(graphs)
	}()
	runtime.GC()
	runtime.GC()
	for i := range shapes {
		if e := shapes[i].Load(); e != nil && liveTopology(e) {
			t.Errorf("slot %d still holds %v after two collections", i, e.key)
		}
	}
}

// coldShapes lists the dwt and ktree shapes of wrbpgbench's cold-solve
// workload, the shapes whose cold solves draw on the scheduler pool.
func coldShapes() []Instance {
	return []Instance{
		{Family: FamilyDWT, N: 64, D: 6}, {Family: FamilyDWT, N: 128, D: 7},
		{Family: FamilyKTree, K: 3, Height: 4}, {Family: FamilyKTree, K: 2, Height: 8},
	}
}

// repoint re-points s, a scheduler of f's shape, at f's graph, as
// family.pooled does for a scheduler it takes from the pool.
func repoint(t *testing.T, s solver, f family) {
	t.Helper()
	switch s := s.(type) {
	case *dwt.Scheduler:
		if err := s.Reset(f.dwt); err != nil {
			t.Fatal(err)
		}
	case *ktree.Scheduler:
		s.Reset(f.tree)
	default:
		t.Fatalf("solver of type %T has no Reset", s)
	}
}

// pooledAbort re-points s at f and runs one cold solve on it that the
// guard aborts, by a canceled context (kind 1), a passed deadline
// (kind 2) or the memo-entry limit (kind 3), then flushes its counts
// as family.problem does. Kind 0 leaves s as it is.
func pooledAbort(t *testing.T, s solver, f family, kind int) {
	t.Helper()
	if kind == 0 {
		return
	}
	repoint(t, s, f)
	b := 2 * core.MinExistenceBudget(f.g)
	ctx, lim, want := context.Background(), guard.Limits{}, error(nil)
	switch kind {
	case 1:
		c, cancel := context.WithCancel(ctx)
		cancel()
		ctx, want = c, guard.ErrCanceled
	case 2:
		c, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
		defer cancel()
		ctx, want = c, guard.ErrDeadline
	case 3:
		lim.MaxMemoEntries, want = 3, guard.ErrBudgetExceeded
	}
	if _, err := s.ScheduleCtx(ctx, lim, b); !errors.Is(err, want) {
		t.Fatalf("aborted solve (kind %d): err %v, want %v", kind, err, want)
	}
	s.TakeCounts()
}

// TestTopologyPooledSchedulerMatchesFresh: a scheduler re-pointed at
// an instance's graph, as a cold solve takes one from its shape's
// pool, answers exactly as a fresh one. Over the dwt and ktree shapes
// of cold-solve, several weight configurations, delta lists and
// budgets, one scheduler per shape serves every case, some right after
// a solve of its own that a canceled context, a passed deadline or the
// memo-entry limit aborted. Its schedules are byte-identical to a
// fresh scheduler's, their Simulate stats equal, and its counts equal
// the fresh solve's, so a cold solve reports no reused or invalidated
// cells. Run, which draws on the real pool, gives the same schedules.
func TestTopologyPooledSchedulerMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	cfgs := topologyConfigs()
	for _, shape := range coldShapes() {
		var pooled solver
		var prev family
		abort := 0
		for c := 3; c < len(cfgs); c += 12 {
			base := shape
			base.Cfg = cfgs[c]
			bf, err := base.build()
			if err != nil {
				t.Fatal(err)
			}
			patched := base
			patched.Deltas = patchTargets(rng, bf.g.Sources(), 6)
			for _, in := range []Instance{base, patched} {
				f, err := in.build()
				if err != nil {
					t.Fatal(err)
				}
				exist := core.MinExistenceBudget(f.g)
				for _, b := range []cdag.Weight{exist - 1, exist, exist * 5 / 4, exist*3/2 + 1, 2 * exist, f.g.TotalWeight()} {
					label := fmt.Sprintf("%s deltas=%v budget %d", in.Label(), in.Deltas, b)
					fresh, _, err := f.newSolver()
					if err != nil {
						t.Fatal(err)
					}
					want, werr := fresh.ScheduleCtx(context.Background(), guard.Limits{}, b)
					wantCounts := fresh.TakeCounts()
					if pooled == nil {
						if pooled, _, err = f.newSolver(); err != nil {
							t.Fatal(err)
						}
						prev = f
					}
					// The abort runs on the weighting pooled last served.
					pooledAbort(t, pooled, prev, abort%4)
					abort++
					repoint(t, pooled, f)
					prev = f
					got, gerr := pooled.ScheduleCtx(context.Background(), guard.Limits{}, b)
					gotCounts := pooled.TakeCounts()
					if (werr == nil) != (gerr == nil) || !slices.Equal(got, want) {
						t.Fatalf("%s: pooled %d moves (%v), fresh %d moves (%v)", label, len(got), gerr, len(want), werr)
					}
					if gotCounts != wantCounts || gotCounts.CellsReused != 0 || gotCounts.CellsInvalidated != 0 {
						t.Fatalf("%s: pooled counts %+v, fresh %+v", label, gotCounts, wantCounts)
					}
					if werr != nil {
						continue
					}
					ws, err := core.Simulate(f.g, b, want)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if gs, err := core.Simulate(f.g, b, got); err != nil || gs != ws {
						t.Fatalf("%s: pooled stats %+v (%v), fresh %+v", label, gs, err, ws)
					}
					p, _, err := in.Build()
					if err != nil {
						t.Fatal(err)
					}
					out, err := Run(context.Background(), p, b, guard.Limits{})
					if err != nil || out.Source != SourceOptimal || !slices.Equal(out.Schedule, want) || out.Stats != ws {
						t.Fatalf("%s: Run answered %v with %d moves (%v), fresh %d moves", label, out.Source, len(out.Schedule), err, len(want))
					}
				}
			}
		}
	}
}
