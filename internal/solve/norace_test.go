//go:build !race

package solve

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
)

// TestTopologyKeptOneCollectionAfterLastUse: a shape used since the
// last collection keeps its topology through one collection that finds
// no graph of it alive, so a shape in steady use is not rebuilt after
// every collection. The race detector drops pooled items at random, so
// the test runs without it.
func TestTopologyKeptOneCollectionAfterLastUse(t *testing.T) {
	in := Instance{Family: FamilyMVM, M: 9, N: 4, Cfg: equalCfg()}
	k := shapeKey{FamilyMVM, in.M, in.N}
	if _, _, err := in.Build(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if e := shapes[k.slot()].Load(); e == nil || e.key != k || !liveTopology(e) {
		t.Fatal("one collection after its last use reclaimed the shape's topology")
	}
	runtime.GC()
	if e := shapes[k.slot()].Load(); e != nil && e.key == k && liveTopology(e) {
		t.Fatal("two collections after its last use left the shape's topology in the table")
	}
}

// TestTopologyColdSolveRecyclesScheduler: a cold dwt or ktree solve
// through Build and Run leaves its scheduler in its shape's pool, and
// the next cold solve of the shape, under another weighting, takes
// that scheduler and puts it back. One P makes the pool's per-P caches
// one, and the race detector drops pooled items at random, so the test
// runs with GOMAXPROCS 1 and without it.
func TestTopologyColdSolveRecyclesScheduler(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfgs := topologyConfigs()
	for _, shape := range coldShapes() {
		k := shapeKey{shape.Family, shape.N, shape.D}
		if shape.Family == FamilyKTree {
			k = shapeKey{shape.Family, shape.K, shape.Height}
		}
		var last any
		for i, c := range []int{2, 30, 61} {
			in := shape
			in.Cfg = cfgs[c]
			p, g, err := in.Build()
			if err != nil {
				t.Fatal(err)
			}
			out, err := Run(context.Background(), p, core.MinExistenceBudget(g)*3/2, guard.Limits{})
			if err != nil || out.Source != SourceOptimal {
				t.Fatalf("%s: cold solve answered %v (%v)", in.Label(), out.Source, err)
			}
			e := shapes[k.slot()].Load()
			s := e.solvers.Get()
			if s == nil || (i > 0 && s != last) {
				t.Fatalf("%s: the shape's pool holds %p after a cold solve, want the scheduler %p", in.Label(), s, last)
			}
			e.solvers.Put(s)
			last = s
		}
	}
}

// TestTopologyIdleSchedulerKeepsNoContext: once a cold dwt or ktree
// solve has put its scheduler back in its shape's pool, the finished
// request's context and counts sink are unreachable: a collection
// clears weak pointers to both while the scheduler still sits in the
// pool. One P makes the pool's per-P caches one, and the race detector
// drops pooled items at random, so the test runs with GOMAXPROCS 1 and
// without it.
func TestTopologyIdleSchedulerKeepsNoContext(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, shape := range coldShapes() {
		k := shapeKey{shape.Family, shape.N, shape.D}
		if shape.Family == FamilyKTree {
			k = shapeKey{shape.Family, shape.K, shape.Height}
		}
		in := shape
		in.Cfg = equalCfg()
		p, g, err := in.Build()
		if err != nil {
			t.Fatal(err)
		}
		wctx, wsink := solveWeakly(t, p, core.MinExistenceBudget(g)*3/2)
		runtime.GC()
		if wctx.Value() != nil || wsink.Value() != nil {
			t.Errorf("%s: an idle pooled scheduler keeps the finished request's context (%v) or sink (%v) reachable", in.Label(), wctx.Value() != nil, wsink.Value() != nil)
		}
		if s := shapes[k.slot()].Load().solvers.Get(); s == nil {
			t.Fatalf("%s: the shape's pool is empty after one collection, so the check proves nothing", in.Label())
		}
		runtime.KeepAlive(g)
	}
}

// solveWeakly runs one cold solve of p under a request context that
// carries a counts sink and returns weak pointers to both.
func solveWeakly(t *testing.T, p Problem, budget cdag.Weight) (weak.Pointer[requestCtx], weak.Pointer[guard.CountsSink]) {
	t.Helper()
	sink := new(guard.CountsSink)
	ctx := &requestCtx{guard.WithSink(context.Background(), sink)}
	out, err := Run(ctx, p, budget, guard.Limits{})
	if err != nil || out.Source != SourceOptimal {
		t.Fatalf("cold solve answered %v (%v)", out.Source, err)
	}
	if sink.Snapshot().MemoEntries == 0 {
		t.Fatal("the solve flushed no counts into the request's sink")
	}
	return weak.Make(ctx), weak.Make(sink)
}
