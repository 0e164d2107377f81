//go:build !race

package solve

import (
	"context"
	"runtime"
	"testing"

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
