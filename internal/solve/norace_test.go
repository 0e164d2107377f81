//go:build !race

package solve

import (
	"runtime"
	"testing"
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
