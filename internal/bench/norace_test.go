//go:build !race

package bench

import (
	"runtime"
	"runtime/debug"
	"testing"

	"wrbpg/internal/solve"
)

// The tests in this file count allocations on paths that take pooled
// state. The race detector drops pooled items at random, so they run
// without it.

// TestColdSolveAllocsConstant pins the cold DP path at a constant
// number of allocations: once a shape's scheduler pool is warm, a cold
// solve (Build, the optimal DP, Simulate) of a family's larger shape
// allocates no more than one of its smaller shape, so neither the
// graph nor the DP state allocates per node.
func TestColdSolveAllocsConstant(t *testing.T) {
	// Collections off, as in TestBuildAllocsConstant; a collection would
	// also empty the scheduler pools. One P makes the pools' per-P caches
	// one, so every solve finds the scheduler the last one put back.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := Configs()[0]
	for _, pair := range [][2]solve.Instance{
		{{Family: solve.FamilyDWT, N: 64, D: 6}, {Family: solve.FamilyDWT, N: 1024, D: 7}},
		{{Family: solve.FamilyKTree, K: 2, Height: 8}, {Family: solve.FamilyKTree, K: 2, Height: 10}},
	} {
		var allocs [2]float64
		for i := range pair {
			pair[i].Cfg = cfg
			in := pair[i]
			if _, _, err := coldSolve(in); err != nil {
				t.Fatal(err)
			}
			allocs[i] = testing.AllocsPerRun(20, func() { coldSolve(in) })
		}
		if allocs[1] > allocs[0] {
			t.Errorf("%s: %.0f allocs/op, more than %s's %.0f", pair[1].Label(), allocs[1], pair[0].Label(), allocs[0])
		}
	}
}
