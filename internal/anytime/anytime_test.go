// Property tests for the anytime tier, the satellite contract of the
// general-DAG scheduler: every result is Simulate-valid, bounded below
// by Proposition 2.4, never worse than either baseline, and the
// incumbent trajectory is monotone — under -race and with par fault
// injection killing workers.

package anytime

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"wrbpg/internal/baseline"
	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/exact"
	"wrbpg/internal/guard"
	"wrbpg/internal/par"
)

// roster returns the fixed random-CDAG roster of the cdag-check gate
// and BenchmarkTimeToMatch: count graphs, 15–60 nodes, seeded.
func roster(count int) []*cdag.Graph {
	out := make([]*cdag.Graph, count)
	for i := range out {
		out[i] = cdag.Random(int64(1000+i), 15+(i*45)/max(count-1, 1))
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// budgetFor picks a budget tight enough for eviction pressure but
// comfortably above the existence bound.
func budgetFor(g *cdag.Graph) cdag.Weight {
	return core.MinExistenceBudget(g) * 2
}

func TestSearchPropertyBounds(t *testing.T) {
	for i, g := range roster(12) {
		b := budgetFor(g)
		res, err := Search(context.Background(), g, b,
			guard.Limits{Deadline: 40 * time.Millisecond, MaxStates: 200000}, Options{})
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		stats, err := core.Simulate(g, b, res.Schedule)
		if err != nil {
			t.Fatalf("graph %d: incumbent not Simulate-valid: %v", i, err)
		}
		if stats.Cost != res.Cost {
			t.Fatalf("graph %d: reported cost %d != simulated %d", i, res.Cost, stats.Cost)
		}
		if res.Cost < core.LowerBound(g) {
			t.Fatalf("graph %d: cost %d below Proposition 2.4 bound %d", i, res.Cost, core.LowerBound(g))
		}
		if lbl, err := baseline.LayerByLayer(g, DepthLayers(g), b); err == nil {
			if c := core.Cost(g, lbl); res.Cost > c {
				t.Fatalf("graph %d: cost %d worse than layer-by-layer %d", i, res.Cost, c)
			}
		}
		if gr, err := baseline.Greedy(g, b); err == nil {
			if c := core.Cost(g, gr); res.Cost > c {
				t.Fatalf("graph %d: cost %d worse than greedy %d", i, res.Cost, c)
			}
		}
		if res.Cost > res.SeedCost {
			t.Fatalf("graph %d: cost %d above seed %d", i, res.Cost, res.SeedCost)
		}
	}
}

// TestSearchTrajectoryMonotone is the deadline-slice contract: the
// incumbent the caller would receive at any deadline slice within one
// run never costs more than at an earlier slice.
func TestSearchTrajectoryMonotone(t *testing.T) {
	for i, g := range roster(8) {
		b := budgetFor(g)
		res, err := Search(context.Background(), g, b,
			guard.Limits{Deadline: 30 * time.Millisecond}, Options{})
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if len(res.Trajectory) == 0 {
			t.Fatalf("graph %d: empty trajectory", i)
		}
		if res.Trajectory[0].Cost != res.SeedCost {
			t.Fatalf("graph %d: trajectory starts at %d, seed is %d",
				i, res.Trajectory[0].Cost, res.SeedCost)
		}
		for j := 1; j < len(res.Trajectory); j++ {
			if res.Trajectory[j].Cost >= res.Trajectory[j-1].Cost {
				t.Fatalf("graph %d: trajectory not strictly decreasing at %d: %v",
					i, j, res.Trajectory)
			}
			if res.Trajectory[j].Elapsed < res.Trajectory[j-1].Elapsed {
				t.Fatalf("graph %d: trajectory time not monotone: %v", i, res.Trajectory)
			}
		}
		if res.Trajectory[len(res.Trajectory)-1].Cost != res.Cost {
			t.Fatalf("graph %d: trajectory ends at %d, cost is %d",
				i, res.Trajectory[len(res.Trajectory)-1].Cost, res.Cost)
		}
	}
}

// TestSearchCompleteVsExact: on tiny graphs the drained search is
// optimal within the no-recompute subspace, so it must sit between the
// unrestricted exact optimum and the baselines.
func TestSearchCompleteVsExact(t *testing.T) {
	for i := 0; i < 6; i++ {
		g := cdag.Random(int64(7000+i), 9)
		b := budgetFor(g)
		res, err := Search(context.Background(), g, b, guard.Limits{MaxStates: 2000000}, Options{})
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if !res.Complete {
			t.Fatalf("graph %d: tiny search did not complete", i)
		}
		ex, err := exact.SolveCtx(context.Background(), g, b, guard.Limits{})
		if err != nil {
			t.Fatalf("graph %d: exact: %v", i, err)
		}
		if res.Cost < ex.Cost {
			t.Fatalf("graph %d: anytime %d beat the exact optimum %d (invalid schedule?)",
				i, res.Cost, ex.Cost)
		}
	}
}

func TestSearchInfeasibleBudget(t *testing.T) {
	g := cdag.Random(42, 20)
	_, err := Search(context.Background(), g, core.MinExistenceBudget(g)-1, guard.Limits{}, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestSearchCanceled(t *testing.T) {
	g := cdag.Random(43, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Search(ctx, g, budgetFor(g), guard.Limits{}, Options{})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestSearchFaultInjectedWorkers kills a subset of the pool at spawn
// via the par fault hook: the survivors must still return a valid,
// bounded incumbent (width degrades, the answer does not). A crashed
// search may claim Complete only with an incumbent at the lower bound.
func TestSearchFaultInjectedWorkers(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs ≥2 workers")
	}
	restore := par.SetFaultHook(func(index int) {
		if index%2 == 1 {
			panic("injected worker fault")
		}
	})
	defer restore()
	for i, g := range roster(4) {
		b := budgetFor(g)
		res, err := Search(context.Background(), g, b,
			guard.Limits{Deadline: 25 * time.Millisecond}, Options{})
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if res.Complete && res.Cost != res.LowerBound {
			t.Fatalf("graph %d: crashed-worker search reported Complete at cost %d above the lower bound %d",
				i, res.Cost, res.LowerBound)
		}
		if _, err := core.Simulate(g, b, res.Schedule); err != nil {
			t.Fatalf("graph %d: invalid incumbent after fault: %v", i, err)
		}
		if res.Cost > res.SeedCost {
			t.Fatalf("graph %d: fault run regressed below the seed", i)
		}
	}
}

// TestSearchTargetCost stops at a reference cost without claiming
// completeness — the mode BenchmarkTimeToMatch times.
func TestSearchTargetCost(t *testing.T) {
	g := cdag.Random(99, 30)
	b := budgetFor(g)
	ref, err := Search(context.Background(), g, b,
		guard.Limits{Deadline: 30 * time.Millisecond}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(context.Background(), g, b,
		guard.Limits{Deadline: 5 * time.Second}, Options{TargetCost: ref.Cost})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > ref.Cost {
		t.Fatalf("target run stopped at %d above target %d", res.Cost, ref.Cost)
	}
	if _, err := core.Simulate(g, b, res.Schedule); err != nil {
		t.Fatalf("invalid target-run incumbent: %v", err)
	}
}

// TestRosterAcceptance is the PR's headline criterion: on the fixed
// 20-graph roster (15–60 nodes), 50 ms per graph, the anytime tier is
// never worse than baseline.LayerByLayer and strictly beats it on at
// least half the graphs. The ties in practice are exactly the graphs
// where the baseline already meets the Proposition 2.4 bound (nothing
// left to win). Skipped under -short: the strict-beat half is timing
// sensitive on starved CI runners; make cdag-check runs it in full.
func TestRosterAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive roster acceptance; run via make cdag-check")
	}
	const graphs = 20
	better := 0
	for i, g := range roster(graphs) {
		b := budgetFor(g)
		lbl, err := baseline.LayerByLayer(g, DepthLayers(g), b)
		if err != nil {
			t.Fatalf("graph %d: baseline: %v", i, err)
		}
		lc := core.Cost(g, lbl)
		res, err := Search(context.Background(), g, b,
			guard.Limits{Deadline: 50 * time.Millisecond}, Options{})
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if _, err := core.Simulate(g, b, res.Schedule); err != nil {
			t.Fatalf("graph %d: invalid schedule: %v", i, err)
		}
		if res.Cost < res.LowerBound {
			t.Fatalf("graph %d: cost %d below Proposition 2.4 bound %d", i, res.Cost, res.LowerBound)
		}
		if res.Cost > lc {
			t.Fatalf("graph %d: anytime %d worse than layer-by-layer %d", i, res.Cost, lc)
		}
		if res.Cost < lc {
			better++
		}
	}
	if better*2 < graphs {
		t.Fatalf("anytime strictly beat the baseline on only %d/%d graphs (want ≥ half)",
			better, graphs)
	}
}

// BenchmarkTimeToMatch is the 1-vs-N time-to-match kernel on the
// 20-graph roster. A 1-worker search at the 50 ms acceptance slice
// fixes each graph's target cost; each sub-benchmark then times
// Search with Options.TargetCost set to that target at its width, so
// one op is the whole roster and the ratio of the two ns/op is the
// duration-weighted parallel speedup. With GOMAXPROCS 1 only the
// workers=1 sub-benchmark runs: N workers there time-slice one core.
func BenchmarkTimeToMatch(b *testing.B) {
	ctx := context.Background()
	graphs := roster(20)
	targets := make([]cdag.Weight, len(graphs))
	for i, g := range graphs {
		ref, err := Search(ctx, g, budgetFor(g), guard.Limits{Deadline: 50 * time.Millisecond}, Options{Workers: 1})
		if err != nil {
			b.Fatalf("graph %d: %v", i, err)
		}
		targets[i] = ref.Cost
	}
	widths := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		widths = append(widths, n)
	}
	for _, w := range widths {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				for i, g := range graphs {
					res, err := Search(ctx, g, budgetFor(g), guard.Limits{Deadline: time.Second},
						Options{Workers: w, TargetCost: targets[i]})
					if err != nil {
						b.Fatalf("graph %d: %v", i, err)
					}
					if res.Cost > targets[i] {
						b.Fatalf("graph %d: stopped at %d above target %d", i, res.Cost, targets[i])
					}
				}
			}
		})
	}
}

func TestDepthLayers(t *testing.T) {
	g := cdag.Random(7, 25)
	layers := DepthLayers(g)
	for _, v := range layers[0] {
		if !g.IsSource(v) {
			t.Fatalf("layer 0 holds non-source %d", v)
		}
	}
	seen := 0
	for d, l := range layers {
		seen += len(l)
		for _, v := range l {
			for _, p := range g.Parents(v) {
				pd := 0
				for dd, ll := range layers {
					for _, u := range ll {
						if u == p {
							pd = dd
						}
					}
				}
				if pd >= d {
					t.Fatalf("node %d at depth %d has parent %d at depth %d", v, d, p, pd)
				}
			}
		}
	}
	if seen != g.Len() {
		t.Fatalf("layers cover %d of %d nodes", seen, g.Len())
	}
}
