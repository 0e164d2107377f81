package dwt

import (
	"math/rand"
	"slices"
	"testing"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
)

// lemmaWeights returns random weights in [1, 8] that satisfy Lemma
// 3.2: every layer>1 coefficient (even index) weighs at most its
// average sibling (odd index). Weights are drawn on first request and
// remembered, so the function is deterministic for Build.
func lemmaWeights(rng *rand.Rand) WeightFunc {
	drawn := map[[2]int]cdag.Weight{}
	var wf WeightFunc
	wf = func(layer, index int) cdag.Weight {
		k := [2]int{layer, index}
		if w, ok := drawn[k]; ok {
			return w
		}
		w := cdag.Weight(1 + rng.Intn(8))
		if layer > 1 && index%2 == 0 {
			w = cdag.Weight(1 + rng.Intn(int(wf(layer, index-1))))
		}
		drawn[k] = w
		return w
	}
	return wf
}

// TestIntervalMemoSound checks that P(v, ·)'s budget intervals are
// sound: one warm scheduler answers every budget from the existence
// bound to the total weight, in shuffled order, exactly as a fresh
// scheduler does (and as the memo-free recursion does on the smaller
// shapes), with byte-identical schedules that pass core.Simulate. It
// also checks the premise the interval memo shares with Pt and Pm:
// MinCost is non-increasing in the budget.
func TestIntervalMemoSound(t *testing.T) {
	for _, tc := range []struct {
		n, d   int
		noMemo bool
	}{{8, 3, true}, {12, 2, true}, {16, 4, false}} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := buildOrFatal(t, tc.n, tc.d, lemmaWeights(rng))
			warm, err := NewScheduler(g)
			if err != nil {
				t.Fatalf("DWT(%d,%d) seed %d: %v", tc.n, tc.d, seed, err)
			}
			minB, total := core.MinExistenceBudget(g.G), g.G.TotalWeight()
			var budgets []cdag.Weight
			for b := minB; b <= total; b++ {
				budgets = append(budgets, b)
			}
			rng.Shuffle(len(budgets), func(i, j int) { budgets[i], budgets[j] = budgets[j], budgets[i] })
			costs := make(map[cdag.Weight]cdag.Weight, len(budgets))
			for _, b := range budgets {
				fresh, err := NewScheduler(g)
				if err != nil {
					t.Fatal(err)
				}
				got, want := warm.MinCost(b), fresh.MinCost(b)
				if got != want {
					t.Fatalf("DWT(%d,%d) seed %d b=%d: warm MinCost %d, fresh %d", tc.n, tc.d, seed, b, got, want)
				}
				if tc.noMemo {
					if nm := MinCostNoMemo(g, b); nm != want {
						t.Fatalf("DWT(%d,%d) seed %d b=%d: MinCost %d, MinCostNoMemo %d", tc.n, tc.d, seed, b, want, nm)
					}
				}
				ws, err := warm.Schedule(b)
				if err != nil {
					t.Fatalf("DWT(%d,%d) seed %d b=%d: warm Schedule: %v", tc.n, tc.d, seed, b, err)
				}
				fs, err := fresh.Schedule(b)
				if err != nil {
					t.Fatalf("DWT(%d,%d) seed %d b=%d: fresh Schedule: %v", tc.n, tc.d, seed, b, err)
				}
				if !slices.Equal(ws, fs) {
					t.Fatalf("DWT(%d,%d) seed %d b=%d: warm schedule differs from fresh", tc.n, tc.d, seed, b)
				}
				stats, err := core.Simulate(g.G, b, ws)
				if err != nil {
					t.Fatalf("DWT(%d,%d) seed %d b=%d: simulate: %v", tc.n, tc.d, seed, b, err)
				}
				if stats.Cost != got {
					t.Fatalf("DWT(%d,%d) seed %d b=%d: simulated cost %d != MinCost %d", tc.n, tc.d, seed, b, stats.Cost, got)
				}
				costs[b] = got
			}
			for b := minB + 1; b <= total; b++ {
				if costs[b] > costs[b-1] {
					t.Fatalf("DWT(%d,%d) seed %d: MinCost rises from %d at b=%d to %d at b=%d",
						tc.n, tc.d, seed, costs[b-1], b-1, costs[b], b)
				}
			}
		}
	}
}
