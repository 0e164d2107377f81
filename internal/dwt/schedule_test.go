package dwt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/exact"
	"wrbpg/internal/wcfg"
)

func newSched(t *testing.T, n, d int, wf WeightFunc) (*Graph, *Scheduler) {
	t.Helper()
	g := buildOrFatal(t, n, d, wf)
	s, err := NewScheduler(g)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	return g, s
}

// TestScheduleSimulatesToMinCost is the central contract: for a range
// of budgets, the generated schedule passes the rule-checking
// simulator and its measured cost equals the DP's MinCost. The
// schedule is sized exactly.
func TestScheduleSimulatesToMinCost(t *testing.T) {
	configs := []wcfg.Config{wcfg.Equal(16), wcfg.DoubleAccumulator(16)}
	for _, cfg := range configs {
		for _, nd := range []struct{ n, d int }{{4, 1}, {4, 2}, {8, 3}, {16, 4}, {32, 5}, {64, 3}} {
			g, s := newSched(t, nd.n, nd.d, ConfigWeights(cfg))
			minB := core.MinExistenceBudget(g.G)
			for b := minB; b <= minB+cdag.Weight(12*cfg.WordBits); b += cdag.Weight(cfg.WordBits) {
				want := s.MinCost(b)
				if want >= Inf {
					t.Fatalf("%s DWT(%d,%d) b=%d: infeasible above existence bound", cfg.Name, nd.n, nd.d, b)
				}
				sched, err := s.Schedule(b)
				if err != nil {
					t.Fatalf("%s DWT(%d,%d) b=%d: %v", cfg.Name, nd.n, nd.d, b, err)
				}
				if cap(sched) != len(sched) {
					t.Errorf("%s DWT(%d,%d) b=%d: schedule cap %d, want its length %d", cfg.Name, nd.n, nd.d, b, cap(sched), len(sched))
				}
				stats, err := core.Simulate(g.G, b, sched)
				if err != nil {
					t.Fatalf("%s DWT(%d,%d) b=%d: simulate: %v", cfg.Name, nd.n, nd.d, b, err)
				}
				if stats.Cost != want {
					t.Fatalf("%s DWT(%d,%d) b=%d: simulated cost %d != DP cost %d", cfg.Name, nd.n, nd.d, b, stats.Cost, want)
				}
				if stats.PeakRedWeight > b {
					t.Fatalf("peak red %d exceeds budget %d", stats.PeakRedWeight, b)
				}
			}
		}
	}
}

// TestOptimalityAgainstExact certifies the DP against exhaustive
// state-space search on small instances.
func TestOptimalityAgainstExact(t *testing.T) {
	for _, cfg := range []wcfg.Config{wcfg.Equal(1), wcfg.DoubleAccumulator(1)} {
		// 4^|V| nominal states: instances above ~12 nodes make the
		// exact solver explode, so the certification set stays small.
		for _, nd := range []struct{ n, d int }{{4, 1}, {4, 2}} {
			g, s := newSched(t, nd.n, nd.d, ConfigWeights(cfg))
			minB := core.MinExistenceBudget(g.G)
			for b := minB; b <= minB+4; b++ {
				res, err := exact.Solve(g.G, b)
				if err != nil {
					t.Fatalf("exact DWT(%d,%d) b=%d: %v", nd.n, nd.d, b, err)
				}
				if got := s.MinCost(b); got != res.Cost {
					t.Errorf("%s DWT(%d,%d) b=%d: DP=%d exact=%d", cfg.Name, nd.n, nd.d, b, got, res.Cost)
				}
			}
		}
	}
}

// TestOptimalityRandomWeightsQuick drives the exact comparison with
// random integer weights satisfying the Lemma 3.2 assumption.
func TestOptimalityRandomWeightsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Random weights in [1,4]; coefficients get the min of the
		// pair to satisfy the assumption.
		inputW := make([]cdag.Weight, 4)
		for i := range inputW {
			inputW[i] = cdag.Weight(1 + r.Intn(4))
		}
		avgW := cdag.Weight(1 + r.Intn(4))
		coefW := cdag.Weight(1 + r.Intn(int(avgW)))
		wf := func(layer, index int) cdag.Weight {
			if layer == 1 {
				return inputW[(index-1)%len(inputW)]
			}
			if index%2 == 1 {
				return avgW
			}
			return coefW
		}
		g, err := Build(4, 2, wf)
		if err != nil {
			return false
		}
		s, err := NewScheduler(g)
		if err != nil {
			return false
		}
		minB := core.MinExistenceBudget(g.G)
		b := minB + cdag.Weight(r.Intn(5))
		res, err := exact.Solve(g.G, b)
		if err != nil {
			return false
		}
		if s.MinCost(b) != res.Cost {
			t.Logf("seed=%d b=%d DP=%d exact=%d", seed, b, s.MinCost(b), res.Cost)
			return false
		}
		// The generated schedule must realize the cost.
		sched, err := s.Schedule(b)
		if err != nil {
			return false
		}
		stats, err := core.Simulate(g.G, b, sched)
		return err == nil && stats.Cost == res.Cost
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestMinCostMonotone checks the property the binary search relies on:
// more budget never increases the optimal cost.
func TestMinCostMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfgs := []wcfg.Config{wcfg.Equal(16), wcfg.DoubleAccumulator(16)}
		cfg := cfgs[r.Intn(2)]
		_, s := newSched(t, 16, 4, ConfigWeights(cfg))
		minB := core.MinExistenceBudget(s.dg.G)
		prev := s.MinCost(minB)
		for b := minB + 16; b <= minB+320; b += 16 {
			cur := s.MinCost(b)
			if cur > prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Error(err)
	}
}

// TestTable1DWTAnchors reproduces the DWT optimum rows of Table 1:
// minimum fast memory of 10 words (Equal) and 18 words (DA) for
// DWT(256,8).
func TestTable1DWTAnchors(t *testing.T) {
	cases := []struct {
		cfg   wcfg.Config
		words int
	}{
		{wcfg.Equal(16), 10},
		{wcfg.DoubleAccumulator(16), 18},
	}
	for _, c := range cases {
		_, s := newSched(t, 256, 8, ConfigWeights(c.cfg))
		got, err := s.MinMemory(16)
		if err != nil {
			t.Fatalf("%s: %v", c.cfg.Name, err)
		}
		if int(got/16) != c.words {
			t.Errorf("%s DWT(256,8) min memory = %d words, want %d", c.cfg.Name, got/16, c.words)
		}
	}
}

// TestAlgorithmicLowerBounds checks the Fig. 5 anchor values.
func TestAlgorithmicLowerBounds(t *testing.T) {
	g, _ := newSched(t, 256, 8, ConfigWeights(wcfg.Equal(16)))
	if lb := core.LowerBound(g.G); lb != 8192 {
		t.Errorf("Equal DWT(256,8) LB = %d, want 8192", lb)
	}
	g2, _ := newSched(t, 256, 8, ConfigWeights(wcfg.DoubleAccumulator(16)))
	if lb := core.LowerBound(g2.G); lb != 12288 {
		t.Errorf("DA DWT(256,8) LB = %d, want 12288", lb)
	}
}

// TestLBAttainedAtMinMemory: at the reported minimum memory the
// schedule cost equals the lower bound, and one word less falls short.
func TestLBAttainedAtMinMemory(t *testing.T) {
	for _, cfg := range []wcfg.Config{wcfg.Equal(16), wcfg.DoubleAccumulator(16)} {
		g, s := newSched(t, 64, 6, ConfigWeights(cfg))
		b, err := s.MinMemory(16)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		lb := core.LowerBound(g.G)
		if got := s.MinCost(b); got != lb {
			t.Errorf("%s: cost at min memory = %d, want LB %d", cfg.Name, got, lb)
		}
		if b-16 >= core.MinExistenceBudget(g.G) {
			if got := s.MinCost(b - 16); got == lb {
				t.Errorf("%s: cost at min memory − 1 word already equals LB; MinMemory not minimal", cfg.Name)
			}
		}
	}
}

// TestInfeasibleBudget: below the existence bound there is no valid
// schedule and MinCost reports Inf.
func TestInfeasibleBudget(t *testing.T) {
	g, s := newSched(t, 8, 3, ConfigWeights(wcfg.Equal(16)))
	b := core.MinExistenceBudget(g.G) - 1
	if got := s.MinCost(b); got < Inf {
		t.Errorf("MinCost(%d) = %d, want Inf", b, got)
	}
	if _, err := s.Schedule(b); err == nil {
		t.Error("Schedule below existence bound should fail")
	}
}

// TestScheduleMoveAccounting: every non-pruned non-source node is
// computed exactly once at generous budgets (no recomputation), and
// every sink is stored exactly once.
func TestScheduleMoveAccounting(t *testing.T) {
	g, s := newSched(t, 32, 5, ConfigWeights(wcfg.Equal(16)))
	b := g.G.TotalWeight()
	sched, err := s.Schedule(b)
	if err != nil {
		t.Fatal(err)
	}
	m2 := map[cdag.NodeID]int{}
	m3 := map[cdag.NodeID]int{}
	for _, mv := range sched {
		switch mv.Kind {
		case core.M2:
			m2[mv.Node]++
		case core.M3:
			m3[mv.Node]++
		}
	}
	for _, v := range g.G.Sinks() {
		if m2[v] != 1 {
			t.Errorf("sink %d stored %d times, want 1", v, m2[v])
		}
	}
	for v := 0; v < g.G.Len(); v++ {
		id := cdag.NodeID(v)
		if g.G.IsSource(id) {
			continue
		}
		if m3[id] != 1 {
			t.Errorf("node %d computed %d times at full budget, want 1", id, m3[id])
		}
	}
}

// TestSchedulerRejectsBadWeights: the Lemma 3.2 hypothesis is checked
// up front.
func TestSchedulerRejectsBadWeights(t *testing.T) {
	g := buildOrFatal(t, 4, 1, equalWeights)
	g.G.SetWeight(g.NodeAt(2, 2), 1000)
	if _, err := NewScheduler(g); err == nil {
		t.Error("expected weight-assumption error")
	}
}

// TestLargeBudgetCostEqualsLB: with the whole graph resident the
// optimum equals the algorithmic lower bound.
func TestLargeBudgetCostEqualsLB(t *testing.T) {
	for _, nd := range []struct{ n, d int }{{4, 1}, {16, 2}, {64, 6}, {256, 8}} {
		g, s := newSched(t, nd.n, nd.d, ConfigWeights(wcfg.Equal(16)))
		if got, want := s.MinCost(g.G.TotalWeight()), core.LowerBound(g.G); got != want {
			t.Errorf("DWT(%d,%d): cost=%d want LB=%d", nd.n, nd.d, got, want)
		}
	}
}

func BenchmarkScheduleDWT256(b *testing.B) {
	g, err := Build(256, 8, ConfigWeights(wcfg.Equal(16)))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s, _ := NewScheduler(g)
		if _, err := s.Schedule(160); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinCostSweepDWT256(b *testing.B) {
	g, err := Build(256, 8, ConfigWeights(wcfg.Equal(16)))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s, _ := NewScheduler(g)
		for budget := cdag.Weight(48); budget <= 8192; budget *= 2 {
			s.MinCost(budget)
		}
	}
}
