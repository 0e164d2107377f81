package mvm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/exact"
	"wrbpg/internal/wcfg"
)

// TestTileScheduleValidAndPredicted is the central tiling contract:
// generated schedules pass the simulator, and both the closed-form
// cost and peak predictions match the simulation exactly, and the
// schedule is sized exactly.
func TestTileScheduleValidAndPredicted(t *testing.T) {
	configs := []wcfg.Config{wcfg.Equal(16), wcfg.DoubleAccumulator(16)}
	dims := []struct{ m, n int }{{2, 1}, {2, 2}, {3, 2}, {2, 3}, {4, 4}, {5, 3}, {8, 6}}
	for _, cfg := range configs {
		for _, d := range dims {
			g := buildOrFatal(t, d.m, d.n, cfg)
			for h := 1; h <= d.m; h++ {
				for vc := 0; vc <= d.n; vc++ {
					tc := TileConfig{Height: h, ResidentVector: vc}
					sched, err := g.TileSchedule(tc)
					if err != nil {
						t.Fatalf("%s MVM(%d,%d) %v: %v", cfg.Name, d.m, d.n, tc, err)
					}
					if cap(sched) != len(sched) {
						t.Errorf("%s MVM(%d,%d) %v: schedule cap %d, want its length %d", cfg.Name, d.m, d.n, tc, cap(sched), len(sched))
					}
					peak := g.PredictPeak(tc)
					stats, err := core.Simulate(g.G, peak, sched)
					if err != nil {
						t.Fatalf("%s MVM(%d,%d) %v: simulate at predicted peak: %v", cfg.Name, d.m, d.n, tc, err)
					}
					if stats.PeakRedWeight != peak {
						t.Errorf("%s MVM(%d,%d) %v: simulated peak %d != predicted %d", cfg.Name, d.m, d.n, tc, stats.PeakRedWeight, peak)
					}
					if want := g.PredictCost(tc); stats.Cost != want {
						t.Errorf("%s MVM(%d,%d) %v: simulated cost %d != predicted %d", cfg.Name, d.m, d.n, tc, stats.Cost, want)
					}
				}
			}
		}
	}
}

func TestTileScheduleValidLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large simulation")
	}
	for _, cfg := range []wcfg.Config{wcfg.Equal(16), wcfg.DoubleAccumulator(16)} {
		g := buildOrFatal(t, 96, 120, cfg)
		for _, tc := range []TileConfig{
			{Height: 96}, {Height: 1, ResidentVector: 120},
			{Height: 32, ResidentVector: 10}, {Height: 1},
		} {
			sched, err := g.TileSchedule(tc)
			if err != nil {
				t.Fatal(err)
			}
			peak := g.PredictPeak(tc)
			stats, err := core.Simulate(g.G, peak, sched)
			if err != nil {
				t.Fatalf("%s %v: %v", cfg.Name, tc, err)
			}
			if stats.Cost != g.PredictCost(tc) || stats.PeakRedWeight != peak {
				t.Errorf("%s %v: cost %d/%d peak %d/%d", cfg.Name, tc,
					stats.Cost, g.PredictCost(tc), stats.PeakRedWeight, peak)
			}
		}
	}
}

// TestTable1MVMAnchors reproduces the tiling rows of Table 1:
// 99 words (Equal) and 126 words (DA) for MVM(96,120).
func TestTable1MVMAnchors(t *testing.T) {
	cases := []struct {
		cfg   wcfg.Config
		words int
		bits  cdag.Weight
	}{
		{wcfg.Equal(16), 99, 1584},
		{wcfg.DoubleAccumulator(16), 126, 2016},
	}
	for _, c := range cases {
		g := buildOrFatal(t, 96, 120, c.cfg)
		got := g.MinMemory()
		if got != c.bits {
			t.Errorf("%s MVM(96,120) MinMemory = %d bits, want %d (%d words)", c.cfg.Name, got, c.bits, c.words)
		}
		// The winning strategy flips between configurations:
		// accumulator-priority for Equal, vector-priority for DA.
		acc := g.PredictPeak(TileConfig{Height: 96})
		vec := g.PredictPeak(TileConfig{Height: 1, ResidentVector: 120})
		if c.cfg.NodeWords == 1 && acc >= vec {
			t.Error("Equal: accumulator-priority should win")
		}
		if c.cfg.NodeWords == 2 && vec >= acc {
			t.Error("DA: vector-priority should win")
		}
	}
}

// TestCostAtMinMemoryIsLB: at MinMemory the searched cost equals the
// algorithmic lower bound; one word below it does not.
func TestCostAtMinMemoryIsLB(t *testing.T) {
	for _, cfg := range []wcfg.Config{wcfg.Equal(16), wcfg.DoubleAccumulator(16)} {
		for _, d := range []struct{ m, n int }{{96, 120}, {8, 5}, {5, 8}, {96, 10}} {
			g := buildOrFatal(t, d.m, d.n, cfg)
			b := g.MinMemory()
			lb := core.LowerBound(g.G)
			if got := g.MinCost(b); got != lb {
				t.Errorf("%s MVM(%d,%d): cost at MinMemory = %d, want LB %d", cfg.Name, d.m, d.n, got, lb)
			}
			if got := g.MinCost(b - 16); got == lb {
				t.Errorf("%s MVM(%d,%d): LB already met below MinMemory", cfg.Name, d.m, d.n)
			}
		}
	}
}

// TestSearchMonotone: more budget never increases the searched cost.
func TestSearchMonotone(t *testing.T) {
	g := buildOrFatal(t, 12, 10, wcfg.DoubleAccumulator(16))
	prev := Inf
	for b := cdag.Weight(64); b <= 1600; b += 16 {
		cur := g.MinCost(b)
		if cur > prev {
			t.Fatalf("cost not monotone at %d: %d > %d", b, cur, prev)
		}
		if cur < Inf {
			prev = cur
		}
	}
}

// TestSearchRespectsBudget: the chosen configuration's peak fits.
func TestSearchRespectsBudget(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 2+rng.Intn(12), 1+rng.Intn(12)
		cfgs := []wcfg.Config{wcfg.Equal(16), wcfg.DoubleAccumulator(16)}
		g, err := Build(m, n, cfgs[rng.Intn(2)])
		if err != nil {
			return false
		}
		b := g.TilingMinBudget() + cdag.Weight(rng.Intn(40))*16
		tc, cost, err := g.Search(b)
		if err != nil {
			return false
		}
		return g.PredictPeak(tc) <= b && cost == g.PredictCost(tc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSearchFailsBelowMinimum: budgets under the single-row peak have
// no tiling schedule.
func TestSearchFailsBelowMinimum(t *testing.T) {
	g := buildOrFatal(t, 4, 4, wcfg.Equal(16))
	if _, _, err := g.Search(g.TilingMinBudget() - 1); err == nil {
		t.Error("expected error below tiling minimum")
	}
	if got := g.MinCost(g.TilingMinBudget() - 1); got < Inf {
		t.Errorf("MinCost below minimum = %d, want Inf", got)
	}
}

// TestTilingNearExactOnSmall: on tiny MVMs the tiling scheduler
// matches the exhaustive optimum at generous budgets (both reach the
// algorithmic lower bound) and stays within the vector-reload
// overhead at the tightest tiling budget.
func TestTilingNearExactOnSmall(t *testing.T) {
	g := buildOrFatal(t, 2, 2, wcfg.Equal(1))
	big := g.G.TotalWeight()
	res, err := exact.Solve(g.G, big)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.MinCost(big); got != res.Cost {
		t.Errorf("tiling at full budget = %d, exact = %d", got, res.Cost)
	}
	// Tight budget: exact may exploit moves outside the tiling space,
	// so tiling is only an upper bound.
	tight := g.TilingMinBudget()
	resT, err := exact.Solve(g.G, tight)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.MinCost(tight); got < resT.Cost {
		t.Errorf("tiling beat the exact optimum: %d < %d", got, resT.Cost)
	}
}

// TestCandidates: heights cover every distinct tile count and stay
// within range.
func TestCandidates(t *testing.T) {
	g := buildOrFatal(t, 96, 120, wcfg.Equal(16))
	hs := g.Candidates()
	seen := map[int]bool{}
	for _, h := range hs {
		if h < 1 || h > 96 {
			t.Fatalf("candidate %d out of range", h)
		}
		q := (96 + h - 1) / h
		seen[q] = true
	}
	for q := 1; q <= 96; q++ {
		hMin := (96 + q - 1) / q
		qq := (96 + hMin - 1) / hMin
		if !seen[qq] {
			t.Errorf("tile count %d (via h=%d) not covered", qq, hMin)
		}
	}
}

// TestFig5MVMEndpoints: the tiling curve's endpoints match the
// closed-form worst case (h=1, vc=0) and the lower bound.
func TestFig5MVMEndpoints(t *testing.T) {
	g := buildOrFatal(t, 96, 120, wcfg.Equal(16))
	worst := g.MinCost(g.TilingMinBudget())
	if want := cdag.Weight(370176); worst != want {
		t.Errorf("Equal MVM(96,120) worst-case tiling cost = %d, want %d", worst, want)
	}
	best := g.MinCost(g.MinMemory())
	if best != core.LowerBound(g.G) {
		t.Errorf("best tiling cost %d != LB %d", best, core.LowerBound(g.G))
	}
}

func TestPredictPeakMonotoneInHeight(t *testing.T) {
	g := buildOrFatal(t, 16, 8, wcfg.DoubleAccumulator(16))
	prev := cdag.Weight(0)
	for h := 1; h <= 16; h++ {
		p := g.PredictPeak(TileConfig{Height: h})
		if p < prev {
			t.Fatalf("peak decreased at h=%d", h)
		}
		prev = p
	}
}

func TestTileConfigValidation(t *testing.T) {
	g := buildOrFatal(t, 4, 4, wcfg.Equal(16))
	for _, tc := range []TileConfig{{0, 0}, {5, 0}, {1, -1}, {1, 5}} {
		if _, err := g.TileSchedule(tc); err == nil {
			t.Errorf("TileSchedule(%v) should fail", tc)
		}
	}
	if s := (TileConfig{Height: 2, ResidentVector: 3}).String(); s == "" {
		t.Error("empty String()")
	}
}

func BenchmarkTileScheduleMVM96x120(b *testing.B) {
	g, err := Build(96, 120, wcfg.Equal(16))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := g.TileSchedule(TileConfig{Height: 96}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchMVM96x120(b *testing.B) {
	g, err := Build(96, 120, wcfg.Equal(16))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := g.Search(1584); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCandidatesDistinctAndComplete: adjacent-dedup yields every
// distinct ceil-division height exactly once, in decreasing order.
func TestCandidatesDistinctAndComplete(t *testing.T) {
	for _, m := range []int{2, 7, 96, 97} {
		g, err := Build(m, 3, wcfg.Equal(16))
		if err != nil {
			t.Fatal(err)
		}
		hs := g.Candidates()
		want := map[int]bool{}
		for q := 1; q <= m; q++ {
			want[(m+q-1)/q] = true
		}
		if len(hs) != len(want) {
			t.Fatalf("m=%d: %d candidates, want %d distinct", m, len(hs), len(want))
		}
		for i, h := range hs {
			if !want[h] {
				t.Fatalf("m=%d: unexpected height %d", m, h)
			}
			if i > 0 && hs[i-1] <= h {
				t.Fatalf("m=%d: candidates not strictly decreasing: %v", m, hs)
			}
		}
	}
}

func BenchmarkMinMemoryMVM96x120(b *testing.B) {
	g, err := Build(96, 120, wcfg.Equal(16))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.MinMemory()
	}
}
