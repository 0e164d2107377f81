package dse

import (
	"testing"

	"wrbpg/internal/energy"
	"wrbpg/internal/synth"
)

func TestPrecisions(t *testing.T) {
	cfgs := Precisions([]int{8, 16}, []int{1, 2})
	if len(cfgs) != 4 {
		t.Fatalf("grid size = %d", len(cfgs))
	}
	if cfgs[0].WordBits != 8 || cfgs[0].NodeWords != 1 {
		t.Errorf("first config = %+v", cfgs[0])
	}
	if cfgs[3].WordBits != 16 || cfgs[3].Node() != 32 {
		t.Errorf("last config = %+v", cfgs[3])
	}
	for _, c := range cfgs {
		if c.Name == "" {
			t.Error("unnamed config")
		}
	}
}

func TestExploreDWT(t *testing.T) {
	cfgs := Precisions([]int{8, 16}, []int{1, 2})
	pts, err := ExploreDWT(64, 6, cfgs, synth.TSMC65(), energy.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.MinMemoryBits <= 0 || p.CostBits <= 0 || p.Energy.TotalPJ <= 0 {
			t.Errorf("%s: degenerate point %+v", p.Cfg.Name, p)
		}
		if p.Spec.Pow2Bits < p.MinMemoryBits {
			t.Errorf("%s: pow2 below minimum", p.Cfg.Name)
		}
	}
	// Narrower words must never need more memory or energy than the
	// same structure at wider words.
	if pts[0].MinMemoryBits >= pts[2].MinMemoryBits {
		t.Errorf("8-bit min memory %d not below 16-bit %d", pts[0].MinMemoryBits, pts[2].MinMemoryBits)
	}
	if pts[0].Energy.TotalPJ >= pts[2].Energy.TotalPJ {
		t.Errorf("8-bit energy not below 16-bit")
	}
}

func TestPareto(t *testing.T) {
	cfgs := Precisions([]int{8, 12, 16}, []int{1, 2})
	pts, err := ExploreDWT(32, 5, cfgs, synth.TSMC65(), energy.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	front := Pareto(pts)
	if len(front) == 0 || len(front) > len(pts) {
		t.Fatalf("front size = %d", len(front))
	}
	// The frontier is sorted by precision and strictly improving in
	// energy as precision drops.
	for i := 1; i < len(front); i++ {
		if front[i].Cfg.WordBits < front[i-1].Cfg.WordBits {
			t.Error("front not sorted by precision")
		}
	}
	// No frontier point is dominated by any grid point.
	for _, f := range front {
		for _, p := range pts {
			if p.Cfg.WordBits >= f.Cfg.WordBits && p.Energy.TotalPJ < f.Energy.TotalPJ {
				t.Errorf("front point %s dominated by %s", f.Cfg.Name, p.Cfg.Name)
			}
		}
	}
	// At each precision level exactly the cheapest accumulator
	// variant can survive.
	seen := map[int]int{}
	for _, f := range front {
		seen[f.Cfg.WordBits]++
	}
	for wb, cnt := range seen {
		if cnt > 1 {
			t.Errorf("precision %d has %d frontier points", wb, cnt)
		}
	}
}
