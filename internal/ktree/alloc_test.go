package ktree

import (
	"testing"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
)

// TestPtMemoHitZeroAlloc: a warm Pt(v, b) cell costs one binary search
// over the node's interval row — no allocations.
func TestPtMemoHitZeroAlloc(t *testing.T) {
	tr, err := FullTree(4, 2, func(d, i int) cdag.Weight { return 1 + cdag.Weight((d+i)%2) })
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(tr)
	b := core.MinExistenceBudget(tr.G) + 2
	want := s.MinCost(b) // warm every cell this query touches
	if n := testing.AllocsPerRun(100, func() {
		if got := s.MinCost(b); got != want {
			t.Fatalf("cost changed: %d != %d", got, want)
		}
	}); n != 0 {
		t.Errorf("memo-hit MinCost allocates %v times per run, want 0", n)
	}
}

func BenchmarkFullTreeBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FullTree(2, 7, func(d, i int) cdag.Weight { return 1 }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinCostWarmK4(b *testing.B) {
	tr, err := FullTree(4, 3, func(d, i int) cdag.Weight { return 1 + cdag.Weight((d+i)%2) })
	if err != nil {
		b.Fatal(err)
	}
	s := NewScheduler(tr)
	budget := core.MinExistenceBudget(tr.G) + 3
	s.MinCost(budget)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MinCost(budget)
	}
}
