package bench

import (
	"bytes"
	"context"
	"testing"

	"wrbpg/internal/cdag"
	"wrbpg/internal/synth"
)

func TestLogBudgets(t *testing.T) {
	bs := LogBudgets(48, 8192, 1.3, 16)
	if len(bs) < 10 {
		t.Fatalf("too few budgets: %v", bs)
	}
	for i, b := range bs {
		if b%16 != 0 {
			t.Errorf("budget %d not word-aligned", b)
		}
		if i > 0 && bs[i] <= bs[i-1] {
			t.Errorf("budgets not strictly increasing: %v", bs)
		}
	}
	if bs[0] != 48 {
		t.Errorf("first budget %d, want 48", bs[0])
	}
}

// TestFig5DWTShape: the series obey LB ≤ Optimum ≤ LayerByLayer at
// every point, the optimum is non-increasing, and both converge to
// the lower bound.
func TestFig5DWTShape(t *testing.T) {
	for _, cfg := range Configs() {
		rows, err := Fig5DWT(context.Background(), cfg, 64, 6, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) < 5 {
			t.Fatalf("too few rows: %d", len(rows))
		}
		prevOpt := cdag.Weight(1 << 62)
		for _, r := range rows {
			if r.Optimum < r.AlgorithmicLB {
				t.Fatalf("%s b=%d: optimum %d below LB %d", cfg.Name, r.BudgetBits, r.Optimum, r.AlgorithmicLB)
			}
			if r.LayerByLayer < r.Optimum {
				t.Fatalf("%s b=%d: baseline %d below optimum %d", cfg.Name, r.BudgetBits, r.LayerByLayer, r.Optimum)
			}
			if r.Optimum > prevOpt {
				t.Fatalf("%s b=%d: optimum not non-increasing", cfg.Name, r.BudgetBits)
			}
			prevOpt = r.Optimum
		}
		last := rows[len(rows)-1]
		if last.Optimum != last.AlgorithmicLB || last.LayerByLayer != last.AlgorithmicLB {
			t.Errorf("%s: series do not converge to the LB: %+v", cfg.Name, last)
		}
	}
}

// TestFig5DWTAnchors: the Equal DWT(256,8) series starts at the known
// extremes of Figure 5a.
func TestFig5DWTAnchors(t *testing.T) {
	rows, err := Fig5DWT(context.Background(), Configs()[0], 256, 8, []cdag.Weight{48, 160, 7120}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].AlgorithmicLB != 8192 {
		t.Errorf("LB = %d, want 8192", rows[0].AlgorithmicLB)
	}
	// At the minimum feasible budget (3 words) every internal node of
	// the pruned tree spills exactly one child: 127 spills × 2 words
	// = 4064 extra bits over the LB. (Certified optimal against
	// exhaustive search on small instances in internal/dwt.)
	if rows[0].Optimum != 12256 {
		t.Errorf("optimum at 48 bits = %d, want 12256", rows[0].Optimum)
	}
	// At 160 bits (Table 1's minimum) the optimum meets the LB.
	if rows[1].Optimum != 8192 {
		t.Errorf("optimum at 160 bits = %d, want 8192", rows[1].Optimum)
	}
}

// TestFig5MVMShape: tiling never exceeds the IOOpt upper bound and
// sits at or above the algorithmic LB; all series decrease.
func TestFig5MVMShape(t *testing.T) {
	for _, cfg := range Configs() {
		rows, err := Fig5MVM(context.Background(), cfg, 24, 30, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) < 5 {
			t.Fatalf("too few rows")
		}
		for _, r := range rows {
			if r.IOOptUB < Inf() && r.Tiling > r.IOOptUB {
				t.Errorf("%s b=%d: tiling %d above IOOpt UB %d", cfg.Name, r.BudgetBits, r.Tiling, r.IOOptUB)
			}
		}
		last := rows[len(rows)-1]
		if last.Tiling >= last.IOOptUB {
			t.Errorf("%s: tiling should beat IOOpt UB at large memory (%d vs %d)", cfg.Name, last.Tiling, last.IOOptUB)
		}
	}
}

// Inf re-exports the mvm sentinel for test readability.
func Inf() cdag.Weight { return 1 << 60 }

// TestTable1Values pins every row of Table 1 (ours exactly; baseline
// rows at our implementation's measured values — see EXPERIMENTS.md).
func TestTable1Values(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	want := []struct {
		approach string
		words    int
		pow2     cdag.Weight
	}{
		{"Optimum*", 10, 256},
		{"Layer-by-Layer", 131, 4096},
		{"Optimum*", 18, 512},
		{"Layer-by-Layer", 260, 8192},
		{"Tiling*", 99, 2048},
		{"IOOpt UB", 193, 4096},
		{"Tiling*", 126, 2048},
		{"IOOpt UB", 289, 8192},
	}
	for i, w := range want {
		r := rows[i]
		if r.Approach != w.approach || r.Spec.Words != w.words || r.Spec.Pow2Bits != w.pow2 {
			t.Errorf("row %d: %s %d words pow2 %d; want %s %d words pow2 %d",
				i, r.Approach, r.Spec.Words, r.Spec.Pow2Bits, w.approach, w.words, w.pow2)
		}
	}
}

// TestFig7MemoryReductions: our designs are smaller and leak less
// than the corresponding baselines in every pair.
func TestFig7MemoryReductions(t *testing.T) {
	rows, err := Fig7(synth.TSMC65())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 0; i+1 < len(rows); i += 2 {
		ours, base := rows[i], rows[i+1]
		if !ours.Ours || base.Ours {
			t.Fatalf("pairing broken at %d", i)
		}
		if ours.Macro.AreaLambda2 >= base.Macro.AreaLambda2 {
			t.Errorf("%s %s: our area %.0f not below baseline %.0f", ours.Weights, ours.Workload, ours.Macro.AreaLambda2, base.Macro.AreaLambda2)
		}
		if ours.Macro.LeakageMW >= base.Macro.LeakageMW {
			t.Errorf("%s %s: our leakage not below baseline", ours.Weights, ours.Workload)
		}
		// Figures 7e/7f: performance stays comparable (within 20%).
		if ours.Macro.ReadGBs < base.Macro.ReadGBs*0.8 {
			t.Errorf("%s %s: our bandwidth degraded", ours.Weights, ours.Workload)
		}
	}
}

// TestFig8Pairs: four workload pairs with ours strictly smaller.
func TestFig8Pairs(t *testing.T) {
	pairs, err := Fig8(synth.TSMC65())
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 4 {
		t.Fatalf("pairs = %d, want 4", len(pairs))
	}
	for _, p := range pairs {
		oursA := p.Ours.Macro.WidthLambda * p.Ours.Macro.HeightLambda
		baseA := p.Baseline.Macro.WidthLambda * p.Baseline.Macro.HeightLambda
		if oursA >= baseA {
			t.Errorf("%s: our footprint %.0f not below baseline %.0f", p.Label, oursA, baseA)
		}
	}
}

// TestFig6DWTSmall: on a reduced range, the optimum needs no more
// memory than the baseline anywhere.
func TestFig6DWTSmall(t *testing.T) {
	for _, cfg := range Configs() {
		rows, err := Fig6DWT(context.Background(), cfg, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 32 {
			t.Fatalf("rows = %d, want 32", len(rows))
		}
		for _, r := range rows {
			if r.Optimum > r.LayerByLayer {
				t.Errorf("%s n=%d: optimum %d above baseline %d", cfg.Name, r.N, r.Optimum, r.LayerByLayer)
			}
			if r.D != 0 && r.N%(1<<uint(r.D)) != 0 {
				t.Errorf("n=%d: d*=%d not admissible", r.N, r.D)
			}
		}
	}
}

// TestFig6MVMSmall: tiling stays at or below IOOpt UB across n, and
// the Equal curve flattens at m+3 words once n is large.
func TestFig6MVMSmall(t *testing.T) {
	rows, err := Fig6MVM(context.Background(), Configs()[0], 24, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 40 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Tiling > r.IOOptUB {
			t.Errorf("n=%d: tiling %d above IOOpt UB %d", r.N, r.Tiling, r.IOOptUB)
		}
	}
	// m+3 words for m=24 at n ≥ m.
	if rows[39].Tiling != 27*16 {
		t.Errorf("tiling at n=40 = %d bits, want %d", rows[39].Tiling, 27*16)
	}
}

func TestWriteTable(t *testing.T) {
	var buf bytes.Buffer
	err := WriteTable(&buf, []string{"a", "b"}, [][]string{{"1", "2"}, {"333", "4"}})
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty table")
	}
}
