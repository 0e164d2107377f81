package memdesign

import (
	"testing"
	"testing/quick"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
)

func TestPow2(t *testing.T) {
	cases := map[cdag.Weight]cdag.Weight{
		1: 1, 2: 2, 3: 4, 160: 256, 288: 512, 1584: 2048, 2016: 2048,
		3088: 4096, 4624: 8192, 7120: 8192, 10176: 16384, 4096: 4096,
	}
	for in, want := range cases {
		if got := Pow2(in); got != want {
			t.Errorf("Pow2(%d) = %d, want %d", in, got, want)
		}
	}
	if Pow2(0) != 0 || Pow2(-5) != 0 {
		t.Error("Pow2 of non-positive should be 0")
	}
}

func TestPow2Property(t *testing.T) {
	f := func(x uint16) bool {
		if x == 0 {
			return true
		}
		p := Pow2(cdag.Weight(x))
		return p >= cdag.Weight(x) && p < 2*cdag.Weight(x) && p&(p-1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTable1Specs reproduces the word/bit/pow-2 columns of Table 1
// for our approaches' minimum sizes.
func TestTable1Specs(t *testing.T) {
	cases := []struct {
		bits  cdag.Weight
		words int
		pow2  cdag.Weight
	}{
		{160, 10, 256},    // Optimum Equal DWT
		{288, 18, 512},    // Optimum DA DWT
		{1584, 99, 2048},  // Tiling Equal MVM
		{2016, 126, 2048}, // Tiling DA MVM
		{3088, 193, 4096}, // IOOpt UB Equal MVM
		{4624, 289, 8192}, // IOOpt UB DA MVM
	}
	for _, c := range cases {
		s := NewSpec(c.bits, 16)
		if s.Words != c.words || s.MinBits != c.bits || s.Pow2Bits != c.pow2 {
			t.Errorf("NewSpec(%d): %+v, want words=%d pow2=%d", c.bits, s, c.words, c.pow2)
		}
	}
}

func TestNewSpecRoundsUp(t *testing.T) {
	s := NewSpec(17, 16)
	if s.Words != 2 || s.MinBits != 32 {
		t.Errorf("NewSpec(17,16) = %+v, want 2 words / 32 bits", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestPow2WordCapacity(t *testing.T) {
	s := NewSpec(120, 12) // 10 words of 12 bits
	if s.Words != 10 {
		t.Fatalf("words = %d", s.Words)
	}
	if got := s.Pow2WordCapacity(); got != 16*12 {
		t.Errorf("Pow2WordCapacity = %d, want 192", got)
	}
	// For 16-bit words it agrees with the bit rounding of Table 1.
	s16 := NewSpec(160, 16)
	if s16.Pow2WordCapacity() != s16.Pow2Bits {
		t.Errorf("16-bit pow2 forms disagree: %d vs %d", s16.Pow2WordCapacity(), s16.Pow2Bits)
	}
}

func TestReduction(t *testing.T) {
	if got := Reduction(8192, 256); got < 96.8 || got > 96.9 {
		t.Errorf("Reduction(8192,256) = %f", got)
	}
	if got := Reduction(0, 10); got != 0 {
		t.Errorf("Reduction with zero base = %f", got)
	}
	if got := Reduction(100, 100); got != 0 {
		t.Errorf("Reduction equal = %f", got)
	}
}

func TestSearchMonotone(t *testing.T) {
	// Step cost: 100 above budget 50, 10 at or above.
	fn := func(b cdag.Weight) cdag.Weight {
		if b >= 50 {
			return 10
		}
		return 100
	}
	got, err := SearchMonotone(fn, 10, 1, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Errorf("SearchMonotone = %d, want 50", got)
	}
	// Step alignment: with step 16 the answer rounds up to 64.
	got, err = SearchMonotone(fn, 10, 16, 1024, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got != 64 {
		t.Errorf("SearchMonotone step 16 = %d, want 64", got)
	}
	if _, err := SearchMonotone(fn, 5, 1, 1000, 1); err == nil {
		t.Error("unreachable target should error")
	}
}

func TestSearchAgreesOnMonotone(t *testing.T) {
	f := func(cut uint8) bool {
		threshold := cdag.Weight(cut%97) + 1
		fn := func(b cdag.Weight) cdag.Weight {
			if b >= threshold {
				return 0
			}
			return 1
		}
		a, err := SearchMonotone(fn, 0, 1, 200, 1)
		b := cdag.Weight(1) // a linear scan for the first budget hitting the target
		for b <= 200 && fn(b) != 0 {
			b++
		}
		return err == nil && a == b && a == threshold
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMinMemory: the Definition 2.6 search targets the Proposition 2.4
// lower bound between the existence bound and the total weight.
func TestMinMemory(t *testing.T) {
	// a(4), b(4) → c(8) → d(16): LB = 4+4+16 = 24, existence bound
	// 16+8 = 24 (computing d), total weight 32.
	g := &cdag.Graph{}
	a := g.AddNode(4, "a")
	b := g.AddNode(4, "b")
	c := g.AddNode(8, "c", a, b)
	g.AddNode(16, "d", c)
	lb := core.LowerBound(g)
	var probes []cdag.Weight
	fn := func(budget cdag.Weight) cdag.Weight {
		probes = append(probes, budget)
		if budget >= 30 {
			return lb
		}
		return lb + 8
	}
	got, err := MinMemory(g, fn, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 32 {
		t.Errorf("MinMemory = %d, want 32 (30 rounded up to the 4-bit step)", got)
	}
	lo, hi := core.MinExistenceBudget(g), g.TotalWeight()
	for _, p := range probes {
		if p < lo || p > hi {
			t.Errorf("probe %d outside [%d, %d]", p, lo, hi)
		}
	}
	never := func(cdag.Weight) cdag.Weight { return lb + 1 }
	if _, err := MinMemory(g, never, 4); err == nil {
		t.Error("a cost that never meets the lower bound should error")
	}
}
