// Package memdesign turns the WRBPG's minimum fast memory sizes
// (Definition 2.6) into concrete on-chip memory specifications:
// word-granular capacities and the power-of-two rounding used before
// physical synthesis (Section 5.3), plus the minimum-memory search
// the dwt and ktree schedulers share.
package memdesign

import (
	"fmt"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
)

// Spec is a fast-memory design point: the scheduler-derived minimum
// plus the synthesizable rounded capacity.
type Spec struct {
	// Words is the minimum fast memory size in memory words.
	Words int
	// WordBits is the word width in bits.
	WordBits int
	// MinBits is Words × WordBits — the "Minimum Capacity" column of
	// Table 1.
	MinBits cdag.Weight
	// Pow2Bits is MinBits rounded up to a power of two — the
	// "Power-of-Two Capacity" column, the size actually synthesized.
	Pow2Bits cdag.Weight
}

// NewSpec builds a Spec from a budget in bits (rounded up to whole
// words). It panics on a non-positive word size; use TrySpec when the
// word size comes from untrusted input (flags, config files).
func NewSpec(bits cdag.Weight, wordBits int) Spec {
	s, err := TrySpec(bits, wordBits)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// TrySpec is NewSpec returning an error instead of panicking on
// invalid parameters.
func TrySpec(bits cdag.Weight, wordBits int) (Spec, error) {
	if wordBits <= 0 {
		return Spec{}, fmt.Errorf("memdesign: word size must be positive, got %d", wordBits)
	}
	if bits < 0 {
		return Spec{}, fmt.Errorf("memdesign: capacity must be non-negative, got %d bits", bits)
	}
	wb := cdag.Weight(wordBits)
	words := int((bits + wb - 1) / wb)
	minBits := cdag.Weight(words) * wb
	return Spec{Words: words, WordBits: wordBits, MinBits: minBits, Pow2Bits: Pow2(minBits)}, nil
}

// Pow2WordCapacity returns the capacity rounded up to a power-of-two
// number of *words* — the rounding that stays synthesizable for word
// sizes that do not divide powers of two (e.g. 12-bit words), used by
// the mixed-precision design-space explorer.
func (s Spec) Pow2WordCapacity() cdag.Weight {
	return Pow2(cdag.Weight(s.Words)) * cdag.Weight(s.WordBits)
}

func (s Spec) String() string {
	return fmt.Sprintf("%d words × %d bits = %d bits (synthesized: %d)", s.Words, s.WordBits, s.MinBits, s.Pow2Bits)
}

// Pow2 rounds a positive capacity up to the next power of two.
func Pow2(bits cdag.Weight) cdag.Weight {
	if bits <= 0 {
		return 0
	}
	p := cdag.Weight(1)
	for p < bits {
		p <<= 1
	}
	return p
}

// Reduction returns the percent reduction from base to ours,
// e.g. Reduction(8192, 256) = 96.875.
func Reduction(base, ours cdag.Weight) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * float64(base-ours) / float64(base)
}

// CostFn maps a budget to a schedule cost; Inf-like sentinels mark
// infeasible budgets.
type CostFn func(budget cdag.Weight) cdag.Weight

// SearchMonotone finds the smallest budget in [lo, hi] (multiples of
// step) at which fn returns target, assuming fn is non-increasing in
// the budget. It returns an error when even hi misses the target.
func SearchMonotone(fn CostFn, target cdag.Weight, lo, hi, step cdag.Weight) (cdag.Weight, error) {
	if step <= 0 {
		step = 1
	}
	if r := lo % step; r != 0 {
		lo += step - r
	}
	if r := hi % step; r != 0 {
		hi += step - r
	}
	if fn(hi) != target {
		return 0, fmt.Errorf("memdesign: target cost %d not reached at budget %d", target, hi)
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		mid -= mid % step
		if mid < lo {
			mid = lo
		}
		if fn(mid) == target {
			hi = mid
		} else {
			lo = mid + step
		}
	}
	return hi, nil
}

// MinMemory returns the minimum fast memory size of Definition 2.6 for
// g: the smallest budget (on multiples of step) at which fn, a
// schedule cost non-increasing in the budget, meets the Proposition
// 2.4 lower bound. The search runs from the Proposition 2.3 existence
// bound up to the total weight, where every node fits at once.
func MinMemory(g *cdag.Graph, fn CostFn, step cdag.Weight) (cdag.Weight, error) {
	return SearchMonotone(fn, core.LowerBound(g), core.MinExistenceBudget(g), g.TotalWeight(), step)
}
