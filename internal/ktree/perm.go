package ktree

import (
	"fmt"
	"sync"
)

// Parent-order tables for the strategy enumerations of Eq. 3/Eq. 6:
// every DP cell that minimizes over parent orders σ iterates the same
// k! rows instead of regenerating them with Heap's algorithm. Tables
// are built once per arity and cached for the life of the process;
// Σ_{k≤MaxK} k!·k ≈ 0.4 MB of uint8s at MaxK = 8.
var (
	perms     [MaxK + 1][][]uint8
	permsOnce [MaxK + 1]sync.Once
)

// permTable returns all k! permutations of {0, …, k-1} as rows of a
// shared table. Rows are aliased, not copied: callers must not mutate
// them. Row 0 is always the identity permutation. It panics for k
// outside [0, MaxK]; New rejects such trees first.
func permTable(k int) [][]uint8 {
	if k < 0 || k > MaxK {
		panic(fmt.Sprintf("ktree: arity %d out of range [0,%d]", k, MaxK))
	}
	permsOnce[k].Do(func() { perms[k] = buildPerms(k) })
	return perms[k]
}

// permCount returns k!.
func permCount(k int) int {
	n := 1
	for i := 2; i <= k; i++ {
		n *= i
	}
	return n
}

// buildPerms enumerates the permutations with Heap's algorithm,
// emitting the identity first, and freezes them into one table.
func buildPerms(k int) [][]uint8 {
	p := make([]uint8, k)
	for i := range p {
		p[i] = uint8(i)
	}
	// One backing array for all rows keeps the table cache-friendly.
	backing := make([]uint8, 0, permCount(k)*k)
	out := make([][]uint8, 0, permCount(k))
	emit := func() {
		backing = append(backing, p...)
		out = append(out, backing[len(backing)-k:])
	}
	if k == 0 {
		out = append(out, []uint8{})
		return out
	}
	var rec func(n int)
	rec = func(n int) {
		if n == 1 {
			emit()
			return
		}
		for i := 0; i < n; i++ {
			rec(n - 1)
			if n%2 == 0 {
				p[i], p[n-1] = p[n-1], p[i]
			} else {
				p[0], p[n-1] = p[n-1], p[0]
			}
		}
	}
	rec(k)
	return out
}
