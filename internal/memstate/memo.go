package memstate

import (
	"wrbpg/internal/bitset"
	"wrbpg/internal/cdag"
	"wrbpg/internal/stepmemo"
)

// ancestorMasks precomputes, for every node u, the mask
// pred(u) ∪ {u}; restricting a state to u's subtree (X_u of Eq. 8) is
// then a single intersection. Insertion order is topological by
// construction, so one forward pass suffices.
func ancestorMasks(g *cdag.Graph) []bitset.Set {
	masks := make([]bitset.Set, g.Len())
	for v := 0; v < g.Len(); v++ {
		m := bitset.New(cdag.NodeID(v))
		for _, p := range g.Parents(cdag.NodeID(v)) {
			m = m.Or(masks[p])
		}
		masks[v] = m
	}
	return masks
}

// pmKey is the packed budget-free DP state of Eq. 8: target node and
// the handles of the initial and reuse sets. The budget is *not* part
// of the key — Pm(v, ·, I, R) is a non-increasing step function of
// the budget, so each key owns a stepmemo.Row of budget intervals on
// which the value is constant. It is a comparable struct, so memo
// lookups build no strings and perform zero allocations.
type pmKey struct {
	v          cdag.NodeID
	ini, reuse uint64
}

// hash mixes the three key fields; it must stay inlinable — it runs
// on every memo probe, warm or cold.
func (k pmKey) hash() uint64 {
	h := uint64(uint32(k.v)) * 0x9E3779B97F4A7C15
	h ^= k.ini * 0x165667B19E3779F9
	h ^= k.reuse * 0x27D4EB2F165667C5
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	return h ^ h>>29
}

// pmTable is the Pm memo: an open-addressed hash table with linear
// probing, specialized to pmKey, whose slots hold stepmemo rows.
// Probing a flat slot array with an inlined integer hash skips the
// runtime's generic hashing and bucket walk. The zero value is an
// empty table. There is no deletion: a Scheduler memoizes one
// weighting of its tree.
type pmTable struct {
	mask  uint64
	n     int
	slots []pmSlot
}

type pmSlot struct {
	key  pmKey
	row  stepmemo.Row[cdag.Weight]
	full bool
}

// get returns k's memoized step covering budget b, or nil. It
// allocates nothing.
func (t *pmTable) get(k pmKey, b cdag.Weight) *stepmemo.Step[cdag.Weight] {
	if t.slots == nil {
		return nil
	}
	for i := k.hash() & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if !s.full {
			return nil
		}
		if s.key == k {
			return s.row.Find(b)
		}
	}
}

// row returns k's row, claiming an empty slot for it first if needed.
func (t *pmTable) row(k pmKey) *stepmemo.Row[cdag.Weight] {
	// Grow at 3/4 occupancy so probe chains stay short.
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	for i := k.hash() & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if !s.full {
			s.key, s.full = k, true
			t.n++
			return &s.row
		}
		if s.key == k {
			return &s.row
		}
	}
}

func (t *pmTable) grow() {
	old := t.slots
	size := 256
	if len(old) > 0 {
		size = len(old) * 2
	}
	t.slots = make([]pmSlot, size)
	t.mask = uint64(size - 1)
	for i := range old {
		if !old[i].full {
			continue
		}
		for j := old[i].key.hash() & t.mask; ; j = (j + 1) & t.mask {
			if !t.slots[j].full {
				t.slots[j] = old[i]
				break
			}
		}
	}
}
