// Duplicate-state suppression: a sharded open-addressed hash table
// mapping (done, red, blue) to the cheapest cost reaching that class,
// in the style of memstate's pmTable (flat slot array, inlined integer
// hash, linear probing, grow at 3/4 occupancy) but with packed
// bitset.Set keys and a mutex per shard — different shards insert
// concurrently, and the hash picking the shard is the same one probing
// the slots, so contention spreads with the key space.

package anytime

import (
	"sync"

	"wrbpg/internal/bitset"
	"wrbpg/internal/cdag"
)

// visitedShards is the fixed shard count; a power of two so the shard
// picker is a mask over bits the in-shard probe does not reuse.
const visitedShards = 16

type vSlot struct {
	hash uint64
	done bitset.Set
	red  bitset.Set
	blue bitset.Set
	cost cdag.Weight
	full bool
}

type visitedShard struct {
	mu    sync.Mutex
	mask  uint64
	n     int
	slots []vSlot
}

// visitShard picks the shard from the high hash bits; the low bits
// drive the in-shard probe sequence.
func (s *searcher) visitShard(h uint64) *visitedShard {
	return &s.visited[(h>>48)&(visitedShards-1)]
}

// insert records st's class at its cost. It returns false when an
// equal-or-cheaper visit of the same (done, red, blue) class already
// exists — the caller drops the duplicate. A costlier prior visit is
// overwritten (the cheaper realization dominates it).
func (t *visitedShard) insert(h uint64, st *state) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		sl := &t.slots[i]
		if !sl.full {
			*sl = vSlot{hash: h, done: st.done, red: st.red, blue: st.blue, cost: st.cost, full: true}
			t.n++
			return true
		}
		if sl.hash == h && sl.done.Equal(st.done) && sl.red.Equal(st.red) && sl.blue.Equal(st.blue) {
			if sl.cost <= st.cost {
				return false
			}
			sl.cost = st.cost
			return true
		}
	}
}

func (t *visitedShard) grow() {
	old := t.slots
	size := 256
	if len(old) > 0 {
		size = len(old) * 2
	}
	t.slots = make([]vSlot, size)
	t.mask = uint64(size - 1)
	for i := range old {
		if !old[i].full {
			continue
		}
		for j := old[i].hash & t.mask; ; j = (j + 1) & t.mask {
			if !t.slots[j].full {
				t.slots[j] = old[i]
				break
			}
		}
	}
}
