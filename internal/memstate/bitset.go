package memstate

import (
	"encoding/binary"
	"math/bits"

	"wrbpg/internal/cdag"
	"wrbpg/internal/stepmemo"
)

// Bitset is a packed set of node IDs: bit j of word i holds node
// 64·i + j. The zero value is the empty set. Sets over graphs with at
// most 64 nodes — every tree the paper's experiments schedule — live
// entirely in the inline first word, so copying, intersecting and
// hashing them never allocates; wider sets spill into ext.
//
// Bitsets are immutable values: With and and return new sets and the
// ext slice, once created, is never written through.
type Bitset struct {
	w0  uint64
	ext []uint64 // words 1+; normalized: never ends in a zero word
}

// NewBitset builds a set from IDs.
func NewBitset(ids ...cdag.NodeID) Bitset {
	var s Bitset
	for _, id := range ids {
		s = s.With(id)
	}
	return s
}

// Has reports whether v is a member.
func (s Bitset) Has(v cdag.NodeID) bool {
	w, b := int(v)>>6, uint(v)&63
	if w == 0 {
		return s.w0&(1<<b) != 0
	}
	if w-1 >= len(s.ext) {
		return false
	}
	return s.ext[w-1]&(1<<b) != 0
}

// With returns s ∪ {v}.
func (s Bitset) With(v cdag.NodeID) Bitset {
	w, b := int(v)>>6, uint(v)&63
	if w == 0 {
		return Bitset{w0: s.w0 | 1<<b, ext: s.ext}
	}
	n := len(s.ext)
	if w > n {
		n = w
	}
	ext := make([]uint64, n)
	copy(ext, s.ext)
	ext[w-1] |= 1 << b
	return Bitset{w0: s.w0, ext: ext}
}

// Without returns s \ {v}. Like With it never mutates the receiver's
// storage, and it keeps the no-trailing-zero-word normalization so
// equal sets always share one packed representation.
func (s Bitset) Without(v cdag.NodeID) Bitset {
	if !s.Has(v) {
		return s
	}
	w, b := int(v)>>6, uint(v)&63
	if w == 0 {
		return Bitset{w0: s.w0 &^ (1 << b), ext: s.ext}
	}
	ext := make([]uint64, len(s.ext))
	copy(ext, s.ext)
	ext[w-1] &^= 1 << b
	for len(ext) > 0 && ext[len(ext)-1] == 0 {
		ext = ext[:len(ext)-1]
	}
	if len(ext) == 0 {
		ext = nil
	}
	return Bitset{w0: s.w0, ext: ext}
}

// Equal reports whether s and o hold the same members. Normalization
// (no trailing zero words) makes this a word-by-word comparison.
func (s Bitset) Equal(o Bitset) bool {
	if s.w0 != o.w0 || len(s.ext) != len(o.ext) {
		return false
	}
	for i, w := range s.ext {
		if o.ext[i] != w {
			return false
		}
	}
	return true
}

// Hash mixes the set's words into a 64-bit hash, seeded so composite
// keys (several bitsets) can chain hashes without collapsing on equal
// components. The mixing constants match pmKey.hash.
func (s Bitset) Hash(seed uint64) uint64 {
	h := seed*0x9E3779B97F4A7C15 + 0x27D4EB2F165667C5
	mix := func(w uint64) {
		h ^= w * 0x165667B19E3779F9
		h ^= h >> 32
		h *= 0xD6E8FEB86659FD93
	}
	mix(s.w0)
	for _, w := range s.ext {
		mix(w)
	}
	return h ^ h>>29
}

// Empty reports whether the set has no members.
func (s Bitset) Empty() bool { return s.w0 == 0 && len(s.ext) == 0 }

// Count returns the number of members.
func (s Bitset) Count() int {
	n := bits.OnesCount64(s.w0)
	for _, w := range s.ext {
		n += bits.OnesCount64(w)
	}
	return n
}

// and returns s ∩ o without allocating when both sets fit the inline
// word — the restrict operation of Eq. 8 on the hot path.
func (s Bitset) and(o Bitset) Bitset {
	out := Bitset{w0: s.w0 & o.w0}
	n := len(s.ext)
	if len(o.ext) < n {
		n = len(o.ext)
	}
	// Trim trailing zero words up front so equal sets always share one
	// packed representation.
	for n > 0 && s.ext[n-1]&o.ext[n-1] == 0 {
		n--
	}
	if n > 0 {
		ext := make([]uint64, n)
		for i := 0; i < n; i++ {
			ext[i] = s.ext[i] & o.ext[i]
		}
		out.ext = ext
	}
	return out
}

// or returns s ∪ o; used when precomputing ancestor masks.
func (s Bitset) or(o Bitset) Bitset {
	out := Bitset{w0: s.w0 | o.w0}
	n := len(s.ext)
	if len(o.ext) > n {
		n = len(o.ext)
	}
	if n > 0 {
		ext := make([]uint64, n)
		copy(ext, s.ext)
		for i, w := range o.ext {
			ext[i] |= w
		}
		out.ext = ext
	}
	return out
}

// ForEach calls f with every member in ascending order.
func (s Bitset) ForEach(f func(cdag.NodeID)) {
	for w := s.w0; w != 0; w &= w - 1 {
		f(cdag.NodeID(bits.TrailingZeros64(w)))
	}
	for i, word := range s.ext {
		base := (i + 1) << 6
		for w := word; w != 0; w &= w - 1 {
			f(cdag.NodeID(base + bits.TrailingZeros64(w)))
		}
	}
}

// Sorted returns the members in ascending order.
func (s Bitset) Sorted() []cdag.NodeID {
	out := make([]cdag.NodeID, 0, s.Count())
	s.ForEach(func(v cdag.NodeID) { out = append(out, v) })
	return out
}

// Weight sums the weights of the members. It iterates set bits
// directly and never allocates.
func (s Bitset) Weight(g *cdag.Graph) cdag.Weight {
	var total cdag.Weight
	for w := s.w0; w != 0; w &= w - 1 {
		total += g.Weight(cdag.NodeID(bits.TrailingZeros64(w)))
	}
	for i, word := range s.ext {
		base := (i + 1) << 6
		for w := word; w != 0; w &= w - 1 {
			total += g.Weight(cdag.NodeID(base + bits.TrailingZeros64(w)))
		}
	}
	return total
}

// setIndex maps bitsets to the uint64 handles used inside comparable
// memo keys. Graphs with at most 64 nodes need no table at all: the
// inline word is the handle. Wider graphs intern each distinct set
// once and hand out its dense index, so memo lookups stay
// allocation-free in both modes.
type setIndex struct {
	wide    bool
	ids     map[string]uint64
	scratch []byte
}

func newSetIndex(n int) *setIndex {
	ix := &setIndex{wide: n > 64}
	if ix.wide {
		ix.ids = make(map[string]uint64)
	}
	return ix
}

// handle returns the memo handle of s: the packed word for narrow
// graphs, the interned index for wide ones. Only the first occurrence
// of a distinct wide set allocates (its intern entry). The narrow case
// must stay inlinable — it sits on the warm memo-probe path of every
// DP cell — so the wide machinery lives in handleWide.
func (ix *setIndex) handle(s Bitset) uint64 {
	if !ix.wide {
		return s.w0
	}
	return ix.handleWide(s)
}

func (ix *setIndex) handleWide(s Bitset) uint64 {
	buf := ix.scratch[:0]
	buf = binary.LittleEndian.AppendUint64(buf, s.w0)
	for _, w := range s.ext {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	ix.scratch = buf
	if h, ok := ix.ids[string(buf)]; ok {
		return h
	}
	h := uint64(len(ix.ids))
	ix.ids[string(buf)] = h
	return h
}

// ancestorMasks precomputes, for every node u, the mask
// pred(u) ∪ {u}; restricting a state to u's subtree (X_u of Eq. 8) is
// then a single intersection. Insertion order is topological by
// construction, so one forward pass suffices.
func ancestorMasks(g *cdag.Graph) []Bitset {
	masks := make([]Bitset, g.Len())
	for v := 0; v < g.Len(); v++ {
		m := NewBitset(cdag.NodeID(v))
		for _, p := range g.Parents(cdag.NodeID(v)) {
			m = m.or(masks[p])
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
// empty table; there is no deletion — a patch bumps the generations
// of the changed nodes' root chains (stepmemo.Memo.Patch), and their
// rows read as empty until their next store resets them in place.
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

// get returns k's memoized step covering budget b under the current
// generation of k's node, or nil. It allocates nothing.
func (t *pmTable) get(m *stepmemo.Memo, k pmKey, b cdag.Weight) *stepmemo.Step[cdag.Weight] {
	if t.slots == nil {
		return nil
	}
	for i := k.hash() & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if !s.full {
			return nil
		}
		if s.key == k {
			return s.row.Find(m.Gen(k.v), b)
		}
	}
}

// store memoizes cost on [lo, hi] for k, computed at the uncovered
// budget b, unless m.Admit refuses it, and returns the triple a Pm
// cell returns (as stepmemo.Rows.Store does).
func (t *pmTable) store(m *stepmemo.Memo, k pmKey, b, lo, hi, cost cdag.Weight) (cdag.Weight, cdag.Weight, cdag.Weight) {
	if m.Admit() {
		t.row(k).Store(m, k.v, b, stepmemo.Step[cdag.Weight]{Lo: lo, Hi: hi, V: cost})
	}
	return cost, lo, hi
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
