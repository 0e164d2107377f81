// Package bitset is the packed node-set representation shared by the
// memory-state DP (package memstate, whose Eq. 8 states I and R are
// sets) and the anytime search (package anytime, whose search states
// are done/red/blue sets). It is the one place that knows how a set
// is packed into words and interned into comparable memo handles.
package bitset

import (
	"encoding/binary"
	"math/bits"

	"wrbpg/internal/cdag"
)

// Set is a packed set of node IDs: bit j of word i holds node
// 64·i + j. The zero value is the empty set. Sets over graphs with at
// most 64 nodes — every tree the paper's experiments schedule — live
// entirely in the inline first word, so copying, intersecting and
// hashing them never allocates; wider sets spill into ext.
//
// Sets are immutable values: every method returns a new set and the
// ext slice, once created, is never written through.
type Set struct {
	w0  uint64
	ext []uint64 // words 1+; normalized: never ends in a zero word
}

// New builds a set from IDs.
func New(ids ...cdag.NodeID) Set {
	var s Set
	for _, id := range ids {
		s = s.With(id)
	}
	return s
}

// Has reports whether v is a member.
func (s Set) Has(v cdag.NodeID) bool {
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
func (s Set) With(v cdag.NodeID) Set {
	w, b := int(v)>>6, uint(v)&63
	if w == 0 {
		return Set{w0: s.w0 | 1<<b, ext: s.ext}
	}
	n := len(s.ext)
	if w > n {
		n = w
	}
	ext := make([]uint64, n)
	copy(ext, s.ext)
	ext[w-1] |= 1 << b
	return Set{w0: s.w0, ext: ext}
}

// Without returns s \ {v}. Like With it never mutates the receiver's
// storage, and it keeps the no-trailing-zero-word normalization so
// equal sets always share one packed representation.
func (s Set) Without(v cdag.NodeID) Set {
	if !s.Has(v) {
		return s
	}
	w, b := int(v)>>6, uint(v)&63
	if w == 0 {
		return Set{w0: s.w0 &^ (1 << b), ext: s.ext}
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
	return Set{w0: s.w0, ext: ext}
}

// Equal reports whether s and o hold the same members. Normalization
// (no trailing zero words) makes this a word-by-word comparison.
func (s Set) Equal(o Set) bool {
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
// keys (several sets) can chain hashes without collapsing on equal
// components.
func (s Set) Hash(seed uint64) uint64 {
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
func (s Set) Empty() bool { return s.w0 == 0 && len(s.ext) == 0 }

// Count returns the number of members.
func (s Set) Count() int {
	n := bits.OnesCount64(s.w0)
	for _, w := range s.ext {
		n += bits.OnesCount64(w)
	}
	return n
}

// And returns s ∩ o without allocating when both sets fit the inline
// word — the restrict operation of Eq. 8 on the DP's hot path.
func (s Set) And(o Set) Set {
	out := Set{w0: s.w0 & o.w0}
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

// Or returns s ∪ o.
func (s Set) Or(o Set) Set {
	out := Set{w0: s.w0 | o.w0}
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
func (s Set) ForEach(f func(cdag.NodeID)) {
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
func (s Set) Sorted() []cdag.NodeID {
	out := make([]cdag.NodeID, 0, s.Count())
	s.ForEach(func(v cdag.NodeID) { out = append(out, v) })
	return out
}

// Weight sums the weights of the members. It iterates set bits
// directly and never allocates.
func (s Set) Weight(g *cdag.Graph) cdag.Weight {
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

// Index maps sets to the uint64 handles used inside comparable memo
// keys. Graphs with at most 64 nodes need no table at all: the inline
// word is the handle. Wider graphs intern each distinct set once and
// hand out its dense index, so memo lookups stay allocation-free in
// both modes.
type Index struct {
	wide    bool
	ids     map[string]uint64
	scratch []byte
}

// NewIndex returns the handle index for sets over an n-node graph.
func NewIndex(n int) *Index {
	ix := &Index{wide: n > 64}
	if ix.wide {
		ix.ids = make(map[string]uint64)
	}
	return ix
}

// Handle returns the memo handle of s: the packed word for narrow
// graphs, the interned index for wide ones. Only the first occurrence
// of a distinct wide set allocates (its intern entry). The narrow case
// must stay inlinable — it sits on the warm memo-probe path of every
// DP cell — so the wide machinery lives in handleWide.
func (ix *Index) Handle(s Set) uint64 {
	if !ix.wide {
		return s.w0
	}
	return ix.handleWide(s)
}

func (ix *Index) handleWide(s Set) uint64 {
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
