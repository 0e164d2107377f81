package bitset

import (
	"testing"

	"wrbpg/internal/cdag"
)

func TestBitsetNarrowOps(t *testing.T) {
	s := New(0, 3, 63)
	if !s.Has(0) || !s.Has(3) || !s.Has(63) || s.Has(1) || s.Has(64) {
		t.Errorf("membership wrong: %v", s.Sorted())
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d", s.Count())
	}
	s2 := s.With(5)
	if s.Has(5) {
		t.Error("With mutated the receiver")
	}
	if !s2.Has(5) || s2.Count() != 4 {
		t.Error("With missed")
	}
	if !(Set{}).Empty() || s.Empty() {
		t.Error("Empty wrong")
	}
	// With is idempotent.
	if s3 := s.With(3); s3.Count() != 3 {
		t.Error("duplicate With changed count")
	}
}

func TestBitsetWideOps(t *testing.T) {
	s := New(1, 64, 130, 200)
	for _, v := range []cdag.NodeID{1, 64, 130, 200} {
		if !s.Has(v) {
			t.Errorf("missing %d", v)
		}
	}
	if s.Has(65) || s.Has(199) {
		t.Error("spurious member")
	}
	ids := s.Sorted()
	want := []cdag.NodeID{1, 64, 130, 200}
	if len(ids) != len(want) {
		t.Fatalf("Sorted = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("Sorted = %v", ids)
		}
	}
	// And/Or across the inline/ext boundary, including trailing-word
	// normalization: and-ing away all high bits must compare equal to
	// an inline-only set under the intern index.
	a := New(1, 64)
	b := New(1, 2)
	got := a.And(b)
	if got.Count() != 1 || !got.Has(1) {
		t.Errorf("And = %v", got.Sorted())
	}
	ix := NewIndex(256)
	if ix.Handle(got) != ix.Handle(New(1)) {
		t.Error("normalized wide-and does not intern equal to its narrow twin")
	}
	u := a.Or(b)
	for _, v := range []cdag.NodeID{1, 2, 64} {
		if !u.Has(v) {
			t.Errorf("Or missing %d", v)
		}
	}
}

func TestSetIndexHandles(t *testing.T) {
	// Narrow graphs: the handle is the word itself — distinct sets get
	// distinct handles with no interning.
	ix := NewIndex(10)
	if ix.wide {
		t.Fatal("10-node index should be narrow")
	}
	if ix.Handle(New(1, 3)) == ix.Handle(New(1, 2)) {
		t.Error("narrow handles collide")
	}
	// Wide: same set → same handle, different set → different handle.
	wx := NewIndex(100)
	if !wx.wide {
		t.Fatal("100-node index should be wide")
	}
	h1 := wx.Handle(New(1, 70))
	h2 := wx.Handle(New(1, 70))
	h3 := wx.Handle(New(1, 71))
	if h1 != h2 || h1 == h3 {
		t.Errorf("wide handles: %d %d %d", h1, h2, h3)
	}
}

func TestBitsetHelpers(t *testing.T) {
	s := New(3, 1, 2)
	ids := s.Sorted()
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Errorf("Sorted = %v", ids)
	}
}
