package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"wrbpg/internal/cdag"
)

func sampleSchedule() Schedule {
	return Schedule{{M1, 0}, {M1, 1}, {M3, 2}, {M2, 2}, {M4, 0}, {M4, 1}, {M4, 2}}
}

func TestTextRoundTrip(t *testing.T) {
	s := sampleSchedule()
	data, err := s.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back Schedule
	if err := back.UnmarshalText(data); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(s) {
		t.Fatalf("len %d != %d", len(back), len(s))
	}
	for i := range s {
		if back[i] != s[i] {
			t.Fatalf("move %d: %v != %v", i, back[i], s[i])
		}
	}
}

func TestParseScheduleCommentsAndBlanks(t *testing.T) {
	in := "# firmware schedule\n\nM1 0\n  M3 2  \n# done\nM2 2\n"
	s, err := ParseSchedule(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := Schedule{{M1, 0}, {M3, 2}, {M2, 2}}
	if len(s) != len(want) {
		t.Fatalf("got %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("got %v", s)
		}
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, in := range []string{"M5 0", "M1", "M1 x", "M1 -2", "M1 0 extra"} {
		if _, err := ParseSchedule(strings.NewReader(in)); err == nil {
			t.Errorf("%q should fail", in)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := sampleSchedule()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"M3"`) {
		t.Errorf("json = %s", data)
	}
	var back Schedule
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i := range s {
		if back[i] != s[i] {
			t.Fatalf("move %d differs", i)
		}
	}
}

func TestJSONUnmarshalErrors(t *testing.T) {
	var s Schedule
	if err := json.Unmarshal([]byte(`[{"kind":"M9","node":1}]`), &s); err == nil {
		t.Error("unknown kind should fail")
	}
	if err := json.Unmarshal([]byte(`{"kind":"M1"}`), &s); err == nil {
		t.Error("non-array should fail")
	}
}

// TestScheduleBinary pins the packed form byte for byte and the inputs
// its decoder refuses.
func TestScheduleBinary(t *testing.T) {
	s := Schedule{{M1, 0}, {M3, 31}, {M2, 32}, {M4, 2147483647}}
	want := []byte{4, 0x00, 0x7e, 0x81, 0x01, 0xff, 0xff, 0xff, 0xff, 0x1f}
	got, err := s.AppendBinary([]byte{0xaa})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append([]byte{0xaa}, want...)) {
		t.Fatalf("AppendBinary = %x, want aa%x", got, want)
	}
	var back Schedule
	if err := back.UnmarshalBinary(want); err != nil || len(back) != len(s) {
		t.Fatalf("UnmarshalBinary = %v, %v", back, err)
	}
	for i := range s {
		if back[i] != s[i] {
			t.Fatalf("move %d = %v, want %v", i, back[i], s[i])
		}
	}
	if err := back.UnmarshalBinary([]byte{0}); err != nil || back != nil {
		t.Fatalf("empty schedule decodes to %#v, %v", back, err)
	}
	for name, in := range map[string][]byte{
		"no count":          {},
		"truncated count":   {0x80},
		"count over input":  {3, 0, 0},
		"truncated move":    {1, 0x80},
		"node beyond int32": {1, 0x80, 0x80, 0x80, 0x80, 0x20},
		"trailing bytes":    {1, 0, 0},
	} {
		back = s
		if err := back.UnmarshalBinary(in); err == nil {
			t.Errorf("%s: %x decoded to %v", name, in, back)
		} else if len(back) != len(s) {
			t.Errorf("%s: failed decode replaced the schedule with %v", name, back)
		}
	}
	for _, bad := range []Schedule{{{M1, -1}}, {{0, 1}}, {{M4 + 1, 1}}} {
		if _, err := bad.AppendBinary(nil); err == nil {
			t.Errorf("AppendBinary(%v) succeeded", bad)
		}
	}
}

// benchSchedule is a 4,080-move schedule: the length of the optimal
// mvm(16,32) answer a peer fill carries.
func benchSchedule() Schedule {
	s := make(Schedule, 4080)
	for i := range s {
		s[i] = Move{Kind: MoveKind(i%4 + 1), Node: cdag.NodeID(i * 7 % 1100)}
	}
	return s
}

// BenchmarkScheduleBinary times the packed form on benchSchedule, into
// a reused buffer.
func BenchmarkScheduleBinary(b *testing.B) {
	s := benchSchedule()
	data, err := s.AppendBinary(nil)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, len(data))
	var back Schedule
	runCodecBenchmarks(b, len(data), []codecBenchmark{
		{"AppendBinary", func() error { _, err := s.AppendBinary(buf); return err }},
		{"UnmarshalBinary", func() error { return back.UnmarshalBinary(data) }},
	})
}

// BenchmarkScheduleJSON compares the encoder with the reflective one
// it replaces, and times the decoder, on benchSchedule in compact form.
func BenchmarkScheduleJSON(b *testing.B) {
	s := benchSchedule()
	data, err := s.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	var back Schedule
	runCodecBenchmarks(b, len(data), []codecBenchmark{
		{"MarshalJSON", func() error { _, err := s.MarshalJSON(); return err }},
		{"MarshalReflect", func() error { _, err := referenceMarshalJSON(s); return err }},
		{"UnmarshalJSON", func() error { return back.UnmarshalJSON(data) }},
	})
}

type codecBenchmark struct {
	name string
	fn   func() error
}

// runCodecBenchmarks runs each codec as a sub-benchmark over size bytes.
func runCodecBenchmarks(b *testing.B, size int, bms []codecBenchmark) {
	for _, bm := range bms {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if err := bm.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(kinds []uint8, nodes []uint8) bool {
		n := len(kinds)
		if len(nodes) < n {
			n = len(nodes)
		}
		s := make(Schedule, n)
		for i := 0; i < n; i++ {
			s[i] = Move{Kind: MoveKind(kinds[i]%4 + 1), Node: cdag.NodeID(nodes[i])}
		}
		txt, err := s.MarshalText()
		if err != nil {
			return false
		}
		var fromTxt Schedule
		if err := fromTxt.UnmarshalText(txt); err != nil {
			return false
		}
		js, err := json.Marshal(s)
		if err != nil {
			return false
		}
		var fromJS Schedule
		if err := json.Unmarshal(js, &fromJS); err != nil {
			return false
		}
		if len(fromTxt) != n || len(fromJS) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if fromTxt[i] != s[i] || fromJS[i] != s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestManifestRoundTripAndVerify(t *testing.T) {
	g, a, b, c := pair(2, 3, 4)
	sched := Schedule{{M1, a}, {M1, b}, {M3, c}, {M2, c}, {M4, a}, {M4, b}, {M4, c}}
	m, err := NewManifest("pair/test", g, 9, sched)
	if err != nil {
		t.Fatal(err)
	}
	if m.CostBits != 9 || m.PeakBits != 9 {
		t.Fatalf("manifest metrics %+v", m)
	}
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Verify(g); err != nil {
		t.Fatal(err)
	}
	// Tampering with the recorded cost is caught.
	back.CostBits++
	if err := back.Verify(g); err == nil {
		t.Error("tampered manifest should fail verification")
	}
	// A manifest against the wrong graph fails.
	g2, _, _, _ := pair(1, 1, 9)
	back.CostBits--
	if err := back.Verify(g2); err == nil {
		t.Error("wrong-graph manifest should fail verification")
	}
}

func TestNewManifestRejectsInvalidSchedule(t *testing.T) {
	g, a, _, _ := pair(2, 3, 4)
	if _, err := NewManifest("bad", g, 9, Schedule{{M4, a}}); err == nil {
		t.Error("invalid schedule accepted")
	}
}

func TestReadManifestErrors(t *testing.T) {
	if _, err := ReadManifest(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
}
