package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wrbpg/internal/cdag"
)

// FuzzParseSchedule: the firmware text format must never panic and
// must round-trip whatever it accepts.
func FuzzParseSchedule(f *testing.F) {
	f.Add("M1 0\nM3 2\nM2 2\n")
	f.Add("# comment\n\nM4 1")
	f.Add("M9 1")
	f.Add("M1 -3")
	f.Add("M1 99999999999999999999")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSchedule(strings.NewReader(in))
		if err != nil {
			return
		}
		// Accepted input must survive a marshal/parse round trip.
		data, err := s.MarshalText()
		if err != nil {
			t.Fatalf("marshal of accepted schedule failed: %v", err)
		}
		var back Schedule
		if err := back.UnmarshalText(data); err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(back) != len(s) {
			t.Fatalf("round trip changed length: %d vs %d", len(back), len(s))
		}
		for i := range s {
			if back[i] != s[i] {
				t.Fatalf("round trip changed move %d", i)
			}
		}
	})
}

// referenceMarshalJSON is the reflective encoding MarshalJSON must
// reproduce byte for byte.
func referenceMarshalJSON(s Schedule) ([]byte, error) {
	out := make([]moveJSON, len(s))
	for i, m := range s {
		out[i] = moveJSON{Kind: m.Kind.String(), Node: m.Node}
	}
	return json.Marshal(out)
}

// scheduleFromBytes reads 5 bytes per move: a kind (always valid) and
// a little-endian node, so every NodeID is reachable, negatives too.
func scheduleFromBytes(b []byte) Schedule {
	s := make(Schedule, 0, len(b)/5)
	for ; len(b) >= 5; b = b[5:] {
		s = append(s, Move{Kind: MoveKind(b[0]%4 + 1), Node: cdag.NodeID(int32(binary.LittleEndian.Uint32(b[1:5])))})
	}
	return s
}

// scheduleJSONSeeds are the decoder corpus: the canonical compact and
// indented forms, and inputs near them that must be refused or read
// the way encoding/json reads them.
var scheduleJSONSeeds = []string{
	`[{"kind":"M1","node":0},{"kind":"M3","node":2},{"kind":"M2","node":2}]`,
	"[\n  {\n    \"kind\": \"M1\",\n    \"node\": 0\n  },\n  {\n    \"kind\": \"M4\",\n    \"node\": 12\n  }\n]\n",
	`[]`,
	" \t[ ]\r\n",
	`[{"kind":"M2","node":-7}]`,
	`[{"kind":"M4","node":-2147483648},{"kind":"M4","node":2147483647}]`,
	`[{"kind":"M9","node":1}]`,
	`[{"kind":"m1","node":1}]`,
	`[{"KIND":"M1","Node":1}]`,
	`[{"kind":"M1","node":1}] x`,
	`[{"kind":"M1","node":1},]`,
	`[{"node":1,"kind":"M1"}]`,
	`[{"kind":"M1","node":1,"kind":"M2"}]`,
	`[{"kind":"M1"}]`,
	`[{"kind":"M1","node":1}]`,
	`[{"kind":"M1","node":01}]`,
	`[{"kind":"M1","node":-0}]`,
	`[{"kind":"M1","node":1.0}]`,
	`[{"kind":"M1","node":1e2}]`,
	`[{"kind":"M1","node":2147483648}]`,
	`[{"kind":"M1","node":99999999999999999999}]`,
	`[{"kind":"M1","node":"1"}]`,
	`{"kind":"M1","node":1}`,
	`null`,
	`[null]`,
	`[{}]`,
	`[{"kind":"M1","node":1}`,
	``,
}

// FuzzScheduleBinary: every schedule on nodes ≥ 0 round-trips through
// the packed form, one with a negative node is refused, and arbitrary
// bytes decode to an error or to a schedule of at most one move per
// input byte, sized exactly — never a panic.
func FuzzScheduleBinary(f *testing.F) {
	for _, s := range []Schedule{nil, sampleSchedule(), {{M4, 2147483647}, {M1, 63}, {M2, 64}}} {
		b, err := s.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{2, 0x80})
	f.Add([]byte{1, 0xfc, 0xff, 0xff, 0xff, 0x1f})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Schedule
		if err := got.UnmarshalBinary(data); err == nil {
			if len(got) > len(data) || cap(got) != len(got) {
				t.Fatalf("%x: decoded len %d cap %d from %d bytes", data, len(got), cap(got), len(data))
			}
			again, err := got.AppendBinary(nil)
			if err != nil {
				t.Fatalf("%x: decoded %v does not re-encode: %v", data, got, err)
			}
			var back Schedule
			if err := back.UnmarshalBinary(again); err != nil || !reflect.DeepEqual(back, got) {
				t.Fatalf("%x: re-encoded %v decodes to %v, %v", data, got, back, err)
			}
		}
		s := scheduleFromBytes(data)
		_, err := s.AppendBinary(nil)
		if negative := slices.ContainsFunc(s, func(m Move) bool { return m.Node < 0 }); negative != (err != nil) {
			t.Fatalf("AppendBinary(%v): error %v", s, err)
		}
		for i := range s {
			s[i].Node &= math.MaxInt32
		}
		enc, err := s.AppendBinary(nil)
		if err != nil {
			t.Fatalf("AppendBinary(%v): %v", s, err)
		}
		var back Schedule
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("UnmarshalBinary(AppendBinary(%v)): %v", s, err)
		}
		if len(back) != len(s) || (len(s) > 0 && !reflect.DeepEqual(back, s)) {
			t.Fatalf("round trip of %v gave %v", s, back)
		}
	})
}

// FuzzScheduleJSON: MarshalJSON must write exactly the reflective
// encoding, and every schedule it writes, decoded or built from the
// input, must decode back to itself.
func FuzzScheduleJSON(f *testing.F) {
	for _, s := range scheduleJSONSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		schedules := []Schedule{scheduleFromBytes(data)}
		var got Schedule
		if got.UnmarshalJSON(data) == nil {
			schedules = append(schedules, got)
		}
		for _, s := range schedules {
			enc, err := s.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := referenceMarshalJSON(s)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, ref) {
				t.Fatalf("MarshalJSON(%v) = %s, reference %s", s, enc, ref)
			}
			var back Schedule
			if err := back.UnmarshalJSON(enc); err != nil || !reflect.DeepEqual(back, s) {
				t.Fatalf("%s decodes to %v, %v; want %v", enc, back, err, s)
			}
		}
	})
}
