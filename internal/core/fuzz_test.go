package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
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
// indented forms the scanner takes, and inputs it must hand to the
// reflective decoder.
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

// FuzzScheduleJSON: UnmarshalJSON (canonical scanner plus reflective
// fallback) must agree with the reflective decoder alone on every
// input — accept or reject, the decoded moves, the error text — and
// MarshalJSON must write exactly the reflective encoding.
func FuzzScheduleJSON(f *testing.F) {
	for _, s := range scheduleJSONSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want Schedule
		gotErr := got.UnmarshalJSON(data)
		wantErr := want.unmarshalJSONReflect(data)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("%q: error %v, reflective decoder %v", data, gotErr, wantErr)
		case gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("%q: error %q, reflective decoder %q", data, gotErr, wantErr)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("%q: decoded %v, reflective decoder %v", data, got, want)
		}
		for _, s := range []Schedule{got, scheduleFromBytes(data)} {
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
		}
	})
}
