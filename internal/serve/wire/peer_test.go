package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"wrbpg/internal/core"
	"wrbpg/internal/obs"
)

// peerEnvelopeSeeds are envelopes as owners send them: with and
// without a trace, with an anytime report and a fallback cause, and
// with no moves at all.
func peerEnvelopeSeeds() []*PeerScheduleResponse {
	res := &ScheduleResult{
		Workload: "Equal DWT(4,2)", Source: "optimal",
		BudgetBits: 64, CostBits: 48, PeakBits: 40, LowerBoundBits: 48,
		MoveCount: 4,
		MoveKinds: map[string]int{"M1": 1, "M2": 1, "M3": 1, "M4": 1},
		Schedule:  core.Schedule{{Kind: core.M1, Node: 0}, {Kind: core.M3, Node: 300}, {Kind: core.M2, Node: 300}, {Kind: core.M4, Node: 0}},
		ElapsedUS: 17, CacheKey: "dwt/ab", Cache: "miss",
		Cost: &CostMeta{SourceTier: TierSolve, SolveWallUS: 15, MemoMisses: 3},
	}
	anytime := *res
	anytime.Source, anytime.FallbackReason, anytime.FallbackCause = "anytime", "search hit <deadline>", "deadline"
	anytime.Anytime = &AnytimeResult{Complete: true, SeedCostBits: 50, Expanded: 9, Workers: 2}
	empty := *res
	empty.MoveCount, empty.MoveKinds, empty.Schedule = 0, map[string]int{}, nil
	tex := &obs.TraceExport{TraceID: "ab12", StartUS: 1, Spans: []*obs.SpanNode{{Name: "peer.serve", DurationUS: 5,
		Attrs: []obs.Attr{{Key: "envelope", Value: "packed"}}, Children: []*obs.SpanNode{{Name: "cache", StartUS: 1, DurationUS: 3}}}}}
	return []*PeerScheduleResponse{{Result: res}, {Result: res, Trace: tex}, {Result: &anytime}, {Result: &empty}}
}

func TestPeerEnvelope(t *testing.T) {
	for mediaTypes, want := range map[string]string{
		"":                                EnvelopeJSON,
		"application/json":                EnvelopeJSON,
		"application/json; charset=utf-8": EnvelopeJSON,
		"*/*":                             EnvelopeJSON,
		"application/x-wrbpg-peer2":       EnvelopeJSON,
		PeerMediaType:                     EnvelopePacked,
		"Application/X-Wrbpg-Peer; v=1":   EnvelopePacked,
		"application/json;q=0.5, application/x-wrbpg-peer": EnvelopePacked,
	} {
		if got := PeerEnvelope(mediaTypes); got != want {
			t.Errorf("PeerEnvelope(%q) = %s, want %s", mediaTypes, got, want)
		}
	}
	if PeerContentType(EnvelopePacked) != PeerMediaType || PeerContentType(EnvelopeJSON) != "application/json" {
		t.Error("PeerContentType does not name each form's media type")
	}
}

// TestPeerResponseForms: the JSON form is json.Marshal of the envelope
// byte for byte; the packed form is that envelope without the move
// list, a newline, and the packed moves; both decode to the envelope.
func TestPeerResponseForms(t *testing.T) {
	for i, env := range peerEnvelopeSeeds() {
		want, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendPeerResponse([]byte("x"), env, EnvelopeJSON)
		if err != nil || !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Fatalf("seed %d: JSON form %s, %v; want x%s", i, got, err, want)
		}

		noMoves := *env.Result
		noMoves.Schedule = nil
		head, err := json.Marshal(&PeerScheduleResponse{Result: &noMoves, Trace: env.Trace})
		if err != nil {
			t.Fatal(err)
		}
		moves, err := env.Result.Schedule.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		packed, err := AppendPeerResponse(nil, env, EnvelopePacked)
		if wantPacked := append(append(head, '\n'), moves...); err != nil || !bytes.Equal(packed, wantPacked) {
			t.Fatalf("seed %d: packed form %q, %v; want %q", i, packed, err, wantPacked)
		}

		for ct, body := range map[string][]byte{PeerMediaType: packed, "application/json": want} {
			back, err := DecodePeerResponse(ct, body)
			if err != nil {
				t.Fatalf("seed %d, %s: %v", i, ct, err)
			}
			if !reflect.DeepEqual(back, env) {
				t.Fatalf("seed %d, %s: decoded %+v, want %+v", i, ct, back.Result, env.Result)
			}
		}
	}
	if _, err := AppendPeerResponse(nil, &PeerScheduleResponse{}, EnvelopePacked); err == nil {
		t.Error("an envelope without a result encoded")
	}
}

// TestDecodePeerResponseRejects: malformed packed frames and bodies
// that are neither an envelope nor a result are errors.
func TestDecodePeerResponseRejects(t *testing.T) {
	one, err := core.Schedule{{Kind: core.M2, Node: 9}}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	head := func(n string) string { return `{"result":{"workload":"w","move_count":` + n + `}}` }
	for name, body := range map[string]string{
		"no newline":        head("1"),
		"bad head":          "{\"result\":\n" + string(one),
		"no result":         "{}\n" + string(one),
		"null result":       "{\"result\":null}\n" + string(one),
		"truncated varint":  head("1") + "\n\x01\x80",
		"count mismatch":    head("2") + "\n" + string(one),
		"trailing bytes":    head("1") + "\n" + string(one) + "\x00",
		"node beyond int32": head("1") + "\n\x01\x80\x80\x80\x80\x80\x01",
	} {
		if env, err := DecodePeerResponse(PeerMediaType, []byte(body)); err == nil {
			t.Errorf("%s: decoded %+v", name, env.Result)
		}
	}
	for name, body := range map[string]string{
		"empty":             "",
		"not JSON":          "<html>proxy error</html>",
		"empty object":      "{}",
		"bare, no workload": `{"source":"optimal"}`,
	} {
		if env, err := DecodePeerResponse("application/json", []byte(body)); err == nil {
			t.Errorf("%s: decoded %+v", name, env.Result)
		}
	}
}
