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
		MoveKinds: MoveKinds{M1: 1, M2: 1, M3: 1, M4: 1},
		Schedule:  core.Schedule{{Kind: core.M1, Node: 0}, {Kind: core.M3, Node: 300}, {Kind: core.M2, Node: 300}, {Kind: core.M4, Node: 0}},
		ElapsedUS: 17, CacheKey: "dwt/ab", Cache: "miss",
		Cost: &CostMeta{SourceTier: TierSolve, SolveWallUS: 15, MemoMisses: 3},
	}
	anytime := *res
	anytime.Source, anytime.FallbackReason, anytime.FallbackCause = "anytime", "search hit <deadline>", "deadline"
	anytime.Anytime = &AnytimeResult{Complete: true, SeedCostBits: 50, Expanded: 9, Workers: 2}
	empty := *res
	empty.MoveCount, empty.MoveKinds, empty.Schedule = 0, MoveKinds{}, nil
	tex := &obs.TraceExport{TraceID: "ab12", StartUS: 1, Spans: []*obs.SpanNode{{Name: "peer.serve", DurationUS: 5,
		Attrs: []obs.Attr{{Key: "origin", Value: "http://a"}}, Children: []*obs.SpanNode{{Name: "cache", StartUS: 1, DurationUS: 3}}}}}
	return []*PeerScheduleResponse{{Result: res}, {Result: res, Trace: tex}, {Result: &anytime}, {Result: &empty}}
}

// TestPeerEnvelope: a body decodes only under the frame's media type,
// matched case-insensitively and with parameters ignored.
func TestPeerEnvelope(t *testing.T) {
	frame, err := AppendPeerResponse(nil, peerEnvelopeSeeds()[0])
	if err != nil {
		t.Fatal(err)
	}
	for ct, want := range map[string]bool{
		PeerMediaType:                     true,
		"Application/X-Wrbpg-Peer; v=1":   true,
		" application/x-wrbpg-peer ":      true,
		"":                                false,
		"application/json":                false,
		"application/json; charset=utf-8": false,
		"*/*":                             false,
		"text/html":                       false,
		"application/x-wrbpg-peer2":       false,
		"application/json, application/x-wrbpg-peer": false,
	} {
		if _, err := DecodePeerResponse(ct, frame, true); (err == nil) != want {
			t.Errorf("Content-Type %q: err=%v, want decoded=%v", ct, err, want)
		}
	}
}

// TestPeerResponseForms: the packed frame is the envelope without
// the move list as compact JSON, a newline, and the packed moves, and
// it decodes to the envelope. A frame for a fill that did not ask for
// moves has the same head and an empty move section, and decodes to
// the envelope without its moves.
func TestPeerResponseForms(t *testing.T) {
	for i, env := range peerEnvelopeSeeds() {
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
		packed, err := AppendPeerResponse([]byte("x"), env)
		if wantPacked := append(append(append([]byte("x"), head...), '\n'), moves...); err != nil || !bytes.Equal(packed, wantPacked) {
			t.Fatalf("seed %d: packed form %q, %v; want %q", i, packed, err, wantPacked)
		}
		back, err := DecodePeerResponse(PeerMediaType, packed[1:], true)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if !reflect.DeepEqual(back, env) {
			t.Fatalf("seed %d: decoded %+v, want %+v", i, back.Result, env.Result)
		}

		st := Stamp{Cache: noMoves.Cache, CacheKey: noMoves.CacheKey, ElapsedUS: noMoves.ElapsedUS, Cost: noMoves.Cost}
		lean, err := AppendPeerFrame(nil, env.Result, &st, env.Trace)
		if wantLean := append(append([]byte(nil), head...), '\n', 0); err != nil || !bytes.Equal(lean, wantLean) {
			t.Fatalf("seed %d: frame without moves %q, %v; want %q", i, lean, err, wantLean)
		}
		back, err = DecodePeerResponse(PeerMediaType, lean, false)
		if err != nil {
			t.Fatalf("seed %d without moves: %v", i, err)
		}
		if !reflect.DeepEqual(back, &PeerScheduleResponse{Result: &noMoves, Trace: env.Trace}) {
			t.Fatalf("seed %d without moves: decoded %+v, want %+v", i, back.Result, &noMoves)
		}
	}
	if _, err := AppendPeerResponse(nil, &PeerScheduleResponse{}); err == nil {
		t.Error("an envelope without a result encoded")
	}
}

// TestDecodePeerResponseRejects: malformed packed frames are errors,
// and so are the JSON bodies owners from before the frame sent.
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
		"no moves":          head("1") + "\n\x00",
		"empty section":     head("1") + "\n",
	} {
		if env, err := DecodePeerResponse(PeerMediaType, []byte(body), true); err == nil {
			t.Errorf("%s: decoded %+v", name, env.Result)
		}
	}
	// A fill that did not ask for moves takes only an empty move
	// section, whatever move_count says.
	for name, body := range map[string]string{
		"moves":          head("1") + "\n" + string(one),
		"section absent": head("1") + "\n",
		"trailing bytes": head("1") + "\n\x00\x00",
	} {
		if env, err := DecodePeerResponse(PeerMediaType, []byte(body), false); err == nil {
			t.Errorf("%s without moves asked: decoded %+v", name, env.Result)
		}
	}
	if env, err := DecodePeerResponse(PeerMediaType, []byte(head("1")+"\n\x00"), false); err != nil || env.Result.MoveCount != 1 || env.Result.Schedule != nil {
		t.Errorf("empty section without moves asked: %+v, %v", env, err)
	}
	envelope, err := json.Marshal(peerEnvelopeSeeds()[0])
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"JSON envelope": string(envelope),
		"bare result":   `{"workload":"w","source":"optimal","move_count":0}`,
		"proxy page":    "<html>proxy error</html>",
		"empty":         "",
	} {
		if env, err := DecodePeerResponse("application/json", []byte(body), true); err == nil {
			t.Errorf("%s as application/json: decoded %+v", name, env.Result)
		}
	}
}
