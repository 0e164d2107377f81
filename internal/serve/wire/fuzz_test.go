// Fuzz targets for the wire request decoders, and for the decoder of a
// peer's answer: every malformed body must come back as a structured
// error (the serve layer's 400, or a failed fill), never a panic. The
// request targets mirror the handler pipeline exactly — strict JSON
// decode, request→Instance conversion, Validate, key derivation — but
// stop short of Build, so the fuzzer explores the parsing and
// validation surface without paying graph-construction time or memory.
// Their decode step is differential: a body the scanner accepts must
// decode to the same value through encoding/json. FuzzResponseJSON
// holds the response appenders to encoding/json's bytes, and the peer
// targets hold the peer hop's codec to encoding/json both ways: the
// fill request appender to json.Marshal, and the frame head scanner to
// json.Unmarshal.
//
// Run continuously with:
//
//	go test -fuzz=FuzzScheduleRequest -fuzztime=30s ./internal/serve/wire
//	go test -fuzz=FuzzCDAGRequest     -fuzztime=30s ./internal/serve/wire
//	go test -fuzz=FuzzPatchRequest    -fuzztime=30s ./internal/serve/wire
//	go test -fuzz=FuzzPeerRequest     -fuzztime=30s ./internal/serve/wire
//	go test -fuzz=FuzzPeerResponse    -fuzztime=30s ./internal/serve/wire
//	go test -fuzz=FuzzResponseJSON    -fuzztime=30s ./internal/serve/wire

package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/obs"
	"wrbpg/internal/solve"
)

// decodeLikeServer decodes data into v as the server does, and checks
// the scanner against the general decoder on the way: a body the
// scanner accepts must decode to a deeply equal value through
// encoding/json. Returns false when the body is rejected at the JSON
// layer (the handler's immediate 400).
func decodeLikeServer[T any](t *testing.T, data []byte, v *T) bool {
	t.Helper()
	var scanned T
	ok := scan(data, &scanned)
	err := DecodeStream(bytes.NewReader(data), v)
	if ok && err != nil {
		t.Fatalf("%q: scanned, but the general decoder refuses it: %v", data, err)
	}
	if ok && !reflect.DeepEqual(&scanned, v) {
		t.Fatalf("%q: scanned as %+v, decoded as %+v", data, scanned, *v)
	}
	return err == nil
}

func FuzzScheduleRequest(f *testing.F) {
	// Seeds from docs/SERVICE.md examples plus boundary shapes.
	f.Add([]byte(`{"family":"dwt","n":32,"d":4,"budget_bits":2048}`))
	f.Add([]byte(`{"family":"dwt","n":32,"d":4,"weights":{"name":"da"},"budget_bits":2048,"timeout_ms":500,"include_moves":true}`))
	f.Add([]byte(`{"family":"ktree","k":2,"height":5,"budget_bits":4096}`))
	f.Add([]byte(`{"family":"mvm","m":96,"n":8,"budget_bits":1024}`))
	f.Add([]byte(`{"family":"cdag","graph":{"nodes":[{"id":0,"weight_bits":8}]},"budget_bits":64}`))
	f.Add([]byte(`{"family":"dwt","n":32,"d":4,"weights":{"word_bits":8,"input_words":1,"output_words":1},"budget_bits":256}`))
	f.Add([]byte(`{"family":"dwt","n":-1,"d":0,"budget_bits":-5}`))
	f.Add([]byte(`{"family":""}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"family":"dwt","n":9007199254740993,"d":4,"budget_bits":9223372036854775807}`))
	f.Add([]byte(`{"family":"dwt","n":16,"d":2,"deltas":[{"node":5,"weight_bits":8}],"budget_bits":128}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req ScheduleRequest
		if !decodeLikeServer(t, data, &req) {
			return // handler answers 400 before the request exists
		}
		inst, err := req.Instance()
		if err != nil {
			return // structured 400
		}
		if err := inst.Validate(); err != nil {
			return // structured 400
		}
		// A validated instance must be keyable without panicking; the
		// keys feed the schedule cache and session pool.
		if inst.Key(1) == "" {
			t.Fatal("validated instance produced an empty cache key")
		}
		if inst.ShapeKey() == "" {
			t.Fatal("validated instance produced an empty shape key")
		}
	})
}

// FuzzCDAGRequest exercises the raw node/edge CDAG decoder end to
// end: strict JSON decode, GraphSpec compilation (name resolution,
// toposort, cycle detection), instance validation and canonical
// relabeling. Malformed specs — cycles, dangling deps, duplicate
// names, non-positive weights — must come back as structured errors,
// never panics; accepted specs must canonicalize deterministically
// with a valid permutation.
func FuzzCDAGRequest(f *testing.F) {
	f.Add([]byte(`{"family":"cdag","budget_bits":64,"cdag":{"nodes":[{"name":"x","weight_bits":8},{"name":"y","weight_bits":8},{"name":"out","weight_bits":16,"deps":["x","y"]}]}}`))
	f.Add([]byte(`{"family":"cdag","budget_bits":64,"cdag":{"nodes":[{"name":"out","weight_bits":16,"deps":["x"]},{"name":"x","weight_bits":8}]}}`))
	f.Add([]byte(`{"family":"cdag","budget_bits":64,"cdag":{"nodes":[{"name":"a","weight_bits":8,"deps":["b"]},{"name":"b","weight_bits":8,"deps":["a"]}]}}`))
	f.Add([]byte(`{"family":"cdag","budget_bits":64,"cdag":{"nodes":[{"name":"a","weight_bits":8,"deps":["ghost"]}]}}`))
	f.Add([]byte(`{"family":"cdag","budget_bits":64,"cdag":{"nodes":[{"name":"a","weight_bits":-8}]}}`))
	f.Add([]byte(`{"family":"cdag","budget_bits":64,"cdag":{"nodes":[{"name":"a","weight_bits":8},{"name":"a","weight_bits":8}]}}`))
	f.Add([]byte(`{"family":"cdag","budget_bits":64,"cdag":{"nodes":[]}}`))
	f.Add([]byte(`{"family":"cdag","budget_bits":64,"cdag":{"nodes":[{"name":"a","weight_bits":8,"deps":["a"]}]}}`))
	f.Add([]byte(`{"family":"cdag","budget_bits":64,"graph":{"nodes":[{"w":8}]},"cdag":{"nodes":[{"name":"a","weight_bits":8}]}}`))
	f.Add([]byte(`{"family":"cdag"}`))
	f.Add([]byte(`{"family":"cdag","budget_bits":64,"graph":{"nodes":[{"w":8,"name":"a"},{"w":8,"parents":[]},{"w":16,"name":"out","parents":[0,1]}]}}`))
	f.Add([]byte(`{"family":"cdag","budget_bits":64,"cdag":{"nodes":[{"name":"x","weight_bits":8,"deps":[]},{"name":"out","weight_bits":16,"deps":["x"]}]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req ScheduleRequest
		if !decodeLikeServer(t, data, &req) {
			return // handler answers 400 before the request exists
		}
		inst, err := req.Instance()
		if err != nil {
			return // structured 400
		}
		// Canonicalization must be a real relabeling: when a permutation
		// was recorded it covers every node exactly once.
		if inst.Family == solve.FamilyCDAG {
			if len(inst.Perm) != inst.G.Len() {
				t.Fatalf("perm length %d for %d-node graph", len(inst.Perm), inst.G.Len())
			}
			seen := make([]bool, len(inst.Perm))
			for _, p := range inst.Perm {
				if p < 0 || int(p) >= len(seen) || seen[p] {
					t.Fatalf("perm is not a permutation: %v", inst.Perm)
				}
				seen[p] = true
			}
		}
		// Re-converting the same request must land on the same key —
		// the cache identity of a cdag body is deterministic.
		again, err := req.Instance()
		if err != nil {
			t.Fatalf("second Instance() of an accepted request failed: %v", err)
		}
		if inst.Key(64) != again.Key(64) {
			t.Fatal("cdag request key not deterministic across conversions")
		}
	})
}

// FuzzPeerRequest exercises the replica-to-replica fill decoder: the
// peer endpoint runs the same pipeline as the public one but with the
// forwarder's envelope (inner request + expected key + origin), so the
// envelope layer must reject garbage as a structured 400 and never let
// a hostile peer body panic a replica. Every envelope that decodes
// re-encodes through AppendPeerRequest to json.Marshal's bytes, the
// encoding a forwarder sends.
func FuzzPeerRequest(f *testing.F) {
	f.Add([]byte(`{"req":{"family":"dwt","n":32,"d":4,"budget_bits":2048,"include_moves":true,"timeout_ms":125},"key":"sha256:ab","origin":"http://replica-0:8080"}`))
	f.Add([]byte(`{"req":{"family":"ktree","k":2,"height":5,"budget_bits":4096}}`))
	f.Add([]byte(`{"req":{},"key":"","origin":""}`))
	f.Add([]byte(`{"key":"sha256:no-request"}`))
	f.Add([]byte(`{"req":{"family":"dwt","n":-1,"d":0,"budget_bits":-5},"key":"zz"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"req":{"family":"mvm","m":16,"n":32,"weights":{"name":"da","word_bits":16,"input_words":1,"node_words":2},"deltas":[{"node":3,"weight_bits":24},{"node":1,"weight_bits":-1}],"budget_bits":900,"timeout_ms":75,"include_moves":false},"key":"sha256:cd","origin":"http://r-2"}`))
	f.Add([]byte(`{"req":{"family":"cdag","budget_bits":64,"graph":{"nodes":[{"w":8,"name":"a<b>&c"},{"w":8,"parents":[]},{"w":16,"name":"out \"q\" \u2028","parents":[0,1]}]}},"key":"k\u00e9\n","origin":"http://x/?a=1&b=<2>"}`))
	f.Add([]byte(`{"req":{"family":"cdag","budget_bits":64,"cdag":{"nodes":[{"name":"x\\y","weight_bits":8,"deps":[]},{"name":"o<>","weight_bits":16,"deps":["x\\y"]}]},"include_moves":true},"key":"sha256:ef"}`))
	f.Add([]byte(`{"req":{"family":"cdag","budget_bits":64,"cdag":{"nodes":null}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var preq PeerScheduleRequest
		if !decodeLikeServer(t, data, &preq) {
			return // handler answers 400 before the envelope exists
		}
		want, werr := json.Marshal(&preq)
		got, err := AppendPeerRequest([]byte("x"), &preq)
		if (err != nil) != (werr != nil) || (err == nil && !bytes.Equal(got, append([]byte("x"), want...))) {
			t.Fatalf("%q: AppendPeerRequest gives %q, %v; json.Marshal %q, %v", data, got, err, want, werr)
		}
		inst, err := preq.Req.Instance()
		if err != nil {
			return // structured 400
		}
		if err := inst.Validate(); err != nil {
			return // structured 400
		}
		// The owner recomputes the key and compares against the
		// forwarder's; both sides must be derivable without panicking.
		key := inst.Key(preq.Req.BudgetBits)
		if key == "" {
			t.Fatal("validated peer request produced an empty cache key")
		}
		// The mismatch check is pure string comparison; any forwarder-sent
		// key must be safely comparable (no canonicalization surprises).
		_ = preq.Key == key
	})
}

// FuzzPeerResponse exercises the forwarder's decoder of a peer's 200
// body: a hostile or corrupt owner yields an error or an envelope with
// a result, never a panic. A frame that decodes carries exactly
// move_count moves when they were asked for and none otherwise, and
// survives a re-encode. Its head decodes as json.Unmarshal decodes it:
// a head the scanner reads must unmarshal to the same envelope. Each
// seed envelope goes in as a frame with its moves, as one without, and
// as a JSON body.
func FuzzPeerResponse(f *testing.F) {
	for _, env := range peerEnvelopeSeeds() {
		frame, err := AppendPeerResponse(nil, env)
		if err != nil {
			f.Fatal(err)
		}
		r := env.Result
		lean, err := AppendPeerFrame(nil, r, &Stamp{Cache: r.Cache, CacheKey: r.CacheKey, ElapsedUS: r.ElapsedUS, Cost: r.Cost}, env.Trace)
		if err != nil {
			f.Fatal(err)
		}
		envelope, err := json.Marshal(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(lean)
		f.Add(envelope)
	}
	f.Add([]byte(`{"workload":"w","source":"optimal","move_count":0}`))
	f.Add([]byte("{\"result\":{\"move_count\":2}}\n\x02\x00"))
	f.Add([]byte("{\"result\":null}\n\x00"))
	f.Add([]byte("{}\n"))
	f.Add([]byte("\n\x00"))
	f.Add([]byte("{\"result\":{\"workload\":\"a\\u003cb\\u003e \\\"q\\\"\",\"Source\":\"optimal\",\"move_count\":-0,\"anytime\":null,\"x\":1}}\n\x00"))
	f.Add([]byte("{\"result\":{\"workload\":\"w\",\"cost_bits\":7,\"cost_bits\":8,\"cost\":{\"peer_hops\":1e2}}}\n\x00"))
	f.Add([]byte("{\"result\":{\"workload\":\"w\",\"move_kinds\":{\"M1\":1,\"M2\":2,\"M3\":3,\"M4\":4},\"anytime\":{\"complete\":true,\"workers\":2},\"cost\":{\"source_tier\":\"solve\",\"memo_misses\":9}} , \"trace\":{\"trace_id\":\"ab\",\"spans\":[]}}\n\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		head, _, _ := bytes.Cut(data, []byte{'\n'})
		var scanned PeerScheduleResponse
		if scanPeerHead(head, &scanned) {
			var want PeerScheduleResponse
			if err := json.Unmarshal(head, &want); err != nil || !reflect.DeepEqual(&scanned, &want) {
				t.Fatalf("%q: scanned as %+v, json.Unmarshal gives %+v, %v", head, scanned.Result, want.Result, err)
			}
		}
		for _, withMoves := range []bool{false, true} {
			env, err := DecodePeerResponse(PeerMediaType, data, withMoves)
			if err != nil {
				continue
			}
			if env.Result == nil {
				t.Fatalf("%q: no error and no result", data)
			}
			want := 0
			if withMoves {
				want = env.Result.MoveCount
			}
			if len(env.Result.Schedule) != want {
				t.Fatalf("%q: %d moves, move_count %d, include_moves %t", data, len(env.Result.Schedule), env.Result.MoveCount, withMoves)
			}
			again, err := AppendPeerResponse(nil, env)
			if err != nil {
				t.Fatalf("%q: decoded envelope does not re-encode: %v", data, err)
			}
			// A trace's empty lists do not survive the round trip (they
			// are omitempty), so the trace is held to its re-encoding.
			back, err := DecodePeerResponse(PeerMediaType, again, withMoves)
			if err != nil || !reflect.DeepEqual(back.Result, env.Result) {
				t.Fatalf("%q: re-encoded as %q, decodes to %+v, %v", data, again, back, err)
			}
			if twice, err := AppendPeerResponse(nil, back); err != nil || !bytes.Equal(twice, again) {
				t.Fatalf("%q: re-encoded as %q, then as %q, %v", data, again, twice, err)
			}
		}
	})
}

func FuzzPatchRequest(f *testing.F) {
	f.Add([]byte(`{"family":"dwt","n":64,"d":6,"deltas":[{"node":3,"weight_bits":24}],"budgets_bits":[112,176]}`))
	f.Add([]byte(`{"family":"ktree","k":3,"height":3,"deltas":[{"node":0,"weight_bits":16}],"budgets_bits":[4096,2048,1024,512]}`))
	f.Add([]byte(`{"base_key":"sha256:abcdef","deltas":[{"node":1,"weight_bits":8}],"budgets_bits":[64]}`))
	f.Add([]byte(`{"family":"dwt","n":16,"d":2,"deltas":[{"node":5,"weight_bits":8},{"node":5,"weight_bits":12}],"budgets_bits":[128]}`))
	f.Add([]byte(`{"family":"dwt","n":16,"d":2,"deltas":[],"budgets_bits":[]}`))
	f.Add([]byte(`{"family":"dwt","n":16,"d":2,"deltas":[{"node":-1,"weight_bits":-9223372036854775808}],"budgets_bits":[0]}`))
	f.Add([]byte(`{}`))
	// Sweep-shaped bodies: the same request type with no deltas.
	f.Add([]byte(`{"family":"ktree","k":3,"height":3,"budgets_bits":[4096,2048]}`))
	f.Add([]byte(`{"family":"mvm","m":96,"n":8,"budgets_bits":[1024,2048],"timeout_ms":500}`))
	f.Add([]byte(`{"family":"cdag","graph":{"nodes":[{"id":0,"weight_bits":8}]},"budgets_bits":[64]}`))
	f.Add([]byte(`{"base_key":"sha256:abcdef","budgets_bits":[64,128]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req PatchRequest
		if !decodeLikeServer(t, data, &req) {
			return
		}
		ds, err := CanonicalDeltas(req.Deltas)
		if err != nil {
			return // structured 400
		}
		// Canonical form is sorted by node with duplicates merged.
		for i := 1; i < len(ds); i++ {
			if ds[i-1].Node >= ds[i].Node {
				t.Fatalf("CanonicalDeltas not strictly sorted: %v", ds)
			}
		}
		if req.BaseKey != "" {
			return // resolved against the session pool, nothing to build
		}
		inst, err := req.Instance()
		if err != nil {
			return // structured 400
		}
		if inst.ShapeKey() == "" || inst.BaseShapeKey() == "" {
			t.Fatal("validated budget-list instance produced an empty key")
		}
		// The base key must not depend on the deltas, and a delta-free
		// request's shape key is its base key.
		base, err := req.BaseInstance()
		if err != nil {
			t.Fatalf("BaseInstance of an accepted request failed: %v", err)
		}
		if inst.BaseShapeKey() != base.ShapeKey() {
			t.Fatal("BaseShapeKey depends on deltas")
		}
		if len(inst.Deltas) == 0 && inst.ShapeKey() != inst.BaseShapeKey() {
			t.Fatal("delta-free shape key differs from its base key")
		}
	})
}

// fuzzValues draws field values from fuzz input: each call consumes a
// few bytes, and an exhausted input yields zeros.
type fuzzValues struct{ b []byte }

func (f *fuzzValues) byte() byte {
	if len(f.b) == 0 {
		return 0
	}
	c := f.b[0]
	f.b = f.b[1:]
	return c
}

func (f *fuzzValues) flag() bool { return f.byte()&1 == 1 }

// num is zero, small or a full-width signed value.
func (f *fuzzValues) num() int64 {
	switch f.byte() % 4 {
	case 0:
		return 0
	case 1:
		return int64(int8(f.byte()))
	}
	var v uint64
	for range 8 {
		v = v<<8 | uint64(f.byte())
	}
	return int64(v)
}

// str is a length byte and that many raw bytes: any of them may be
// control bytes, HTML-significant or invalid UTF-8.
func (f *fuzzValues) str() string {
	n := min(int(f.byte()%32), len(f.b))
	s := string(f.b[:n])
	f.b = f.b[n:]
	return s
}

func (f *fuzzValues) cost() *CostMeta {
	if !f.flag() {
		return nil
	}
	return &CostMeta{SourceTier: f.str(), QueueWaitUS: f.num(), SolveWallUS: f.num(),
		StatesExpanded: f.num(), MemoHits: f.num(), MemoMisses: f.num(),
		CellsInvalidated: f.num(), CellsReused: f.num(), PeerHops: int(f.num())}
}

func (f *fuzzValues) scheduleResult() *ScheduleResult {
	r := &ScheduleResult{Workload: f.str(), Source: f.str(), FallbackReason: f.str(), FallbackCause: f.str(),
		BudgetBits: f.num(), CostBits: f.num(), PeakBits: f.num(), LowerBoundBits: f.num(), MoveCount: int(f.num())}
	if f.flag() {
		r.MoveKinds = MoveKinds{M1: int(f.num()), M2: int(f.num()), M3: int(f.num()), M4: int(f.num())}
	}
	if f.flag() {
		r.Anytime = &AnytimeResult{Complete: f.flag(), SeedCostBits: f.num(), Expanded: f.num(),
			Pruned: f.num(), Deduped: f.num(), Improvements: f.num(), Workers: int(f.num())}
	}
	switch f.byte() % 3 {
	case 1:
		r.Schedule = core.Schedule{}
	case 2:
		for range f.byte() % 16 {
			r.Schedule = append(r.Schedule, core.Move{Kind: core.MoveKind(1 + f.byte()%4), Node: cdag.NodeID(int32(f.num()))})
		}
	}
	r.ElapsedUS, r.CacheKey, r.Cache, r.Cost = f.num(), f.str(), f.str(), f.cost()
	return r
}

// trace is nil or a small span tree whose strings come from the input.
func (f *fuzzValues) trace() *obs.TraceExport {
	if !f.flag() {
		return nil
	}
	tr := &obs.TraceExport{TraceID: f.str(), StartUS: f.num()}
	for range f.byte() % 3 {
		sp := &obs.SpanNode{Name: f.str(), StartUS: f.num(), DurationUS: f.num()}
		if f.flag() {
			sp.Attrs = []obs.Attr{{Key: f.str(), Value: f.str()}}
		}
		if f.flag() {
			sp.Children = []*obs.SpanNode{{Name: f.str(), DurationUS: f.num()}}
		}
		tr.Spans = append(tr.Spans, sp)
	}
	return tr
}

func (f *fuzzValues) patchResponse() *PatchResponse {
	r := &PatchResponse{Workload: f.str(), BaseKey: f.str(), PatchKey: f.str(),
		LowerBoundBits: f.num(), MinExistenceBits: f.num()}
	if f.flag() {
		r.Items = []SweepItem{}
		for range f.byte() % 8 {
			it := SweepItem{BudgetBits: f.num(), CostBits: f.num(), Feasible: f.flag()}
			if f.flag() {
				it.Error = &Error{Status: int(f.num()), Message: f.str(), Reason: f.str(), RetryAfterS: f.num()}
			}
			r.Items = append(r.Items, it)
		}
	}
	r.Succeeded, r.Failed, r.Session = int(f.num()), int(f.num()), f.str()
	r.DeltasApplied, r.ChangedNodes = int(f.num()), int(f.num())
	r.CellsInvalidated, r.CellsReused, r.ElapsedUS, r.Cost = f.num(), f.num(), f.num(), f.cost()
	return r
}

// indentJSON is the reference encoding: what the server's writeJSON
// sends for v.
func indentJSON(t *testing.T, v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// packedHead is the reference for a packed frame's head: the shape the
// frame encoder marshalled with encoding/json before it wrote the head
// itself. Its Schedule field is shallower than the one promoted from
// the embedded result, so it hides that one, and being nil it is
// omitted.
type packedHead struct {
	Result struct {
		*ScheduleResult
		Schedule *struct{} `json:"schedule,omitempty"`
	} `json:"result"`
	Trace *obs.TraceExport `json:"trace,omitempty"`
}

// FuzzResponseJSON checks the response appenders against encoding/json:
// for any ScheduleResult, stamped or not, and any PatchResponse, the
// appended bytes equal what json.Encoder with SetIndent("", "  ")
// writes, appended after whatever the buffer already held. A packed
// frame's head, with or without a trace, equals json.Marshal of
// packedHead, and its move section is the stamp's packed moves.
func FuzzResponseJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x05dwt-8\x07optimal\x00\x00\x01\x10\x01\x20\x01\x30\x01\x08\x01\x09\x02\x01\x01\x01\x02\x01\x03\x01\x04\x00\x01\x01\x02\x05\x01\x07"))
	f.Add([]byte("\x08<a>&b\xe2\x80\xa8\x06\x01\x1f\x7f\xff\"\\\x04\xe2\x80\xa9x\x03\xc3(\x03\x0a\x0d\x09\x02\x03\x02\x08\x0c"))
	f.Add(bytes.Repeat([]byte{0xff, 0x03, 0x01, 0x02, '<'}, 40))
	f.Add(bytes.Repeat([]byte{0x02, 0x01, 0x80, 0x7f, 0x00}, 60))
	// An anytime block, a stamp with a move, and a trace with HTML and
	// escaped strings.
	f.Add([]byte("\x00\x01w\x07anytime\x00\x00\x01\x10\x01\x20\x01\x30\x01\x08\x01\x09\x01\x01\x01\x01\x02\x01\x03\x01\x04" +
		"\x01\x01\x01\x32\x01\x09\x01\x02\x01\x01\x01\x01\x01\x02\x00\x01\x09\x00\x04miss\x01\x05solve\x00\x00\x00\x00\x00\x00\x00\x00" +
		"\x03hit\x03a&b\x01\x02\x01\x04<i\">\x00\x00\x00\x00\x00\x00\x00\x00\x01\x01\x05" +
		"\x01\x02ab\x01\x01\x02\x01x\x00\x01\x03\x01\x01k\x03v\n<\x01\x01c\x00\x01y\x00\x01\x03\x01\x01k\x03v\n<\x01\x01c\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		fv := fuzzValues{b: data}
		prefix := []byte(fv.str())
		r := fv.scheduleResult()
		if got, want := r.AppendJSON(prefix[:len(prefix):len(prefix)]), append(prefix, indentJSON(t, r)...); !bytes.Equal(got, want) {
			t.Fatalf("ScheduleResult.AppendJSON:\n%s\nwant\n%s", got, want)
		}
		st := Stamp{Cache: fv.str(), CacheKey: fv.str(), ElapsedUS: fv.num(), Cost: fv.cost()}
		if fv.flag() {
			st.Schedule = core.Schedule{{Kind: core.M2, Node: cdag.NodeID(fv.num())}}
		}
		cp := *r
		cp.Cache, cp.CacheKey, cp.ElapsedUS, cp.Cost, cp.Schedule = st.Cache, st.CacheKey, st.ElapsedUS, st.Cost, st.Schedule
		if got, want := r.AppendStamped(nil, &st), indentJSON(t, &cp); !bytes.Equal(got, want) {
			t.Fatalf("ScheduleResult.AppendStamped:\n%s\nwant\n%s", got, want)
		}
		var ref packedHead
		ref.Result.ScheduleResult, ref.Trace = &cp, fv.trace()
		head, err := json.Marshal(&ref)
		if err != nil {
			t.Fatal(err)
		}
		moves, merr := st.Schedule.AppendBinary(nil)
		frame, err := AppendPeerFrame(prefix[:len(prefix):len(prefix)], r, &st, ref.Trace)
		if want := append(append(append(prefix, head...), '\n'), moves...); (err != nil) != (merr != nil) || (err == nil && !bytes.Equal(frame, want)) {
			t.Fatalf("AppendPeerFrame: %q, %v\nwant %q, %v", frame, err, want, merr)
		}
		p := fv.patchResponse()
		if got, want := p.AppendJSON(nil), indentJSON(t, p); !bytes.Equal(got, want) {
			t.Fatalf("PatchResponse.AppendJSON:\n%s\nwant\n%s", got, want)
		}
	})
}
