// Fuzz targets for the wire request decoders, and for the decoder of a
// peer's answer: every malformed body must come back as a structured
// error (the serve layer's 400, or a failed fill), never a panic. The
// request targets mirror the handler pipeline exactly — strict JSON
// decode, request→Instance conversion, Validate, key derivation — but
// stop short of Build, so the fuzzer explores the parsing and
// validation surface without paying graph-construction time or memory.
//
// Run continuously with:
//
//	go test -fuzz=FuzzScheduleRequest -fuzztime=30s ./internal/serve/wire
//	go test -fuzz=FuzzCDAGRequest     -fuzztime=30s ./internal/serve/wire
//	go test -fuzz=FuzzPatchRequest    -fuzztime=30s ./internal/serve/wire
//	go test -fuzz=FuzzPeerRequest     -fuzztime=30s ./internal/serve/wire
//	go test -fuzz=FuzzPeerResponse    -fuzztime=30s ./internal/serve/wire

package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"wrbpg/internal/solve"
)

// decodeLikeServer mimics serve.decodeStrict: DisallowUnknownFields
// plus a trailing-data check. Returns false when the body is rejected
// at the JSON layer (the handler's immediate 400).
func decodeLikeServer(data []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return false
	}
	return !dec.More()
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

	f.Fuzz(func(t *testing.T, data []byte) {
		var req ScheduleRequest
		if !decodeLikeServer(data, &req) {
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

	f.Fuzz(func(t *testing.T, data []byte) {
		var req ScheduleRequest
		if !decodeLikeServer(data, &req) {
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
// a hostile peer body panic a replica.
func FuzzPeerRequest(f *testing.F) {
	f.Add([]byte(`{"req":{"family":"dwt","n":32,"d":4,"budget_bits":2048,"include_moves":true,"timeout_ms":125},"key":"sha256:ab","origin":"http://replica-0:8080"}`))
	f.Add([]byte(`{"req":{"family":"ktree","k":2,"height":5,"budget_bits":4096}}`))
	f.Add([]byte(`{"req":{},"key":"","origin":""}`))
	f.Add([]byte(`{"key":"sha256:no-request"}`))
	f.Add([]byte(`{"req":{"family":"dwt","n":-1,"d":0,"budget_bits":-5},"key":"zz"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var preq PeerScheduleRequest
		if !decodeLikeServer(data, &preq) {
			return // handler answers 400 before the envelope exists
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
// body under both content types: a hostile or corrupt owner yields an
// error or an envelope with a result, never a panic. A packed frame
// that decodes carries exactly move_count moves and survives a
// re-encode.
func FuzzPeerResponse(f *testing.F) {
	for _, env := range peerEnvelopeSeeds() {
		for _, form := range []string{EnvelopePacked, EnvelopeJSON} {
			b, err := AppendPeerResponse(nil, env, form)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Add([]byte(`{"workload":"w","source":"optimal","move_count":0}`))
	f.Add([]byte("{\"result\":{\"move_count\":2}}\n\x02\x00"))
	f.Add([]byte("{\"result\":null}\n\x00"))
	f.Add([]byte("{}\n"))
	f.Add([]byte("\n\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, ct := range []string{PeerMediaType, "application/json"} {
			env, err := DecodePeerResponse(ct, data)
			if err != nil {
				continue
			}
			if env.Result == nil {
				t.Fatalf("%s %q: no error and no result", ct, data)
			}
			if ct != PeerMediaType {
				continue
			}
			if len(env.Result.Schedule) != env.Result.MoveCount {
				t.Fatalf("%q: %d moves, move_count %d", data, len(env.Result.Schedule), env.Result.MoveCount)
			}
			again, err := AppendPeerResponse(nil, env, EnvelopePacked)
			if err != nil {
				t.Fatalf("%q: decoded envelope does not re-encode: %v", data, err)
			}
			back, err := DecodePeerResponse(ct, again)
			if err != nil || !reflect.DeepEqual(back, env) {
				t.Fatalf("%q: re-encoded as %q, decodes to %+v, %v", data, again, back, err)
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
		if !decodeLikeServer(data, &req) {
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
