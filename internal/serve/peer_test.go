package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"wrbpg/internal/cluster"
	"wrbpg/internal/core"
	"wrbpg/internal/obs"
	"wrbpg/internal/serve/wire"
)

// postPeer sends preq to the peer endpoint at url the way a forwarder
// does, asking for the accept media type, or for nothing when it is
// empty (forwarders from before the packed frame).
func postPeer(t *testing.T, url string, preq wire.PeerScheduleRequest, accept string) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(preq)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+cluster.PeerPath, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.HopHeader, "1")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// peerVolatile matches the one peer body field that varies from run to
// run on a cache hit: the lookup time.
var peerVolatile = regexp.MustCompile(`"elapsed_us":\d+`)

// checkPeerGolden: the JSON envelope an owner sends a forwarder that
// did not ask for the packed frame matches the recorded one byte for
// byte, lookup time aside. The body is a cache hit, so its cost block
// is fixed.
func checkPeerGolden(t *testing.T, body []byte) {
	t.Helper()
	got := peerVolatile.ReplaceAll(body, []byte(`"elapsed_us":0`))
	path := filepath.Join("testdata", "golden", "peer_envelope.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("peer body differs from %s:\n%s", path, got)
	}
}

// fillTraced runs Fill inside a traced peer.fill span and returns the
// span's envelope attribute with Fill's answer.
func fillTraced(c *cluster.Cluster, owner string, preq *wire.PeerScheduleRequest) (res *wire.ScheduleResult, envelope string, apiErr *wire.Error, err error) {
	tr := obs.NewTrace()
	ctx, sp := obs.StartSpan(obs.WithTrace(context.Background(), tr), "peer.fill")
	res, _, apiErr, err = c.Fill(ctx, owner, preq)
	sp.End()
	tr.Finish()
	return res, spanAttr(tr.Tree().Spans[0], "envelope"), apiErr, err
}

// spanAttr returns the value of n's key attribute, or "".
func spanAttr(n *obs.SpanNode, key string) string {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// indentedResult is a ScheduleResult as owners before the compact
// envelope wrote it: two-space indented, one move field per line.
const indentedResult = `{
  "workload": "w",
  "source": "optimal",
  "budget_bits": 64,
  "cost_bits": 7,
  "peak_bits": 64,
  "lower_bound_bits": 7,
  "move_count": 3,
  "move_kinds": {
    "M1": 1,
    "M2": 1,
    "M3": 1,
    "M4": 0
  },
  "schedule": [
    {
      "kind": "M1",
      "node": 0
    },
    {
      "kind": "M3",
      "node": 2
    },
    {
      "kind": "M2",
      "node": 2
    }
  ],
  "elapsed_us": 41,
  "cost": {
    "source_tier": "solve",
    "solve_wall_us": 40
  }
}`

// TestFillNegotiatesEnvelope is the mixed-version matrix of the peer
// hop. A forwarder asks for the packed frame; an owner sends it only
// when asked. So a new forwarder fills from a new owner (packed) and
// from an old one (JSON, indented or bare included), an old forwarder
// gets the JSON envelope it always got, and a malformed packed frame is
// a transport-class failure the forwarder answers by solving locally.
// Both ends record the form as the envelope attribute of their span.
func TestFillNegotiatesEnvelope(t *testing.T) {
	f := newTestFleet(t, 2, Options{})
	req := dwtRequest(16 * 16)
	inst, err := req.Instance()
	if err != nil {
		t.Fatal(err)
	}
	preq := wire.PeerScheduleRequest{Req: req, Key: inst.Key(req.BudgetBits), Origin: f.urls[0]}
	// The first request solves at replica 1; the second is a cache hit,
	// whose body is fixed but for its lookup time.
	postPeer(t, f.urls[1], preq, "")
	jsonResp, jsonBody := postPeer(t, f.urls[1], preq, "")
	if jsonResp.StatusCode != http.StatusOK {
		t.Fatalf("peer status %d: %s", jsonResp.StatusCode, jsonBody)
	}

	t.Run("old-forwarder", func(t *testing.T) {
		if ct := jsonResp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q without Accept, want application/json", ct)
		}
		checkPeerGolden(t, jsonBody)
	})

	t.Run("packed-owner", func(t *testing.T) {
		resp, body := postPeer(t, f.urls[1], preq, wire.PeerMediaType)
		ct := resp.Header.Get("Content-Type")
		if resp.StatusCode != http.StatusOK || ct != wire.PeerMediaType {
			t.Fatalf("status %d, Content-Type %q: %s", resp.StatusCode, ct, body)
		}
		if 4*len(body) > len(jsonBody) {
			t.Errorf("packed frame is %d bytes, JSON envelope %d", len(body), len(jsonBody))
		}
		got, err := wire.DecodePeerResponse(ct, body)
		if err != nil {
			t.Fatal(err)
		}
		want, err := wire.DecodePeerResponse("application/json", jsonBody)
		if err != nil {
			t.Fatal(err)
		}
		got.Result.ElapsedUS, want.Result.ElapsedUS = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("packed frame decodes to %+v, JSON envelope to %+v", got.Result, want.Result)
		}
		res, envelope, apiErr, err := fillTraced(f.clusters[0], f.urls[1], &preq)
		if err != nil || apiErr != nil {
			t.Fatalf("fill: apiErr=%v err=%v", apiErr, err)
		}
		if envelope != wire.EnvelopePacked {
			t.Errorf("fill: peer.fill envelope=%q, want packed", envelope)
		}
		res.ElapsedUS = 0
		if !reflect.DeepEqual(res, want.Result) {
			t.Fatalf("fill result %+v, want the JSON envelope's %+v", res, want.Result)
		}
	})

	t.Run("traced", func(t *testing.T) {
		// Replica 0 has not seen the key: its miss is filled by replica
		// 1 when replica 1 owns it, and the trace shows the form on both
		// sides of the hop.
		req := f.reqOwnedBy(t, func(owner string) bool { return owner == f.urls[1] })
		resp, body := postTraced(t, f.urls[0]+"/v1/schedule", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var ex obs.TraceExport
		getJSON(t, f.urls[0]+"/v1/trace/"+resp.Header.Get(TraceIDHeader), &ex)
		spans := map[string]*obs.SpanNode{}
		spanNames(ex.Spans, spans)
		for _, name := range []string{"peer.fill", "peer.serve"} {
			if sp := spans[name]; sp == nil || spanAttr(sp, "envelope") != wire.EnvelopePacked {
				t.Errorf("%s span %+v, want envelope=packed", name, sp)
			}
		}
	})

	t.Run("json-owner", func(t *testing.T) {
		var accept atomic.Value
		fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			accept.Store(r.Header.Get("Accept"))
			var p wire.PeerScheduleRequest
			if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
				t.Errorf("decode: %v", err)
			}
			w.Header().Set("Content-Type", "application/json")
			switch p.Key {
			case "compact":
				w.Write(jsonBody)
			case "indented":
				fmt.Fprintf(w, "{\n  \"result\": %s\n}\n", strings.ReplaceAll(indentedResult, "\n", "\n  "))
			case "bare":
				// A pre-envelope result, sent chunked without a length.
				half := len(indentedResult) / 2
				fmt.Fprint(w, indentedResult[:half])
				w.(http.Flusher).Flush()
				fmt.Fprintln(w, indentedResult[half:])
			}
		}))
		defer fake.Close()
		c, err := cluster.New(cluster.Config{Self: "http://self.invalid", Peers: []string{fake.URL}})
		if err != nil {
			t.Fatal(err)
		}
		want := core.Schedule{{Kind: core.M1, Node: 0}, {Kind: core.M3, Node: 2}, {Kind: core.M2, Node: 2}}
		for _, key := range []string{"compact", "indented", "bare"} {
			res, envelope, apiErr, err := fillTraced(c, fake.URL, &wire.PeerScheduleRequest{Key: key})
			if err != nil || apiErr != nil || res == nil {
				t.Fatalf("%s: res=%+v apiErr=%v err=%v", key, res, apiErr, err)
			}
			if a := accept.Load(); a != wire.PeerMediaType {
				t.Errorf("%s: forwarder sent Accept %q, want %q", key, a, wire.PeerMediaType)
			}
			if envelope != wire.EnvelopeJSON {
				t.Errorf("%s: peer.fill envelope=%q, want json", key, envelope)
			}
			if key == "compact" {
				if len(res.Schedule) == 0 || len(res.Schedule) != res.MoveCount {
					t.Errorf("compact: %d moves, move_count %d", len(res.Schedule), res.MoveCount)
				}
				continue
			}
			if !reflect.DeepEqual(res.Schedule, want) || res.CostBits != 7 || res.MoveKinds["M3"] != 1 ||
				res.Cost == nil || res.Cost.SolveWallUS != 40 {
				t.Fatalf("%s: decoded %+v, want the indented body's fields", key, res)
			}
		}
	})

	t.Run("malformed-packed", func(t *testing.T) {
		head := func(moveCount int) string {
			return fmt.Sprintf(`{"result":{"workload":"w","source":"optimal","cost_bits":7,"move_count":%d}}`, moveCount)
		}
		one, err := core.Schedule{{Kind: core.M1, Node: 3}}.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		bodies := []string{
			head(1),                               // no newline
			head(1) + "\n" + "\x01\x80",           // truncated varint
			head(2) + "\n" + string(one),          // count ≠ move_count
			head(1) + "\n" + string(one) + "\x00", // trailing bytes
			head(3) + "\n" + "\x03\x00",           // count beyond the input
		}
		var current atomic.Int32
		fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", wire.PeerMediaType)
			io.WriteString(w, bodies[current.Load()])
		}))
		defer fake.Close()
		// No number of fill errors ejects the fake owner.
		c, err := cluster.New(cluster.Config{Self: "http://self.invalid", Peers: []string{fake.URL}, Seed: 1, FailThreshold: 100})
		if err != nil {
			t.Fatal(err)
		}
		for i, body := range bodies {
			current.Store(int32(i))
			res, envelope, apiErr, err := fillTraced(c, fake.URL, &wire.PeerScheduleRequest{Key: "k"})
			if err == nil || apiErr != nil || res != nil {
				t.Errorf("%q: res=%+v apiErr=%v err=%v, want a transport-class error", body, res, apiErr, err)
			}
			if envelope != wire.EnvelopePacked {
				t.Errorf("%q: peer.fill envelope=%q, want packed", body, envelope)
			}
		}

		// Served: every such fill counts as error and is solved locally.
		s := New(Options{Cluster: c})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		n := 0
		for b := int64(16 * 16); n < len(bodies) && b < 16*16+512; b++ {
			req := dwtRequest(b)
			inst, err := req.Instance()
			if err != nil {
				t.Fatal(err)
			}
			if _, local := c.Route(inst.Key(b)); local {
				continue
			}
			current.Store(int32(n))
			n++
			resp, body := postJSON(t, ts.URL+"/v1/schedule", req)
			var res wire.ScheduleResult
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &res) != nil || res.Source != "optimal" {
				t.Fatalf("budget %d: status %d: %s, want a local optimal answer", b, resp.StatusCode, body)
			}
		}
		if n < len(bodies) {
			t.Fatal("not enough peer-owned budgets in range")
		}
		if st := s.Stats(); st.PeerFill["error"] != uint64(n) || st.Solves != uint64(n) {
			t.Fatalf("peer_fill=%v solves=%d, want error=%d and %d local solves", st.PeerFill, st.Solves, n, n)
		}
	})
}
