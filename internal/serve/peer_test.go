package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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

// serveFillOf answers preq at s as the owner answers a fill frame,
// untraced: the body is the request as a forwarder encodes it.
func serveFillOf(t *testing.T, s *Server, preq wire.PeerScheduleRequest) (int, []byte) {
	t.Helper()
	b, err := wire.AppendPeerRequest(nil, &preq)
	if err != nil {
		t.Fatal(err)
	}
	return s.serveFill(context.Background(), "", b, nil)
}

// newFakeOwner serves fill frames with fill on a test listener and
// returns its URL.
func newFakeOwner(t *testing.T, fill cluster.FillHandler) string {
	t.Helper()
	ps := cluster.NewPeerServer(fill)
	ts := httptest.NewServer(http.HandlerFunc(ps.Upgrade))
	t.Cleanup(func() {
		ps.Drain()
		ts.Close()
	})
	return ts.URL
}

// peerVolatile matches the one peer body field that varies from run to
// run on a cache hit: the lookup time.
var peerVolatile = regexp.MustCompile(`"elapsed_us":\d+`)

// checkPeerGolden: the packed frame an owner sends matches the
// recorded one byte for byte, lookup time aside. The body is a cache
// hit, so its cost block is fixed. Only the JSON head is normalized;
// the move section is bytes.
func checkPeerGolden(t *testing.T, body []byte) {
	t.Helper()
	i := bytes.IndexByte(body, '\n')
	if i < 0 {
		t.Fatalf("peer body has no move section: %q", body)
	}
	got := append(peerVolatile.ReplaceAll(body[:i], []byte(`"elapsed_us":0`)), body[i:]...)
	path := filepath.Join("testdata", "golden", "peer_frame.bin")
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
		t.Fatalf("peer body differs from %s:\n%q", path, got)
	}
}

// fillTraced runs Fill inside a traced peer.fill span, as a forwarder
// does, and returns its answer.
func fillTraced(c *cluster.Cluster, owner string, preq *wire.PeerScheduleRequest) (*wire.ScheduleResult, *wire.Error, error) {
	tr := obs.NewTrace()
	ctx, sp := obs.StartSpan(obs.WithTrace(context.Background(), tr), "peer.fill")
	res, _, apiErr, err := c.Fill(ctx, owner, preq)
	sp.End()
	tr.Finish()
	return res, apiErr, err
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

// checkFillFallsBack: with c's one peer answering each of n unusable
// 200s in turn (set selects the answer), every fill is a transport-class
// error, and served, each counts peer_fill{outcome="error"} and is
// answered by a local optimal solve.
func checkFillFallsBack(t *testing.T, c *cluster.Cluster, peer string, n int, set func(i int)) {
	t.Helper()
	for i := 0; i < n; i++ {
		set(i)
		res, apiErr, err := fillTraced(c, peer, &wire.PeerScheduleRequest{Key: "k"})
		if err == nil || apiErr != nil || res != nil {
			t.Errorf("answer %d: res=%+v apiErr=%v err=%v, want a transport-class error", i, res, apiErr, err)
		}
	}

	s := New(Options{Cluster: c})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	i := 0
	for b := int64(16 * 16); i < n && b < 16*16+512; b++ {
		req := dwtRequest(b)
		inst, err := req.Instance()
		if err != nil {
			t.Fatal(err)
		}
		if _, local := c.Route(inst.Key(b)); local {
			continue
		}
		set(i)
		i++
		resp, body := postJSON(t, ts.URL+"/v1/schedule", req)
		var res wire.ScheduleResult
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &res) != nil || res.Source != "optimal" {
			t.Fatalf("budget %d: status %d: %s, want a local optimal answer", b, resp.StatusCode, body)
		}
	}
	if i < n {
		t.Fatal("not enough peer-owned budgets in range")
	}
	if st := s.Stats(); st.PeerFill["error"] != uint64(n) || st.Solves != uint64(n) {
		t.Fatalf("peer_fill=%v solves=%d, want error=%d and %d local solves", st.PeerFill, st.Solves, n, n)
	}
}

// TestFillFrame: the packed frame is the one 200 body of the peer
// hop. Any other 200 (a JSON envelope, a bare result, a malformed
// frame) is a transport-class failure the forwarder answers by solving
// locally.
func TestFillFrame(t *testing.T) {
	f := newTestFleet(t, 2, Options{})
	req := dwtRequest(16 * 16)
	inst, err := req.Instance()
	if err != nil {
		t.Fatal(err)
	}
	preq := wire.PeerScheduleRequest{Req: req, Key: inst.Key(req.BudgetBits), Origin: f.urls[0]}
	// The first fill solves at replica 1; the later ones are cache
	// hits, whose body is fixed but for its lookup time.
	serveFillOf(t, f.servers[1], preq)

	t.Run("golden", func(t *testing.T) {
		status, body := serveFillOf(t, f.servers[1], preq)
		if status != http.StatusOK {
			t.Fatalf("status %d: %q", status, body)
		}
		checkPeerGolden(t, body)
	})

	t.Run("packed-owner", func(t *testing.T) {
		status, body := serveFillOf(t, f.servers[1], preq)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		want, err := wire.DecodePeerResponse(body, true)
		if err != nil {
			t.Fatal(err)
		}
		jsonBody, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if 4*len(body) > len(jsonBody) {
			t.Errorf("packed frame is %d bytes, JSON envelope %d", len(body), len(jsonBody))
		}
		if len(want.Result.Schedule) == 0 || want.Result.MoveKinds.M3 == 0 {
			t.Fatalf("frame decodes to %+v, want a full move list", want.Result)
		}
		res, apiErr, err := fillTraced(f.clusters[0], f.urls[1], &preq)
		if err != nil || apiErr != nil {
			t.Fatalf("fill: apiErr=%v err=%v", apiErr, err)
		}
		res.ElapsedUS, want.Result.ElapsedUS = 0, 0
		if !reflect.DeepEqual(res, want.Result) {
			t.Fatalf("fill result %+v, want the frame's %+v", res, want.Result)
		}
	})

	t.Run("traced", func(t *testing.T) {
		// Replica 0 has not seen the key: its miss is filled by replica
		// 1 when replica 1 owns it, and the trace holds both sides of
		// the hop.
		req := f.reqOwnedBy(t, func(owner string) bool { return owner == f.urls[1] })
		resp, body := postTraced(t, f.urls[0]+"/v1/schedule", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var ex obs.TraceExport
		getJSON(t, f.urls[0]+"/v1/trace/"+resp.Header.Get(TraceIDHeader), &ex)
		spans := map[string]*obs.SpanNode{}
		spanNames(ex.Spans, spans)
		if sp := spans["peer.fill"]; sp == nil || spanAttr(sp, "outcome") != peerFilled {
			t.Errorf("peer.fill span %+v, want outcome=filled", sp)
		}
		for _, name := range []string{"peer.fill", "peer.serve"} {
			if sp := spans[name]; sp == nil || spanAttr(sp, "envelope") != "" {
				t.Errorf("%s span %+v, want one without an envelope attribute", name, sp)
			}
		}
	})

	t.Run("json-owner", func(t *testing.T) {
		// An owner answering JSON: the compact envelope, or a bare
		// result.
		bodies := []string{
			`{"result":{"workload":"w","source":"optimal","cost_bits":7,"move_count":0}}`,
			`{"workload":"w","source":"optimal","cost_bits":7,"move_count":0}`,
		}
		var current atomic.Int32
		fake := newFakeOwner(t, func(_ context.Context, _ string, _, dst []byte) (int, []byte) {
			return http.StatusOK, append(dst, bodies[current.Load()]...)
		})
		// No number of fill errors ejects the fake owner.
		c, err := cluster.New(cluster.Config{Self: "http://self.invalid", Peers: []string{fake}, Seed: 1, FailThreshold: 100})
		if err != nil {
			t.Fatal(err)
		}
		checkFillFallsBack(t, c, fake, len(bodies), func(i int) { current.Store(int32(i)) })
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
		fake := newFakeOwner(t, func(_ context.Context, _ string, _, dst []byte) (int, []byte) {
			return http.StatusOK, append(dst, bodies[current.Load()]...)
		})
		c, err := cluster.New(cluster.Config{Self: "http://self.invalid", Peers: []string{fake}, Seed: 1, FailThreshold: 100})
		if err != nil {
			t.Fatal(err)
		}
		checkFillFallsBack(t, c, fake, len(bodies), func(i int) { current.Store(int32(i)) })
	})
}

// TestPeerFillOwnerRefusals: an owner answers a fill it refuses with a
// structured error that reaches the forwarder as apiErr: a body over
// MaxBodyBytes and a key the owner does not compute are 400s, each
// counted as one bad request, and a fill meeting a saturated queue is
// a 429 with retry_after_s, not counted. Each fill counts one peer
// request.
func TestPeerFillOwnerRefusals(t *testing.T) {
	f := newTestFleet(t, 2, Options{MaxBodyBytes: 256, MaxInflight: 1, MaxQueue: -1})
	req := dwtRequest(16 * 16)
	inst, err := req.Instance()
	if err != nil {
		t.Fatal(err)
	}
	key := inst.Key(req.BudgetBits)
	for _, c := range []struct {
		name   string
		preq   wire.PeerScheduleRequest
		status int
		bad    float64
	}{
		{"over MaxBodyBytes", wire.PeerScheduleRequest{Req: req, Key: key, Origin: strings.Repeat("o", 256)}, http.StatusBadRequest, 1},
		{"key mismatch", wire.PeerScheduleRequest{Req: req, Key: "sha256:0"}, http.StatusBadRequest, 1},
		{"saturated", wire.PeerScheduleRequest{Req: req, Key: key}, http.StatusTooManyRequests, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.status == http.StatusTooManyRequests {
				defer pinSlots(t, f.servers[1])()
			}
			bad := scrapeMetrics(t, f.urls[1])["wrbpg_http_bad_requests_total"]
			peers := f.servers[1].Stats().PeerRequests
			_, _, apiErr, err := f.clusters[0].Fill(context.Background(), f.urls[1], &c.preq)
			if err != nil || apiErr == nil || apiErr.Status != c.status {
				t.Fatalf("apiErr=%+v err=%v, want a structured %d", apiErr, err, c.status)
			}
			if c.status == http.StatusTooManyRequests && apiErr.RetryAfterS < 1 {
				t.Errorf("429 carries retry_after_s=%d, want at least 1", apiErr.RetryAfterS)
			}
			if d := scrapeMetrics(t, f.urls[1])["wrbpg_http_bad_requests_total"] - bad; d != c.bad {
				t.Errorf("wrbpg_http_bad_requests_total rose by %v, want %v", d, c.bad)
			}
			if d := f.servers[1].Stats().PeerRequests - peers; d != 1 {
				t.Errorf("the owner counted %d peer requests, want 1", d)
			}
		})
	}
}
