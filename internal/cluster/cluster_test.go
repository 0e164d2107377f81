package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"wrbpg/internal/obs"
	"wrbpg/internal/serve/wire"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a config without Self")
	}
	c, err := New(Config{
		Self:  "http://a:1/",
		Peers: []string{"http://b:1", "http://b:1/", " http://a:1 ", ""},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Self() != "http://a:1" {
		t.Fatalf("Self=%q, want trailing slash stripped", c.Self())
	}
	rep := c.Health()
	if rep.Total != 2 || rep.Healthy != 2 {
		t.Fatalf("health %+v: self + deduped peer should make a 2-member cluster", rep)
	}
	if c.PeerTimeout() != 250*time.Millisecond {
		t.Fatalf("PeerTimeout=%v, want 250ms default", c.PeerTimeout())
	}
}

func TestRouteLocalWhenPeerless(t *testing.T) {
	c, err := New(Config{Self: "http://a:1"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		owner, local := c.Route(fmt.Sprintf("k%d", i))
		if !local || owner != "http://a:1" {
			t.Fatalf("peerless cluster routed %q to %q local=%v", fmt.Sprintf("k%d", i), owner, local)
		}
	}
}

// flakyPeer is a /readyz endpoint whose status is flipped by the test.
type flakyPeer struct {
	status atomic.Int32
}

func (p *flakyPeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(int(p.status.Load()))
}

func TestHealthEjectAndReadmit(t *testing.T) {
	peer := &flakyPeer{}
	peer.status.Store(http.StatusOK)
	ts := httptest.NewServer(peer)
	defer ts.Close()

	c, err := New(Config{
		Self:          "http://self:1",
		Peers:         []string{ts.URL},
		FailThreshold: 2,
		Client:        ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	c.ProbeOnce(ctx)
	if !c.ring.Has(ts.URL) {
		t.Fatal("healthy peer ejected")
	}

	// One failed probe: below threshold, still on the ring.
	peer.status.Store(http.StatusServiceUnavailable)
	c.ProbeOnce(ctx)
	if !c.ring.Has(ts.URL) {
		t.Fatal("peer ejected after a single failed probe (threshold 2)")
	}
	// Second consecutive failure ejects.
	c.ProbeOnce(ctx)
	if c.ring.Has(ts.URL) {
		t.Fatal("peer not ejected after reaching the fail threshold")
	}
	if c.Ejections() != 1 {
		t.Fatalf("Ejections=%d, want 1", c.Ejections())
	}
	if rep := c.Health(); rep.Healthy != 1 || rep.Total != 2 {
		t.Fatalf("health %+v after ejection", rep)
	}
	// Every key now routes locally.
	if owner, local := c.Route("anything"); !local {
		t.Fatalf("key routed to ejected peer %q", owner)
	}

	// A single success re-admits.
	peer.status.Store(http.StatusOK)
	c.ProbeOnce(ctx)
	if !c.ring.Has(ts.URL) {
		t.Fatal("recovered peer not re-admitted")
	}
	if c.Readmissions() != 1 {
		t.Fatalf("Readmissions=%d, want 1", c.Readmissions())
	}
}

func TestReportFillErrorCountsTowardEjection(t *testing.T) {
	c, err := New(Config{
		Self:          "http://self:1",
		Peers:         []string{"http://peer:1"},
		FailThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.ReportFillError("http://peer:1")
	if !c.ring.Has("http://peer:1") {
		t.Fatal("one fill error should not eject (threshold 2)")
	}
	c.ReportFillError("http://peer:1")
	if c.ring.Has("http://peer:1") {
		t.Fatal("two fill errors should eject like two failed probes")
	}
	// Unknown peers are ignored, not invented.
	c.ReportFillError("http://stranger:1")
	if rep := c.Health(); rep.Total != 2 {
		t.Fatalf("unknown peer created state: %+v", rep)
	}
}

func TestStartLoopProbes(t *testing.T) {
	peer := &flakyPeer{}
	peer.status.Store(http.StatusServiceUnavailable)
	ts := httptest.NewServer(peer)
	defer ts.Close()

	c, err := New(Config{
		Self:           "http://self:1",
		Peers:          []string{ts.URL},
		HealthInterval: 5 * time.Millisecond,
		FailThreshold:  2,
		Client:         ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)
	deadline := time.Now().Add(2 * time.Second)
	for c.ring.Has(ts.URL) {
		if time.Now().After(deadline) {
			t.Fatal("health loop never ejected a peer answering 503")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFillDecodesResultAndErrors: Fill returns a packed frame's result
// and trace, an owner's structured error as apiErr, and every other
// answer (a JSON 200, a frame under the wrong media type, a proxy
// page, a dead peer) as a transport-class error.
func TestFillDecodesResultAndErrors(t *testing.T) {
	frame, err := wire.AppendPeerResponse(nil, &wire.PeerScheduleResponse{
		Result: &wire.ScheduleResult{Workload: "w", Source: "optimal", CostBits: 7},
		Trace:  &obs.TraceExport{TraceID: "ab12", StartUS: 1, Spans: []*obs.SpanNode{{Name: "peer.serve", DurationUS: 5}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle(PeerPath, NewPeerServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(HopHeader) == "" {
			t.Error("Fill did not set the hop header")
		}
		var preq wire.PeerScheduleRequest
		if err := json.NewDecoder(r.Body).Decode(&preq); err != nil {
			t.Errorf("decode: %v", err)
		}
		switch preq.Key {
		case "ok":
			w.Header().Set("Content-Type", wire.PeerMediaType)
			w.Write(frame)
		case "wrong-type":
			w.Header().Set("Content-Type", "application/json")
			w.Write(frame)
		case "json":
			// An owner from before the packed frame: the compact JSON
			// envelope, or a bare ScheduleResult from before the envelope.
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"result":{"workload":"w","source":"optimal","cost_bits":7},"trace":{"trace_id":"ab12","start_unix_us":1,"spans":[{"name":"peer.serve","start_us":0,"duration_us":5}]}}`)
		case "bare":
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"workload":"w","source":"optimal","cost_bits":7}`)
		case "shed":
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"status":429,"error":"busy","retry_after_s":3}`)
		default:
			w.WriteHeader(http.StatusBadGateway)
			fmt.Fprint(w, "<html>proxy error</html>")
		}
	})))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c, err := New(Config{Self: "http://self:1", Peers: []string{ts.URL}, Client: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	res, tex, apiErr, ferr := c.Fill(ctx, ts.URL, &wire.PeerScheduleRequest{Key: "ok"})
	if ferr != nil || apiErr != nil || res == nil || res.CostBits != 7 {
		t.Fatalf("ok fill: res=%+v apiErr=%v err=%v", res, apiErr, ferr)
	}
	if tex == nil || tex.TraceID != "ab12" || len(tex.Spans) != 1 {
		t.Fatalf("ok fill trace subtree = %+v, want the owner's peer.serve span", tex)
	}

	// Any 200 that is not a packed frame is a transport-class failure,
	// so the caller solves locally.
	for _, key := range []string{"wrong-type", "json", "bare"} {
		res, _, apiErr, ferr = c.Fill(ctx, ts.URL, &wire.PeerScheduleRequest{Key: key})
		if res != nil || apiErr != nil || ferr == nil {
			t.Fatalf("%s 200 should be a transport-class error, got res=%+v apiErr=%v err=%v", key, res, apiErr, ferr)
		}
	}

	res, _, apiErr, ferr = c.Fill(ctx, ts.URL, &wire.PeerScheduleRequest{Key: "shed"})
	if ferr != nil || res != nil {
		t.Fatalf("shed fill: res=%+v err=%v", res, ferr)
	}
	if apiErr == nil || apiErr.Status != http.StatusTooManyRequests || apiErr.RetryAfterS != 3 {
		t.Fatalf("shed fill apiErr=%+v, want structured 429 with retry_after_s=3", apiErr)
	}

	res, _, apiErr, ferr = c.Fill(ctx, ts.URL, &wire.PeerScheduleRequest{Key: "garbage"})
	if res != nil || apiErr != nil || ferr == nil {
		t.Fatalf("unstructured 502 should be a transport-class error, got res=%v apiErr=%v err=%v", res, apiErr, ferr)
	}

	// Transport failure against a closed server.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	if _, _, _, ferr = c.Fill(ctx, deadURL, &wire.PeerScheduleRequest{Key: "ok"}); ferr == nil {
		t.Fatal("fill against a dead peer returned no error")
	}
}

// TestReadBodyLimit: a peer body longer than the limit is an error
// that says so. An announced length over the limit is refused before a
// byte is read; a chunked body is cut one byte past the limit.
func TestReadBodyLimit(t *testing.T) {
	const limit = 8
	read := func(n int64, body string) ([]byte, error) {
		return readBody(&http.Response{ContentLength: n, Body: io.NopCloser(strings.NewReader(body))}, limit)
	}
	if b, err := read(limit, "12345678"); err != nil || string(b) != "12345678" {
		t.Fatalf("announced body at the limit: %q, %v", b, err)
	}
	if b, err := read(-1, "12345678"); err != nil || string(b) != "12345678" {
		t.Fatalf("chunked body at the limit: %q, %v", b, err)
	}
	refused := &http.Response{ContentLength: limit + 1, Body: io.NopCloser(iotest.ErrReader(errors.New("body read")))}
	if _, err := readBody(refused, limit); err == nil || !strings.Contains(err.Error(), "peer body of 9 bytes exceeds limit") {
		t.Fatalf("announced body over the limit: err=%v", err)
	}
	if _, err := read(-1, "123456789"); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("chunked body over the limit: err=%v", err)
	}

	// Through Fill: an owner announcing more than maxPeerBody is a
	// transport-class error naming the size, not a decode error.
	ts := httptest.NewServer(NewPeerServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(maxPeerBody+1))
		w.WriteHeader(http.StatusOK)
	})))
	defer ts.Close()
	c, err := New(Config{Self: "http://self:1", Peers: []string{ts.URL}, Client: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	res, _, apiErr, ferr := c.Fill(context.Background(), ts.URL, &wire.PeerScheduleRequest{Key: "big"})
	if res != nil || apiErr != nil || ferr == nil || !strings.Contains(ferr.Error(), fmt.Sprintf("peer body of %d bytes exceeds limit", maxPeerBody+1)) {
		t.Fatalf("oversized fill: res=%v apiErr=%v err=%v", res, apiErr, ferr)
	}
}

func TestRegisterMetrics(t *testing.T) {
	c, err := New(Config{Self: "http://self:1", Peers: []string{"http://peer:1"}})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"wrbpg_peer_healthy 2",
		"wrbpg_peer_members 2",
		"wrbpg_peer_ejections_total 0",
		"wrbpg_peer_readmissions_total 0",
		"wrbpg_peer_fill_transport_errors_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
