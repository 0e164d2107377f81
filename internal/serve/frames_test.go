package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wrbpg/internal/cluster"
	"wrbpg/internal/serve/wire"
)

// TestClusterPeerFramesConcurrent: concurrent misses on a forwarder,
// each filled by the owner, share one upgraded connection, and each
// answer's moves are byte-identical to a single node's.
func TestClusterPeerFramesConcurrent(t *testing.T) {
	f := newTestFleet(t, 2, Options{})
	single, _ := newTestServer(t, Options{})
	var reqs []wire.ScheduleRequest
	for b := int64(16 * 16); len(reqs) < 12 && b < 16*16+512; b++ {
		if req := dwtRequest(b); f.ownerOf(t, req) == 1 {
			reqs = append(reqs, req)
		}
	}
	if len(reqs) < 12 {
		t.Fatal("not enough replica-1-owned budgets in range")
	}
	got := make([]scheduleAnswer, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, _ := json.Marshal(req)
			resp, err := http.Post(f.urls[0]+"/v1/schedule", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(body, &got[i]) != nil {
				t.Errorf("budget %d: status %d, err %v: %s", req.BudgetBits, resp.StatusCode, err, body)
			}
		}()
	}
	wg.Wait()
	for i, req := range reqs {
		want := postSchedule(t, single.URL, req)
		a := got[i]
		if a.Cost.SourceTier != wire.TierPeer || a.Source != want.Source || !bytes.Equal(a.Schedule, want.Schedule) {
			t.Errorf("budget %d: tier %q source %q moves %.40s…, a single node %q moves %.40s…",
				req.BudgetBits, a.Cost.SourceTier, a.Source, a.Schedule, want.Source, want.Schedule)
		}
	}
	if n := f.upgrades[1].Load(); n != 1 {
		t.Fatalf("the owner upgraded %d connections, want 1", n)
	}
	if n := f.servers[1].Stats().PeerRequests; n != uint64(len(reqs)) {
		t.Fatalf("the owner counted %d peer requests, want %d", n, len(reqs))
	}
}

// upgradePeer opens a connection to url and upgrades it to the frame
// transport as a forwarder does, returning the connection and the
// handshake's status.
func upgradePeer(t *testing.T, url string) (net.Conn, *bufio.Reader, int) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: wrbpg-peer/1\r\n%s: 1\r\nContent-Length: 0\r\n\r\n", cluster.PeerPath, cluster.HopHeader)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	return conn, br, resp.StatusCode
}

// TestClusterPeerFramesBeginDrain: BeginDrain closes the server's
// upgraded connections, which outlive http.Server.Close, and refuses
// new upgrades with 503.
func TestClusterPeerFramesBeginDrain(t *testing.T) {
	f := newTestFleet(t, 2, Options{})
	conn, br, status := upgradePeer(t, f.urls[1])
	defer conn.Close()
	if status != http.StatusSwitchingProtocols {
		t.Fatalf("handshake answered %d, want 101", status)
	}
	f.servers[1].BeginDrain()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("upgraded connection after BeginDrain: read err=%v, want io.EOF", err)
	}
	again, _, status := upgradePeer(t, f.urls[1])
	again.Close()
	if status != http.StatusServiceUnavailable {
		t.Fatalf("handshake on a draining server answered %d, want 503", status)
	}
}

// TestClusterPeerFramesSettle: once the clusters stop and the servers
// drain and close, the goroutines of the fills' connections have all
// ended.
func TestClusterPeerFramesSettle(t *testing.T) {
	http.DefaultClient.CloseIdleConnections()
	before := runtime.NumGoroutine()
	f := newTestFleet(t, 2, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range f.clusters {
		c.Start(ctx)
	}
	for fwd := 0; fwd < 2; fwd++ {
		req := f.reqOwnedBy(t, func(owner string) bool { return owner == f.urls[1-fwd] })
		if a := postSchedule(t, f.urls[fwd], req); a.Cost.SourceTier != wire.TierPeer {
			t.Fatalf("replica %d answered from tier %q, want a peer fill", fwd, a.Cost.SourceTier)
		}
	}
	cancel()
	for i, s := range f.servers {
		s.BeginDrain()
		f.ts[i].Close()
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after the stop, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}
