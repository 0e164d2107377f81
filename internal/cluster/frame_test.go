package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wrbpg/internal/serve/wire"
)

// frameOwner is a fake owner speaking frames: handler h behind a
// PeerServer on a test listener, and a cluster forwarding to it.
type frameOwner struct {
	ps   *PeerServer
	ts   *httptest.Server
	c    *Cluster
	stop context.CancelFunc // ends the cluster's Start context
}

func newFrameOwner(t *testing.T, h http.HandlerFunc) *frameOwner {
	t.Helper()
	ps := NewPeerServer(h)
	ts := httptest.NewServer(ps)
	c, err := New(Config{Self: "http://self:1", Peers: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.Start(ctx)
	t.Cleanup(func() {
		cancel()
		ps.Drain()
		ts.Close()
	})
	return &frameOwner{ps: ps, ts: ts, c: c, stop: cancel}
}

// conn returns the forwarder's live connection to the owner.
func (o *frameOwner) conn(t *testing.T) *peerConn {
	t.Helper()
	o.c.connMu.Lock()
	s := o.c.slots[o.ts.URL]
	o.c.connMu.Unlock()
	if s == nil {
		t.Fatal("no connection slot for the owner")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pc
}

func (pc *peerConn) waiting() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.pending)
}

// serverConns is how many upgraded connections ps is serving.
func (ps *PeerServer) serverConns() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.conns)
}

// echoAnswer answers a frame with a structured 418 naming its key.
// Each frame it meets is announced on entered, when there is room, and
// waits for gate to close, when gate is set.
func echoAnswer(gate <-chan struct{}, entered chan<- struct{}) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		select {
		case entered <- struct{}{}:
		default:
		}
		if gate != nil {
			select {
			case <-gate:
			case <-r.Context().Done():
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprintf(w, `{"status":418,"error":%q}`, keyOf(b))
	}
}

// keyOf pulls the "key" member out of a fill request body.
func keyOf(b []byte) string {
	_, rest, _ := strings.Cut(string(b), `"key":"`)
	k, _, _ := strings.Cut(rest, `"`)
	return k
}

// TestFrameCodec: frames read back as written; a frame cut anywhere is
// an error, a clean end between frames is io.EOF, and a body over the
// limit is refused naming its size.
func TestFrameCodec(t *testing.T) {
	preq := &wire.PeerScheduleRequest{Req: wire.ScheduleRequest{Spec: wire.Spec{Family: "dwt", N: 8, D: 3}, BudgetBits: 90},
		Key: "k1", Origin: "http://a:1", TraceParent: "00ab:3"}
	req, err := appendRequestFrame(nil, 7, preq)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := wire.AppendPeerRequest(nil, preq)
	resp := append(appendResponseHead(nil, 9, 429, "application/json", 5), "hello"...)

	br := bufio.NewReader(bytes.NewReader(append(append([]byte(nil), req...), req...)))
	for i := 0; i < 2; i++ {
		f, err := readRequestFrame(br, 1<<20, nil)
		if err != nil || f.id != 7 || f.traceParent != "00ab:3" || !bytes.Equal(f.body, body) {
			t.Fatalf("request frame %d read back as %+v, %v", i, f, err)
		}
	}
	if _, err := readRequestFrame(br, 1<<20, nil); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	f, err := readResponseFrame(bufio.NewReader(bytes.NewReader(resp)), 1<<20, new([]byte))
	if err != nil || f.id != 9 || f.status != 429 || f.ctype != "application/json" || string(f.body) != "hello" {
		t.Fatalf("response frame read back as %+v, %v", f, err)
	}

	for n := 1; n < len(req); n++ {
		if _, err := readRequestFrame(bufio.NewReader(bytes.NewReader(req[:n])), 1<<20, nil); err != io.ErrUnexpectedEOF {
			t.Fatalf("request frame cut at %d of %d: %v, want io.ErrUnexpectedEOF", n, len(req), err)
		}
	}
	for n := 1; n < len(resp); n++ {
		if _, err := readResponseFrame(bufio.NewReader(bytes.NewReader(resp[:n])), 1<<20, new([]byte)); err != io.ErrUnexpectedEOF {
			t.Fatalf("response frame cut at %d of %d: %v, want io.ErrUnexpectedEOF", n, len(resp), err)
		}
	}
	if _, err := readResponseFrame(bufio.NewReader(bytes.NewReader(resp)), 4, new([]byte)); err == nil || err.Error() != "peer body of 5 bytes exceeds limit of 4" {
		t.Fatalf("response body over the limit: %v", err)
	}
	if _, err := readRequestFrame(bufio.NewReader(bytes.NewReader(req)), len(body)-1, nil); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("request body over the limit: %v", err)
	}
}

// TestFillConcurrentOneConnection: concurrent fills share one
// connection and each gets the answer to its own request, whatever
// order the owner answers in.
func TestFillConcurrentOneConnection(t *testing.T) {
	o := newFrameOwner(t, func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		k := keyOf(b)
		// Answer out of order: later keys sleep less.
		time.Sleep(time.Duration(len(k)%4) * time.Millisecond)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprintf(w, `{"status":418,"error":%q}`, k)
	})
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := strings.Repeat("k", i%7+1) + fmt.Sprint(i)
			_, _, apiErr, err := o.c.Fill(context.Background(), o.ts.URL, &wire.PeerScheduleRequest{Key: key})
			if err != nil || apiErr == nil || apiErr.Message != key {
				errs <- fmt.Errorf("fill %s: apiErr=%+v err=%v", key, apiErr, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := o.ps.serverConns(); n != 1 {
		t.Fatalf("owner serves %d upgraded connections, want 1", n)
	}
	if w := o.conn(t).waiting(); w != 0 {
		t.Fatalf("%d fills still pending", w)
	}
}

// TestFillTimeoutLeavesNoPending: a fill whose ctx expires while it
// waits comes back as context.DeadlineExceeded (the forwarder's
// "timeout" outcome) and leaves no pending entry; its late answer is
// dropped and the connection goes on serving.
func TestFillTimeoutLeavesNoPending(t *testing.T) {
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	o := newFrameOwner(t, echoAnswer(gate, entered))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, _, err := o.c.Fill(ctx, o.ts.URL, &wire.PeerScheduleRequest{Key: "slow"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired fill: err=%v, want context.DeadlineExceeded", err)
	}
	pc := o.conn(t)
	if w := pc.waiting(); w != 0 {
		t.Fatalf("%d pending entries after the fill timed out, want 0", w)
	}
	<-entered
	close(gate) // the late answer arrives now, and finds no entry
	_, _, apiErr, err := o.c.Fill(context.Background(), o.ts.URL, &wire.PeerScheduleRequest{Key: "next"})
	if err != nil || apiErr == nil || apiErr.Message != "next" {
		t.Fatalf("fill after the timeout: apiErr=%+v err=%v, want its own answer", apiErr, err)
	}
	if o.conn(t) != pc {
		t.Fatal("a timed-out fill broke the connection")
	}
}

// TestFillConnectionResetFailsPending: a connection that breaks fails
// every fill waiting on it as a transport error, and the next fill
// dials again.
func TestFillConnectionResetFailsPending(t *testing.T) {
	const n = 4
	gate, entered := make(chan struct{}), make(chan struct{}, n)
	o := newFrameOwner(t, echoAnswer(gate, entered))
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, _, apiErr, err := o.c.Fill(context.Background(), o.ts.URL, &wire.PeerScheduleRequest{Key: fmt.Sprint(i)})
			if apiErr != nil {
				err = fmt.Errorf("fill %d answered %+v", i, apiErr)
			} else if err == nil || errors.Is(err, context.DeadlineExceeded) {
				err = fmt.Errorf("fill %d: err=%v, want a transport error", i, err)
			} else {
				err = nil
			}
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		<-entered
	}
	first := o.conn(t)
	o.ps.mu.Lock()
	for fc := range o.ps.conns {
		fc.conn.Close()
	}
	o.ps.mu.Unlock()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(gate)
	_, _, apiErr, err := o.c.Fill(context.Background(), o.ts.URL, &wire.PeerScheduleRequest{Key: "again"})
	if err != nil || apiErr == nil || apiErr.Message != "again" {
		t.Fatalf("fill after the reset: apiErr=%+v err=%v, want its own answer", apiErr, err)
	}
	if o.conn(t) == first {
		t.Fatal("the fill after the reset did not dial a new connection")
	}
}

// TestPeerServerDrain: Drain answers the frame in flight, then closes
// the connection, and refuses the next handshake, so the fill after it
// fails as a transport error.
func TestPeerServerDrain(t *testing.T) {
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	o := newFrameOwner(t, echoAnswer(gate, entered))
	done := make(chan error, 1)
	go func() {
		_, _, apiErr, err := o.c.Fill(context.Background(), o.ts.URL, &wire.PeerScheduleRequest{Key: "inflight"})
		if err == nil && (apiErr == nil || apiErr.Message != "inflight") {
			err = fmt.Errorf("answered %+v", apiErr)
		}
		done <- err
	}()
	<-entered
	pc := o.conn(t)
	o.ps.Drain()
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("fill in flight at the drain: %v, want its answer", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for (o.ps.serverConns() != 0 || !pc.broken.Load()) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := o.ps.serverConns(); n != 0 || !pc.broken.Load() {
		t.Fatalf("after the drain: owner serves %d connections, forwarder's broken=%t; want 0 and true", n, pc.broken.Load())
	}
	_, _, _, err := o.c.Fill(context.Background(), o.ts.URL, &wire.PeerScheduleRequest{Key: "late"})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("fill to a draining owner: err=%v, want the refused upgrade", err)
	}
}

// TestPeerServerHandlerPanic: a handler that panics costs its
// connection, not the process: the fill fails as a transport error and
// the next one dials again.
func TestPeerServerHandlerPanic(t *testing.T) {
	o := newFrameOwner(t, func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		if keyOf(b) == "boom" {
			panic(http.ErrAbortHandler) // the panic net/http recovers without logging
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprintf(w, `{"status":418,"error":%q}`, keyOf(b))
	})
	_, _, apiErr, err := o.c.Fill(context.Background(), o.ts.URL, &wire.PeerScheduleRequest{Key: "boom"})
	if err == nil || apiErr != nil {
		t.Fatalf("fill whose handler panicked: apiErr=%+v err=%v, want a transport error", apiErr, err)
	}
	_, _, apiErr, err = o.c.Fill(context.Background(), o.ts.URL, &wire.PeerScheduleRequest{Key: "after"})
	if err != nil || apiErr == nil || apiErr.Message != "after" {
		t.Fatalf("fill after the panic: apiErr=%+v err=%v, want its own answer", apiErr, err)
	}
}

// TestFillAfterStop: once Start's context ends, the connections are
// closed and fills fail without dialling.
func TestFillAfterStop(t *testing.T) {
	o := newFrameOwner(t, echoAnswer(nil, nil))
	if _, _, apiErr, err := o.c.Fill(context.Background(), o.ts.URL, &wire.PeerScheduleRequest{Key: "a"}); err != nil || apiErr == nil {
		t.Fatalf("fill before the stop: apiErr=%+v err=%v", apiErr, err)
	}
	pc := o.conn(t)
	o.stop()
	deadline := time.Now().Add(2 * time.Second)
	for !pc.broken.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !pc.broken.Load() {
		t.Fatal("the connection outlived Start's context")
	}
	if _, _, _, err := o.c.Fill(context.Background(), o.ts.URL, &wire.PeerScheduleRequest{Key: "b"}); !errors.Is(err, errStopped) {
		t.Fatalf("fill after the stop: %v, want errStopped", err)
	}
	if n := o.ps.serverConns(); n > 1 {
		t.Fatalf("owner serves %d connections, want none dialled after the stop", n)
	}
}

// TestUpgradeRequiresHop: a handshake without the hop header is
// refused with 400, as the route refuses a plain fill without it.
func TestUpgradeRequiresHop(t *testing.T) {
	o := newFrameOwner(t, echoAnswer(nil, nil))
	req, err := http.NewRequest(http.MethodPost, o.ts.URL+PeerPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", upgradeToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("handshake without the hop header: %d, want 400", resp.StatusCode)
	}
}

// FuzzFrameReader: any byte stream read as request frames or as
// response frames ends in an error, never a panic, with every body
// inside the limit; each frame read re-encodes to the bytes it was
// read from.
func FuzzFrameReader(f *testing.F) {
	preq := &wire.PeerScheduleRequest{Req: wire.ScheduleRequest{Spec: wire.Spec{Family: "dwt", N: 8, D: 3}, BudgetBits: 90}, Key: "k"}
	req, _ := appendRequestFrame(nil, 1, preq)
	resp := append(appendResponseHead(nil, 2, 200, wire.PeerMediaType, 3), "a\n\x00"...)
	f.Add(req)
	f.Add(resp)
	f.Add(append(append([]byte(nil), req...), req[:len(req)/2]...))
	f.Add(req[:3])
	f.Add([]byte{0, 0, 0, 1, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 1, 0, 200, 0, 0, 0, 0, 0})
	const limit = 256
	f.Fuzz(func(t *testing.T, b []byte) {
		br := bufio.NewReader(bytes.NewReader(b))
		var back []byte
		for {
			fr, err := readRequestFrame(br, limit, nil)
			if err != nil {
				break
			}
			if len(fr.body) > limit {
				t.Fatalf("request body of %d bytes read past the limit", len(fr.body))
			}
			back = binaryFrame(back, fr.id, []byte{byte(len(fr.traceParent))}, fr.traceParent, fr.body)
		}
		if !bytes.HasPrefix(b, back) {
			t.Fatalf("request frames re-encode to %x, not a prefix of %x", back, b)
		}
		br = bufio.NewReader(bytes.NewReader(b))
		back = back[:0]
		for {
			fr, err := readResponseFrame(br, limit, new([]byte))
			if err != nil {
				break
			}
			if len(fr.body) > limit {
				t.Fatalf("response body of %d bytes read past the limit", len(fr.body))
			}
			back = append(appendResponseHead(back, fr.id, fr.status, fr.ctype, len(fr.body)), fr.body...)
		}
		if !bytes.HasPrefix(b, back) {
			t.Fatalf("response frames re-encode to %x, not a prefix of %x", back, b)
		}
	})
}

// binaryFrame appends a request frame built field by field.
func binaryFrame(dst []byte, id uint32, n []byte, tp string, body []byte) []byte {
	dst = append(dst, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	dst = append(dst, n...)
	dst = append(dst, tp...)
	m := len(body)
	dst = append(dst, byte(m>>24), byte(m>>16), byte(m>>8), byte(m))
	return append(dst, body...)
}
