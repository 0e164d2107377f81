// The forwarder's half of the frame transport: one connection to each
// owner, dialled on the first fill and again after it breaks, with one
// writer under a mutex, one reader goroutine and a table of the fills
// waiting for their answers.

package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wrbpg/internal/serve/wire"
)

// errStopped fails the fills that meet a cluster whose Start context
// has ended: its connections are closed and no more are dialled.
var errStopped = errors.New("cluster: stopped")

// peerSlot holds the connection to one owner, and the dial that
// replaces it while one runs.
type peerSlot struct {
	mu      sync.Mutex
	pc      *peerConn
	dialing chan struct{} // closed when the running dial ends
}

// peerConn is one upgraded connection to an owner.
type peerConn struct {
	conn   net.Conn
	nextID atomic.Uint32
	broken atomic.Bool

	// wmu keeps the frames whole: one writer at a time.
	wmu sync.Mutex

	mu      sync.Mutex
	pending map[uint32]chan fillAnswer
	err     error // why the connection broke; no fill registers after
}

// fillAnswer is what a waiting fill receives: its response frame, or
// the error that broke the connection.
type fillAnswer struct {
	f   responseFrame
	err error
}

// roundTrip sends preq to owner as one request frame on the owner's
// connection and waits for its response frame or for ctx to end.
func (c *Cluster) roundTrip(ctx context.Context, owner string, preq *wire.PeerScheduleRequest) (responseFrame, error) {
	pc, err := c.conn(ctx, owner)
	if err != nil {
		return responseFrame{}, err
	}
	id := pc.nextID.Add(1)
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	frame, err := appendRequestFrame(*bp, id, preq)
	*bp = frame
	if err != nil {
		return responseFrame{}, err
	}
	ch := answerChans.Get().(chan fillAnswer)
	pc.mu.Lock()
	if pc.err != nil {
		err := pc.err
		pc.mu.Unlock()
		return responseFrame{}, err
	}
	pc.pending[id] = ch
	pc.mu.Unlock()
	pc.send(ctx, frame)
	select {
	case a := <-ch:
		answerChans.Put(ch)
		return a.f, a.err
	case <-ctx.Done():
		// The late answer, if one comes, finds no entry and is dropped.
		// A channel whose entry was already taken has an answer on its
		// way, so it is not reused.
		pc.mu.Lock()
		_, mine := pc.pending[id]
		delete(pc.pending, id)
		pc.mu.Unlock()
		if mine {
			answerChans.Put(ch)
		}
		return responseFrame{}, ctx.Err()
	}
}

// answerChans recycles the channels fills wait on. A channel is put
// back only when empty and out of the pending table, so no answer can
// reach it again.
var answerChans = sync.Pool{New: func() any { return make(chan fillAnswer, 1) }}

// send writes one whole frame, by ctx's deadline. A failed write may
// have left part of the frame on the connection, so it breaks it.
func (pc *peerConn) send(ctx context.Context, frame []byte) {
	dl, _ := ctx.Deadline()
	pc.wmu.Lock()
	pc.conn.SetWriteDeadline(dl) //nolint:errcheck // a closed conn fails the Write
	_, err := pc.conn.Write(frame)
	pc.wmu.Unlock()
	if err != nil {
		pc.fail(err)
	}
}

// readLoop hands each response frame to the fill waiting for its id
// until the connection breaks, then fails the fills still waiting.
func (pc *peerConn) readLoop(br *bufio.Reader) {
	for {
		f, err := readResponseFrame(br, maxPeerBody, getFrameBuf())
		if err != nil {
			if err == io.EOF {
				err = errors.New("owner closed the connection")
			}
			pc.fail(err)
			return
		}
		pc.mu.Lock()
		ch := pc.pending[f.id]
		delete(pc.pending, f.id)
		pc.mu.Unlock()
		if ch != nil {
			ch <- fillAnswer{f: f}
		} else {
			putFrameBuf(f.buf)
		}
	}
}

// fail breaks the connection: every waiting fill gets err, and the
// next fill to the owner dials again.
func (pc *peerConn) fail(err error) {
	pc.mu.Lock()
	if pc.err == nil {
		pc.err = err
		pc.broken.Store(true)
		for id, ch := range pc.pending {
			ch <- fillAnswer{err: err}
			delete(pc.pending, id)
		}
	}
	pc.mu.Unlock()
	pc.conn.Close()
}

// conn returns the live connection to owner, dialling one when
// there is none. Fills that arrive during a dial wait for it, each
// until its own ctx ends.
func (c *Cluster) conn(ctx context.Context, owner string) (*peerConn, error) {
	c.connMu.Lock()
	s := c.slots[owner]
	if s == nil {
		s = &peerSlot{}
		c.slots[owner] = s
	}
	c.connMu.Unlock()
	for {
		s.mu.Lock()
		if pc := s.pc; pc != nil && !pc.broken.Load() {
			s.mu.Unlock()
			return pc, nil
		}
		if c.isStopped() {
			s.mu.Unlock()
			return nil, errStopped
		}
		if s.dialing == nil {
			done := make(chan struct{})
			s.dialing = done
			s.mu.Unlock()
			pc, err := dialPeer(ctx, owner)
			s.mu.Lock()
			s.dialing = nil
			if err == nil {
				// A stop that came during the dial has already closed
				// every stored connection: this one must not be stored.
				if c.isStopped() {
					pc.fail(errStopped)
					pc, err = nil, errStopped
				} else {
					s.pc = pc
				}
			}
			s.mu.Unlock()
			close(done)
			return pc, err
		}
		done := s.dialing
		s.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// closeConns closes every owner connection and stops dialling: the
// end of Start's context.
func (c *Cluster) closeConns() {
	c.connMu.Lock()
	c.stopped = true
	slots := make([]*peerSlot, 0, len(c.slots))
	for _, s := range c.slots {
		slots = append(slots, s)
	}
	c.connMu.Unlock()
	for _, s := range slots {
		s.mu.Lock()
		pc := s.pc
		s.mu.Unlock()
		if pc != nil {
			pc.fail(errStopped)
		}
	}
}

// isStopped reports whether Start's context has ended. It takes
// connMu, so a caller may hold a slot's lock but not connMu.
func (c *Cluster) isStopped() bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.stopped
}

// dialPeer connects to owner and upgrades the connection to the frame
// transport with a POST to the peer path, hop-marked as the route
// requires. Any answer but 101 Switching Protocols to the frame
// transport is a refusal.
func dialPeer(ctx context.Context, owner string) (*peerConn, error) {
	u, err := url.Parse(owner)
	if err != nil {
		return nil, err
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("the frame transport speaks http, not %q", u.Scheme)
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	// The handshake ends with ctx: its deadline, or its cancellation.
	dl, _ := ctx.Deadline()
	conn.SetDeadline(dl) //nolint:errcheck // a closed conn fails the Write
	stop := context.AfterFunc(ctx, func() {
		conn.SetDeadline(time.Unix(1, 0)) //nolint:errcheck // as above
	})
	br, err := handshake(conn, u)
	if !stop() && err == nil {
		err = ctx.Err()
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{}) //nolint:errcheck // a closed conn fails the next Write
	pc := &peerConn{conn: conn, pending: make(map[uint32]chan fillAnswer)}
	go pc.readLoop(br)
	return pc, nil
}

// handshake sends the upgrade request on conn and reads its answer.
func handshake(conn net.Conn, u *url.URL) (*bufio.Reader, error) {
	req := "POST " + strings.TrimRight(u.Path, "/") + PeerPath + " HTTP/1.1\r\n" +
		"Host: " + u.Host + "\r\n" +
		"Connection: Upgrade\r\n" +
		"Upgrade: " + upgradeToken + "\r\n" +
		HopHeader + ": 1\r\n" +
		"Content-Length: 0\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), upgradeToken) {
		resp.Body.Close()
		return nil, fmt.Errorf("refused the frame upgrade: %s", resp.Status)
	}
	return br, nil
}
