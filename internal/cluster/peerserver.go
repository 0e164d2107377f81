// The owner's half of the frame transport: the handshake hijacks the
// connection, and each request frame is handed to the fill handler,
// whose status and body go back as the response frame.

package cluster

import (
	"bufio"
	"context"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"sync"
	"time"
)

// frameWriteTimeout bounds the write of one response frame: a
// forwarder that stops reading loses its connection, not a goroutine.
const frameWriteTimeout = 10 * time.Second

// FillHandler answers one fill. body is the request frame's body, the
// fill request's JSON, valid until the handler returns; traceParent is
// the forwarder's trace position ("traceid:spanid", obs.TraceParent),
// empty when the fill is untraced. The handler appends its answer to
// dst and returns it with its status: a packed peer frame on a 200, a
// wire.Error otherwise. ctx ends when the connection closes.
type FillHandler func(ctx context.Context, traceParent string, body, dst []byte) (status int, out []byte)

// PeerServer serves the frame transport: a route that receives the
// handshake calls Upgrade, and each request frame on the upgraded
// connection is answered by the fill handler.
type PeerServer struct {
	fill FillHandler

	mu       sync.Mutex
	conns    map[*frameConn]struct{}
	draining bool
}

// NewPeerServer returns a PeerServer answering fills with fill.
func NewPeerServer(fill FillHandler) *PeerServer {
	return &PeerServer{fill: fill, conns: make(map[*frameConn]struct{})}
}

// Upgrade answers the handshake r: a POST carrying the hop header
// switches its connection to the frame transport, and Upgrade serves
// frames on it until it closes. A draining server refuses with 503.
func (ps *PeerServer) Upgrade(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.Header.Get(HopHeader) == "" {
		http.Error(w, "the frame upgrade is a POST carrying the "+HopHeader+" header", http.StatusBadRequest)
		return
	}
	if ps.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		http.Error(w, "the frame upgrade needs an HTTP/1.1 connection", http.StatusInternalServerError)
		return
	}
	// The server's read and write deadlines for the handshake would cut
	// the connection while it idles between fills.
	conn.SetDeadline(time.Time{}) //nolint:errcheck // a closed conn fails the write below
	fc := &frameConn{ps: ps, conn: conn}
	ps.mu.Lock()
	if ps.draining {
		ps.mu.Unlock()
		conn.Close()
		return
	}
	ps.conns[fc] = struct{}{}
	ps.mu.Unlock()
	defer ps.forget(fc)

	brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + upgradeToken + "\r\n\r\n") //nolint:errcheck // Flush reports it
	if err := brw.Flush(); err != nil {
		conn.Close()
		return
	}
	fc.serve(brw.Reader)
}

// Drain stops taking frames: it refuses new handshakes and ends the
// read loop of every upgraded connection. Each connection closes once
// the frames it is serving have been answered.
func (ps *PeerServer) Drain() {
	ps.mu.Lock()
	ps.draining = true
	for fc := range ps.conns {
		fc.conn.SetReadDeadline(time.Unix(1, 0)) //nolint:errcheck // a closed conn has stopped reading
	}
	ps.mu.Unlock()
}

func (ps *PeerServer) isDraining() bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.draining
}

func (ps *PeerServer) forget(fc *frameConn) {
	ps.mu.Lock()
	delete(ps.conns, fc)
	ps.mu.Unlock()
}

// frameConn is one upgraded connection on the owner.
type frameConn struct {
	ps   *PeerServer
	conn net.Conn
	wmu  sync.Mutex // one writer: a frame goes out whole
	wg   sync.WaitGroup
}

// serve reads request frames until the connection ends and serves each
// on its own goroutine. When the forwarder closed the connection the
// frames in flight are canceled; when the server drains they finish
// and are answered first.
func (fc *frameConn) serve(br *bufio.Reader) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for {
		bp := getFrameBuf()
		f, err := readRequestFrame(br, maxPeerBody, *bp)
		if err != nil {
			putFrameBuf(bp)
			break
		}
		*bp = f.body
		fc.wg.Add(1)
		go fc.serveFrame(ctx, f, bp)
	}
	if !fc.ps.isDraining() {
		cancel()
	}
	fc.wg.Wait()
	fc.conn.Close()
}

// serveFrame answers one request frame with the fill handler and
// writes its response frame.
func (fc *frameConn) serveFrame(ctx context.Context, f requestFrame, bp *[]byte) {
	defer fc.wg.Done()
	// A panicking handler costs its connection, not the process: the
	// forwarder's fills on it fail and solve locally.
	defer func() {
		if err := recover(); err != nil {
			fc.conn.Close()
			log.Printf("cluster: panic serving a peer frame from %s: %v\n%s", fc.conn.RemoteAddr(), err, debug.Stack())
		}
	}()
	out := getFrameBuf()
	defer putFrameBuf(out)
	head := appendResponseHead(*out, f.id, 0, 0)
	status, frame := fc.ps.fill(ctx, f.traceParent, f.body, head)
	putFrameBuf(bp)
	appendResponseHead(frame[:0], f.id, status, len(frame)-len(head))
	*out = frame
	fc.wmu.Lock()
	fc.conn.SetWriteDeadline(time.Now().Add(frameWriteTimeout)) //nolint:errcheck // a closed conn fails the Write
	_, err := fc.conn.Write(frame)
	fc.wmu.Unlock()
	if err != nil {
		fc.conn.Close()
	}
}
