// The owner's half of the frame transport: the handshake hijacks the
// connection, and each request frame is served as a POST to the peer
// path through the same handler a plain fill meets.

package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"log"
	"net"
	"net/http"
	"net/url"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"wrbpg/internal/serve/wire"
)

// frameWriteTimeout bounds the write of one response frame: a
// forwarder that stops reading loses its connection, not a goroutine.
const frameWriteTimeout = 10 * time.Second

// PeerServer serves the frame transport over handler h. Wrapping h in
// a PeerServer makes it an owner: ServeHTTP upgrades a handshake and
// passes any other request to h. A server that routes the peer path
// itself calls Upgrade from that route instead.
//
// Each request frame reaches h as a POST to PeerPath carrying the hop
// header, the fill's trace parent, Content-Type application/json and
// Accept PeerMediaType, with the frame's body. Its context ends when
// the connection closes. Its header map is shared between frames, so h
// must not write it. What h writes becomes the response frame: the
// status, the Content-Type and the body. A body that disagrees with
// the Content-Length h declared goes out under the declared length
// and the connection closes after it, as net/http closes one.
type PeerServer struct {
	h http.Handler

	mu       sync.Mutex
	conns    map[*frameConn]struct{}
	draining bool
}

// NewPeerServer returns a PeerServer serving frames through h.
func NewPeerServer(h http.Handler) *PeerServer {
	return &PeerServer{h: h, conns: make(map[*frameConn]struct{})}
}

// ServeHTTP upgrades a handshake (IsUpgrade) and serves any other
// request with h.
func (ps *PeerServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if IsUpgrade(r) {
		ps.Upgrade(w, r)
		return
	}
	ps.h.ServeHTTP(w, r)
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
	fc.serve(r, brw.Reader)
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

// frameHeader is the header of every untraced request frame's request.
var frameHeader = http.Header{
	"Content-Type": {"application/json"},
	"Accept":       {wire.PeerMediaType},
	HopHeader:      {"1"},
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
func (fc *frameConn) serve(hs *http.Request, br *bufio.Reader) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := (&http.Request{
		Method:     http.MethodPost,
		URL:        &url.URL{Path: PeerPath},
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     frameHeader,
		Host:       hs.Host,
		RemoteAddr: hs.RemoteAddr,
		RequestURI: PeerPath,
	}).WithContext(ctx)
	for {
		bp := getFrameBuf()
		f, err := readRequestFrame(br, maxPeerBody, *bp)
		if err != nil {
			putFrameBuf(bp)
			break
		}
		*bp = f.body
		fc.wg.Add(1)
		go fc.serveFrame(base, f, bp)
	}
	if !fc.ps.isDraining() {
		cancel()
	}
	fc.wg.Wait()
	fc.conn.Close()
}

// frameRequest is a frame's request and its body, allocated together.
type frameRequest struct {
	r    http.Request
	body frameBody
}

// frameBody is a frame's body as the request's io.ReadCloser.
type frameBody struct{ bytes.Reader }

func (*frameBody) Close() error { return nil }

// serveFrame serves one request frame through the handler and writes
// its response frame.
func (fc *frameConn) serveFrame(base *http.Request, f requestFrame, bp *[]byte) {
	defer fc.wg.Done()
	// A panicking handler costs its connection, not the process, as a
	// panic in a plain request's handler does under net/http: the
	// forwarder's fills on it fail and solve locally.
	defer func() {
		if err := recover(); err != nil {
			fc.conn.Close()
			if err != http.ErrAbortHandler {
				log.Printf("cluster: panic serving a peer frame from %s: %v\n%s", base.RemoteAddr, err, debug.Stack())
			}
		}
	}()
	fr := &frameRequest{r: *base}
	fr.body.Reset(f.body)
	fr.r.Body = &fr.body
	fr.r.ContentLength = int64(len(f.body))
	if f.traceParent != "" {
		h := make(http.Header, len(frameHeader)+1)
		for k, v := range frameHeader {
			h[k] = v
		}
		h[TraceParentHeader] = []string{f.traceParent}
		fr.r.Header = h
	}
	fw := getFrameWriter(f.id)
	fc.ps.h.ServeHTTP(fw, &fr.r)
	putFrameBuf(bp)
	frame, whole := fw.finish()
	fc.wmu.Lock()
	fc.conn.SetWriteDeadline(time.Now().Add(frameWriteTimeout)) //nolint:errcheck // a closed conn fails the Write
	_, err := fc.conn.Write(frame)
	fc.wmu.Unlock()
	putFrameWriter(fw)
	if err != nil || !whole {
		fc.conn.Close()
	}
}

// frameWriter is the http.ResponseWriter of one request frame. It
// builds the response frame in place: the head at WriteHeader, the
// body after it.
type frameWriter struct {
	id     uint32
	h      http.Header
	status int
	buf    []byte
	at     int // offset of the body length field in buf
}

var frameWriters = sync.Pool{New: func() any { return &frameWriter{h: make(http.Header)} }}

func getFrameWriter(id uint32) *frameWriter {
	fw := frameWriters.Get().(*frameWriter)
	fw.id = id
	return fw
}

func putFrameWriter(fw *frameWriter) {
	if cap(fw.buf) > maxPooledFrame {
		return
	}
	clear(fw.h)
	fw.status, fw.buf = 0, fw.buf[:0]
	frameWriters.Put(fw)
}

func (fw *frameWriter) Header() http.Header { return fw.h }

func (fw *frameWriter) WriteHeader(code int) {
	if fw.status != 0 {
		return
	}
	fw.status = code
	fw.buf = appendResponseHead(fw.buf[:0], fw.id, code, fw.h.Get("Content-Type"), 0)
	fw.at = len(fw.buf) - 4
}

func (fw *frameWriter) Write(b []byte) (int, error) {
	if fw.status == 0 {
		fw.WriteHeader(http.StatusOK)
	}
	fw.buf = append(fw.buf, b...)
	return len(b), nil
}

// Flush is a no-op: the frame goes out whole when the handler returns.
func (fw *frameWriter) Flush() {}

// finish returns the response frame. whole is false when the handler
// declared a Content-Length other than what it wrote: the frame then
// announces the declared length, and the stream is no longer framed.
func (fw *frameWriter) finish() (frame []byte, whole bool) {
	if fw.status == 0 {
		fw.WriteHeader(http.StatusOK)
	}
	n := len(fw.buf) - fw.at - 4
	whole = true
	if cl := fw.h.Get("Content-Length"); cl != "" {
		if d, err := strconv.ParseUint(cl, 10, 32); err == nil && int(d) != n {
			whole = false
			if int(d) < n {
				fw.buf = fw.buf[:fw.at+4+int(d)]
			}
			n = int(d)
		}
	}
	binary.BigEndian.PutUint32(fw.buf[fw.at:], uint32(n))
	return fw.buf, whole
}
