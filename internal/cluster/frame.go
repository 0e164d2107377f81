// The frame transport of the peer hop. A forwarder keeps one
// connection to each owner, upgraded from POST /v1/peer/schedule, and
// multiplexes its fills over it: each fill is one request frame, each
// answer one response frame carrying the request's id, so answers may
// come back in any order.
//
//	request frame:  id u32 | n u8 | trace parent (n bytes) | m u32 | body (m bytes)
//	response frame: id u32 | status u16 | m u32 | body (m bytes)
//
// Integers are big-endian. A request body is the fill request's JSON
// (wire.AppendPeerRequest); a response body is what the owner's fill
// handler returned: a packed peer frame on a 200, a wire.Error
// otherwise. A body longer than the reader's limit is refused before
// it is read.

package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"wrbpg/internal/serve/wire"
)

const (
	// upgradeToken names the frame transport in the handshake's
	// Upgrade header.
	upgradeToken = "wrbpg-peer/2"
	// requestHeadLen and responseHeadLen are the fixed parts of a
	// frame ahead of its first variable-length field.
	requestHeadLen  = 4 + 1
	responseHeadLen = 4 + 2
)

// framePool recycles the buffers frames are built and read in. It
// keeps none over maxPooledFrame, so one large frame does not stay
// resident.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 64 << 10

func getFrameBuf() *[]byte {
	bp := framePool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

func putFrameBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledFrame {
		framePool.Put(bp)
	}
}

// appendRequestFrame appends the request frame of fill id to dst: the
// trace parent, then the fill request's JSON.
func appendRequestFrame(dst []byte, id uint32, preq *wire.PeerScheduleRequest) ([]byte, error) {
	tp := preq.TraceParent
	if len(tp) > 0xff {
		return dst, fmt.Errorf("cluster: trace parent of %d bytes", len(tp))
	}
	dst = binary.BigEndian.AppendUint32(dst, id)
	dst = append(dst, byte(len(tp)))
	dst = append(dst, tp...)
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst, err := wire.AppendPeerRequest(dst, preq)
	if err != nil {
		return dst[:at-len(tp)-requestHeadLen], err
	}
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst, nil
}

// appendResponseHead appends a response frame's head for a body of n
// bytes.
func appendResponseHead(dst []byte, id uint32, status, n int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, id)
	dst = binary.BigEndian.AppendUint16(dst, uint16(status))
	return binary.BigEndian.AppendUint32(dst, uint32(n))
}

// requestFrame is one request frame as read.
type requestFrame struct {
	id          uint32
	traceParent string
	body        []byte
}

// readRequestFrame reads one request frame from br, its body into buf's
// storage. A body over limit is an error.
func readRequestFrame(br *bufio.Reader, limit int, buf []byte) (requestFrame, error) {
	var f requestFrame
	h, err := peekHead(br, requestHeadLen)
	if err != nil {
		return f, err
	}
	f.id = binary.BigEndian.Uint32(h)
	if n := int(h[4]); n > 0 {
		b, err := peek(br, n)
		if err != nil {
			return f, err
		}
		f.traceParent = string(b)
	}
	f.body, err = readFrameBody(br, limit, buf)
	return f, err
}

// responseFrame is one response frame as read. Its body is held in
// buf's storage, which goes back to the frame pool once the body is
// decoded.
type responseFrame struct {
	id     uint32
	status int
	body   []byte
	buf    *[]byte
}

// readResponseFrame reads one response frame from br, its body into
// buf's storage. A body over limit is an error naming its size.
func readResponseFrame(br *bufio.Reader, limit int, buf *[]byte) (responseFrame, error) {
	f := responseFrame{buf: buf}
	h, err := peekHead(br, responseHeadLen)
	if err != nil {
		return f, err
	}
	f.id = binary.BigEndian.Uint32(h)
	f.status = int(binary.BigEndian.Uint16(h[4:]))
	f.body, err = readFrameBody(br, limit, *buf)
	if f.body != nil {
		*buf = f.body
	}
	return f, err
}

// peekHead is peek for a frame's first bytes: a stream that ends
// before them ends cleanly, with io.EOF.
func peekHead(br *bufio.Reader, n int) ([]byte, error) {
	b, err := br.Peek(n)
	if err == io.EOF && len(b) == 0 {
		return nil, err
	}
	return peek(br, n)
}

// peek returns the next n bytes of br, at most its buffer size, and
// consumes them. The bytes are br's own and valid until its next read.
// A stream that ends inside them is cut short.
func peek(br *bufio.Reader, n int) ([]byte, error) {
	b, err := br.Peek(n)
	if err != nil {
		return nil, unexpectedEOF(err)
	}
	br.Discard(n) //nolint:errcheck // Peek just buffered n bytes
	return b, nil
}

// readFrameBody reads a body length and then that many bytes into
// buf's storage, grown when short.
func readFrameBody(br *bufio.Reader, limit int, buf []byte) ([]byte, error) {
	h, err := peek(br, 4)
	if err != nil {
		return nil, err
	}
	n := int64(binary.BigEndian.Uint32(h))
	if n > int64(limit) {
		return nil, fmt.Errorf("peer body of %d bytes exceeds limit of %d", n, limit)
	}
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, unexpectedEOF(err)
	}
	return buf, nil
}

// unexpectedEOF reports a stream that ends inside a frame as cut short.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// IsUpgrade reports whether r is the frame transport's handshake: it
// asks to upgrade to it.
func IsUpgrade(r *http.Request) bool {
	return strings.EqualFold(r.Header.Get("Upgrade"), upgradeToken) &&
		headerHasToken(r.Header, "Connection", "upgrade")
}

// headerHasToken reports whether a comma-separated header of h holds
// token, ignoring case.
func headerHasToken(h http.Header, key, token string) bool {
	for _, v := range h[key] {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}
