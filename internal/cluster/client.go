// The forwarder's entry to the peer-fill protocol. The serving layer
// (internal/serve) calls Fill on a local cache miss whose key the ring
// assigns elsewhere, instead of cold-solving, bounded by a slice of
// the request deadline, and falls back to the local solver on any
// error; it also answers the fills other replicas send it. Fills
// travel on the frame transport (frame.go, peerconn.go,
// peerserver.go); Get, the stats fan-out, is plain HTTP.

package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"wrbpg/internal/obs"
	"wrbpg/internal/serve/wire"
)

const (
	// HopHeader marks a request as replica-to-replica. The peer endpoint
	// requires it, and any schedule path seeing it never forwards again:
	// a peer fill is exactly one hop, so ownership disagreement (rings
	// mid-re-ring, version skew) can cost one wasted hop but never a
	// forwarding loop.
	HopHeader = "X-Wrbpg-Peer-Hop"
	// PeerPath is the internal peer-fill endpoint: the handshake that
	// upgrades a connection to the frame transport.
	PeerPath = "/v1/peer/schedule"
)

// maxPeerBody bounds a frame body read, either way, and a GET
// response read (schedules with full move lists are well under this).
const maxPeerBody = 32 << 20

// Fill asks owner to answer preq. Exactly one of result/apiErr/err is
// meaningful:
//
//   - result: the owner answered 200 (it solved, or hit its cache).
//     When the forwarder propagated trace context (preq.TraceParent,
//     sent in the request frame's trace-parent field), trace carries
//     the owner's span subtree alongside it. The 200 body must be a
//     packed frame (wire.DecodePeerResponse); the result carries its
//     moves only when preq.Req.IncludeMoves asked for them;
//   - apiErr: the owner answered a structured API error — notably a
//     429 carrying its Retry-After shed estimate, which cluster-aware
//     shedding may propagate to the end client;
//   - err: the transport failed (refused, reset, deadline, an owner
//     that refuses the frame upgrade) or the response was undecodable,
//     a 200 that is not a packed frame included. The caller should
//     treat the owner as suspect (ReportFillError) and solve locally.
//
// The fill travels as one request frame on the connection this
// replica keeps to owner (frame.go), dialled and upgraded on first use
// and again after it breaks. The caller bounds the round trip via ctx
// (the peer-timeout slice of the request deadline); a ctx without a
// deadline gets PeerTimeout plus two seconds.
func (c *Cluster) Fill(ctx context.Context, owner string, preq *wire.PeerScheduleRequest) (*wire.ScheduleResult, *obs.TraceExport, *wire.Error, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.peerTimeout+2*time.Second)
		defer cancel()
	}
	f, err := c.roundTrip(ctx, owner, preq)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		return nil, nil, nil, fmt.Errorf("cluster: peer %s fill: %w", owner, err)
	}
	// Both decoders copy what they keep, so the body's buffer is reused.
	defer putFrameBuf(f.buf)
	if f.status == http.StatusOK {
		env, err := wire.DecodePeerResponse(f.body, preq.Req.IncludeMoves)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("cluster: peer %s answered 200: %w", owner, err)
		}
		return env.Result, env.Trace, nil, nil
	}
	var we wire.Error
	if err := json.Unmarshal(f.body, &we); err != nil || we.Status == 0 {
		// Not a structured API error: surface as a transport-class
		// failure so the caller solves locally.
		return nil, nil, nil, fmt.Errorf("cluster: peer %s answered %d with unstructured body", owner, f.status)
	}
	return nil, nil, &we, nil
}

// readBody reads a GET response whole: into one buffer of the
// announced length, else growing (chunked bodies). A body longer than
// limit is an error, refused before reading when its length was
// announced.
func readBody(resp *http.Response, limit int64) ([]byte, error) {
	n := resp.ContentLength
	if n > limit {
		return nil, fmt.Errorf("peer body of %d bytes exceeds limit of %d", n, limit)
	}
	if n >= 0 {
		b := make([]byte, n)
		_, err := io.ReadFull(resp.Body, b)
		return b, err
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err == nil && int64(len(b)) > limit {
		return nil, fmt.Errorf("peer body exceeds limit of %d bytes", limit)
	}
	return b, err
}

// Get fetches path from peer (GET) and returns the 200 body. Non-200s
// and transport failures come back as errors — callers (the
// /v1/cluster/stats fan-out) report the peer as unreachable rather
// than failing the whole scrape.
func (c *Cluster) Get(ctx context.Context, peer, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := readBody(resp, maxPeerBody)
	if err != nil {
		return nil, fmt.Errorf("cluster: read %s%s: %w", peer, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s%s answered %d", peer, path, resp.StatusCode)
	}
	return b, nil
}
