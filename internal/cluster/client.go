// The peer-fill client half of the POST /v1/peer/schedule protocol.
// The serving layer is the other half (internal/serve): on a local
// cache miss whose key the ring assigns elsewhere, it calls Fill
// against the owner instead of cold-solving, bounded by a slice of the
// request deadline, and falls back to the local solver on any error.

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

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
	// TraceParentHeader propagates the forwarder's trace context
	// ("traceid:spanid", obs.TraceParent) on a peer fill, so the owner
	// resumes the same trace and returns its span subtree in the
	// response envelope.
	TraceParentHeader = "X-Wrbpg-Trace-Parent"
	// PeerPath is the internal peer-fill endpoint.
	PeerPath = "/v1/peer/schedule"
)

// maxPeerBody bounds a peer response read (schedules with full move
// lists are well under this).
const maxPeerBody = 32 << 20

// Fill asks owner to answer preq. Exactly one of result/apiErr/err is
// meaningful:
//
//   - result: the owner answered 200 (it solved, or hit its cache).
//     When the forwarder propagated trace context (preq.TraceParent),
//     trace carries the owner's span subtree alongside it. Fill asks
//     for the packed frame and decodes whichever form the owner sent
//     (wire.DecodePeerResponse), recording it as the envelope attribute
//     of the span active in ctx;
//   - apiErr: the owner answered a structured API error — notably a
//     429 carrying its Retry-After shed estimate, which cluster-aware
//     shedding may propagate to the end client;
//   - err: the transport failed (refused, reset, deadline) or the
//     response was undecodable. The caller should treat the owner as
//     suspect (ReportFillError) and solve locally.
//
// The caller bounds the round trip via ctx (the peer-timeout slice of
// the request deadline).
func (c *Cluster) Fill(ctx context.Context, owner string, preq *wire.PeerScheduleRequest) (*wire.ScheduleResult, *obs.TraceExport, *wire.Error, error) {
	body, err := json.Marshal(preq)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("cluster: encode peer request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+PeerPath, bytes.NewReader(body))
	if err != nil {
		return nil, nil, nil, err
	}
	// The header values are shared read-only slices: http.Header.Set
	// would allocate one per header per fill.
	req.Header["Content-Type"] = jsonContentType
	req.Header["Accept"] = acceptPacked
	req.Header[HopHeader] = hopMark
	if preq.TraceParent != "" {
		req.Header.Set(TraceParentHeader, preq.TraceParent)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := readBody(resp, maxPeerBody)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("cluster: read peer %s response: %w", owner, err)
	}
	if resp.StatusCode == http.StatusOK {
		ct := resp.Header.Get("Content-Type")
		obs.SetSpanAttr(ctx, "envelope", wire.PeerEnvelope(ct))
		env, err := wire.DecodePeerResponse(ct, b)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("cluster: peer %s answered 200: %w", owner, err)
		}
		return env.Result, env.Trace, nil, nil
	}
	var we wire.Error
	if err := json.Unmarshal(b, &we); err != nil || we.Status == 0 {
		// Not a structured API error (proxy page, truncation): surface as
		// a transport-class failure so the caller solves locally.
		return nil, nil, nil, fmt.Errorf("cluster: peer %s answered %d with unstructured body", owner, resp.StatusCode)
	}
	return nil, nil, &we, nil
}

// Fill's request header values.
var (
	jsonContentType = []string{"application/json"}
	acceptPacked    = []string{wire.PeerMediaType}
	hopMark         = []string{"1"}
)

// readBody reads a peer response whole: into one buffer of the
// announced length, else growing (chunked bodies, older owners). A
// body longer than limit is an error, refused before reading when its
// length was announced.
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
