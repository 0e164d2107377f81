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
//     trace carries the owner's span subtree alongside it;
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
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HopHeader, "1")
	if preq.TraceParent != "" {
		req.Header.Set(TraceParentHeader, preq.TraceParent)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := readBody(resp)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("cluster: read peer response: %w", err)
	}
	if resp.StatusCode == http.StatusOK {
		var env wire.PeerScheduleResponse
		if err := json.Unmarshal(b, &env); err != nil {
			return nil, nil, nil, fmt.Errorf("cluster: decode peer result: %w", err)
		}
		if env.Result == nil {
			// Pre-envelope owner (version skew): the 200 body is a bare
			// ScheduleResult.
			var res wire.ScheduleResult
			if err := json.Unmarshal(b, &res); err != nil || res.Workload == "" {
				return nil, nil, nil, fmt.Errorf("cluster: peer %s answered 200 with unrecognized body", owner)
			}
			return &res, nil, nil, nil
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

// readBody reads a peer response whole: into one buffer of the
// announced length when the owner sent one within maxPeerBody, else
// growing up to maxPeerBody (chunked bodies, older owners).
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxPeerBody {
		b := make([]byte, n)
		_, err := io.ReadFull(resp.Body, b)
		return b, err
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxPeerBody))
}

// GetJSON fetches path from peer (GET) and decodes the 200 body into
// v. Non-200s and transport failures come back as errors — callers
// (the /v1/cluster/stats fan-out) report the peer as unreachable
// rather than failing the whole scrape.
func (c *Cluster) GetJSON(ctx context.Context, peer, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody))
	if err != nil {
		return fmt.Errorf("cluster: read %s%s: %w", peer, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s%s answered %d", peer, path, resp.StatusCode)
	}
	return json.Unmarshal(b, v)
}
