// Cluster mode: the peer-fill read path and the internal peer
// endpoint. With Options.Cluster set, a local cache miss whose key the
// consistent-hash ring assigns to another replica is first offered to
// that owner (POST /v1/peer/schedule, bounded by a slice of the
// request deadline); only on peer error, timeout or shed does the
// local solver run. The owner's own cache singleflight dedups all
// forwarders plus its local traffic, so in the steady state each key
// is cold-solved at most once fleet-wide. See docs/CLUSTER.md.

package serve

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"wrbpg/internal/cluster"
	"wrbpg/internal/obs"
	"wrbpg/internal/serve/wire"
)

// Peer-fill outcomes: the label vocabulary of wrbpg_peer_fill_total.
const (
	// peerFilled: the owner answered an optimal result; it was cached
	// locally (hot-key replication) without any local solve.
	peerFilled = "filled"
	// peerDegraded: the owner answered 200 but with a fallback result
	// (its solver hit a deadline); used, never cached.
	peerDegraded = "degraded"
	// peerShed: the owner answered 429 — it is shedding. Cluster-aware
	// shedding decides: propagate when the local queue is saturated too,
	// otherwise solve locally.
	peerShed = "shed"
	// peerTimeout: the peer-fill deadline slice expired mid-fill.
	peerTimeout = "timeout"
	// peerError: transport failure or an unusable response; the owner is
	// reported to the health loop as suspect.
	peerError = "error"
)

// handlePeerSchedule serves POST /v1/peer/schedule, the internal
// replica-to-replica fill protocol, whether a fill arrives as a plain
// POST or as a frame on a connection a forwarder upgraded here. It is
// the regular schedule path with peer semantics: never forward again
// (loop guard), never degrade to a baseline answer on queue saturation
// — shed with 429 + Retry-After instead, because the forwarder still
// holds the request's real deadline budget and can solve locally or
// propagate the shed.
func (s *Server) handlePeerSchedule(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		s.writeErr(w, wire.Errorf(http.StatusNotFound, "cluster mode disabled (no -peers)"))
		return
	}
	if r.Method != http.MethodPost {
		s.writeErr(w, wire.Errorf(http.StatusMethodNotAllowed, "POST required"))
		return
	}
	if r.Header.Get(cluster.HopHeader) == "" {
		s.writeErr(w, wire.Errorf(http.StatusBadRequest,
			"peer endpoint requires the %s header; external clients should use /v1/schedule", cluster.HopHeader))
		return
	}
	if cluster.IsUpgrade(r) {
		// A forwarder's handshake: its fills arrive as frames on this
		// connection, each served through the handler chain back into
		// this route.
		s.peers.Upgrade(w, r)
		return
	}
	s.m.reqPeer.Inc()
	var preq wire.PeerScheduleRequest
	if err := decodeStrict(w, r, s.opts.MaxBodyBytes, &preq); err != nil {
		s.writeErr(w, asWireErr(err))
		return
	}
	// Resume the forwarder's trace when it propagated context: the
	// owner-side phases (cache, admission, solve) record under a
	// "peer.serve" root carrying the same trace ID, the completed
	// owner-side trace is retained locally for GET /v1/trace/{id}, and
	// the span subtree rides back in the response envelope so the
	// forwarder grafts it under its peer.fill span.
	ctx := r.Context()
	var (
		tr   *obs.Trace
		root *obs.Span
	)
	if id, pspan, ok := obs.SplitTraceParent(r.Header.Get(cluster.TraceParentHeader)); ok {
		tr = obs.ResumeTrace(id)
		ctx, root = obs.StartSpan(obs.WithTrace(ctx, tr), "peer.serve")
		root.SetAttr("origin", preq.Origin)
		root.SetAttr("parent_span", strconv.Itoa(pspan))
		w.Header().Set(TraceIDHeader, tr.ID())
	}
	res, st, werr := s.scheduleAs(ctx, &preq.Req, true, preq.Key)
	var tex *obs.TraceExport
	if tr != nil {
		root.End()
		s.traces.Put(tr)
		tex = tr.Tree()
	}
	if werr != nil {
		s.logPeerServe(tr, preq.Origin, werr.Status)
		s.writeErr(w, werr)
		return
	}
	// The frame is written from the shared entry and this request's
	// stamp into a pooled buffer, and goes out with its length: the
	// forwarder reads it into a single buffer of exactly that size.
	bp := getBody()
	defer putBody(bp)
	body, err := wire.AppendPeerFrame(*bp, res, &st, tex)
	if err != nil {
		s.logPeerServe(tr, preq.Origin, http.StatusInternalServerError)
		s.writeErr(w, asWireErr(err))
		return
	}
	*bp = body
	s.logPeerServe(tr, preq.Origin, http.StatusOK)
	h := w.Header()
	h["Content-Type"] = peerContentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // nothing useful to do mid-response
}

// peerContentType is the Content-Type of a peer frame, shared so that
// setting it allocates nothing.
var peerContentType = []string{wire.PeerMediaType}

// logPeerServe emits the owner-side structured line for one served
// peer fill, correlated by trace_id when the forwarder propagated one.
func (s *Server) logPeerServe(tr *obs.Trace, origin string, status int) {
	if s.log == nil {
		return
	}
	attrs := []any{"origin", origin, "status", status}
	if tr != nil {
		attrs = append(attrs, "trace_id", tr.ID())
	}
	s.log.Debug("peer fill served", attrs...)
}

// logPeerFill emits the forwarder-side structured line for one
// peer-fill attempt. The outcome vocabulary is exactly the
// wrbpg_peer_fill_total label set, so log lines and the counter join
// on the same strings; fills that failed over to the local solver
// (error/timeout) log at Warn, the rest at Debug.
func (s *Server) logPeerFill(ctx context.Context, owner, outcome string, err error) {
	if s.log == nil {
		return
	}
	attrs := []any{"owner", owner, "outcome", outcome}
	if tr := obs.TraceFrom(ctx); tr != nil {
		attrs = append(attrs, "trace_id", tr.ID())
	}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
	}
	lvl := slog.LevelDebug
	if outcome == peerError || outcome == peerTimeout {
		lvl = slog.LevelWarn
	}
	s.log.Log(ctx, lvl, "peer fill", attrs...)
}

// peerFill offers the miss to the owning replica. handled=false means
// the caller should proceed with the local solve (peer error, timeout,
// or a shed the local queue can still absorb); handled=true carries
// the final verdict: a result (cacheable only when optimal) or the
// propagated 429.
func (s *Server) peerFill(ctx context.Context, owner, key string, req *wire.ScheduleRequest, deadline time.Duration) (res *wire.ScheduleResult, cacheable bool, err error, handled bool) {
	// The fill may spend the configured peer timeout, but never more
	// than half the request's remaining deadline: the local fallback
	// solve must keep a workable budget even when the owner is slow.
	timeout := s.cluster.PeerTimeout()
	if deadline > 0 && deadline/2 < timeout {
		timeout = deadline / 2
	}
	if timeout < time.Millisecond {
		return nil, false, nil, false // no budget for a network hop
	}

	pctx, sp := obs.StartSpan(ctx, "peer.fill")
	sp.SetAttr("owner", owner)
	defer sp.End()
	fctx, cancel := context.WithTimeout(pctx, timeout)
	defer cancel()

	// The fill carries moves only when this client asked for them. An
	// entry filled without them is refilled by the first include_moves
	// request that meets it (scheduleAs).
	fwd := *req
	fwd.TimeoutMS = timeout.Milliseconds()
	fill, sub, apiErr, ferr := s.cluster.Fill(fctx, owner, &wire.PeerScheduleRequest{
		Req: fwd, Key: key, Origin: s.cluster.Self(),
		// The trace parent is read off pctx (inside the peer.fill span),
		// so the owner's grafted subtree hangs under peer.fill.
		TraceParent: obs.TraceParent(pctx),
	})
	switch {
	case ferr != nil:
		outcome := peerError
		if errors.Is(ferr, context.DeadlineExceeded) {
			outcome = peerTimeout
		}
		sp.SetAttr("outcome", outcome)
		s.m.peerFill(outcome)
		s.logPeerFill(ctx, owner, outcome, ferr)
		s.cluster.ReportFillError(owner)
		return nil, false, nil, false // local solve

	case apiErr != nil:
		if apiErr.Status == http.StatusTooManyRequests {
			sp.SetAttr("outcome", peerShed)
			s.m.peerFill(peerShed)
			s.logPeerFill(ctx, owner, peerShed, nil)
			if s.adm.saturated() {
				// Cluster-aware shedding: the owner is shedding and the
				// local queue is saturated too — a local cold solve would
				// only be the degraded ladder under another name. Surface
				// the owner's 429 with its Retry-After clamped to the same
				// [1, 60]s contract local sheds honor.
				s.m.peerShedPropagated.Inc()
				ra := apiErr.RetryAfterS
				if ra < 1 {
					ra = 1
				}
				if ra > 60 {
					ra = 60
				}
				return nil, false, wire.Errorf(http.StatusTooManyRequests,
					"owner replica overloaded: %s", apiErr.Message).
					WithReason("shed").WithRetryAfter(ra), true
			}
			return nil, false, nil, false // local capacity absorbs the miss
		}
		// 4xx/5xx from the owner (key mismatch, internal failure): the
		// local solver is authoritative; the disagreement is visible in
		// the error outcome counter.
		sp.SetAttr("outcome", peerError)
		s.m.peerFill(peerError)
		s.logPeerFill(ctx, owner, peerError, apiErr)
		return nil, false, nil, false

	default:
		outcome := peerFilled
		cacheable = cacheableSource(fill)
		if !cacheable {
			outcome = peerDegraded
		}
		sp.SetAttr("outcome", outcome)
		s.m.peerFill(outcome)
		s.logPeerFill(ctx, owner, outcome, nil)
		// Stitch the owner's span subtree under peer.fill, so the
		// forwarder's GET /v1/trace/{id} shows the complete cross-replica
		// tree (transport gap included: the subtree is narrower than the
		// peer.fill span that contains it).
		sp.Graft(sub)
		// Scrub the owner's per-request stamping; the local request path
		// re-stamps cache disposition and key. ElapsedUS stays the
		// owner's solve time — the same semantics a local solve reports.
		fill.Cache, fill.CacheKey = "", ""
		// Cost accounting crosses the fleet with the fill: the owner's
		// meter (its solve or cache disposition) survives, re-tiered as a
		// peer answer one hop further from the client.
		if fill.Cost == nil {
			fill.Cost = &wire.CostMeta{}
		}
		fill.Cost.SourceTier = wire.TierPeer
		fill.Cost.PeerHops++
		return fill, cacheable, nil, true
	}
}
