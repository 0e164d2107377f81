// Per-request observability: the middleware that closes the loop
// between a finished API request and the fleet-wide instruments — the
// wrbpg_request_seconds latency histogram (with the trace ID attached
// as an exemplar when the request was traced), the SLO engine's
// sliding windows, and the structured request log line carrying the
// response's CostMeta. Only the solver-facing endpoints are tracked;
// meta endpoints (/metrics, /healthz, traces) and the internal peer
// path stay out so a forwarded request is not counted twice by the
// same fleet.

package serve

import (
	"context"
	"net/http"
	"time"

	"wrbpg/internal/obs"
	"wrbpg/internal/serve/wire"
)

// trackedPaths are the endpoints withRequestObs instruments. The peer
// path is deliberately absent: a peer fill is an internal hop of some
// forwarder's request, which that forwarder already counts once.
var trackedPaths = map[string]bool{
	"/v1/schedule":       true,
	"/v1/schedule/sweep": true,
	"/v1/schedule/patch": true,
	"/v1/lowerbound":     true,
}

// costKey carries the per-request cost pointer: handlers stash the
// response's CostMeta so the request log line can repeat it.
type costKey struct{}

// noteCost records c as the request's cost block. The handler's own
// goroutine writes it and the middleware reads it once the handler has
// returned.
func noteCost(ctx context.Context, c *wire.CostMeta) {
	if c == nil {
		return
	}
	if p, ok := ctx.Value(costKey{}).(**wire.CostMeta); ok {
		*p = c
	}
}

// statusWriter captures the response status for the middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// withRequestObs wraps the endpoint mux with per-request accounting
// for the tracked API endpoints: latency into wrbpg_request_seconds
// (exemplared with the trace ID when traced), the SLO engine's
// good/bad tally (429s and 5xx are availability-bad), and the
// structured request log line.
func (s *Server) withRequestObs(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !trackedPaths[r.URL.Path] {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		var cost *wire.CostMeta
		ctx := context.WithValue(r.Context(), costKey{}, &cost)
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r.WithContext(ctx))

		dur := time.Since(start)
		status := sw.status()
		s.slo.Record(dur, status == http.StatusTooManyRequests || status >= 500)
		var traceID string
		if tr := obs.TraceFrom(r.Context()); tr != nil {
			traceID = tr.ID()
		}
		s.m.reqSeconds.ObserveExemplar(dur.Seconds(), traceID)
		s.logRequest(r, status, dur, traceID, cost)
	})
}

// logRequest emits the structured per-request line: transport facts,
// the trace correlation ID, and the response's cost accounting block —
// so an expensive request is attributable from the log stream alone.
func (s *Server) logRequest(r *http.Request, status int, dur time.Duration, traceID string, cost *wire.CostMeta) {
	if s.log == nil {
		return
	}
	attrs := []any{
		"method", r.Method,
		"path", r.URL.Path,
		"status", status,
		"duration_us", dur.Microseconds(),
	}
	if traceID != "" {
		attrs = append(attrs, "trace_id", traceID)
	}
	if cost != nil {
		attrs = append(attrs,
			"source_tier", cost.SourceTier,
			"queue_wait_us", cost.QueueWaitUS,
			"solve_wall_us", cost.SolveWallUS,
			"states_expanded", cost.StatesExpanded,
			"memo_hits", cost.MemoHits,
			"memo_misses", cost.MemoMisses,
			"peer_hops", cost.PeerHops,
		)
	}
	s.log.Info("request", attrs...)
}

// handleSLO serves GET /v1/slo: both objectives' burn rates and budget
// remainders across every sliding window.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErr(w, wire.Errorf(http.StatusMethodNotAllowed, "GET required"))
		return
	}
	writeJSON(w, http.StatusOK, s.slo.Report())
}
