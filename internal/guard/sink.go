// Context-carried counts aggregation: the serving layer's per-request
// cost accounting (wire.CostMeta) needs the solver-progress Counts of
// whatever solves a request triggered — one-shot solvers, warm session
// sweeps, anytime search workers — without threading a new parameter
// through every solver API. A CountsSink rides the request context, and
// each flush (FamilyCounters.Record) adds its delta to the sink of the
// context the flushed query ran under, so every existing flush point
// feeds the request's meter. Contexts without a sink pay one ctx.Value
// lookup per flush and nothing else.
package guard

import (
	"context"
	"sync"
)

// CountsSink accumulates solver-progress Counts across goroutines for
// one request. The mutex (rather than atomics) keeps Add a single
// uncontended lock on the per-flush path — flushes are per solve, not
// per DP cell — and tolerates late flushes from solver goroutines the
// request already abandoned.
type CountsSink struct {
	mu sync.Mutex
	c  Counts
}

// Add accumulates c. Safe on nil.
func (s *CountsSink) Add(c Counts) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.c.Add(c)
	s.mu.Unlock()
}

// Snapshot returns the totals accumulated so far.
func (s *CountsSink) Snapshot() Counts {
	if s == nil {
		return Counts{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

// sinkKey is the context key for the request's CountsSink.
type sinkKey struct{}

// WithSink returns a context carrying s: a flush of a query run under
// the returned context adds its Counts delta to s.
func WithSink(ctx context.Context, s *CountsSink) context.Context {
	return context.WithValue(ctx, sinkKey{}, s)
}

// SinkFrom returns the sink carried by ctx, or nil.
func SinkFrom(ctx context.Context) *CountsSink {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(sinkKey{}).(*CountsSink)
	return s
}
