// Request-scoped tracing: context-propagated trace IDs with
// parent/child spans recording the solver phases of one request
// (canonicalize → cache → build → admission → solve → simulate →
// fallback). Tracing is strictly opt-in per request: when no trace
// rides the context, StartSpan returns the context unchanged and a nil
// span whose methods are no-ops, so untraced hot paths pay one context
// lookup and zero allocations.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Trace is one request's span collection. Spans append concurrently
// (the solve facade runs the optimal solver on its own goroutine), so
// the trace carries a mutex; a span itself is owned by the goroutine
// that started it.
type Trace struct {
	id    string
	start time.Time

	mu    sync.Mutex
	spans []*Span
	done  bool
}

// Span is one timed phase within a trace. End it exactly once; attrs
// set after End are dropped.
type Span struct {
	tr       *Trace
	id       int
	parent   int // -1 for a root span
	name     string
	start    time.Duration // offset from trace start
	duration time.Duration
	ended    bool
	attrs    []Attr
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// NewTrace starts a trace with a fresh random 64-bit ID.
func NewTrace() *Trace {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a
		// time-derived ID keeps tracing usable in that degenerate case.
		now := time.Now().UnixNano()
		for i := range b {
			b[i] = byte(now >> (8 * i))
		}
	}
	return &Trace{id: hex.EncodeToString(b[:]), start: time.Now()}
}

// ResumeTrace continues a trace that was started on another replica:
// the returned trace reuses the propagated ID, so spans recorded here
// stitch into the originator's tree when the subtree is exported back
// (Span.Graft on the forwarding side). IDs that could not have been
// minted by this package fall back to a fresh trace rather than
// letting a peer inject arbitrary identifiers into the store.
func ResumeTrace(id string) *Trace {
	if !ValidTraceID(id) {
		return NewTrace()
	}
	return &Trace{id: id, start: time.Now()}
}

// ValidTraceID reports whether id looks like a trace identifier this
// package mints: 1–64 lowercase hex characters.
func ValidTraceID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// TraceParent encodes the context's active trace position as a
// "traceid:spanid" pair for cross-replica propagation (the
// X-Wrbpg-Trace-Parent peer header). Empty when ctx carries no trace.
func TraceParent(ctx context.Context) string {
	a, ok := ctx.Value(ctxKey{}).(active)
	if !ok || a.tr == nil {
		return ""
	}
	return a.tr.id + ":" + strconv.Itoa(a.spanID)
}

// SplitTraceParent parses a TraceParent value back into its trace ID
// and parent span ID. ok is false for anything malformed, so callers
// can treat a bad header as "untraced" without further validation.
func SplitTraceParent(v string) (id string, span int, ok bool) {
	i := strings.LastIndexByte(v, ':')
	if i <= 0 {
		return "", 0, false
	}
	id = v[:i]
	if !ValidTraceID(id) {
		return "", 0, false
	}
	n, err := strconv.Atoi(v[i+1:])
	if err != nil || n < -1 {
		return "", 0, false
	}
	return id, n, true
}

// ID returns the trace's hex identifier.
func (t *Trace) ID() string { return t.id }

// Start returns the trace's wall-clock start time.
func (t *Trace) Start() time.Time { return t.start }

// ctxKey is the context key type for the active span.
type ctxKey struct{}

// active identifies the current span position within a trace.
type active struct {
	tr     *Trace
	spanID int
}

// WithTrace returns a context carrying t with no active span: spans
// started from it become roots.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, active{tr: t, spanID: -1})
}

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if a, ok := ctx.Value(ctxKey{}).(active); ok {
		return a.tr
	}
	return nil
}

// StartSpan opens a child span of the context's active span (a root
// span when none is active). When ctx carries no trace it returns ctx
// unchanged and a nil span — every Span method is nil-safe, so call
// sites need no tracing-enabled branch.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	a, ok := ctx.Value(ctxKey{}).(active)
	if !ok || a.tr == nil {
		return ctx, nil
	}
	sp := a.tr.newSpan(name, a.spanID)
	if sp == nil { // trace already finished
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKey{}, active{tr: a.tr, spanID: sp.id}), sp
}

// newSpan appends a span under the trace lock.
func (t *Trace) newSpan(name string, parent int) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil
	}
	sp := &Span{
		tr:     t,
		id:     len(t.spans),
		parent: parent,
		name:   name,
		start:  time.Since(t.start),
	}
	t.spans = append(t.spans, sp)
	return sp
}

// End closes the span. Safe on nil and idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.duration = time.Since(s.tr.start) - s.start
}

// SetAttr annotates the span. Safe on nil; dropped after End.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if !s.ended {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
}

// Graft appends a span forest exported by another trace — typically
// the owner replica's subtree returned in the peer response envelope —
// as children of s. Node offsets are re-based from the subtree's wall
// clock onto this trace's clock, clamped so no grafted span starts
// before s itself (cross-host clock skew must not render a child ahead
// of its parent). Parent IDs are assigned at append time under the
// trace lock, so a graft can never introduce orphan spans. Safe on
// nil; dropped once the trace is finished.
func (s *Span) Graft(ex *TraceExport) {
	if s == nil || ex == nil || len(ex.Spans) == 0 {
		return
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	base := time.Duration(ex.StartUS-t.start.UnixMicro()) * time.Microsecond
	if base < s.start {
		base = s.start
	}
	var add func(n *SpanNode, parent int)
	add = func(n *SpanNode, parent int) {
		if n == nil {
			return
		}
		sp := &Span{
			tr:       t,
			id:       len(t.spans),
			parent:   parent,
			name:     n.Name,
			start:    base + time.Duration(n.StartUS)*time.Microsecond,
			duration: time.Duration(n.DurationUS) * time.Microsecond,
			ended:    true,
			attrs:    append([]Attr(nil), n.Attrs...),
		}
		t.spans = append(t.spans, sp)
		for _, c := range n.Children {
			add(c, sp.id)
		}
	}
	for _, n := range ex.Spans {
		add(n, s.id)
	}
}

// Finish marks the trace complete: open spans are ended and no further
// spans may start. Call it once, after the request's root span ended.
func (t *Trace) Finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	now := time.Since(t.start)
	for _, sp := range t.spans {
		if !sp.ended {
			sp.ended = true
			sp.duration = now - sp.start
		}
	}
}

// SpanNode is one node of the exported span tree.
type SpanNode struct {
	Name       string      `json:"name"`
	StartUS    int64       `json:"start_us"`
	DurationUS int64       `json:"duration_us"`
	Attrs      []Attr      `json:"attrs,omitempty"`
	Children   []*SpanNode `json:"children,omitempty"`
}

// TraceExport is the GET /v1/trace/{id} response body: the span forest
// of one completed request.
type TraceExport struct {
	TraceID string      `json:"trace_id"`
	StartUS int64       `json:"start_unix_us"`
	Spans   []*SpanNode `json:"spans"`
}

// Tree exports the trace as a parent-nested span forest. Children are
// ordered by start offset (ties by creation order, which is stable
// because span IDs increase monotonically).
func (t *Trace) Tree() *TraceExport {
	t.mu.Lock()
	defer t.mu.Unlock()
	nodes := make([]*SpanNode, len(t.spans))
	for i, sp := range t.spans {
		nodes[i] = &SpanNode{
			Name:       sp.name,
			StartUS:    sp.start.Microseconds(),
			DurationUS: sp.duration.Microseconds(),
			Attrs:      append([]Attr(nil), sp.attrs...),
		}
	}
	ex := &TraceExport{TraceID: t.id, StartUS: t.start.UnixMicro()}
	for i, sp := range t.spans {
		if sp.parent >= 0 {
			p := nodes[sp.parent]
			p.Children = append(p.Children, nodes[i])
		} else {
			ex.Spans = append(ex.Spans, nodes[i])
		}
	}
	var sortKids func(ns []*SpanNode)
	sortKids = func(ns []*SpanNode) {
		sort.SliceStable(ns, func(i, j int) bool { return ns[i].StartUS < ns[j].StartUS })
		for _, n := range ns {
			sortKids(n.Children)
		}
	}
	sortKids(ex.Spans)
	return ex
}

// ChromeEvent is one chrome://tracing / Perfetto trace_event (complete
// event, ph "X"; timestamps in microseconds).
type ChromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTrace exports the trace in Chrome trace_event JSON array
// format, loadable by chrome://tracing and Perfetto. Span depth maps
// to the tid column so nested phases stack visually.
func (t *Trace) ChromeTrace() []ChromeEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	depth := make([]int, len(t.spans))
	for i, sp := range t.spans {
		if sp.parent >= 0 {
			depth[i] = depth[sp.parent] + 1
		}
	}
	base := t.start.UnixMicro()
	evs := make([]ChromeEvent, 0, len(t.spans))
	for i, sp := range t.spans {
		ev := ChromeEvent{
			Name: sp.name,
			Ph:   "X",
			TS:   base + sp.start.Microseconds(),
			Dur:  sp.duration.Microseconds(),
			PID:  1,
			TID:  depth[i] + 1,
		}
		if len(sp.attrs) > 0 {
			ev.Args = make(map[string]string, len(sp.attrs))
			for _, a := range sp.attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		evs = append(evs, ev)
	}
	return evs
}

// MarshalJSON renders the trace as its span tree, so a *Trace drops
// straight into a JSON response.
func (t *Trace) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.Tree())
}

// TraceStore retains the most recent completed traces for retrieval by
// ID (GET /v1/trace/{id}): a fixed-capacity ring plus an ID index.
type TraceStore struct {
	mu   sync.Mutex
	byID map[string]*Trace
	ring []*Trace
	next int
}

// NewTraceStore returns a store retaining up to cap traces (minimum 1).
func NewTraceStore(capacity int) *TraceStore {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceStore{
		byID: make(map[string]*Trace, capacity),
		ring: make([]*Trace, capacity),
	}
}

// Put finishes t and retains it, evicting the oldest stored trace once
// the ring is full.
func (ts *TraceStore) Put(t *Trace) {
	t.Finish()
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if old := ts.ring[ts.next]; old != nil {
		delete(ts.byID, old.id)
	}
	ts.ring[ts.next] = t
	ts.byID[t.id] = t
	ts.next = (ts.next + 1) % len(ts.ring)
}

// Get returns the stored trace with the given ID.
func (ts *TraceStore) Get(id string) (*Trace, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t, ok := ts.byID[id]
	return t, ok
}

// Len returns the number of stored traces.
func (ts *TraceStore) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.byID)
}

// String renders a one-line summary for logs.
func (t *Trace) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprintf("trace %s (%d spans)", t.id, len(t.spans))
}
