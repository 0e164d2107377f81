package obs

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
)

// TestStartSpanUntraced: without a trace on the context, StartSpan must
// return the context unchanged and a nil span whose methods are no-ops
// — the contract that keeps untraced hot paths branch-free.
func TestStartSpanUntraced(t *testing.T) {
	ctx := context.Background()
	got, sp := StartSpan(ctx, "phase")
	if got != ctx {
		t.Error("StartSpan without a trace rewrote the context")
	}
	if sp != nil {
		t.Fatal("StartSpan without a trace returned a non-nil span")
	}
	sp.SetAttr("k", "v") // must not panic
	sp.End()
	if tr := TraceFrom(ctx); tr != nil {
		t.Errorf("TraceFrom(plain ctx) = %v, want nil", tr)
	}
}

// TestSpanTreeNesting builds a known three-level span tree and checks
// the export nests and annotates it faithfully.
func TestSpanTreeNesting(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom lost the trace")
	}

	rctx, root := StartSpan(ctx, "request")
	root.SetAttr("method", "POST")
	cctx, cache := StartSpan(rctx, "cache")
	_, solve := StartSpan(cctx, "solve")
	solve.SetAttr("source", "optimal")
	solve.End()
	solve.SetAttr("late", "dropped") // after End: must be discarded
	cache.End()
	_, sim := StartSpan(rctx, "simulate")
	sim.End()
	root.End()
	tr.Finish()

	ex := tr.Tree()
	if ex.TraceID != tr.ID() || len(ex.TraceID) != 16 {
		t.Errorf("trace ID %q, want the 16-hex-digit %q", ex.TraceID, tr.ID())
	}
	if len(ex.Spans) != 1 || ex.Spans[0].Name != "request" {
		t.Fatalf("roots = %+v, want single 'request' root", ex.Spans)
	}
	r := ex.Spans[0]
	if len(r.Attrs) != 1 || r.Attrs[0].Key != "method" || r.Attrs[0].Value != "POST" {
		t.Errorf("root attrs = %v", r.Attrs)
	}
	if len(r.Children) != 2 || r.Children[0].Name != "cache" || r.Children[1].Name != "simulate" {
		t.Fatalf("request children = %+v, want [cache simulate]", r.Children)
	}
	c := r.Children[0]
	if len(c.Children) != 1 || c.Children[0].Name != "solve" {
		t.Fatalf("cache children = %+v, want [solve]", c.Children)
	}
	if attrs := c.Children[0].Attrs; len(attrs) != 1 || attrs[0].Key != "source" {
		t.Errorf("solve attrs = %v, want only the pre-End one", attrs)
	}

	// New spans after Finish must be rejected.
	if _, sp := StartSpan(rctx, "late"); sp != nil {
		t.Error("StartSpan after Finish returned a live span")
	}
}

// TestSpanTreeProperty is a randomized structural test: build many
// random span forests through the public context API and assert, for
// each, that (a) every span lands under exactly the parent whose
// context started it, (b) siblings appear in creation order (starts
// are non-decreasing, sort is stable), and (c) ChromeTrace emits one
// event per span with tid = depth+1.
func TestSpanTreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 50; iter++ {
		tr := NewTrace()
		base := WithTrace(context.Background(), tr)

		type rec struct {
			ctx    context.Context
			name   string
			parent int // index into recs; -1 = root
		}
		recs := []rec{}
		ctxOf := func(i int) context.Context {
			if i < 0 {
				return base
			}
			return recs[i].ctx
		}
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			parent := rng.Intn(len(recs)+1) - 1 // -1 .. len(recs)-1
			name := string(rune('a' + i%26))
			ctx, sp := StartSpan(ctxOf(parent), name)
			if sp == nil {
				t.Fatalf("iter %d: StartSpan returned nil with a live trace", iter)
			}
			recs = append(recs, rec{ctx: ctx, name: name, parent: parent})
		}
		// End in random order; Finish sweeps up any still open.
		for _, i := range rng.Perm(n) {
			if rng.Intn(2) == 0 {
				tr.spans[i].End()
			}
		}
		tr.Finish()

		// Expected children of each parent, in creation order.
		wantKids := map[int][]string{}
		for i, r := range recs {
			wantKids[r.parent] = append(wantKids[r.parent], recs[i].name)
		}

		ex := tr.Tree()
		var walk func(parent int, nodes []*SpanNode)
		walk = func(parent int, nodes []*SpanNode) {
			want := wantKids[parent]
			if len(nodes) != len(want) {
				t.Fatalf("iter %d: parent %d has %d children, want %d", iter, parent, len(nodes), len(want))
			}
			// Map node back to its rec index by matching names in order:
			// creation order is the expected stable order.
			ki := 0
			for _, node := range nodes {
				if node.Name != want[ki] {
					t.Fatalf("iter %d: parent %d child %d = %q, want %q (creation order)",
						iter, parent, ki, node.Name, want[ki])
				}
				// Find this child's rec index to recurse.
				idx := -1
				seen := 0
				for j, r := range recs {
					if r.parent == parent {
						if seen == ki {
							idx = j
							break
						}
						seen++
					}
				}
				walk(idx, node.Children)
				ki++
			}
		}
		walk(-1, ex.Spans)

		// Chrome export: one event per span, tid = depth+1, all ended.
		evs := tr.ChromeTrace()
		if len(evs) != n {
			t.Fatalf("iter %d: ChromeTrace has %d events, want %d", iter, len(evs), n)
		}
		depth := func(i int) int {
			d := 0
			for p := recs[i].parent; p >= 0; p = recs[p].parent {
				d++
			}
			return d
		}
		for i, ev := range evs {
			if ev.Ph != "X" {
				t.Fatalf("iter %d: event %d ph=%q, want X", iter, i, ev.Ph)
			}
			if ev.TID != depth(i)+1 {
				t.Errorf("iter %d: event %d tid=%d, want depth+1=%d", iter, i, ev.TID, depth(i)+1)
			}
			if ev.Dur < 0 {
				t.Errorf("iter %d: event %d negative duration %d", iter, i, ev.Dur)
			}
		}
	}
}

// TestTraceMarshalJSON: a *Trace must serialize as its span tree.
func TestTraceMarshalJSON(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	_, sp := StartSpan(ctx, "only")
	sp.End()
	tr.Finish()
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var ex TraceExport
	if err := json.Unmarshal(raw, &ex); err != nil {
		t.Fatal(err)
	}
	if ex.TraceID != tr.ID() || len(ex.Spans) != 1 || ex.Spans[0].Name != "only" {
		t.Errorf("round-tripped export = %+v", ex)
	}
}

// TestTraceStoreEviction: the ring must retain exactly the newest cap
// traces and evict by insertion order.
func TestTraceStoreEviction(t *testing.T) {
	ts := NewTraceStore(2)
	t1, t2, t3 := NewTrace(), NewTrace(), NewTrace()
	ts.Put(t1)
	ts.Put(t2)
	if ts.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ts.Len())
	}
	ts.Put(t3)
	if ts.Len() != 2 {
		t.Fatalf("Len after eviction = %d, want 2", ts.Len())
	}
	if _, ok := ts.Get(t1.ID()); ok {
		t.Error("oldest trace survived eviction")
	}
	for _, tr := range []*Trace{t2, t3} {
		if _, ok := ts.Get(tr.ID()); !ok {
			t.Errorf("trace %s missing from store", tr.ID())
		}
	}
	if _, ok := ts.Get("nope"); ok {
		t.Error("Get of unknown ID succeeded")
	}
}
