package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
)

// reusableBody is a request body that can be rewound between runs.
type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// headerOnlyWriter is a ResponseWriter that keeps its header map and
// discards the body, so a measured run allocates nothing on the
// client's side.
type headerOnlyWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *headerOnlyWriter) Header() http.Header         { return w.h }
func (w *headerOnlyWriter) WriteHeader(code int)        { w.code = code }
func (w *headerOnlyWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// hitSpecBody is a 20-node raw-spec schedule body in the form the
// hot-cache benchmark sends: a random graph under names of its own.
func hitSpecBody() string {
	g := cdag.Random(3, 20)
	var b strings.Builder
	b.WriteString(`{"family":"cdag","budget_bits":`)
	fmt.Fprint(&b, core.MinExistenceBudget(g)*3/2)
	b.WriteString(`,"cdag":{"nodes":[`)
	for v := range g.Len() {
		if v > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"t%d","weight_bits":%d`, 1000+v, g.Weight(cdag.NodeID(v)))
		if ps := g.Parents(cdag.NodeID(v)); len(ps) > 0 {
			b.WriteString(`,"deps":[`)
			for i, p := range ps {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, `"t%d"`, 1000+p)
			}
			b.WriteByte(']')
		}
		b.WriteByte('}')
	}
	b.WriteString(`]}}`)
	return b.String()
}

// TestScheduleHitAllocs pins the allocations of one /v1/schedule cache
// hit through the whole handler, for a parametric body and for a
// 20-node raw spec, at the counts the one-pass request scanner and
// response appender reach. Decoding or encoding through reflection
// again would cost dozens more. The client's side (request, writer) is
// reused and not counted.
func TestScheduleHitAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// Collections off: the runtime's own post-collection work allocates.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	h := New(Options{}).Handler()
	for _, c := range []struct {
		name string
		body string
		max  float64
	}{
		{"parametric", `{"family":"dwt","n":32,"d":4,"budget_bits":1400}`, 9},
		{"spec20", hitSpecBody(), 47},
	} {
		t.Run(c.name, func(t *testing.T) {
			data, body := []byte(c.body), &reusableBody{}
			r := httptest.NewRequest(http.MethodPost, "/v1/schedule", nil)
			w := &headerOnlyWriter{h: http.Header{}}
			serve := func() {
				body.Reset(data)
				r.Body, w.code = body, 0
				h.ServeHTTP(w, r)
			}
			serve() // the miss that fills the cache
			if w.code != http.StatusOK {
				t.Fatalf("status %d", w.code)
			}
			serve()
			allocs := testing.AllocsPerRun(100, serve)
			if w.code != http.StatusOK {
				t.Fatalf("status %d", w.code)
			}
			t.Logf("%.0f allocs per hit", allocs)
			if allocs > c.max {
				t.Errorf("a cache hit allocates %.0f times, want at most %.0f", allocs, c.max)
			}
		})
	}
}
