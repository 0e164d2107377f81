package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
	"wrbpg/internal/obs"
	"wrbpg/internal/serve/wire"
)

// postTraced POSTs body with the X-Wrbpg-Trace header set and returns
// the response plus its body bytes.
func postTraced(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, "on")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// spanNames flattens a span forest into a set of names.
func spanNames(nodes []*obs.SpanNode, into map[string]*obs.SpanNode) {
	for _, n := range nodes {
		into[n.Name] = n
		spanNames(n.Children, into)
	}
}

// TestTraceEndToEnd is the tracing acceptance test: a traced cold
// schedule yields a retrievable trace whose tree contains the
// request/cache/solve phases, the cache span carries its disposition,
// and the chrome export is loadable JSON. Untraced requests get no
// trace ID header.
func TestTraceEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	req := dwtRequest(16 * 16)

	resp, body := postTraced(t, ts.URL+"/v1/schedule", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get(TraceIDHeader)
	if id == "" {
		t.Fatal("traced request returned no " + TraceIDHeader)
	}

	var ex obs.TraceExport
	if r := getJSON(t, ts.URL+"/v1/trace/"+id, &ex); r.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: %d", r.StatusCode)
	}
	if ex.TraceID != id {
		t.Fatalf("trace body ID %q, want %q", ex.TraceID, id)
	}
	if len(ex.Spans) != 1 || ex.Spans[0].Name != "request" {
		t.Fatalf("roots = %+v, want single 'request' root", ex.Spans)
	}
	all := map[string]*obs.SpanNode{}
	spanNames(ex.Spans, all)
	for _, want := range []string{"request", "canonicalize", "cache", "build", "admission", "solve", "solve.optimal", "solve.simulate"} {
		if all[want] == nil {
			t.Errorf("span %q missing from trace (have %d spans)", want, len(all))
		}
	}
	if cache := all["cache"]; cache != nil {
		found := false
		for _, a := range cache.Attrs {
			if a.Key == "disposition" && a.Value == "miss" {
				found = true
			}
		}
		if !found {
			t.Errorf("cache span attrs = %v, want disposition=miss", cache.Attrs)
		}
	}
	if solveSp := all["solve"]; solveSp != nil {
		kids := map[string]bool{}
		for _, c := range solveSp.Children {
			kids[c.Name] = true
		}
		if !kids["solve.optimal"] || !kids["solve.simulate"] {
			t.Errorf("solve children = %v, want optimal+simulate nested under solve", solveSp.Children)
		}
	}

	// Chrome export: a JSON array of complete events.
	var evs []obs.ChromeEvent
	if r := getJSON(t, ts.URL+"/v1/trace/"+id+"?format=chrome", &evs); r.StatusCode != http.StatusOK {
		t.Fatalf("chrome fetch: %d", r.StatusCode)
	}
	if len(evs) < 5 {
		t.Fatalf("chrome export has %d events, want the full span set", len(evs))
	}
	for _, ev := range evs {
		if ev.Ph != "X" {
			t.Errorf("chrome event %q ph=%q, want X", ev.Name, ev.Ph)
		}
	}

	// Unknown IDs 404; untraced requests carry no ID header.
	if r := getJSON(t, ts.URL+"/v1/trace/doesnotexist", nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace: %d, want 404", r.StatusCode)
	}
	resp2, _ := postJSON(t, ts.URL+"/v1/schedule", req)
	if got := resp2.Header.Get(TraceIDHeader); got != "" {
		t.Errorf("untraced request returned trace ID %q", got)
	}
}

// TestMetricsEndpoint: after mixed traffic, GET /metrics is a valid
// Prometheus 0.0.4 exposition with at least 15 distinct series, and
// the request/cache counters reflect the traffic.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	req := dwtRequest(16 * 16)
	postJSON(t, ts.URL+"/v1/schedule", req) // miss
	postJSON(t, ts.URL+"/v1/schedule", req) // hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(string(raw))
	if err != nil {
		t.Fatalf("/metrics output unparseable: %v", err)
	}
	series := map[string]float64{}
	names := map[string]bool{}
	for _, s := range samples {
		series[s.Series()] = s.Value
		names[s.Name] = true
	}
	if len(series) < 15 {
		t.Errorf("only %d distinct series exposed, want >= 15:\n%s", len(series), raw)
	}
	checks := map[string]float64{
		`wrbpg_http_requests_total{endpoint="schedule"}`: 2,
		"wrbpg_cache_misses_total":                       1,
		"wrbpg_cache_hits_total":                         1,
		"wrbpg_solves_total":                             1,
		"wrbpg_cache_entries":                            1,
	}
	for s, want := range checks {
		if got, ok := series[s]; !ok || got != want {
			t.Errorf("series %s = %v (present=%v), want %v", s, got, ok, want)
		}
	}
	// The solver-side registry (memo counters, worker pool) must ride
	// along in the same exposition.
	for _, name := range []string{"wrbpg_solver_queries_total", "wrbpg_solve_latency_us"} {
		if !names[name] && !names[name+"_count"] {
			t.Errorf("metric family %s missing from merged exposition", name)
		}
	}
}

// TestFallbackReasonInBodyAndMetric: a deterministic budget-limit
// degradation must label the response with the machine-readable cause
// and increment wrbpg_fallback_total{reason="budget"}.
func TestFallbackReasonInBodyAndMetric(t *testing.T) {
	ts, _ := newTestServer(t, Options{
		Limits: guard.Limits{MaxMemoEntries: 1},
	})
	req := dwtRequest(16 * 16)
	req.IncludeMoves = false

	resp, body := postJSON(t, ts.URL+"/v1/schedule", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out wire.ScheduleResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Source != "fallback" {
		t.Fatalf("source = %q, want fallback", out.Source)
	}
	if out.FallbackCause != "budget" {
		t.Fatalf("fallback_cause = %q, want budget (human text: %q)", out.FallbackCause, out.FallbackReason)
	}

	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw, _ := io.ReadAll(resp2.Body)
	samples, err := obs.ParseText(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.Name == "wrbpg_fallback_total" && s.Labels["reason"] == "budget" && s.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf(`wrbpg_fallback_total{reason="budget"} not incremented`)
	}
}

// lockedBuffer collects log output written from handler goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestSolveDegradedLogged: a solve that degrades to the baseline logs
// one Warn line naming the problem and the classified cause.
func TestSolveDegradedLogged(t *testing.T) {
	var buf lockedBuffer
	ts, _ := newTestServer(t, Options{
		Logger: slog.New(slog.NewJSONHandler(&buf, nil)),
		Limits: guard.Limits{MaxMemoEntries: 1},
	})
	req := dwtRequest(16 * 16)
	req.IncludeMoves = false
	if resp, body := postJSON(t, ts.URL+"/v1/schedule", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var warns []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec["msg"] == "solve degraded to baseline" {
			warns = append(warns, rec)
		}
	}
	if len(warns) != 1 {
		t.Fatalf("%d degraded-solve lines, want 1:\n%s", len(warns), buf.String())
	}
	if w := warns[0]; w["level"] != "WARN" || w["workload"] != "dwt" || w["reason"] != "budget" || w["err"] == nil {
		t.Fatalf("degraded-solve line %v, want level=WARN workload=dwt reason=budget and the error", w)
	}
}

// TestSweepItemReason: sweep items that abort must carry the
// machine-readable reason in their wire error.
func TestSweepItemReason(t *testing.T) {
	ts, _ := newTestServer(t, Options{
		Limits: guard.Limits{MaxMemoEntries: 1},
	})
	resp, body := postJSON(t, ts.URL+"/v1/schedule/sweep", sweepReq([]int64{1 << 20}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d\n%s", resp.StatusCode, body)
	}
	sr := decodeSweep(t, body)
	if sr.Failed == 0 {
		t.Skip("memo ceiling did not trip on this sweep; nothing to assert")
	}
	for _, it := range sr.Items {
		if it.Error == nil {
			continue
		}
		if it.Error.Reason != "budget" {
			t.Errorf("item %d error reason = %q, want budget (%+v)", it.BudgetBits, it.Error.Reason, it.Error)
		}
	}
}

// TestDebugHandler: the -debug-addr surface serves the pprof index and
// the same metrics exposition as the public /metrics.
func TestDebugHandler(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.DebugHandler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("pprof index: %d\n%s", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if _, err := obs.ParseText(string(raw)); err != nil {
		t.Fatalf("debug /metrics unparseable: %v", err)
	}
}

// TestColdSolveFeedsSolverCounters: a one-shot solve flushes its
// family solver's counts exactly once, so one cold /v1/schedule raises
// wrbpg_solver_queries_total{family} by 1, and for the DP families the
// response's cost.memo_misses is the memo-entry series' delta. Not
// parallel: the solver counters are process-global.
func TestColdSolveFeedsSolverCounters(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	for _, c := range []struct {
		spec wire.Spec
		dp   bool
	}{
		{wire.Spec{Family: "dwt", N: 16, D: 3}, true},
		{wire.Spec{Family: "ktree", K: 3, Height: 3}, true},
		{wire.Spec{Family: "mvm", M: 6, N: 10}, false},
	} {
		t.Run(c.spec.Family, func(t *testing.T) {
			var lb wire.LowerBoundResult
			if resp, body := postJSON(t, ts.URL+"/v1/lowerbound", wire.ScheduleRequest{Spec: c.spec}); resp.StatusCode != http.StatusOK {
				t.Fatalf("lowerbound: %d: %s", resp.StatusCode, body)
			} else if err := json.Unmarshal(body, &lb); err != nil {
				t.Fatal(err)
			}
			queries := fmt.Sprintf("wrbpg_solver_queries_total{family=%q}", c.spec.Family)
			entries := fmt.Sprintf("wrbpg_solver_memo_entries_total{family=%q}", c.spec.Family)
			before := scrapeMetrics(t, ts.URL)
			resp, body := postJSON(t, ts.URL+"/v1/schedule", wire.ScheduleRequest{Spec: c.spec, BudgetBits: 2 * lb.MinExistenceBits})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("schedule: %d: %s", resp.StatusCode, body)
			}
			var res wire.ScheduleResult
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatal(err)
			}
			if res.Cache != "miss" || res.Source != "optimal" || res.Cost == nil {
				t.Fatalf("cache=%q source=%q cost=%v, want a cold optimal solve with a cost block", res.Cache, res.Source, res.Cost)
			}
			after := scrapeMetrics(t, ts.URL)
			if d := after[queries] - before[queries]; d != 1 {
				t.Errorf("%s rose by %v, want 1", queries, d)
			}
			if !c.dp {
				return
			}
			if d := after[entries] - before[entries]; d <= 0 || float64(res.Cost.MemoMisses) != d {
				t.Errorf("%s rose by %v, cost.memo_misses = %d: want equal and > 0", entries, d, res.Cost.MemoMisses)
			}
		})
	}
	// A cold general DAG runs the anytime search, whose workers each
	// flush into the one request.
	t.Run("cdag", func(t *testing.T) {
		g := cdag.Random(5, 18)
		spec := &wire.GraphSpec{}
		for v := range g.Len() {
			n := wire.GraphNode{Name: fmt.Sprintf("n%d", v), WeightBits: int64(g.Weight(cdag.NodeID(v)))}
			for _, p := range g.Parents(cdag.NodeID(v)) {
				n.Deps = append(n.Deps, fmt.Sprintf("n%d", p))
			}
			spec.Nodes = append(spec.Nodes, n)
		}
		states := `wrbpg_solver_states_total{family="anytime"}`
		before := scrapeMetrics(t, ts.URL)
		status, res, raw := postCDAG(t, ts.URL, spec, int64(core.MinExistenceBudget(g))*3/2)
		if status != http.StatusOK {
			t.Fatalf("schedule: %d: %s", status, raw)
		}
		if res.Cache != "miss" || res.Source != "anytime" || res.Cost == nil {
			t.Fatalf("cache=%q source=%q cost=%v, want a cold anytime solve with a cost block", res.Cache, res.Source, res.Cost)
		}
		after := scrapeMetrics(t, ts.URL)
		if d := after[states] - before[states]; d <= 0 || float64(res.Cost.StatesExpanded) != d {
			t.Errorf("%s rose by %v, cost.states_expanded = %d: want equal and > 0", states, d, res.Cost.StatesExpanded)
		}
	})
	// A budget list flushes its session's counts once, into the family
	// counters and its own cost block.
	t.Run("budgets", func(t *testing.T) {
		entries := `wrbpg_solver_memo_entries_total{family="ktree"}`
		before := scrapeMetrics(t, ts.URL)
		resp, body := postJSON(t, ts.URL+"/v1/schedule/sweep", wire.SweepRequest{
			Spec: wire.Spec{Family: "ktree", K: 2, Height: 5}, BudgetsBits: []int64{600, 900}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep: %d: %s", resp.StatusCode, body)
		}
		var res wire.SweepResponse
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if res.Succeeded != 2 || res.Cost == nil {
			t.Fatalf("succeeded=%d cost=%v, want two answers with a cost block", res.Succeeded, res.Cost)
		}
		after := scrapeMetrics(t, ts.URL)
		if d := after[entries] - before[entries]; d <= 0 || float64(res.Cost.MemoMisses) != d {
			t.Errorf("%s rose by %v, cost.memo_misses = %d: want equal and > 0", entries, d, res.Cost.MemoMisses)
		}
	})
}

// TestRequestLogRepeatsCost: the structured request log line repeats
// the response's cost block, for a /v1/schedule miss, the hit that
// follows it and a budget list. The handler is driven in process, so
// the line is written by the time ServeHTTP returns.
func TestRequestLogRepeatsCost(t *testing.T) {
	var buf lockedBuffer
	h := New(Options{Logger: slog.New(slog.NewJSONHandler(&buf, nil))}).Handler()
	spec := wire.Spec{Family: "ktree", K: 2, Height: 4}
	for _, c := range []struct {
		name, path, tier string
		body             any
	}{
		{"miss", "/v1/schedule", wire.TierSolve, wire.ScheduleRequest{Spec: spec, BudgetBits: 400}},
		{"hit", "/v1/schedule", wire.TierCache, wire.ScheduleRequest{Spec: spec, BudgetBits: 400}},
		{"budgets", "/v1/schedule/sweep", wire.TierSession, wire.SweepRequest{Spec: spec, BudgetsBits: []int64{300, 400}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			b, err := json.Marshal(c.body)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(b)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			var res struct{ Cost *wire.CostMeta }
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			if res.Cost == nil || res.Cost.SourceTier != c.tier {
				t.Fatalf("cost = %+v, want source_tier %q", res.Cost, c.tier)
			}
			if cold := c.tier != wire.TierCache; cold != (res.Cost.MemoMisses > 0) {
				t.Fatalf("cost.memo_misses = %d on a %s answer", res.Cost.MemoMisses, c.tier)
			}
			var line map[string]any
			for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
				var m map[string]any
				if err := json.Unmarshal([]byte(l), &m); err != nil {
					t.Fatalf("log line %q: %v", l, err)
				}
				if m["msg"] == "request" {
					line = m
				}
			}
			if line == nil || line["path"] != c.path {
				t.Fatalf("last request log line %v, want one for %s", line, c.path)
			}
			if line["source_tier"] != res.Cost.SourceTier ||
				line["memo_misses"] != float64(res.Cost.MemoMisses) ||
				line["states_expanded"] != float64(res.Cost.StatesExpanded) {
				t.Errorf("log line %v does not repeat cost block %+v", line, res.Cost)
			}
		})
	}
}
