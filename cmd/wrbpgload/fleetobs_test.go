// Fleet observability acceptance tests, run by `make cluster-check`
// (TestClusterFleetObservability rides the same -run prefix as
// TestClusterFleet) and `make metrics-lint` (TestMetricsLint):
//
//   - a traced request answered by a peer fill must yield ONE complete
//     trace on the forwarder — the owner's span subtree grafted under
//     peer.fill, no orphans — plus a peer-tier cost block and an
//     OpenMetrics exemplar carrying the trace ID;
//   - a shed storm must move the SLO burn rate exactly as the raw
//     good/bad counts say it should;
//   - every wrbpg_* series a replica exposes, in both exposition
//     flavors, must carry HELP/TYPE metadata and round-trip through
//     the strict parser.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"wrbpg/internal/obs"
	"wrbpg/internal/obs/slo"
	"wrbpg/internal/serve"
	"wrbpg/internal/serve/wire"
)

// postSchedule POSTs a schedule request, optionally traced, returning
// the response and body.
func postSchedule(t *testing.T, url string, req wire.ScheduleRequest, traced bool) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/schedule", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traced {
		hreq.Header.Set(serve.TraceHeader, "on")
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// fetchJSON GETs url and decodes the body into v when non-nil.
func fetchJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, body)
		}
	}
	return resp
}

// findSpan walks a span forest for the first span named name.
func findSpan(nodes []*obs.SpanNode, name string) *obs.SpanNode {
	for _, n := range nodes {
		if n.Name == name {
			return n
		}
		if hit := findSpan(n.Children, name); hit != nil {
			return hit
		}
	}
	return nil
}

// countSpans sizes a span forest.
func countSpans(nodes []*obs.SpanNode) int {
	n := 0
	for _, sp := range nodes {
		n += 1 + countSpans(sp.Children)
	}
	return n
}

// checkNesting asserts every child starts at or after its parent — the
// orphan-free property: a grafted subtree whose clock rebase failed
// would surface as a child starting before the span that awaited it.
func checkNesting(t *testing.T, nodes []*obs.SpanNode, parentStart int64) {
	t.Helper()
	for _, n := range nodes {
		if n.StartUS < parentStart {
			t.Errorf("span %q starts at %dus, before its parent at %dus", n.Name, n.StartUS, parentStart)
		}
		checkNesting(t, n.Children, n.StartUS)
	}
}

// TestClusterFleetObservability: cross-replica trace propagation, cost
// accounting, SLO burn and exemplars on a live 3-replica fleet.
func TestClusterFleetObservability(t *testing.T) {
	f, err := startFleet(3, serve.Options{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()

	// Hunt for a traced request that was answered by a peer fill: walk
	// budgets and replicas until a response carries the peer cost tier.
	// With 3 replicas, roughly 2 in 3 cold keys land on a non-owner.
	var (
		traceID   string
		forwarder string
		res       wire.ScheduleResult
	)
	for budget := int64(300); budget < 340 && traceID == ""; budget++ {
		for _, u := range f.urls {
			req := wire.ScheduleRequest{Spec: wire.Spec{Family: "dwt", N: 32, D: 4}, BudgetBits: budget}
			resp, body := postSchedule(t, u, req, true)
			if resp.StatusCode != http.StatusOK {
				continue // a shed during warmup is not what this test is about
			}
			var r wire.ScheduleResult
			if err := json.Unmarshal(body, &r); err != nil {
				t.Fatalf("schedule body: %v\n%s", err, body)
			}
			if r.Cost == nil {
				t.Fatalf("schedule response carries no cost block: %s", body)
			}
			if r.Cost.SourceTier == wire.TierPeer {
				traceID = resp.Header.Get(serve.TraceIDHeader)
				forwarder = u
				res = r
				break
			}
		}
	}
	if traceID == "" {
		t.Fatal("no peer-filled schedule observed across 40 budgets x 3 replicas")
	}
	if res.Cost.PeerHops < 1 {
		t.Errorf("peer-filled response cost = %+v, want peer_hops >= 1", res.Cost)
	}

	// The forwarder's trace must be complete: the owner's peer.serve
	// subtree grafted under the forwarder's peer.fill span, every span
	// reachable from the single request root (no orphans), children
	// clock-rebased to start within their parents.
	var ex obs.TraceExport
	if r := fetchJSON(t, forwarder+"/v1/trace/"+traceID, &ex); r.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch on forwarder: %d", r.StatusCode)
	}
	if ex.TraceID != traceID {
		t.Fatalf("trace body ID %q, want %q", ex.TraceID, traceID)
	}
	if len(ex.Spans) != 1 || ex.Spans[0].Name != "request" {
		t.Fatalf("trace roots = %d (first %q), want the single request root",
			len(ex.Spans), ex.Spans[0].Name)
	}
	fill := findSpan(ex.Spans, "peer.fill")
	if fill == nil {
		t.Fatal("forwarder trace has no peer.fill span")
	}
	srv := findSpan(fill.Children, "peer.serve")
	if srv == nil {
		t.Fatalf("peer.fill has no grafted peer.serve child (children: %+v)", fill.Children)
	}
	if countSpans(srv.Children) == 0 {
		t.Error("grafted peer.serve subtree is bare — the owner's solve spans did not travel")
	}
	checkNesting(t, ex.Spans, 0)

	// The same trace exports as a loadable Chrome trace.
	var evs []obs.ChromeEvent
	if r := fetchJSON(t, forwarder+"/v1/trace/"+traceID+"?format=chrome", &evs); r.StatusCode != http.StatusOK {
		t.Fatalf("chrome fetch: %d", r.StatusCode)
	}
	if len(evs) < countSpans(ex.Spans) {
		t.Errorf("chrome export has %d events, tree has %d spans", len(evs), countSpans(ex.Spans))
	}
	// Malformed format selector: structured 400, not a silent default.
	if r := fetchJSON(t, forwarder+"/v1/trace/"+traceID+"?format=bogus", nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("format=bogus: %d, want 400", r.StatusCode)
	}

	// The traced request's ID must ride the matching wrbpg_request_seconds
	// bucket as an OpenMetrics exemplar — and only in OpenMetrics mode.
	resp, err := http.Get(forwarder + "/metrics?openmetrics=1")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples, err := obs.ParseText(string(raw))
	if err != nil {
		t.Fatalf("openmetrics exposition unparseable: %v", err)
	}
	foundExemplar := false
	for _, s := range samples {
		if s.Name == "wrbpg_request_seconds_bucket" && s.Exemplar != nil &&
			s.Exemplar.Labels["trace_id"] == traceID {
			foundExemplar = true
			if s.Exemplar.Value <= 0 {
				t.Errorf("exemplar value %v, want the positive request latency", s.Exemplar.Value)
			}
		}
	}
	if !foundExemplar {
		t.Errorf("trace %s not found as an exemplar on any wrbpg_request_seconds bucket", traceID)
	}
	resp, err = http.Get(forwarder + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	plain, err := obs.ParseText(string(raw))
	if err != nil {
		t.Fatalf("prometheus exposition unparseable: %v", err)
	}
	for _, s := range plain {
		if s.Exemplar != nil {
			t.Fatalf("series %s carries an exemplar in plain Prometheus mode", s.Series())
		}
	}

	// /v1/cluster/stats on any replica merges the whole fleet.
	var cs serve.ClusterStats
	if r := fetchJSON(t, forwarder+"/v1/cluster/stats", &cs); r.StatusCode != http.StatusOK {
		t.Fatalf("/v1/cluster/stats: %d", r.StatusCode)
	}
	if cs.Replicas != 3 || cs.Scraped != 3 {
		t.Fatalf("cluster stats replicas=%d scraped=%d, want 3/3: %+v", cs.Replicas, cs.Scraped, cs)
	}
	if cs.Totals[`wrbpg_http_requests_total{endpoint="peer"}`] == 0 || cs.Totals[`wrbpg_peer_fill_total{outcome="filled"}`] == 0 {
		t.Errorf("merged cluster stats show no peer traffic: %+v", cs.Totals)
	}
	if cs.Totals["wrbpg_solves_total"] == 0 || cs.Totals[`wrbpg_http_requests_total{endpoint="schedule"}`] == 0 {
		t.Errorf("merged cluster stats show no solve traffic: %+v", cs.Totals)
	}
}

// TestClusterFleetSLOBurn: a deliberate shed storm against one replica
// must register on its SLO engine with a burn rate that matches the raw
// good/bad counts, both on GET /v1/slo and the exported gauges.
func TestClusterFleetSLOBurn(t *testing.T) {
	f, err := startFleet(2, serve.Options{MaxInflight: 1, MaxQueue: -1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	target := f.urls[0]

	// Concurrent cold solves with a 1ms deadline against one slot and no
	// queue: everything past the slot holder sheds as a structured 429.
	var mu sync.Mutex
	sent, bad := 0, 0
	for round := 0; round < 10 && bad == 0; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 24; i++ {
			wg.Add(1)
			go func(budget int64) {
				defer wg.Done()
				req := wire.ScheduleRequest{Spec: wire.Spec{Family: "dwt", N: 32, D: 4},
					BudgetBits: budget, TimeoutMS: 1}
				resp, _ := postSchedule(t, target, req, false)
				mu.Lock()
				sent++
				if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
					bad++
				}
				mu.Unlock()
			}(int64(1000 + round*100 + i))
		}
		wg.Wait()
	}
	if bad == 0 {
		t.Fatal("shed storm produced no 429s — cannot exercise the burn rate")
	}

	var rep slo.Report
	if r := fetchJSON(t, target+"/v1/slo", &rep); r.StatusCode != http.StatusOK {
		t.Fatalf("/v1/slo: %d", r.StatusCode)
	}
	var avail *slo.ObjectiveStatus
	for i := range rep.Objectives {
		if rep.Objectives[i].Name == slo.ObjectiveAvailability {
			avail = &rep.Objectives[i]
		}
	}
	if avail == nil || len(avail.Windows) == 0 {
		t.Fatalf("availability objective missing from /v1/slo: %+v", rep)
	}
	w := avail.Windows[0] // shortest window, well inside 5m
	if w.Total != uint64(sent) || w.Bad != uint64(bad) {
		t.Fatalf("SLO window counts total=%d bad=%d, storm sent=%d bad=%d",
			w.Total, w.Bad, sent, bad)
	}
	want := slo.BurnRate(w.Total, w.Bad, avail.Budget)
	if math.Abs(w.BurnRate-want) > 1e-9 {
		t.Errorf("reported burn rate %v, counts say %v", w.BurnRate, want)
	}
	if w.BurnRate <= 1 {
		t.Errorf("burn rate %v after a %d/%d shed storm, want > 1x budget", w.BurnRate, bad, sent)
	}

	// The exported gauge must agree with the endpoint.
	resp, err := http.Get(target + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples, err := obs.ParseText(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	gauge := math.NaN()
	for _, s := range samples {
		if s.Name == "wrbpg_slo_burn_rate" && s.Labels["slo"] == "availability_"+w.Window {
			gauge = s.Value
		}
	}
	if math.IsNaN(gauge) {
		t.Fatal(`wrbpg_slo_burn_rate{slo="availability_` + w.Window + `"} not exported`)
	}
	if math.Abs(gauge-want) > 1e-9 {
		t.Errorf("gauge burn rate %v, counts say %v", gauge, want)
	}
}

// TestMetricsLint: every wrbpg_* series each replica of a live fleet
// exposes must carry HELP and TYPE metadata, in both exposition
// flavors, and both flavors must round-trip through the strict parser.
func TestMetricsLint(t *testing.T) {
	f, err := startFleet(3, serve.Options{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()

	// Touch every serving path so label-valued families materialize.
	for i, u := range f.urls {
		req := wire.ScheduleRequest{Spec: wire.Spec{Family: "dwt", N: 32, D: 4}, BudgetBits: int64(600 + i)}
		postSchedule(t, u, req, true)
		b, _ := json.Marshal(wire.SweepRequest{Spec: wire.Spec{Family: "dwt", N: 32, D: 4},
			BudgetsBits: []int64{500, 700}})
		if resp, err := http.Post(u+"/v1/schedule/sweep", "application/json", bytes.NewReader(b)); err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}

	for _, u := range f.urls {
		for _, mode := range []struct {
			name, query, wantCT string
			openMetrics         bool
		}{
			{"prometheus", "", "version=0.0.4", false},
			{"openmetrics", "?openmetrics=1", "application/openmetrics-text", true},
		} {
			resp, err := http.Get(u + "/metrics" + mode.query)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, mode.wantCT) {
				t.Errorf("%s %s: Content-Type %q, want %q", u, mode.name, ct, mode.wantCT)
			}
			if mode.openMetrics && !strings.HasSuffix(strings.TrimSpace(string(raw)), "# EOF") {
				t.Errorf("%s openmetrics exposition not terminated by # EOF", u)
			}
			lintExposition(t, fmt.Sprintf("%s %s", u, mode.name), string(raw))
		}
	}
}

// lintExposition asserts the metadata contract over one scrape: strict
// parse, and HELP+TYPE present for the family of every wrbpg_* sample
// (histogram series resolve through their _bucket/_sum/_count suffix).
func lintExposition(t *testing.T, scrape, text string) {
	t.Helper()
	samples, err := obs.ParseText(text)
	if err != nil {
		t.Errorf("%s: exposition unparseable: %v", scrape, err)
		return
	}
	help, typ := map[string]bool{}, map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == "#" && f[1] == "HELP" {
			help[f[2]] = true
		}
		if len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			typ[f[2]] = f[3]
		}
	}
	for _, s := range samples {
		if !strings.HasPrefix(s.Name, "wrbpg_") {
			continue
		}
		fam := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(s.Name, suffix)
			if base != s.Name {
				if k := typ[base]; k == "histogram" || k == "summary" {
					fam = base
				}
			}
		}
		if !help[fam] {
			t.Errorf("%s: series %s has no # HELP %s", scrape, s.Series(), fam)
		}
		if typ[fam] == "" {
			t.Errorf("%s: series %s has no # TYPE %s", scrape, s.Series(), fam)
		}
	}
}
