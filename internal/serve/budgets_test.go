package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"wrbpg/internal/cdag"
	"wrbpg/internal/guard"
	"wrbpg/internal/serve/wire"
	"wrbpg/internal/solve"
	"wrbpg/internal/wcfg"
)

// sweepReq is the canonical test sweep: a small ktree instance with
// budgets spanning infeasible through comfortable.
func sweepReq(budgets []int64) map[string]any {
	return map[string]any{
		"family":       "ktree",
		"k":            3,
		"height":       3,
		"budgets_bits": budgets,
	}
}

// patchReq is the canonical test patch: the sweepReq base with deltas.
func patchReq(budgets []int64, deltas []map[string]any) map[string]any {
	req := sweepReq(budgets)
	req["deltas"] = deltas
	return req
}

func decodeSweep(t *testing.T, body []byte) wire.SweepResponse {
	t.Helper()
	var sr wire.SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decoding budget-list response: %v\n%s", err, body)
	}
	return sr
}

// TestSweepWarmSession: a sweep answers every budget in order, agrees
// with the single-solve endpoint, and the second identical sweep is a
// session-pool hit that never touches the cold solver.
func TestSweepWarmSession(t *testing.T) {
	ts, s := newTestServer(t, Options{})

	// Bounds first, so the budget list brackets the existence bound.
	var lb wire.LowerBoundResult
	if resp := getJSON(t, ts.URL+"/v1/lowerbound?family=ktree&k=3&height=3", &lb); resp.StatusCode != http.StatusOK {
		t.Fatalf("lowerbound: %d", resp.StatusCode)
	}
	min := lb.MinExistenceBits
	budgets := []int64{min + 9, min - 1, min + 4, min, min + 9}

	resp, body := postJSON(t, ts.URL+"/v1/schedule/sweep", sweepReq(budgets))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d\n%s", resp.StatusCode, body)
	}
	sr := decodeSweep(t, body)
	if sr.Session != "miss" || len(sr.Items) != len(budgets) || sr.Failed != 0 || sr.Succeeded != len(budgets) {
		t.Fatalf("first sweep: %+v", sr)
	}
	if sr.MinExistenceBits != min || sr.LowerBoundBits != lb.LowerBoundBits {
		t.Errorf("sweep bounds (%d, %d) disagree with /v1/lowerbound (%d, %d)",
			sr.LowerBoundBits, sr.MinExistenceBits, lb.LowerBoundBits, min)
	}
	// A sweep is a patch with no deltas: its patch key is its base key.
	if sr.BaseKey == "" || sr.PatchKey != sr.BaseKey || sr.DeltasApplied != 0 || sr.ChangedNodes != 0 {
		t.Errorf("sweep keys/stats: base=%q patch=%q deltas=%d changed=%d",
			sr.BaseKey, sr.PatchKey, sr.DeltasApplied, sr.ChangedNodes)
	}
	for i, it := range sr.Items {
		if it.BudgetBits != budgets[i] {
			t.Fatalf("item %d budget %d, want %d (order must be preserved)", i, it.BudgetBits, budgets[i])
		}
		if wantFeasible := budgets[i] >= min; it.Feasible != wantFeasible || it.Error != nil {
			t.Errorf("item %d: feasible=%v err=%v, want feasible=%v err=nil", i, it.Feasible, it.Error, wantFeasible)
		}
	}
	if sr.Items[0].CostBits != sr.Items[4].CostBits {
		t.Errorf("identical budgets answered differently: %d vs %d", sr.Items[0].CostBits, sr.Items[4].CostBits)
	}

	// Cross-check one budget against the single-solve endpoint.
	resp, body = postJSON(t, ts.URL+"/v1/schedule", map[string]any{
		"family": "ktree", "k": 3, "height": 3, "budget_bits": min + 4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d\n%s", resp.StatusCode, body)
	}
	var one wire.ScheduleResult
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	if one.CostBits != sr.Items[2].CostBits {
		t.Errorf("sweep cost %d at budget %d disagrees with /v1/schedule cost %d",
			sr.Items[2].CostBits, min+4, one.CostBits)
	}

	// Identical sweep again: session hit, and no cold solve.
	before := s.Stats().Solves
	resp, body = postJSON(t, ts.URL+"/v1/schedule/sweep", sweepReq(budgets))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second sweep: %d", resp.StatusCode)
	}
	if sr2 := decodeSweep(t, body); sr2.Session != "hit" {
		t.Fatalf("second sweep session = %q, want hit", sr2.Session)
	}
	if s.Stats().Solves != before {
		t.Errorf("warm sweep invoked the cold solver")
	}

	m := scrapeMetrics(t, ts.URL)
	for series, want := range map[string]float64{
		`wrbpg_http_requests_total{endpoint="sweep"}`: 2,
		"wrbpg_sweep_budgets_total":                   float64(2 * len(budgets)),
		"wrbpg_sweep_session_misses_total":            1,
		"wrbpg_sweep_session_hits_total":              1,
		"wrbpg_sweep_sessions_live":                   1,
	} {
		if m[series] != want {
			t.Errorf("sweep counter %s = %v, want %v", series, m[series], want)
		}
	}
	if n := m["wrbpg_sweep_workspace_allocs_total"]; n < 1 {
		t.Errorf("workspace pool allocated nothing: %v", n)
	}
}

// TestSweepValidation and TestPatchValidation run one table against
// each route: the routes share one path, so every case must get the
// same answer on both — structured 4xx errors for malformed bodies,
// 200 for the delta-free and base_key forms either route accepts.
func TestSweepValidation(t *testing.T) { testBudgetListValidation(t, "/v1/schedule/sweep") }
func TestPatchValidation(t *testing.T) { testBudgetListValidation(t, "/v1/schedule/patch") }

func testBudgetListValidation(t *testing.T, path string) {
	ts, _ := newTestServer(t, Options{MaxPatchDeltas: 2, MaxSweepBudgets: 4})
	resp, body := postJSON(t, ts.URL+path, sweepReq([]int64{4096}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warming the base: %d\n%s", resp.StatusCode, body)
	}
	baseKey := decodeSweep(t, body).BaseKey
	d := []map[string]any{{"node": 0, "weight_bits": 1}}
	cases := []struct {
		name string
		body map[string]any
		want int
	}{
		{"empty budgets", sweepReq([]int64{}), http.StatusBadRequest},
		{"too many budgets", sweepReq([]int64{1, 2, 3, 4, 5}), http.StatusBadRequest},
		{"non-positive budget", sweepReq([]int64{1024, 0}), http.StatusBadRequest},
		{"bad family", map[string]any{"family": "nope", "budgets_bits": []int64{64}}, http.StatusBadRequest},
		{"bad weights", map[string]any{
			"family": "ktree", "k": 3, "height": 3,
			"weights":      map[string]any{"word_bits": -1, "input_words": 1, "node_words": 1},
			"budgets_bits": []int64{64},
		}, http.StatusBadRequest},
		{"empty deltas", patchReq([]int64{4096}, []map[string]any{}), http.StatusOK},
		{"one delta", patchReq([]int64{4096}, d), http.StatusOK},
		{"too many deltas", patchReq([]int64{4096}, []map[string]any{
			{"node": 0, "weight_bits": 1}, {"node": 1, "weight_bits": 1}, {"node": 2, "weight_bits": 1},
		}), http.StatusBadRequest},
		{"empty budgets with deltas", patchReq([]int64{}, d), http.StatusBadRequest},
		{"non-positive budget with deltas", patchReq([]int64{0}, d), http.StatusBadRequest},
		{"negative node", patchReq([]int64{4096}, []map[string]any{{"node": -1, "weight_bits": 1}}), http.StatusBadRequest},
		{"zero weight", patchReq([]int64{4096}, []map[string]any{{"node": 0, "weight_bits": 0}}), http.StatusBadRequest},
		{"node out of range", patchReq([]int64{4096}, []map[string]any{{"node": 9999, "weight_bits": 1}}), http.StatusBadRequest},
		{"mvm family with deltas", map[string]any{
			"family": "mvm", "m": 4, "n": 4, "deltas": d, "budgets_bits": []int64{4096},
		}, http.StatusBadRequest},
		{"base_key and family", map[string]any{
			"base_key": "ktree/feed", "family": "ktree", "k": 3, "height": 3,
			"deltas": d, "budgets_bits": []int64{4096},
		}, http.StatusBadRequest},
		{"unknown base_key", map[string]any{
			"base_key": "ktree/0000", "deltas": d, "budgets_bits": []int64{4096},
		}, http.StatusNotFound},
		{"unknown base_key without deltas", map[string]any{
			"base_key": "ktree/0000", "budgets_bits": []int64{4096},
		}, http.StatusNotFound},
		{"base_key without deltas", map[string]any{"base_key": baseKey, "budgets_bits": []int64{4096}}, http.StatusOK},
		{"base_key with deltas", map[string]any{"base_key": baseKey, "deltas": d, "budgets_bits": []int64{4096}}, http.StatusOK},
		{"base_key with bad delta", map[string]any{
			"base_key": baseKey, "deltas": []map[string]any{{"node": 9999, "weight_bits": 1}}, "budgets_bits": []int64{4096},
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: code %d, want %d\n%s", tc.name, resp.StatusCode, tc.want, body)
			continue
		}
		if tc.want == http.StatusOK {
			if sr := decodeSweep(t, body); len(sr.Items) != 1 || sr.Failed != 0 || sr.BaseKey != baseKey {
				t.Errorf("%s: %+v, want one answered item on base %q", tc.name, sr, baseKey)
			}
			continue
		}
		var we wire.Error
		if err := json.Unmarshal(body, &we); err != nil || we.Message == "" {
			t.Errorf("%s: unstructured error body %s", tc.name, body)
		}
	}

	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET %s: code %d, want 405", path, resp.StatusCode)
	}
}

// TestSweepSessionEviction: distinct shapes beyond the pool capacity
// evict LRU sessions; the pool never exceeds its cap and evicted shapes
// rebuild as misses.
func TestSweepSessionEviction(t *testing.T) {
	ts, s := newTestServer(t, Options{SweepSessions: 2})
	shapes := [][2]int{{2, 2}, {3, 2}, {2, 3}}
	for _, sh := range shapes {
		body := map[string]any{
			"family": "ktree", "k": sh[0], "height": sh[1], "budgets_bits": []int64{4096},
		}
		if resp, b := postJSON(t, ts.URL+"/v1/schedule/sweep", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep k=%d h=%d: %d\n%s", sh[0], sh[1], resp.StatusCode, b)
		}
	}
	if live := s.sessions.Len(); live != 2 {
		t.Errorf("sessions live = %d, want pool cap 2", live)
	}
	// The first shape was evicted: sweeping it again is a miss.
	resp, b := postJSON(t, ts.URL+"/v1/schedule/sweep", map[string]any{
		"family": "ktree", "k": 2, "height": 2, "budgets_bits": []int64{4096},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-sweep: %d", resp.StatusCode)
	}
	if sr := decodeSweep(t, b); sr.Session != "miss" {
		t.Errorf("evicted shape re-sweep session = %q, want miss", sr.Session)
	}
}

// TestPatchInlineAndByBaseKey is the endpoint's happy path: an inline
// patch builds (and pools) the base session and answers the budgets; a
// follow-up patch naming the returned base_key hits the same session
// and reports the memo cells the incremental engine reused; and every
// answer agrees with /v1/schedule solving the patched instance cold.
func TestPatchInlineAndByBaseKey(t *testing.T) {
	ts, _ := newTestServer(t, Options{})

	var lb wire.LowerBoundResult
	getJSON(t, ts.URL+"/v1/lowerbound?family=ktree&k=3&height=3", &lb)
	min := lb.MinExistenceBits
	budgets := []int64{min - 1, min + 4, min + 9}

	// Input nodes of the full 3-ary height-3 tree are patch-safe; node 0
	// is a leaf under FullTree's deterministic numbering.
	resp, body := postJSON(t, ts.URL+"/v1/schedule/patch",
		patchReq(budgets, []map[string]any{{"node": 0, "weight_bits": 1}}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline patch: %d\n%s", resp.StatusCode, body)
	}
	pr := decodeSweep(t, body)
	if pr.Session != "miss" || pr.BaseKey == "" || pr.PatchKey == pr.BaseKey {
		t.Fatalf("inline patch: session=%q base=%q patch=%q", pr.Session, pr.BaseKey, pr.PatchKey)
	}
	if pr.DeltasApplied != 1 || pr.ChangedNodes != 1 {
		t.Fatalf("inline patch stats: %+v", pr)
	}
	if len(pr.Items) != len(budgets) || pr.Failed != 0 {
		t.Fatalf("inline patch items: %+v", pr)
	}

	// Same base, different delta, addressed by base_key: a pool hit that
	// re-patches the warm session and reuses the surviving memo cells.
	resp, body = postJSON(t, ts.URL+"/v1/schedule/patch", map[string]any{
		"base_key":     pr.BaseKey,
		"deltas":       []map[string]any{{"node": 0, "weight_bits": 2}},
		"budgets_bits": budgets,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base_key patch: %d\n%s", resp.StatusCode, body)
	}
	pr2 := decodeSweep(t, body)
	if pr2.Session != "hit" || pr2.BaseKey != pr.BaseKey {
		t.Fatalf("base_key patch: session=%q base=%q, want hit on %q", pr2.Session, pr2.BaseKey, pr.BaseKey)
	}
	if pr2.CellsInvalidated <= 0 || pr2.CellsReused <= 0 {
		t.Errorf("re-patch of a warm session: invalidated=%d reused=%d, want both > 0",
			pr2.CellsInvalidated, pr2.CellsReused)
	}
	if pr2.PatchKey == pr.PatchKey {
		t.Errorf("different deltas share patch key %q", pr2.PatchKey)
	}

	// Cross-check one budget against the cold single-solve path with the
	// same deltas in the request body.
	resp, body = postJSON(t, ts.URL+"/v1/schedule", map[string]any{
		"family": "ktree", "k": 3, "height": 3,
		"deltas":      []map[string]any{{"node": 0, "weight_bits": 2}},
		"budget_bits": budgets[1],
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule with deltas: %d\n%s", resp.StatusCode, body)
	}
	var one wire.ScheduleResult
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	if one.CostBits != pr2.Items[1].CostBits {
		t.Errorf("patch cost %d at budget %d disagrees with cold /v1/schedule cost %d",
			pr2.Items[1].CostBits, budgets[1], one.CostBits)
	}

	// A delta-free sweep of the same base must revert the pooled session
	// and answer at base weights — identical to a fresh server's sweep.
	resp, body = postJSON(t, ts.URL+"/v1/schedule/sweep", sweepReq(budgets))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep after patch: %d\n%s", resp.StatusCode, body)
	}
	sr := decodeSweep(t, body)
	if sr.Session != "hit" || sr.BaseKey != pr.BaseKey || sr.ChangedNodes != 1 {
		t.Fatalf("sweep after patch: session=%q base=%q changed=%d, want a hit on %q reverting 1 node",
			sr.Session, sr.BaseKey, sr.ChangedNodes, pr.BaseKey)
	}
	ts2, _ := newTestServer(t, Options{})
	_, body2 := postJSON(t, ts2.URL+"/v1/schedule/sweep", sweepReq(budgets))
	fresh := decodeSweep(t, body2)
	for i := range sr.Items {
		if sr.Items[i].CostBits != fresh.Items[i].CostBits || sr.Items[i].Feasible != fresh.Items[i].Feasible {
			t.Errorf("item %d after revert: %+v, fresh server says %+v", i, sr.Items[i], fresh.Items[i])
		}
	}

	// Counters: two patches, the second a no-op-free re-patch; the
	// delta-free sweep adds no patch counts. The session gauges cover
	// the pool.
	m := scrapeMetrics(t, ts.URL)
	for series, want := range map[string]float64{
		`wrbpg_http_requests_total{endpoint="patch"}`: 2,
		"wrbpg_patch_deltas_total":                    2,
		"wrbpg_patch_budgets_total":                   float64(2 * len(budgets)),
		"wrbpg_patch_changed_nodes_total":             2,
		"wrbpg_patch_noop_total":                      0,
	} {
		if m[series] != want {
			t.Errorf("patch counter %s = %v, want %v", series, m[series], want)
		}
	}
	if live, capacity := m["wrbpg_sweep_sessions_live"], m["wrbpg_sweep_session_capacity"]; live != 1 || capacity < 1 {
		t.Errorf("session gauges: live=%v capacity=%v", live, capacity)
	}
}

// TestPatchConcurrentSweepBounds: sweeps racing patches on one pooled
// base must report the bounds of the state their answers came from —
// for a sweep, always the unpatched base's, however the patches moved
// the session in between. The bounds are read under the session lock;
// make patch-check runs this under -race.
func TestPatchConcurrentSweepBounds(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	var lb wire.LowerBoundResult
	getJSON(t, ts.URL+"/v1/lowerbound?family=ktree&k=3&height=3", &lb)
	budgets := []int64{lb.MinExistenceBits + 4, lb.MinExistenceBits + 9}
	post := func(path string, body any) (wire.PatchResponse, error) {
		var pr wire.PatchResponse
		b, err := json.Marshal(body)
		if err != nil {
			return pr, err
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return pr, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return pr, fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		return pr, json.NewDecoder(resp.Body).Decode(&pr)
	}

	const pairs, rounds = 2, 40
	var wg sync.WaitGroup
	for g := 0; g < pairs; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sr, err := post("/v1/schedule/sweep", sweepReq(budgets))
				if err != nil {
					t.Error(err)
					return
				}
				if sr.LowerBoundBits != lb.LowerBoundBits || sr.MinExistenceBits != lb.MinExistenceBits {
					t.Errorf("sweep %d reported bounds (%d, %d), the unpatched base has (%d, %d)",
						i, sr.LowerBoundBits, sr.MinExistenceBits, lb.LowerBoundBits, lb.MinExistenceBits)
					return
				}
			}
		}()
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Nodes 0–26 are the leaves: every weight moves the
				// lower bound, which counts source weight.
				d := []map[string]any{{"node": (g*rounds + i) % 27, "weight_bits": 1 + i%8}}
				if _, err := post("/v1/schedule/patch", patchReq(budgets, d)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPatchMetricsExposition: the patch and session-pool series appear
// on /metrics in Prometheus exposition format.
func TestPatchMetricsExposition(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	if resp, body := postJSON(t, ts.URL+"/v1/schedule/patch",
		patchReq([]int64{4096}, []map[string]any{{"node": 0, "weight_bits": 1}})); resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: %d\n%s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, name := range []string{
		"wrbpg_patch_budgets_total",
		"wrbpg_patch_deltas_total",
		"wrbpg_patch_changed_nodes_total",
		"wrbpg_patch_noop_total",
		"wrbpg_sweep_session_capacity",
		"wrbpg_sweep_session_evictions_total",
		`wrbpg_http_requests_total{endpoint="patch"}`,
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

// TestBudgetListUnbuildableIsBadRequest: an instance no session can be
// built for, a shape its family cannot build or a general DAG (which
// has no DP), is the client's error on both budget-list routes: a
// structured 400 naming the cause, counted as a bad request and never
// as an availability-bad request of the SLO.
func TestBudgetListUnbuildableIsBadRequest(t *testing.T) {
	ts, s := newTestServer(t, Options{})
	cases := []struct {
		name string
		body map[string]any
		want string
	}{
		{"dwt n=3 d=2", map[string]any{"family": "dwt", "n": 3, "d": 2, "budgets_bits": []int64{100}},
			"must be a positive multiple of 2^d=4"},
		{"dwt n=6 d=3", map[string]any{"family": "dwt", "n": 6, "d": 3, "budgets_bits": []int64{100}},
			"must be a positive multiple of 2^d=8"},
		{"cdag", map[string]any{"family": "cdag", "cdag": diamondSpec(), "budgets_bits": []int64{64, 128}},
			"one /v1/schedule request per budget"},
	}
	before := scrapeMetrics(t, ts.URL)["wrbpg_http_bad_requests_total"]
	var sent float64
	for _, path := range []string{"/v1/schedule/sweep", "/v1/schedule/patch"} {
		for _, tc := range cases {
			resp, body := postJSON(t, ts.URL+path, tc.body)
			sent++
			var we wire.Error
			if err := json.Unmarshal(body, &we); err != nil {
				t.Fatalf("%s %s: unstructured body %s", path, tc.name, body)
			}
			if resp.StatusCode != http.StatusBadRequest || we.Status != http.StatusBadRequest || !strings.Contains(we.Message, tc.want) {
				t.Errorf("%s %s: %d %+v, want a 400 containing %q", path, tc.name, resp.StatusCode, we, tc.want)
			}
		}
	}
	if d := scrapeMetrics(t, ts.URL)["wrbpg_http_bad_requests_total"] - before; d != sent {
		t.Errorf("wrbpg_http_bad_requests_total rose by %v, want %v", d, sent)
	}
	for _, o := range s.slo.Report().Objectives {
		if o.Name != "availability" {
			continue
		}
		for _, w := range o.Windows {
			if w.Total != uint64(sent) || w.Bad != 0 {
				t.Errorf("availability %s: %d of %d requests bad, want 0 of %v", w.Window, w.Bad, w.Total, sent)
			}
		}
	}
}

// requestCtx is a request context the test can hold a weak pointer to.
type requestCtx struct{ context.Context }

// TestPatchCostsIdleSessionKeepsNoContext: once PatchCosts has answered,
// the warm session idle in the pool keeps the finished request's
// context and counts sink unreachable: a collection clears weak
// pointers to both while the session is still pooled. Each family with
// sessions is checked, patched where it can be.
func TestPatchCostsIdleSessionKeepsNoContext(t *testing.T) {
	s := New(Options{})
	cfg := wcfg.Equal(16)
	for _, inst := range []solve.Instance{
		{Family: solve.FamilyKTree, K: 2, Height: 4, Cfg: cfg, Deltas: []cdag.WeightDelta{{Node: 0, Weight: 24}}},
		{Family: solve.FamilyDWT, N: 16, D: 4, Cfg: cfg, Deltas: []cdag.WeightDelta{{Node: 1, Weight: 24}}},
		{Family: solve.FamilyMVM, M: 6, N: 8, Cfg: cfg},
	} {
		t.Run(inst.Family, func(t *testing.T) {
			baseKey := inst.BaseShapeKey()
			wctx, wsink := func() (weak.Pointer[requestCtx], weak.Pointer[guard.CountsSink]) {
				sink := new(guard.CountsSink)
				ctx := &requestCtx{guard.WithSink(context.Background(), sink)}
				pts, _, err := s.PatchCosts(ctx, &inst, baseKey, []cdag.Weight{1 << 20}, nil)
				if err != nil || len(pts) != 1 || !pts[0].Feasible {
					t.Fatalf("PatchCosts answered %+v, %v", pts, err)
				}
				return weak.Make(ctx), weak.Make(sink)
			}()
			runtime.GC()
			if wctx.Value() != nil || wsink.Value() != nil {
				t.Errorf("an idle pooled session keeps the finished request's context (%v) or sink (%v) reachable", wctx.Value() != nil, wsink.Value() != nil)
			}
			if _, ok := s.sessions.Get(baseKey); !ok {
				t.Fatal("the session left the pool, so the check proves nothing")
			}
		})
	}
}
