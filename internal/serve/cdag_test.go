// End-to-end tests for the general-DAG anytime tier over the raw
// node/edge wire form: solves label source=anytime, move lists come
// back in the requester's own numbering (Simulate-valid against the
// graph exactly as submitted), isomorphic resubmissions hit one cache
// entry, and malformed specs fail as structured 400s naming the
// offending node or edge.

package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"wrbpg/internal/core"
	"wrbpg/internal/serve/wire"
	"wrbpg/internal/solve"
)

// diamondSpec is a five-node diamond with asymmetric weights, nodes
// listed in a deliberately non-topological order.
func diamondSpec() *wire.GraphSpec {
	return &wire.GraphSpec{Nodes: []wire.GraphNode{
		{Name: "out", WeightBits: 24, Deps: []string{"mid1", "mid2"}},
		{Name: "in1", WeightBits: 8},
		{Name: "mid1", WeightBits: 16, Deps: []string{"in1", "in2"}},
		{Name: "mid2", WeightBits: 12, Deps: []string{"in1"}},
		{Name: "in2", WeightBits: 8},
	}}
}

// renamedDiamondSpec is the same dataflow with different names and a
// different node order — isomorphic, so it must share the cache entry.
func renamedDiamondSpec() *wire.GraphSpec {
	return &wire.GraphSpec{Nodes: []wire.GraphNode{
		{Name: "b", WeightBits: 8},
		{Name: "a", WeightBits: 8},
		{Name: "left", WeightBits: 16, Deps: []string{"a", "b"}},
		{Name: "right", WeightBits: 12, Deps: []string{"a"}},
		{Name: "root", WeightBits: 24, Deps: []string{"left", "right"}},
	}}
}

func postCDAG(t *testing.T, url string, spec *wire.GraphSpec, budget int64) (int, wire.ScheduleResult, []byte) {
	t.Helper()
	body := wire.ScheduleRequest{
		Spec:       wire.Spec{Family: solve.FamilyCDAG, CDAG: spec},
		BudgetBits: budget, IncludeMoves: true,
	}
	resp, raw := postJSON(t, url+"/v1/schedule", body)
	var out wire.ScheduleResult
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out, raw
}

// TestScheduleCDAGSpecEndToEnd: a raw spec solves through the anytime
// tier and the returned move list is valid against the graph exactly
// as the requester numbered it — the canonical relabeling is invisible
// on the wire.
func TestScheduleCDAGSpecEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	spec := diamondSpec()
	reqGraph, err := spec.Graph()
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(core.MinExistenceBudget(reqGraph)) * 2
	status, out, raw := postCDAG(t, ts.URL, spec, budget)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if out.Source != "anytime" {
		t.Fatalf("source %q, want anytime", out.Source)
	}
	if out.Anytime == nil || !out.Anytime.Complete {
		t.Fatalf("five-node search should drain: %+v", out.Anytime)
	}
	if out.Anytime.SeedCostBits < out.CostBits {
		t.Fatalf("seed %d below final cost %d", out.Anytime.SeedCostBits, out.CostBits)
	}
	stats, err := core.Simulate(reqGraph, budget, out.Schedule)
	if err != nil {
		t.Fatalf("returned moves invalid in the requester's numbering: %v", err)
	}
	if int64(stats.Cost) != out.CostBits {
		t.Fatalf("simulated cost %d != reported %d", stats.Cost, out.CostBits)
	}
	if out.CostBits < out.LowerBoundBits {
		t.Fatalf("cost %d below lower bound %d", out.CostBits, out.LowerBoundBits)
	}
}

// TestScheduleCDAGSpecIsomorphicHit: a renamed, reordered submission
// of the same dataflow hits the first solve's cache entry, and its
// move list is valid against its *own* numbering.
func TestScheduleCDAGSpecIsomorphicHit(t *testing.T) {
	ts, s := newTestServer(t, Options{})
	g1, err := diamondSpec().Graph()
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(core.MinExistenceBudget(g1)) * 2
	if status, _, raw := postCDAG(t, ts.URL, diamondSpec(), budget); status != http.StatusOK {
		t.Fatalf("first solve: status %d: %s", status, raw)
	}
	after := s.Stats().Solves
	status, out, raw := postCDAG(t, ts.URL, renamedDiamondSpec(), budget)
	if status != http.StatusOK {
		t.Fatalf("isomorphic solve: status %d: %s", status, raw)
	}
	if out.Cache != "hit" {
		t.Fatalf("isomorphic resubmission: cache=%q, want hit", out.Cache)
	}
	if s.Stats().Solves != after {
		t.Fatal("isomorphic resubmission invoked the solver")
	}
	g2, err := renamedDiamondSpec().Graph()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Simulate(g2, budget, out.Schedule); err != nil {
		t.Fatalf("cache-hit moves invalid in the second requester's numbering: %v", err)
	}
}

// TestScheduleCDAGSpecBadRequests: malformed specs are structured 400s
// naming the offending node or edge, and never reach the solver.
func TestScheduleCDAGSpecBadRequests(t *testing.T) {
	ts, s := newTestServer(t, Options{})
	cases := []struct {
		name string
		body string
		want string
	}{
		{"cycle", `{"family":"cdag","budget_bits":64,"cdag":{"nodes":[
			{"name":"a","weight_bits":8,"deps":["b"]},
			{"name":"b","weight_bits":8,"deps":["a"]}]}}`, "cycle"},
		{"dangling edge", `{"family":"cdag","budget_bits":64,"cdag":{"nodes":[
			{"name":"a","weight_bits":8,"deps":["ghost"]}]}}`, `"ghost"`},
		{"non-positive weight", `{"family":"cdag","budget_bits":64,"cdag":{"nodes":[
			{"name":"heavy","weight_bits":0}]}}`, `"heavy"`},
		{"duplicate name", `{"family":"cdag","budget_bits":64,"cdag":{"nodes":[
			{"name":"a","weight_bits":8},{"name":"a","weight_bits":8}]}}`, `"a"`},
		{"both graph forms", `{"family":"cdag","budget_bits":64,
			"graph":{"nodes":[{"w":8}]},
			"cdag":{"nodes":[{"name":"a","weight_bits":8}]}}`, "exactly one"},
	}
	for _, tc := range cases {
		resp, raw := postJSON(t, ts.URL+"/v1/schedule", json.RawMessage(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, raw)
			continue
		}
		var e wire.Error
		if err := json.Unmarshal(raw, &e); err != nil || e.Status != http.StatusBadRequest {
			t.Errorf("%s: unstructured error body %s", tc.name, raw)
			continue
		}
		if !strings.Contains(e.Message, tc.want) {
			t.Errorf("%s: error %q does not name the offender %q", tc.name, e.Message, tc.want)
		}
	}
	if s.Stats().Solves != 0 {
		t.Fatalf("malformed specs invoked the solver %d times", s.Stats().Solves)
	}
}

// TestLowerBoundCDAGBody: /v1/lowerbound accepts family:"cdag" raw
// graphs as a request body (POST, or GET with a body) and answers the
// Proposition 2.3/2.4 bounds without solving.
func TestLowerBoundCDAGBody(t *testing.T) {
	ts, s := newTestServer(t, Options{})
	body := wire.Spec{Family: solve.FamilyCDAG, CDAG: diamondSpec()}
	resp, raw := postJSON(t, ts.URL+"/v1/lowerbound", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out wire.LowerBoundResult
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.LowerBoundBits <= 0 || out.MinExistenceBits <= 0 || out.Nodes != 5 {
		t.Fatalf("degenerate cdag bounds: %+v", out)
	}
	if s.Stats().Solves != 0 {
		t.Fatal("lowerbound must not solve")
	}
	// Malformed spec through the same path: structured 400.
	bad := `{"family":"cdag","cdag":{"nodes":[{"name":"a","weight_bits":8,"deps":["ghost"]}]}}`
	resp, raw = postJSON(t, ts.URL+"/v1/lowerbound", json.RawMessage(bad))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec: status %d: %s", resp.StatusCode, raw)
	}
}
