package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
	"wrbpg/internal/serve/wire"
	"wrbpg/internal/solve"
)

// TestBuildAllWorkloads: every workload flag combination builds and
// produces a valid minimum-memory schedule through the shared helper.
func TestBuildAllWorkloads(t *testing.T) {
	cases := []workloadFlags{
		{workload: "dwt", n: 16, d: 4, weights: "equal"},
		{workload: "dwt", n: 16, d: 4, weights: "da"},
		{workload: "mvm", m: 4, n: 6, weights: "equal"},
		{workload: "fft", n: 16, weights: "da"},
		{workload: "mmm", m: 3, k: 2, n: 4, weights: "equal"},
		{workload: "conv", n: 12, taps: 4, d: 2, weights: "equal"},
	}
	for _, wf := range cases {
		w := wf.build()
		if w.g == nil || w.label == "" {
			t.Fatalf("%s: empty build", wf.workload)
		}
		b, sched, _, err := plan(w, 0, limits(w, 0))
		if err != nil {
			t.Fatalf("%s: %v", wf.workload, err)
		}
		stats, err := core.Simulate(w.g, b, sched)
		if err != nil {
			t.Fatalf("%s: %v", wf.workload, err)
		}
		if stats.Cost != core.LowerBound(w.g) {
			t.Errorf("%s: minimum-memory schedule cost %d != LB %d", wf.workload, stats.Cost, core.LowerBound(w.g))
		}
	}
}

// TestBuildScheduleExplicitBudget: a generous explicit budget works
// for every workload.
func TestBuildScheduleExplicitBudget(t *testing.T) {
	wf := workloadFlags{workload: "dwt", n: 8, d: 3, weights: "equal"}
	w := wf.build()
	b, sched, _, err := plan(w, w.g.TotalWeight(), limits(w, 0))
	if err != nil {
		t.Fatal(err)
	}
	if b != w.g.TotalWeight() {
		t.Errorf("budget not honoured: %d", b)
	}
	if _, err := core.Simulate(w.g, b, sched); err != nil {
		t.Fatal(err)
	}
}

// TestJSONResultMatchesTextPath: the -json path (solve facade + wire
// result) reports the same schedule metrics the text path computes, so
// the two output modes can never disagree about a solve. The cdag
// graph is small enough for the anytime search to complete, so both
// paths certify the same optimal cost; two optimal schedules may still
// differ in length and peak, so only the cost is compared there.
func TestJSONResultMatchesTextPath(t *testing.T) {
	cases := []workloadFlags{
		{workload: "dwt", n: 16, d: 4, weights: "equal"},
		{workload: "mvm", m: 4, n: 6, weights: "equal"},
		{workload: "fft", n: 16, weights: "da"},
		{workload: "mmm", m: 3, k: 2, n: 4, weights: "equal"},
		{workload: "conv", n: 12, taps: 4, d: 2, weights: "equal"},
		{workload: "cdag", graph: writeGraph(t, cdag.Random(3, 8)), weights: "equal"},
	}
	for _, wf := range cases {
		w := wf.build()
		b, err := defaultBudget(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		out, err := runSolve(w, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		res := wire.NewScheduleResult(w.label, out, core.LowerBound(w.g), false)
		want := "optimal"
		if w.cdag {
			want = "anytime"
		}
		if res.Source != want {
			t.Fatalf("%s: source %q, want %q: %+v", wf.workload, res.Source, want, res)
		}
		_, sched, _, err := plan(w, b, limits(w, 0))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := core.Simulate(w.g, b, sched)
		if err != nil {
			t.Fatal(err)
		}
		if res.CostBits != int64(stats.Cost) {
			t.Fatalf("%s: json path cost %d != text path %d", wf.workload, res.CostBits, stats.Cost)
		}
		if res.Schedule != nil {
			t.Fatalf("%s: schedule emitted without -moves", wf.workload)
		}
		if w.cdag {
			if res.Anytime == nil || !res.Anytime.Complete {
				t.Fatalf("cdag search did not complete: %+v", res.Anytime)
			}
			continue
		}
		if res.PeakBits != int64(stats.PeakRedWeight) {
			t.Fatalf("%s: json path peak %d != text path %d", wf.workload, res.PeakBits, stats.PeakRedWeight)
		}
		if res.MoveCount != len(sched) {
			t.Fatalf("%s: move accounting: %+v vs %d moves", wf.workload, res, len(sched))
		}
	}
}

// TestJSONCDAGDeadline: without -timeout, the -json path bounds a cdag
// anytime search by cdagCLIDeadline as the text path does, rather than
// searching until the graph is drained.
func TestJSONCDAGDeadline(t *testing.T) {
	wf := workloadFlags{workload: "cdag", graph: writeGraph(t, cdag.Random(7, 48)), weights: "equal"}
	w := wf.build()
	b, err := defaultBudget(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	out, err := runSolve(w, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*cdagCLIDeadline {
		t.Fatalf("-json cdag solve took %v, want at most %v", el, 2*cdagCLIDeadline)
	}
	if _, err := core.Simulate(w.g, b, out.Schedule); err != nil {
		t.Fatal(err)
	}
}

// writeGraph stores g in the cdag interchange form for -graph.
func writeGraph(t *testing.T, g *cdag.Graph) string {
	t.Helper()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSchedulePatch: the CLI's incremental path answers a patched
// instance bit-identically to a cold solve of that instance, reports
// the memo reuse of the warm base session, and rejects the workloads
// and delta files the engine cannot patch.
func TestSchedulePatch(t *testing.T) {
	wf := &workloadFlags{workload: "dwt", n: 16, d: 4, weights: "equal"}
	inst := solve.Instance{Family: solve.FamilyDWT, N: wf.n, D: wf.d, Cfg: wf.config()}
	se, err := solve.NewSession(inst)
	if err != nil {
		t.Fatal(err)
	}
	node := se.Graph().Sources()[0]
	b := se.MinExistence() + 64

	file := filepath.Join(t.TempDir(), "deltas.json")
	deltas := fmt.Sprintf(`[{"node":%d,"weight_bits":%d}]`, node, se.Graph().Weight(node)+8)
	if err := os.WriteFile(file, []byte(deltas), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := schedulePatch(wf, b, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Session != "cli" || res.DeltasApplied != 1 || res.ChangedNodes != 1 {
		t.Fatalf("patch outcome: %+v", res)
	}
	if res.CellsInvalidated <= 0 || res.CellsReused <= 0 {
		t.Errorf("warm base patch: invalidated=%d reused=%d, want both > 0",
			res.CellsInvalidated, res.CellsReused)
	}
	if res.BaseKey != inst.BaseShapeKey() || res.PatchKey == res.BaseKey {
		t.Fatalf("keys: base=%q patch=%q", res.BaseKey, res.PatchKey)
	}

	// The answer must equal a cold solve of the patched instance.
	patched := inst
	patched.Deltas = []cdag.WeightDelta{{Node: node, Weight: se.Graph().Weight(node) + 8}}
	cold, err := solve.NewSession(patched)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.CostCtx(context.Background(), guard.Limits{}, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Items[0].Feasible || res.Items[0].CostBits != int64(want) {
		t.Fatalf("patched item %+v, cold cost %d", res.Items[0], want)
	}

	// Rejections: non-incremental workload, missing file, empty list.
	if _, err := schedulePatch(&workloadFlags{workload: "mvm", m: 4, n: 4, weights: "equal"}, b, file, 0); err == nil {
		t.Error("mvm workload accepted")
	}
	if _, err := schedulePatch(wf, b, filepath.Join(t.TempDir(), "missing.json"), 0); err == nil {
		t.Error("missing delta file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`[]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := schedulePatch(wf, b, empty, 0); err == nil {
		t.Error("empty delta list accepted")
	}
}
