package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wrbpg/internal/cdag"
	"wrbpg/internal/serve/wire"
	"wrbpg/internal/solve"
)

func newStreamT(t *testing.T, name string, seed int64) stream {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	st, err := w.newStream(seed)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b, other := newStreamT(t, w.name, 7), newStreamT(t, w.name, 7), newStreamT(t, w.name, 8)
		same := 0
		for i := 0; i < 300; i++ {
			ra, rb := a.request(i), b.request(i)
			if ra.Path != rb.Path || !bytes.Equal(ra.Body, rb.Body) {
				t.Fatalf("%s: seed 7 request %d differs between streams:\n%s\n%s", w.name, i, ra.Body, rb.Body)
			}
			if bytes.Equal(ra.Body, a.request(i).Body) && bytes.Equal(ra.Body, other.request(i).Body) {
				same++
			}
		}
		// hot-cache resubmits a 28-key population, so seeds may share a
		// few bodies; no workload may ignore its seed.
		if same > 150 {
			t.Errorf("%s: %d of 300 requests identical under seeds 7 and 8", w.name, same)
		}
		wa, wb := a.warmup(), b.warmup()
		if len(wa) != len(wb) {
			t.Fatalf("%s: warm-up lengths %d and %d", w.name, len(wa), len(wb))
		}
		for j := range wa {
			if !bytes.Equal(wa[j].Body, wb[j].Body) {
				t.Fatalf("%s: warm-up request %d differs", w.name, j)
			}
		}
	}
}

func scheduleKey(t *testing.T, body []byte) string {
	t.Helper()
	var wr wire.ScheduleRequest
	if err := decodeStrict(body, &wr); err != nil {
		t.Fatal(err)
	}
	inst, err := wr.Instance()
	if err != nil {
		t.Fatal(err)
	}
	return inst.Key(cdag.Weight(wr.BudgetBits))
}

func TestColdKeysNeverRepeat(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	st := newStreamT(t, "cold-solve", 3)
	seen := make(map[string]int, n+coldWarm)
	for j, req := range st.warmup() {
		seen[scheduleKey(t, req.Body)] = -1 - j
	}
	for i := 0; i < n; i++ {
		k := scheduleKey(t, st.request(i).Body)
		if prev, dup := seen[k]; dup {
			t.Fatalf("request %d repeats the key of request %d", i, prev)
		}
		seen[k] = i
	}
}

func TestRelabelingsShareTheBaseKey(t *testing.T) {
	h, err := newHotStream(5)
	if err != nil {
		t.Fatal(err)
	}
	for k, g := range h.graphs {
		base := solve.Instance{Family: solve.FamilyCDAG, G: g}
		base.Canonicalize()
		want := base.Key(cdag.Weight(h.budget[k]))
		var bodies [][]byte
		for j := 0; j < 5; j++ {
			r := newRNG(99, uint64(k), uint64(j))
			req := h.graphRequest(k, &r)
			if got := scheduleKey(t, req.Body); got != want {
				t.Fatalf("graph %d relabeling %d: key %s, base graph %s", k, j, got, want)
			}
			bodies = append(bodies, req.Body)
		}
		if bytes.Equal(bodies[0], bodies[1]) {
			t.Errorf("graph %d: two relabelings sent identical bodies", k)
		}
	}
}

func TestPercentiles(t *testing.T) {
	hist := func(ok, failed int) *histogram {
		var h histogram
		for i := 1; i <= ok; i++ {
			h.add(time.Duration(i) * time.Microsecond)
		}
		for i := 0; i < failed; i++ {
			h.add(failedLatency)
		}
		return &h
	}
	near := func(v, want float64) bool { return math.Abs(v-want) <= 0.005*want }
	if v, ok := hist(4, 6).percentileUS(0.5); !ok || !math.IsInf(v, 1) {
		t.Errorf("p50 with 6 of 10 failed = %v, %v; want +Inf", v, ok)
	}
	if v, ok := hist(6, 4).percentileUS(0.5); !ok || !near(v, 5) {
		t.Errorf("p50 with 4 of 10 failed = %v, %v; want 5", v, ok)
	}
	if _, ok := hist(999, 0).percentileUS(0.99); ok {
		t.Error("p99 reported from 999 samples")
	}
	if v, ok := hist(1000, 0).percentileUS(0.99); !ok || !near(v, 990) {
		t.Errorf("p99 of 1..1000 µs = %v, %v; want 990", v, ok)
	}
	if v, ok := hist(989, 11).percentileUS(0.99); !ok || !math.IsInf(v, 1) {
		t.Errorf("p99 with 11 of 1000 failed = %v, %v; want +Inf", v, ok)
	}
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 { // statistics.quantiles(range(1, 11), n=4)
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestHostScaling checks that times are divided and rates multiplied
// by the host's slowdown, with the measured values kept beside them.
func TestHostScaling(t *testing.T) {
	tl := newTally(&gate{})
	for i := 0; i < 1000; i++ {
		tl.attempted++
		tl.ok++
		tl.sample(100 * time.Microsecond)
	}
	m := e2eMetrics(tl, phase{elapsed: time.Second, cpu: 400 * time.Millisecond, setups: []float64{0.2}, slowdown: 2})
	for name, want := range map[string]float64{"rps": 2000, "rps.raw": 1000, "cpu_ms_per_req": 0.2, "cpu_ms_per_req.raw": 0.4, "setup_s": 0.1, "setup_s.raw": 0.2} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := m["p50_us"].Value / m["p50_us.raw"].Value; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("p50_us / p50_us.raw = %v, want 0.5", got)
	}
	if ref, err := refSample(); err != nil || ref <= 0 {
		t.Errorf("reference sample = %v, %v; want a positive CPU time", ref, err)
	}
}

func TestReconciliation(t *testing.T) {
	us := func(n int64) int64 { return n * int64(time.Microsecond) }
	// Two requests. Request 0: root 0–100 µs holding decode 0–10 and
	// probe 10–90, which holds build 20–50 and optimal 50–80.
	// Request 1: root 0–40 holding decode 0–10 and probe 10–30.
	spans := []span{
		{Req: 0, ID: 0, Parent: -1, Name: spanRequest, Start: 0, End: us(100)},
		{Req: 0, ID: 1, Parent: 0, Name: spanDecode, Start: 0, End: us(10)},
		{Req: 0, ID: 2, Parent: 0, Name: spanProbe, Start: us(10), End: us(90)},
		{Req: 0, ID: 3, Parent: 2, Name: spanBuild, Start: us(20), End: us(50)},
		{Req: 0, ID: 4, Parent: 2, Name: spanOptimal, Start: us(50), End: us(80)},
		{Req: 1, ID: 5, Parent: -1, Name: spanRequest, Start: 0, End: us(40)},
		{Req: 1, ID: 6, Parent: 5, Name: spanDecode, Start: 0, End: us(10)},
		{Req: 1, ID: 7, Parent: 5, Name: spanProbe, Start: us(10), End: us(30)},
	}
	byLayer, total := selfTimes(spans)
	wantTotal := map[string]int64{spanRequest: 20, spanDecode: 20, spanProbe: 40, spanBuild: 30, spanOptimal: 30}
	for name, want := range wantTotal {
		if got := total[name]; got != time.Duration(us(want)) {
			t.Errorf("self time of %s = %v, want %dµs", name, got, want)
		}
	}
	if len(byLayer[spanBuild]) != 1 || len(byLayer[spanDecode]) != 2 {
		t.Errorf("per-request rows: build %d, decode %d; want 1, 2", len(byLayer[spanBuild]), len(byLayer[spanDecode]))
	}

	// Σ layer means = (100 + 40) / 2 = 70 µs. Handler mean 80 µs, loopback
	// mean 130 µs: other = 10 µs, residual = 50 µs.
	a, b := newTally(&gate{}), newTally(&gate{})
	a.byIdx = map[int]time.Duration{0: 120 * time.Microsecond, 1: 140 * time.Microsecond}
	b.byIdx = map[int]time.Duration{0: 70 * time.Microsecond, 1: 90 * time.Microsecond}
	m, rc := layerMetrics(a, b, serverStats{}, spans)
	if rc.Requests != 2 || rc.LayersUS != 70 || rc.OtherUS != 10 || rc.ResidualUS != 50 {
		t.Errorf("reconcile = %+v; want layers 70, other 10, residual 50", rc)
	}
	for _, name := range layerNames() {
		if _, ok := m[name]; !ok {
			t.Errorf("layer metric %s missing", name)
		}
	}
}

func TestReconcileDropsOneSidedOutliers(t *testing.T) {
	a, b, c := map[int]time.Duration{}, map[int]time.Duration{}, map[int]time.Duration{}
	for i := 0; i < 200; i++ {
		a[i], b[i], c[i] = 100*time.Microsecond, 60*time.Microsecond, 55*time.Microsecond
	}
	b[7] = 50 * time.Millisecond // a pause that hit only the handler's copy
	delete(a, 9)                 // a request one path did not answer
	rc := reconcileMeans(a, b, c, nil)
	if rc.Requests != 198 || rc.OtherUS != 5 || rc.ResidualUS != 40 {
		t.Errorf("reconcile = %+v; want 198 requests, other 5, residual 40", rc)
	}
	// A request (a) answered at another tier than (b) leaves too.
	a[11] = 30 * time.Millisecond
	rc = reconcileMeans(a, b, c, func(i int) bool { return i != 11 })
	if rc.Requests != 197 || rc.ResidualUS != 40 {
		t.Errorf("reconcile = %+v; want 197 requests, residual 40", rc)
	}
}

func TestLibraryFollowsServerTiers(t *testing.T) {
	b := newTallies(&gate{})
	b[0].outs[3] = outcome{Source: solve.SourceFallback.String(), Tier: wire.TierBreaker}
	b[1].outs[4] = outcome{Source: solve.SourceOptimal.String(), Tier: wire.TierPeer}
	tierOf := tierBy(b)
	for i, want := range map[int]string{3: wire.TierBreaker, 4: wire.TierPeer, 5: ""} {
		if got := tierOf(i); got != want {
			t.Errorf("index %d answered at %q, want %q", i, got, want)
		}
	}
	// A request the server shed is answered with the baseline.
	st := newStreamT(t, "cdag-anytime", 2)
	status, body := newLib().do(st.request(0), nil, wire.TierBreaker)
	var rep reply
	if err := json.Unmarshal(body, &rep); status != 200 || err != nil || rep.Source != solve.SourceFallback.String() || rep.Cost.SourceTier != wire.TierBreaker {
		t.Errorf("shed request answered %d %s (%v), want the baseline at tier %s", status, rep.Source, err, wire.TierBreaker)
	}
}

func TestJudge(t *testing.T) {
	ten := func(base, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base + step*float64(i%5)
		}
		return out
	}
	lower := bound{lowerBetter: true, limit: 0.05}
	cases := []struct {
		name string
		a, b []float64
		bd   bound
		want string
	}{
		{"clear gain", ten(100, 1), ten(80, 1), lower, verdictBetter},
		{"clear loss", ten(100, 1), ten(120, 1), lower, verdictWorse},
		{"consistent small loss", ten(100, 1), ten(104, 1), lower, verdictWorseWithin},
		{"within bound", ten(100, 1), ten(101, 1), lower, verdictUnchanged},
		{"noisy parent", ten(100, 10), ten(101, 10), lower, verdictUnresolved},
		{"higher is better", ten(100, 1), ten(80, 1), bound{limit: 0.05}, verdictWorse},
		{"absolute share", ten(0, 0), ten(0.002, 0), bound{lowerBetter: true, limit: 0.001, absolute: true}, verdictWorse},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.bd); got.Verdict != c.want {
			t.Errorf("%s: verdict %s (%+v), want %s", c.name, got.Verdict, got, c.want)
		}
	}
}

func TestCompareReadsReports(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"rps","unit":"1/s","better":"higher","bound":0.05}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, rps float64) string {
		p := filepath.Join(dir, name)
		rep := report{Workloads: []*result{{Workload: "hot-cache", E2E: map[string]metric{"rps": {Value: rps, Unit: "1/s"}}}}}
		b, _ := json.Marshal(rep)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var as, bs []string
	for i := 0; i < 10; i++ {
		as = append(as, write("a"+string(rune('0'+i))+".json", 1000+float64(i%3)))
		bs = append(bs, write("b"+string(rune('0'+i))+".json", 800+float64(i%3)))
	}
	var out bytes.Buffer
	args := append(append(append([]string{"-bench", bench}, as...), "--"), bs...)
	err := compareMain(args, &out)
	if err == nil || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 20%% rps drop should be reported worse; err %v, output:\n%s", err, out.String())
	}
}

// TestQuickSmoke runs every workload end to end and traced in quick
// mode and checks that every answer passed the gate and every metric
// was produced.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers")
	}
	if raceDetector {
		// The sweep handler reads its pooled session's bounds after
		// releasing the session's lock, racing with a concurrent
		// patch's PatchTo (README, Findings).
		t.Skip("the server's sweep handler races with PatchTo; skipped under -race until the server is fixed")
	}
	s := settings{seed: 1, seconds: 1, quick: true}
	for _, w := range workloads {
		res, err := runE2E(w, s)
		if err != nil {
			t.Fatalf("%s e2e: %v", w.name, err)
		}
		if res.Failed > 0 || res.Attempted == 0 {
			t.Errorf("%s e2e: %d of %d failed: %s", w.name, res.Failed, res.Attempted, res.FirstError)
		}
		for _, name := range e2eNames {
			if _, ok := res.E2E[name]; !ok && name != "p99_us" {
				t.Errorf("%s e2e: metric %s missing", w.name, name)
			}
		}
		tr, err := runTraced(w, s)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if tr.Failed > 0 {
			t.Errorf("%s traced: %d failed: %s", w.name, tr.Failed, tr.FirstError)
		}
		if len(tr.Spans) == 0 || len(tr.Layers) != len(layerNames()) {
			t.Errorf("%s traced: %d spans, %d of %d layer metrics", w.name, len(tr.Spans), len(tr.Layers), len(layerNames()))
		}
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the
// metric names the runs print in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return strings.Join(out, " ")
	}
	var ws []string
	for _, w := range workloads {
		ws = append(ws, w.name)
	}
	for _, c := range []struct{ what, got, want string }{
		{"workloads", names(spec.Workloads), strings.Join(ws, " ")},
		{"end_to_end", names(spec.EndToEnd), strings.Join(e2eNames, " ")},
		{"per_layer", names(spec.PerLayer), strings.Join(layerNames(), " ")},
	} {
		if c.got != c.want {
			t.Errorf("BENCHMARK.json %s:\n got %s\nwant %s", c.what, c.got, c.want)
		}
	}
}
