package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"wrbpg/internal/obs"
	"wrbpg/internal/serve/wire"
)

// TestServeEndToEnd builds the real wrbpgd binary, boots it on a
// random port, exercises every endpoint with a plain HTTP client, and
// verifies graceful shutdown on SIGTERM. This is the `make serve-check`
// entry point.
func TestServeEndToEnd(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("signal-driven shutdown test is POSIX-only")
	}
	bin := filepath.Join(t.TempDir(), "wrbpgd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-default-timeout", "10s", "-drain-delay", "500ms")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // safety net; normal path is SIGTERM below

	// The first stdout line announces the bound address.
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("reading listen line: %v (stderr: %s)", err, stderr.String())
	}
	addr := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "wrbpgd listening on "))
	if addr == "" || strings.Contains(addr, " ") {
		t.Fatalf("unparseable listen line %q", line)
	}
	base := "http://" + addr
	client := &http.Client{Timeout: 30 * time.Second}

	get := func(path string, out any) int {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("GET %s: decoding: %v", path, err)
			}
		}
		return resp.StatusCode
	}
	post := func(path, body string, out any) int {
		t.Helper()
		resp, err := client.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("POST %s: decoding: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	// Liveness, and readiness: a fresh idle daemon is routable.
	var health map[string]any
	if code := get("/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: code %d body %v", code, health)
	}
	var ready map[string]any
	if code := get("/readyz", &ready); code != http.StatusOK || ready["status"] != "ok" {
		t.Fatalf("readyz: code %d body %v", code, ready)
	}

	// Cold solve, then an identical warm request answered by the cache.
	reqBody := `{"family":"dwt","n":32,"d":4,"budget_bits":2048}`
	var cold, warm wire.ScheduleResult
	if code := post("/v1/schedule", reqBody, &cold); code != http.StatusOK {
		t.Fatalf("cold schedule: code %d", code)
	}
	if cold.Cache != "miss" || cold.Source != "optimal" || cold.CostBits < cold.LowerBoundBits {
		t.Fatalf("cold result: %+v", cold)
	}
	if code := post("/v1/schedule", reqBody, &warm); code != http.StatusOK {
		t.Fatalf("warm schedule: code %d", code)
	}
	if warm.Cache != "hit" || warm.CacheKey != cold.CacheKey || warm.CostBits != cold.CostBits {
		t.Fatalf("warm result not a cache hit of the cold one:\ncold %+v\nwarm %+v", cold, warm)
	}

	// Malformed requests come back as structured 400s, not 500s.
	var werr wire.Error
	if code := post("/v1/schedule", `{"family":"mvm","m":0,"n":8,"budget_bits":64}`, &werr); code != http.StatusBadRequest || werr.Message == "" {
		t.Fatalf("invalid mvm: code %d body %+v", code, werr)
	}

	// The former batch items as separate calls: a repeat (a cache hit),
	// an unknown family (a 400) and a fresh instance (a solve).
	var repeat, fresh wire.ScheduleResult
	if code := post("/v1/schedule", reqBody, &repeat); code != http.StatusOK || repeat.Cache != "hit" {
		t.Fatalf("repeat schedule: code %d cache %q, want a hit", code, repeat.Cache)
	}
	if code := post("/v1/schedule", `{"family":"nope","budget_bits":1}`, &werr); code != http.StatusBadRequest || werr.Message == "" {
		t.Fatalf("unknown family: code %d body %+v", code, werr)
	}
	if code := post("/v1/schedule", `{"family":"mvm","m":4,"n":4,"budget_bits":1024}`, &fresh); code != http.StatusOK || fresh.Cache != "miss" {
		t.Fatalf("mvm(4,4) schedule: code %d cache %q, want a solve", code, fresh.Cache)
	}

	// Bounds endpoint, no solve.
	var lb wire.LowerBoundResult
	if code := get("/v1/lowerbound?family=dwt&n=32&d=4", &lb); code != http.StatusOK {
		t.Fatalf("lowerbound: code %d", code)
	}
	if lb.LowerBoundBits <= 0 || int64(cold.LowerBoundBits) != lb.LowerBoundBits {
		t.Fatalf("lowerbound mismatch: endpoint %d vs schedule %d", lb.LowerBoundBits, cold.LowerBoundBits)
	}

	// Budget sweep: one warm session answers several budgets, including
	// an infeasible one (a legitimate answer, not a failure), and the
	// shared-budget item agrees with the single-budget solve above.
	sweepBody := fmt.Sprintf(`{"family":"dwt","n":32,"d":4,"budgets_bits":[%d,2048,%d]}`,
		lb.MinExistenceBits-1, lb.MinExistenceBits)
	var sweep1, sweep2 wire.SweepResponse
	if code := post("/v1/schedule/sweep", sweepBody, &sweep1); code != http.StatusOK {
		t.Fatalf("sweep: code %d", code)
	}
	if sweep1.Session != "miss" || sweep1.Succeeded != 3 || sweep1.Failed != 0 || len(sweep1.Items) != 3 {
		t.Fatalf("sweep outcome: %+v", sweep1)
	}
	if sweep1.Items[0].Feasible || sweep1.Items[0].Error != nil {
		t.Fatalf("below-existence budget should be infeasible without error: %+v", sweep1.Items[0])
	}
	if !sweep1.Items[1].Feasible || sweep1.Items[1].CostBits != cold.CostBits {
		t.Fatalf("sweep at 2048 disagrees with /v1/schedule: %+v vs cost %d", sweep1.Items[1], cold.CostBits)
	}
	if code := post("/v1/schedule/sweep", sweepBody, &sweep2); code != http.StatusOK || sweep2.Session != "hit" {
		t.Fatalf("repeat sweep should hit the session pool: code %d session %q", code, sweep2.Session)
	}
	if code := post("/v1/schedule/sweep", `{"family":"dwt","n":32,"d":4,"budgets_bits":[]}`, &werr); code != http.StatusBadRequest {
		t.Fatalf("empty sweep accepted: code %d", code)
	}

	// Incremental patch: an inline base builds (and pools) the warm
	// session, a second call addresses it by base_key and reuses the
	// surviving memo cells, and the answers agree with a cold solve of
	// the patched instance through /v1/schedule.
	var klb wire.LowerBoundResult
	if code := get("/v1/lowerbound?family=ktree&k=3&height=3", &klb); code != http.StatusOK {
		t.Fatalf("ktree lowerbound: code %d", code)
	}
	pb := klb.MinExistenceBits + 9
	var p1, p2 wire.PatchResponse
	patchBody := fmt.Sprintf(`{"family":"ktree","k":3,"height":3,"deltas":[{"node":0,"weight_bits":1}],"budgets_bits":[%d]}`, pb)
	if code := post("/v1/schedule/patch", patchBody, &p1); code != http.StatusOK {
		t.Fatalf("inline patch: code %d", code)
	}
	if p1.Session != "miss" || p1.ChangedNodes != 1 || p1.Failed != 0 || p1.BaseKey == "" {
		t.Fatalf("inline patch outcome: %+v", p1)
	}
	byKey := fmt.Sprintf(`{"base_key":%q,"deltas":[{"node":0,"weight_bits":2}],"budgets_bits":[%d]}`, p1.BaseKey, pb)
	if code := post("/v1/schedule/patch", byKey, &p2); code != http.StatusOK {
		t.Fatalf("base_key patch: code %d", code)
	}
	if p2.Session != "hit" || p2.CellsInvalidated <= 0 || p2.CellsReused <= 0 {
		t.Fatalf("base_key patch outcome: %+v", p2)
	}
	var pcold wire.ScheduleResult
	scheduleBody := fmt.Sprintf(`{"family":"ktree","k":3,"height":3,"deltas":[{"node":0,"weight_bits":2}],"budget_bits":%d}`, pb)
	if code := post("/v1/schedule", scheduleBody, &pcold); code != http.StatusOK {
		t.Fatalf("schedule with deltas: code %d", code)
	}
	if !p2.Items[0].Feasible || pcold.CostBits != p2.Items[0].CostBits {
		t.Fatalf("patch cost %+v disagrees with cold patched solve cost %d", p2.Items[0], pcold.CostBits)
	}
	if code := post("/v1/schedule/patch", fmt.Sprintf(`{"base_key":"ktree/0000","deltas":[{"node":0,"weight_bits":1}],"budgets_bits":[%d]}`, pb), &werr); code != http.StatusNotFound {
		t.Fatalf("unknown base_key: code %d, want 404", code)
	}

	// Counters reflect the traffic above.
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(string(raw))
	if err != nil {
		t.Fatalf("/metrics unparseable: %v", err)
	}
	m := make(map[string]float64, len(samples))
	for _, s := range samples {
		m[s.Series()] = s.Value
	}
	for _, c := range []struct {
		series string
		min    float64
	}{
		{"wrbpg_cache_hits_total", 2},
		{"wrbpg_cache_misses_total", 1},
		{"wrbpg_solves_total", 2},
		{"wrbpg_http_bad_requests_total", 1},
		{`wrbpg_http_requests_total{endpoint="sweep"}`, 3},
		{"wrbpg_sweep_budgets_total", 6},
		{"wrbpg_sweep_session_hits_total", 1},
		{"wrbpg_sweep_session_misses_total", 1},
		{"wrbpg_sweep_sessions_live", 1},
		{`wrbpg_http_requests_total{endpoint="patch"}`, 2},
		{"wrbpg_patch_deltas_total", 2},
		{"wrbpg_patch_changed_nodes_total", 2},
		{"wrbpg_sweep_session_capacity", 1},
	} {
		if m[c.series] < c.min {
			t.Errorf("%s = %v, want >= %v", c.series, m[c.series], c.min)
		}
	}
	// /metrics is the only stats surface, and retired paths answer a
	// structured 404.
	if code := get("/statsz", &werr); code != http.StatusNotFound || werr.Status != http.StatusNotFound {
		t.Fatalf("GET /statsz: code %d body %+v, want a structured 404", code, werr)
	}
	if code := post("/v1/schedule/batch", `{"requests":[]}`, &werr); code != http.StatusNotFound || werr.Status != http.StatusNotFound {
		t.Fatalf("POST /v1/schedule/batch: code %d body %+v, want a structured 404", code, werr)
	}

	// Graceful shutdown: SIGTERM flips /readyz to "draining" while the
	// listener still answers (-drain-delay window, so load balancers
	// stop routing first), then the process drains and exits cleanly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	sawDraining := false
	for i := 0; i < 40 && !sawDraining; i++ {
		resp, err := client.Get(base + "/readyz")
		if err != nil {
			break // listener already closed: the window was missed, tolerated below
		}
		var rd map[string]any
		json.NewDecoder(resp.Body).Decode(&rd) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && rd["status"] == "draining" {
			sawDraining = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawDraining {
		t.Errorf("never observed /readyz 503 draining inside the drain-delay window")
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with error: %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill() //nolint:errcheck
		t.Fatalf("daemon did not exit within 30s of SIGTERM\nstderr: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "draining in-flight solves") {
		t.Errorf("shutdown log missing drain message:\n%s", stderr.String())
	}
}

// TestRunRejectsBadFlags keeps flag errors as errors, not hangs.
func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-addr"}, os.Stdout); err == nil {
		t.Fatal("missing flag value accepted")
	}
	if err := run([]string{"positional"}, os.Stdout); err == nil {
		t.Fatal("positional argument accepted")
	}
	if err := run([]string{"-addr", "127.0.0.1:1:bad"}, os.Stdout); err == nil {
		t.Fatal("unlistenable address accepted")
	}
	if err := run([]string{"-peers", "http://127.0.0.1:9"}, os.Stdout); err == nil {
		t.Fatal("-peers without -cluster-self accepted")
	} else if !strings.Contains(err.Error(), "cluster-self") {
		t.Fatalf("peer validation error should name -cluster-self: %v", err)
	}
}
