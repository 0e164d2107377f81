// HTTP-level overload behavior: the degradation ladder end-to-end.
// These tests pin the solver slots white-box (same package) through
// the admission queue itself, so saturation is deterministic rather
// than raced through slow background requests.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"wrbpg/internal/guard"
	"wrbpg/internal/serve/wire"
)

// pinSlots occupies every solver slot directly and returns an
// idempotent release func, making the server saturated for the
// duration of a test.
func pinSlots(t *testing.T, s *Server) func() {
	t.Helper()
	var tks []*ticket
	for i := 0; i < cap(s.adm.slots); i++ {
		tk, shed := s.adm.Acquire(context.Background(), 0)
		if shed != nil {
			t.Fatalf("pinning slot %d shed %q", i, shed.mode)
		}
		tks = append(tks, tk)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for _, tk := range tks {
				tk.Release()
			}
		})
	}
}

// TestOverloadDegradesToShedBaseline: with every slot busy and no
// queue, a request with deadline budget left is served by the baseline
// tier — a 200 flagged fallback_cause="shed", not an error — and is
// not cached.
func TestOverloadDegradesToShedBaseline(t *testing.T) {
	ts, s := newTestServer(t, Options{MaxInflight: 1, MaxQueue: -1})
	release := pinSlots(t, s)
	defer release()

	resp, body := postJSON(t, ts.URL+"/v1/schedule", dwtRequest(16*16))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res wire.ScheduleResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Source != "fallback" || res.FallbackCause != "shed" {
		t.Fatalf("source=%q cause=%q, want fallback/shed", res.Source, res.FallbackCause)
	}
	if len(res.Schedule) == 0 {
		t.Fatal("shed answer carried no schedule")
	}

	if n := scrapeMetrics(t, ts.URL)[`wrbpg_shed_total{mode="degraded"}`]; n != 1 {
		t.Fatalf("shed[degraded] = %v, want 1", n)
	}

	// The shed answer was not cached: once capacity returns, the same
	// request gets the real solve.
	release()
	resp, body = postJSON(t, ts.URL+"/v1/schedule", dwtRequest(16*16))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Source != "optimal" || res.Cache != "miss" {
		t.Fatalf("after release: source=%q cache=%q, want optimal/miss", res.Source, res.Cache)
	}
}

// TestOverloadDoomedRejectedWith429: once the hold histogram says
// solves take seconds, a queued-up request with a 100ms budget is
// rejected up front — 429, Retry-After header, structured body.
func TestOverloadDoomedRejectedWith429(t *testing.T) {
	ts, s := newTestServer(t, Options{MaxInflight: 1, MaxQueue: 8})
	for i := 0; i < 10; i++ {
		s.adm.hold.Observe(5_000_000) // teach the estimator: ~5s holds
	}
	release := pinSlots(t, s)
	defer release()

	req := dwtRequest(16 * 16)
	req.TimeoutMS = 100
	resp, body := postJSON(t, ts.URL+"/v1/schedule", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	var werr wire.Error
	if err := json.Unmarshal(body, &werr); err != nil {
		t.Fatal(err)
	}
	if werr.Reason != "shed" {
		t.Fatalf("reason = %q, want shed", werr.Reason)
	}
	if werr.RetryAfterS < 1 || werr.RetryAfterS > 60 {
		t.Fatalf("retry_after_s = %d, want in [1, 60]", werr.RetryAfterS)
	}
	if s.Stats().Solves != 0 {
		t.Fatalf("doomed request reached the solver (%d solves)", s.Stats().Solves)
	}

	m := scrapeMetrics(t, ts.URL)
	if n := m[`wrbpg_shed_total{mode="doomed"}`]; n != 1 {
		t.Fatalf("shed[doomed] = %v, want 1", n)
	}
	// Server pushback is not a client error.
	if n := m["wrbpg_http_bad_requests_total"]; n != 0 {
		t.Fatalf("bad_requests = %v after a 429, want 0", n)
	}
}

// TestQueuedClientDisconnectReleasesSlot is the -race satellite: a
// request canceled while queued leaves immediately — queue accounting
// returns to zero, the shed is counted as canceled, and the next
// request proceeds normally.
func TestQueuedClientDisconnectReleasesSlot(t *testing.T) {
	ts, s := newTestServer(t, Options{MaxInflight: 1, MaxQueue: 4})
	release := pinSlots(t, s)
	defer release()

	entered := make(chan struct{})
	s.adm.enqueued = func() { close(entered) }

	ctx, cancel := context.WithCancel(context.Background())
	req := dwtRequest(16 * 16)
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+"/v1/schedule", bytes.NewReader(b))
		if err != nil {
			errc <- err
			return
		}
		hr.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(hr)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never joined the admission queue")
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request returned no client error")
	}

	// The waiter left the queue: accounting back to zero.
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.queued.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.adm.queued.Load(); got != 0 {
		t.Fatalf("queued = %d after disconnect, want 0", got)
	}
	if got := s.adm.depth.Value(); got != 0 {
		t.Fatalf("depth gauge = %d after disconnect, want 0", got)
	}
	// The queue slot is given back (Acquire's deferred decrement) before
	// solveCold counts the shed, so the counter is polled under the
	// same deadline.
	var canceled float64
	for {
		canceled = scrapeMetrics(t, ts.URL)[`wrbpg_shed_total{mode="canceled"}`]
		if canceled != 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if canceled != 1 {
		t.Fatalf("shed[canceled] = %v, want 1", canceled)
	}

	// Capacity restored: the next identical request solves optimally.
	s.adm.enqueued = nil
	release()
	resp, body := postJSON(t, ts.URL+"/v1/schedule", dwtRequest(16*16))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d: %s", resp.StatusCode, body)
	}
	var res wire.ScheduleResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Source != "optimal" {
		t.Fatalf("after release: source = %q, want optimal", res.Source)
	}
	release = func() {}
}

// TestBreakerTripsOnFallbackStorm: a run of forced fallbacks trips the
// circuit breaker; while it is open, cold requests skip the optimal
// tier entirely (shed baseline, mode "breaker") instead of queueing
// into a thrashing solver.
func TestBreakerTripsOnFallbackStorm(t *testing.T) {
	ts, s := newTestServer(t, Options{
		Limits:            guard.Limits{MaxMemoEntries: 1}, // every optimal solve aborts → fallback
		BreakerWindow:     4,
		BreakerMinSamples: 4,
		BreakerThreshold:  0.5,
		BreakerCooldown:   time.Hour, // stays open for the test's lifetime
	})
	// Four distinct budgets: four cache misses, four fallbacks.
	for i := int64(0); i < 4; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/schedule", dwtRequest(16*16+i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("storm %d: status %d: %s", i, resp.StatusCode, body)
		}
		var res wire.ScheduleResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if res.Source != "fallback" {
			t.Fatalf("storm %d: source = %q, want fallback", i, res.Source)
		}
	}
	if got := s.brk.State(); got != "open" {
		t.Fatalf("breaker = %q after 4/4 fallbacks, want open", got)
	}

	// The fifth request skips the optimal tier: only the degraded call
	// counts as a solve, and the shed is labeled breaker.
	before := s.Stats().Solves
	resp, body := postJSON(t, ts.URL+"/v1/schedule", dwtRequest(16*16+100))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("breaker-open: status %d: %s", resp.StatusCode, body)
	}
	var res wire.ScheduleResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Source != "fallback" || res.FallbackCause != "shed" {
		t.Fatalf("breaker-open: source=%q cause=%q, want fallback/shed", res.Source, res.FallbackCause)
	}
	if got := s.Stats().Solves - before; got != 1 {
		t.Fatalf("breaker-open request invoked solve %d times, want 1 (degraded only)", got)
	}

	m := scrapeMetrics(t, ts.URL)
	if n := m["wrbpg_breaker_state"]; n != float64(breakerOpen) {
		t.Fatalf("breaker state = %v, want %d (open)", n, breakerOpen)
	}
	if n := m["wrbpg_breaker_trips_total"]; n != 1 {
		t.Fatalf("breaker_trips = %v, want 1", n)
	}
	if n := m[`wrbpg_shed_total{mode="breaker"}`]; n != 1 {
		t.Fatalf("shed[breaker] = %v, want 1", n)
	}
}

// TestReadyzStates walks /readyz through ok → overloaded → draining.
func TestReadyzStates(t *testing.T) {
	ts, s := newTestServer(t, Options{MaxInflight: 1, MaxQueue: -1})

	var body map[string]any
	resp := getJSON(t, ts.URL+"/readyz", &body)
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("idle: status %d %v, want 200 ok", resp.StatusCode, body["status"])
	}

	// Saturate: the only slot busy, zero-length queue at capacity.
	release := pinSlots(t, s)
	resp = getJSON(t, ts.URL+"/readyz", &body)
	if resp.StatusCode != http.StatusServiceUnavailable || body["status"] != "overloaded" {
		t.Fatalf("saturated: status %d %v, want 503 overloaded", resp.StatusCode, body["status"])
	}
	release()
	resp = getJSON(t, ts.URL+"/readyz", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d, want 200", resp.StatusCode)
	}

	// Draining wins over everything and is terminal.
	s.BeginDrain()
	resp = getJSON(t, ts.URL+"/readyz", &body)
	if resp.StatusCode != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("draining: status %d %v, want 503 draining", resp.StatusCode, body["status"])
	}
	// Liveness is unaffected by drain.
	resp = getJSON(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: status %d, want 200", resp.StatusCode)
	}
}

// TestSweepShedsWith429: the sweep path shares the admission queue —
// with the server saturated a sweep is rejected with a structured 429
// (no degraded tier for sweeps).
func TestSweepShedsWith429(t *testing.T) {
	ts, s := newTestServer(t, Options{MaxInflight: 1, MaxQueue: -1})
	release := pinSlots(t, s)
	defer release()

	req := wire.SweepRequest{Spec: wire.Spec{Family: "dwt", N: 32, D: 4}, BudgetsBits: []int64{256, 512}, TimeoutMS: 50}
	resp, body := postJSON(t, ts.URL+"/v1/schedule/sweep", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("sweep 429 without Retry-After header")
	}
	if n := scrapeMetrics(t, ts.URL)[`wrbpg_shed_total{mode="queue_full"}`]; n != 1 {
		t.Fatalf("shed[queue_full] = %v, want 1", n)
	}
}
