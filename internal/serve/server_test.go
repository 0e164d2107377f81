package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"wrbpg/internal/core"
	"wrbpg/internal/guard"
	"wrbpg/internal/obs"
	"wrbpg/internal/serve/wire"
)

// newTestServer returns an httptest server and the Server behind it,
// whose Stats().Solves counts actual solver invocations, so tests can
// prove cache hits never touch the solver.
func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// scrapeMetrics fetches GET /metrics from the server at url and returns
// every sample's value keyed by obs.Sample.Series().
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(string(raw))
	if err != nil {
		t.Fatalf("%s/metrics unparseable: %v", url, err)
	}
	series := make(map[string]float64, len(samples))
	for _, s := range samples {
		series[s.Series()] = s.Value
	}
	return series
}

func dwtRequest(budget int64) wire.ScheduleRequest {
	return wire.ScheduleRequest{Spec: wire.Spec{Family: "dwt", N: 32, D: 4}, BudgetBits: budget, IncludeMoves: true}
}

// TestScheduleColdThenWarm is the tentpole acceptance test: a cold
// request solves via internal/solve, an identical warm request is a
// cache hit served without invoking the solver, the two schedules are
// byte-identical, and /metrics reflects the hit/miss counts.
func TestScheduleColdThenWarm(t *testing.T) {
	ts, s := newTestServer(t, Options{})
	req := dwtRequest(16 * 16)

	resp, body := postJSON(t, ts.URL+"/v1/schedule", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", resp.StatusCode, body)
	}
	var cold wire.ScheduleResult
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Cache != "miss" || cold.Source != "optimal" {
		t.Fatalf("cold: cache=%q source=%q, want miss/optimal", cold.Cache, cold.Source)
	}
	if len(cold.Schedule) == 0 {
		t.Fatal("cold: moves requested but absent")
	}
	if got := s.Stats().Solves; got != 1 {
		t.Fatalf("cold: solver ran %d times, want 1", got)
	}

	resp, body = postJSON(t, ts.URL+"/v1/schedule", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.StatusCode, body)
	}
	var warm wire.ScheduleResult
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Cache != "hit" {
		t.Fatalf("warm: cache=%q, want hit", warm.Cache)
	}
	if got := s.Stats().Solves; got != 1 {
		t.Fatalf("warm: solver ran %d times, want still 1 (hit must not solve)", got)
	}
	if warm.CacheKey != cold.CacheKey || warm.CacheKey == "" {
		t.Fatalf("cache keys differ: %q vs %q", cold.CacheKey, warm.CacheKey)
	}

	// Byte-identical schedules: the content-addressing contract.
	enc := func(s core.Schedule) string {
		b, err := s.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if enc(cold.Schedule) != enc(warm.Schedule) {
		t.Fatal("warm schedule differs from cold solve")
	}

	m := scrapeMetrics(t, ts.URL)
	if hits, misses := m["wrbpg_cache_hits_total"], m["wrbpg_cache_misses_total"]; hits != 1 || misses != 1 {
		t.Fatalf("metrics: hits=%v misses=%v, want 1/1", hits, misses)
	}
	if n := m["wrbpg_solves_total"]; n != 1 {
		t.Fatalf("metrics: solves=%v, want 1", n)
	}
	if n := m[`wrbpg_http_requests_total{endpoint="schedule"}`]; n != 2 {
		t.Fatalf("metrics: requests=%v, want 2", n)
	}
}

// TestScheduleValidation: malformed untrusted requests get structured
// 400s — never panics, never 500s.
func TestScheduleValidation(t *testing.T) {
	ts, s := newTestServer(t, Options{})
	cases := []struct {
		name string
		body string
	}{
		{"not json", `{`},
		{"unknown field", `{"family":"dwt","n":32,"d":4,"budget_bits":256,"bogus":1}`},
		{"unknown family", `{"family":"quux","budget_bits":256}`},
		{"zero budget", `{"family":"dwt","n":32,"d":4,"budget_bits":0}`},
		{"negative budget", `{"family":"dwt","n":32,"d":4,"budget_bits":-5}`},
		{"mvm m=0", `{"family":"mvm","m":0,"n":8,"budget_bits":256}`},
		{"dwt n not 2^d multiple", `{"family":"dwt","n":33,"d":4,"budget_bits":256}`},
		{"ktree k too large", `{"family":"ktree","k":12,"height":2,"budget_bits":256}`},
		{"negative custom weights", `{"family":"dwt","n":32,"d":4,"budget_bits":256,"weights":{"word_bits":-16,"input_words":1,"node_words":1}}`},
		{"bad weight name", `{"family":"dwt","n":32,"d":4,"budget_bits":256,"weights":{"name":"halting"}}`},
		{"cdag without graph", `{"family":"cdag","budget_bits":256}`},
		{"cdag negative node weight", `{"family":"cdag","budget_bits":256,"graph":{"nodes":[{"w":-4},{"w":4,"parents":[0]}]}}`},
		{"cdag forward parent", `{"family":"cdag","budget_bits":256,"graph":{"nodes":[{"w":4,"parents":[1]},{"w":4}]}}`},
		{"budget below existence", `{"family":"dwt","n":32,"d":4,"budget_bits":1}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var e wire.Error
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
			continue
		}
		if derr != nil || e.Message == "" || e.Status != http.StatusBadRequest {
			t.Errorf("%s: unstructured error body (decode err %v, body %+v)", tc.name, derr, e)
		}
	}
	if got := s.Stats().Solves; got != 0 {
		t.Fatalf("validation cases invoked the solver %d times", got)
	}
}

// TestTrailingDataRejected: anything but whitespace after the request
// value is a 400 on every body-decoding endpoint, including the ']'
// and '}' that json.Decoder.More does not report. The capitalized key
// sends the body down the general decoder instead of the scanner. A
// value followed by whitespace, or cut off by the body-size cap after
// it is complete, still decodes.
func TestTrailingDataRejected(t *testing.T) {
	ts, _ := newTestServer(t, Options{MaxBodyBytes: 256})
	bodies := map[string][]string{
		"/v1/schedule":       {`{"family":"dwt","n":8,"d":3,"budget_bits":99}`, `{"Family":"dwt","n":8,"d":3,"budget_bits":99}`},
		"/v1/schedule/sweep": {`{"family":"dwt","n":8,"d":3,"budgets_bits":[99]}`, `{"Family":"dwt","n":8,"d":3,"budgets_bits":[99]}`},
		"/v1/schedule/patch": {`{"family":"dwt","n":8,"d":3,"budgets_bits":[99]}`, `{"Family":"dwt","n":8,"d":3,"budgets_bits":[99]}`},
		"/v1/lowerbound":     {`{"family":"dwt","n":8,"d":3}`, `{"Family":"dwt","n":8,"d":3}`},
	}
	post := func(path, body string) (int, wire.Error) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e wire.Error
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("%s %q: unstructured error body: %v", path, body, err)
			}
		}
		return resp.StatusCode, e
	}
	for path, valid := range bodies {
		for _, v := range valid {
			for _, tail := range []string{" ]", "}}}}", "]", " {}", "x"} {
				status, e := post(path, v+tail)
				if status != http.StatusBadRequest || e.Message != "trailing data after request body" {
					t.Errorf("%s %q: status %d %q, want 400 trailing data", path, v+tail, status, e.Message)
				}
			}
			for _, tail := range []string{"", " \n\t\r ", strings.Repeat(" ", 300)} {
				if status, e := post(path, v+tail); status != http.StatusOK {
					t.Errorf("%s %q: status %d %q, want 200", path, v+tail, status, e.Message)
				}
			}
		}
	}
}

// TestScheduleCDAGFamily: an arbitrary CDAG in the spec format solves
// through the anytime tier (Complete on a graph this small, hence
// cacheable) and caches by content — node names don't affect the key,
// weights do.
func TestScheduleCDAGFamily(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	graph := func(name string) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(
			`{"nodes":[{"w":8,"name":%q},{"w":8},{"w":16,"parents":[0,1]}]}`, name))
	}
	post := func(g json.RawMessage) wire.ScheduleResult {
		body := map[string]any{"family": "cdag", "budget_bits": 64, "graph": g}
		resp, raw := postJSON(t, ts.URL+"/v1/schedule", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		var out wire.ScheduleResult
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := post(graph("a"))
	if a.Cache != "miss" || a.Source != "anytime" {
		t.Fatalf("first cdag solve: cache=%q source=%q", a.Cache, a.Source)
	}
	if a.Anytime == nil || !a.Anytime.Complete {
		t.Fatalf("tiny cdag solve should report a complete anytime search, got %+v", a.Anytime)
	}
	b := post(graph("renamed"))
	if b.Cache != "hit" {
		t.Fatalf("renamed-but-identical cdag: cache=%q, want hit (names are not content)", b.Cache)
	}
}

// TestScheduleConcurrentDedup: identical requests in flight together
// run one solve between them (singleflight, then the cache), and every
// one of them succeeds.
func TestScheduleConcurrentDedup(t *testing.T) {
	ts, s := newTestServer(t, Options{})
	body, err := json.Marshal(dwtRequest(16 * 16))
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
			if err != nil {
				codes <- 0
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	ok := 0
	for code := range codes {
		if code == http.StatusOK {
			ok++
		}
	}
	if ok != n {
		t.Fatalf("%d of %d identical requests answered 200", ok, n)
	}
	if got := s.Stats().Solves; got != 1 {
		t.Fatalf("identical concurrent requests ran the solver %d times, want 1", got)
	}
}

// TestUnknownPathStructured404: a path no endpoint serves, a retired
// one included, answers a structured JSON 404 like every other error.
func TestUnknownPathStructured404(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	for _, c := range []struct{ method, path string }{
		{http.MethodPost, "/v1/nope"},
		{http.MethodGet, "/statsz"},
		{http.MethodPost, "/v1/schedule/batch"},
		{http.MethodGet, "/"},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e wire.Error
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("%s %s: status %d, Content-Type %q; want a JSON 404",
				c.method, c.path, resp.StatusCode, resp.Header.Get("Content-Type"))
			continue
		}
		if derr != nil || e.Status != http.StatusNotFound || e.Message == "" {
			t.Errorf("%s %s: unstructured 404 body (decode err %v, body %+v)", c.method, c.path, derr, e)
		}
	}
}

// TestFallbackFlaggedAndNotCached: a solve degraded at its deadline is
// flagged in the response and NOT cached, so a later request retries
// the optimal solver.
func TestFallbackFlaggedAndNotCached(t *testing.T) {
	ts, srv := newTestServer(t, Options{
		// A memo ceiling of 1 forces guard.ErrBudgetExceeded on the
		// first DP cell — deterministic degradation without timing.
		Limits: guard.Limits{MaxMemoEntries: 1},
	})
	req := dwtRequest(16 * 16)
	req.IncludeMoves = false

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/schedule", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("call %d: status %d: %s", i, resp.StatusCode, body)
		}
		var out wire.ScheduleResult
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Source != "fallback" || out.FallbackReason == "" {
			t.Fatalf("call %d: source=%q reason=%q, want flagged fallback", i, out.Source, out.FallbackReason)
		}
		if out.Cache != "miss" {
			t.Fatalf("call %d: cache=%q — degraded results must not be cached", i, out.Cache)
		}
	}
	if n := srv.Stats().Cache.Entries; n != 0 {
		t.Fatalf("cache holds %d entries after fallback-only traffic", n)
	}
	if n := scrapeMetrics(t, ts.URL)["wrbpg_solve_fallbacks_total"]; n != 2 {
		t.Fatalf("metrics fallbacks=%v, want 2", n)
	}
}

// TestLowerBoundEndpoint: GET /v1/lowerbound answers without solving,
// and rejects malformed queries with 400s.
func TestLowerBoundEndpoint(t *testing.T) {
	ts, s := newTestServer(t, Options{})
	var out wire.LowerBoundResult
	resp := getJSON(t, ts.URL+"/v1/lowerbound?family=dwt&n=32&d=4", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.LowerBoundBits <= 0 || out.MinExistenceBits <= 0 || out.Nodes == 0 {
		t.Fatalf("degenerate bounds: %+v", out)
	}
	if s.Stats().Solves != 0 {
		t.Fatal("lowerbound must not solve")
	}
	for _, q := range []string{
		"family=dwt&n=33&d=4", "family=quux", "family=cdag",
		"family=mvm&m=0&n=8", "family=dwt&n=abc&d=4",
	} {
		resp := getJSON(t, ts.URL+"/v1/lowerbound?"+q, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestHealthz: liveness plus method checks on the POST endpoints.
func TestHealthzAndMethods(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	var h map[string]any
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if h["status"] != "ok" {
		t.Fatalf("healthz body %v", h)
	}
	if resp := getJSON(t, ts.URL+"/v1/schedule", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET schedule: status %d, want 405", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/schedule/sweep", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET sweep: status %d, want 405", resp.StatusCode)
	}
}

// TestCacheEvictionVisibleInStats: a tiny cache evicts and
// Stats().Cache reports it.
func TestCacheEvictionVisibleInStats(t *testing.T) {
	ts, srv := newTestServer(t, Options{CacheShards: 1, CachePerShard: 1})
	budgets := []int64{16 * 16, 17 * 16, 18 * 16}
	for _, b := range budgets {
		if resp, body := postJSON(t, ts.URL+"/v1/schedule", dwtRequest(b)); resp.StatusCode != 200 {
			t.Fatalf("budget %d: %s", b, body)
		}
	}
	st := srv.Stats()
	if st.Cache.Evictions < 2 {
		t.Fatalf("evictions = %d, want ≥ 2 with capacity 1", st.Cache.Evictions)
	}
	if st.Cache.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Cache.Entries)
	}
	if st.Cache.Capacity != 1 {
		t.Fatalf("capacity = %d, want 1", st.Cache.Capacity)
	}
}
