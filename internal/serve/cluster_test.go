package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"wrbpg/internal/cluster"
	"wrbpg/internal/core"
	"wrbpg/internal/obs"
	"wrbpg/internal/serve/wire"
)

// swapHandler lets a fleet allocate listeners (and thus member URLs)
// before the servers that need those URLs exist.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (sh *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sh.mu.RLock()
	h := sh.h
	sh.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (sh *swapHandler) set(h http.Handler) {
	sh.mu.Lock()
	sh.h = h
	sh.mu.Unlock()
}

// testFleet is an n-replica in-process cluster over httptest listeners.
// upgrades counts, per replica, the connections forwarders upgraded to
// the frame transport.
type testFleet struct {
	urls     []string
	ts       []*httptest.Server
	servers  []*Server
	clusters []*cluster.Cluster
	upgrades []*atomic.Int64
}

// solves is the fleet-wide count of solver invocations.
func (f *testFleet) solves() uint64 {
	var n uint64
	for _, s := range f.servers {
		n += s.Stats().Solves
	}
	return n
}

// newTestFleet builds n replicas whose clusters all agree on the
// member set. The health loop is not started; tests drive ProbeOnce
// and ReportFillError deterministically.
func newTestFleet(t *testing.T, n int, opts Options) *testFleet {
	t.Helper()
	f := &testFleet{}
	swaps := make([]*swapHandler, n)
	for i := 0; i < n; i++ {
		swaps[i] = &swapHandler{}
		ts := httptest.NewUnstartedServer(swaps[i])
		n := new(atomic.Int64)
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateHijacked {
				n.Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		f.upgrades = append(f.upgrades, n)
		f.ts = append(f.ts, ts)
		f.urls = append(f.urls, ts.URL)
	}
	for i := 0; i < n; i++ {
		var peers []string
		for j, u := range f.urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		c, err := cluster.New(cluster.Config{Self: f.urls[i], Peers: peers, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Cluster = c
		s := New(o)
		// Upgraded peer connections outlive ts.Close; the drain ends them.
		t.Cleanup(s.BeginDrain)
		swaps[i].set(s.Handler())
		f.servers = append(f.servers, s)
		f.clusters = append(f.clusters, c)
	}
	return f
}

// ownerOf returns the replica index owning req's schedule key (every
// replica agrees, so replica 0's ring is authoritative).
func (f *testFleet) ownerOf(t *testing.T, req wire.ScheduleRequest) int {
	t.Helper()
	inst, err := req.Instance()
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := f.clusters[0].Route(inst.Key(req.BudgetBits))
	for i, u := range f.urls {
		if u == owner {
			return i
		}
	}
	t.Fatalf("owner %q is not a fleet member", owner)
	return -1
}

// reqOwnedBy scans budgets until it finds a valid request whose key the
// ring assigns to the wanted member URL (by index into urls; -1 means
// "not replica 0").
func (f *testFleet) reqOwnedBy(t *testing.T, want func(owner string) bool) wire.ScheduleRequest {
	t.Helper()
	for b := int64(16 * 16); b < 16*16+512; b++ {
		req := dwtRequest(b)
		inst, err := req.Instance()
		if err != nil {
			t.Fatal(err)
		}
		owner, _ := f.clusters[0].Route(inst.Key(b))
		if want(owner) {
			return req
		}
	}
	t.Fatal("no budget in range produced a key with the wanted owner")
	return wire.ScheduleRequest{}
}

// TestClusterPeerFillOwnerSolvesOnce is the tentpole acceptance test:
// a miss on a non-owner replica is filled by the ring owner, the owner
// solves exactly once fleet-wide, and the filled result joins the
// forwarder's local cache so the next hit is local.
func TestClusterPeerFillOwnerSolvesOnce(t *testing.T) {
	f := newTestFleet(t, 3, Options{})
	req := dwtRequest(16 * 16)
	owner := f.ownerOf(t, req)
	fwd := (owner + 1) % 3

	resp, body := postJSON(t, f.urls[fwd]+"/v1/schedule", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res wire.ScheduleResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Source != "optimal" {
		t.Fatalf("source=%q, want optimal via peer fill", res.Source)
	}
	if len(res.Schedule) == 0 {
		t.Fatal("moves requested but absent from filled result")
	}
	if got := f.solves(); got != 1 {
		t.Fatalf("fleet solved %d times, want exactly 1 (owner only)", got)
	}
	if got := f.servers[owner].Stats().Solves; got != 1 {
		t.Fatalf("owner solves=%d, want 1", got)
	}
	if got := f.servers[fwd].Stats().Solves; got != 0 {
		t.Fatalf("forwarder solves=%d, want 0 (the fill must not cost a local solve)", got)
	}
	fst := f.servers[fwd].Stats()
	if fst.PeerFill["filled"] != 1 {
		t.Fatalf("forwarder peer_fill=%v, want filled=1", fst.PeerFill)
	}
	if ost := f.servers[owner].Stats(); ost.PeerRequests != 1 {
		t.Fatalf("owner peer_requests=%d, want 1", ost.PeerRequests)
	}

	// The filled result was cached locally: a repeat is a local hit and
	// nobody solves again.
	resp, body = postJSON(t, f.urls[fwd]+"/v1/schedule", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Cache != "hit" {
		t.Fatalf("warm cache=%q, want hit (fill should have been cached)", res.Cache)
	}
	// The owner serves its own traffic for the key from its cache too.
	resp, body = postJSON(t, f.urls[owner]+"/v1/schedule", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner status %d: %s", resp.StatusCode, body)
	}
	if got := f.solves(); got != 1 {
		t.Fatalf("fleet solved %d times after warm traffic, want still 1", got)
	}

	// The readiness body carries the fleet health section in cluster
	// mode.
	var ready struct {
		Peers *cluster.HealthReport `json:"peers"`
	}
	getJSON(t, f.urls[fwd]+"/readyz", &ready)
	if ready.Peers == nil || ready.Peers.Total != 3 || ready.Peers.Healthy != 3 {
		t.Fatalf("readyz peers=%+v, want 3/3 healthy", ready.Peers)
	}
}

// TestClusterPeerFillSkipsBuild: a forwarder offers its miss to the
// owner before building the graph, so a filled answer's trace has a
// peer.fill span and no build span of its own — the only build is the
// owner's, grafted under peer.fill.
func TestClusterPeerFillSkipsBuild(t *testing.T) {
	f := newTestFleet(t, 2, Options{})
	req := f.reqOwnedBy(t, func(owner string) bool { return owner != f.urls[0] })

	resp, body := postTraced(t, f.urls[0]+"/v1/schedule", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ex obs.TraceExport
	getJSON(t, f.urls[0]+"/v1/trace/"+resp.Header.Get(TraceIDHeader), &ex)
	local, owner := map[string]*obs.SpanNode{}, map[string]*obs.SpanNode{}
	var walk func([]*obs.SpanNode)
	walk = func(nodes []*obs.SpanNode) {
		for _, n := range nodes {
			local[n.Name] = n
			if n.Name == "peer.fill" {
				spanNames(n.Children, owner)
				continue
			}
			walk(n.Children)
		}
	}
	walk(ex.Spans)
	if local["peer.fill"] == nil {
		t.Fatalf("forwarder trace has no peer.fill span: %v", local)
	}
	if local["build"] != nil {
		t.Fatal("forwarder built the graph for a request the owner filled")
	}
	if owner["build"] == nil {
		t.Fatalf("grafted owner subtree has no build span: %v", owner)
	}
	if st := f.servers[0].Stats(); st.PeerFill["filled"] != 1 || st.Solves != 0 {
		t.Fatalf("forwarder peer_fill=%v solves=%d, want filled=1 and no solve", st.PeerFill, st.Solves)
	}
}

// TestClusterInvalidBudgetSameError: a budget below the existence bound
// sent to a non-owner costs one hop — the owner answers 400, the
// forwarder falls through to its own Build — and the client gets the
// same 400 body a single node sends.
func TestClusterInvalidBudgetSameError(t *testing.T) {
	f := newTestFleet(t, 2, Options{})
	req := dwtRequest(16 * 16)
	inst, err := req.Instance()
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := inst.Build()
	if err != nil {
		t.Fatal(err)
	}
	for b := int64(1); ; b++ {
		if b >= int64(core.MinExistenceBudget(g)) {
			t.Fatal("no below-existence budget owned by the other replica")
		}
		req = dwtRequest(b)
		if f.ownerOf(t, req) != 0 {
			break
		}
	}

	single := httptest.NewServer(New(Options{}).Handler())
	defer single.Close()
	wantResp, want := postJSON(t, single.URL+"/v1/schedule", req)
	gotResp, got := postJSON(t, f.urls[0]+"/v1/schedule", req)
	if wantResp.StatusCode != http.StatusBadRequest || gotResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status single=%d fleet=%d, want 400 from both", wantResp.StatusCode, gotResp.StatusCode)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet body %s, single-node body %s", got, want)
	}
	if st := f.servers[0].Stats(); st.PeerFill["error"] != 1 {
		t.Fatalf("forwarder peer_fill=%v, want the one wasted hop counted as error=1", st.PeerFill)
	}
	if st := f.servers[1].Stats(); st.PeerRequests != 1 {
		t.Fatalf("owner peer_requests=%d, want 1", st.PeerRequests)
	}
}

// TestClusterHopGuard: the peer endpoint rejects requests without the
// hop header, and a hop-marked request on the public endpoint is
// served locally — never forwarded again — even when the ring says
// another replica owns the key.
func TestClusterHopGuard(t *testing.T) {
	f := newTestFleet(t, 2, Options{})
	req := f.reqOwnedBy(t, func(owner string) bool { return owner != f.urls[0] })

	// Missing hop header on the peer endpoint: 400.
	resp, body := postJSON(t, f.urls[0]+cluster.PeerPath, wire.PeerScheduleRequest{Req: req})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("peer endpoint without hop header: status %d: %s", resp.StatusCode, body)
	}

	// Hop-marked request on the public endpoint of a non-owner: solved
	// locally, no forward.
	b, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, f.urls[0]+"/v1/schedule", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(cluster.HopHeader, "1")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("hop-marked schedule: status %d", hresp.StatusCode)
	}
	st := f.servers[0].Stats()
	if st.Solves != 1 {
		t.Fatalf("non-owner solves=%d, want 1 (hop-marked request must be served locally)", st.Solves)
	}
	for outcome, n := range st.PeerFill {
		if n != 0 {
			t.Fatalf("hop-marked request triggered a peer fill (%s=%d)", outcome, n)
		}
	}
	if other := f.servers[1].Stats(); other.PeerRequests != 0 || other.Solves != 0 {
		t.Fatalf("owner saw traffic (peer_requests=%d solves=%d); the hop guard failed", other.PeerRequests, other.Solves)
	}
}

// TestClusterPeerDownFallsBackLocal: with the owner replica dead, the
// forwarder's fill fails, the request is solved locally (availability
// beats dedup), and after FailThreshold fill errors the dead peer is
// ejected so later misses skip the doomed hop entirely.
func TestClusterPeerDownFallsBackLocal(t *testing.T) {
	f := newTestFleet(t, 2, Options{})
	dead := f.urls[1]
	f.ts[1].Close()

	// Three distinct dead-owned keys: two to drive fill errors up to
	// the ejection threshold, one to prove post-ejection misses skip
	// the hop.
	var reqs []wire.ScheduleRequest
	for b := int64(16 * 16); len(reqs) < 3 && b < 16*16+512; b++ {
		req := dwtRequest(b)
		inst, err := req.Instance()
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := f.clusters[0].Route(inst.Key(b)); owner == dead {
			reqs = append(reqs, req)
		}
	}
	if len(reqs) < 3 {
		t.Fatal("not enough dead-owned keys in budget range")
	}

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, f.urls[0]+"/v1/schedule", reqs[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("req %d with dead owner: status %d: %s", i, resp.StatusCode, body)
		}
		var res wire.ScheduleResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if res.Source != "optimal" {
			t.Fatalf("req %d: source=%q, want optimal local fallback", i, res.Source)
		}
	}
	st := f.servers[0].Stats()
	if st.PeerFill["error"] != 2 {
		t.Fatalf("peer_fill=%v, want error=2", st.PeerFill)
	}
	if st.Solves != 2 {
		t.Fatalf("solves=%d, want 2 local fallbacks", st.Solves)
	}
	// Threshold reached: the dead peer is off the ring, the next
	// dead-owned key routes locally with no fill attempt.
	if f.clusters[0].Ejections() != 1 {
		t.Fatalf("ejections=%d, want 1 after two fill errors", f.clusters[0].Ejections())
	}
	resp, _ := postJSON(t, f.urls[0]+"/v1/schedule", reqs[2])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-ejection request: status %d", resp.StatusCode)
	}
	if st = f.servers[0].Stats(); st.PeerFill["error"] != 2 {
		t.Fatalf("peer_fill=%v after ejection, want error still 2 (no fill attempted)", st.PeerFill)
	}
}

// TestClusterShedPropagation: an owner answering 429 makes the
// forwarder solve locally while it has capacity, and propagate the 429
// (with a clamped Retry-After) once its own queue is saturated.
func TestClusterShedPropagation(t *testing.T) {
	// Fake owner: always sheds peer fills, looks healthy to probes.
	fake := httptest.NewServer(cluster.NewPeerServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == cluster.PeerPath {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"status":429,"error":"busy","retry_after_s":300}`)
			return
		}
		w.WriteHeader(http.StatusOK)
	})))
	defer fake.Close()

	c, err := cluster.New(cluster.Config{Self: "http://self.invalid", Peers: []string{fake.URL}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{MaxInflight: 1, MaxQueue: -1, Cluster: c})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ownedByFake := func(b int64) bool {
		req := dwtRequest(b)
		inst, err := req.Instance()
		if err != nil {
			t.Fatal(err)
		}
		owner, local := c.Route(inst.Key(b))
		return !local && owner == fake.URL
	}
	var budgets []int64
	for b := int64(16 * 16); len(budgets) < 2 && b < 16*16+512; b++ {
		if ownedByFake(b) {
			budgets = append(budgets, b)
		}
	}
	if len(budgets) < 2 {
		t.Fatal("no fake-owned budgets in range")
	}

	// Capacity available: the owner's shed is absorbed locally.
	resp, body := postJSON(t, ts.URL+"/v1/schedule", dwtRequest(budgets[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unsaturated: status %d: %s", resp.StatusCode, body)
	}
	if fill, propagated := s.Stats().PeerFill["shed"], scrapeMetrics(t, ts.URL)["wrbpg_peer_shed_propagated_total"]; fill != 1 || propagated != 0 {
		t.Fatalf("unsaturated: peer_fill[shed]=%d propagated=%v, want shed=1 propagated=0", fill, propagated)
	}

	// Saturated: the owner's 429 is surfaced, Retry-After clamped to
	// the [1,60]s contract.
	release := pinSlots(t, s)
	defer release()
	resp, body = postJSON(t, ts.URL+"/v1/schedule", dwtRequest(budgets[1]))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated: status %d: %s, want 429 propagated", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "60" {
		t.Fatalf("Retry-After=%q, want owner's 300s clamped to 60", ra)
	}
	var we wire.Error
	if err := json.Unmarshal(body, &we); err != nil {
		t.Fatal(err)
	}
	if we.Reason != "shed" {
		t.Fatalf("reason=%q, want shed", we.Reason)
	}
	if n := scrapeMetrics(t, ts.URL)["wrbpg_peer_shed_propagated_total"]; n != 1 {
		t.Fatalf("propagated=%v, want 1", n)
	}
}

// TestClusterFillDuringEjectRace hammers the peer-fill path while the
// ring membership churns (eject via fill-error reports, re-admit via
// probes), under -race. Every response must still be a success: churn
// may cost dedup, never availability.
func TestClusterFillDuringEjectRace(t *testing.T) {
	f := newTestFleet(t, 2, Options{})
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			f.clusters[0].ReportFillError(f.urls[1])
			f.clusters[0].ReportFillError(f.urls[1])
			f.clusters[0].ProbeOnce(context.Background())
		}
	}()

	const workers, perWorker = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := dwtRequest(int64(16*16 + w*perWorker + i))
				b, _ := json.Marshal(req)
				resp, err := http.Post(f.urls[0]+"/v1/schedule", "application/json", bytes.NewReader(b))
				if err != nil {
					errs <- err
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("budget %d: status %d", 16*16+w*perWorker+i, resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestClusterStatsMergesMetrics: GET /v1/cluster/stats parses every
// reachable replica's /metrics, sums each counter series over exactly
// those rows, and reports an unreachable peer as an error row. The
// replicas share obs.Default in one process, so the ground-truth checks
// stick to series from each server's own registry.
func TestClusterStatsMergesMetrics(t *testing.T) {
	f := newTestFleet(t, 3, Options{})
	dead := f.urls[2]
	f.ts[2].Close() // its URL now refuses connections

	// One key replica 0 owns, one it fills from replica 1.
	for _, owner := range f.urls[:2] {
		req := f.reqOwnedBy(t, func(o string) bool { return o == owner })
		if resp, body := postJSON(t, f.urls[0]+"/v1/schedule", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}

	var cs ClusterStats
	if resp := getJSON(t, f.urls[0]+"/v1/cluster/stats", &cs); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/cluster/stats: %d", resp.StatusCode)
	}
	if cs.Replicas != 3 || cs.Scraped != 2 || len(cs.PerReplica) != 3 {
		t.Fatalf("replicas=%d scraped=%d rows=%d, want 3/2/3", cs.Replicas, cs.Scraped, len(cs.PerReplica))
	}
	sum := map[string]float64{}
	for _, row := range cs.PerReplica {
		switch {
		case row.URL == dead:
			if row.Error == "" || row.Series != nil {
				t.Errorf("dead peer row %+v, want an error and no series", row)
			}
		case row.Error != "":
			t.Errorf("reachable replica %s: error %q", row.URL, row.Error)
		default:
			for series, v := range row.Series {
				sum[series] += v
			}
		}
	}
	if !cs.PerReplica[0].Self || cs.PerReplica[0].URL != f.urls[0] {
		t.Errorf("first row %s (self=%v), want self %s", cs.PerReplica[0].URL, cs.PerReplica[0].Self, f.urls[0])
	}
	if len(cs.Totals) == 0 || len(cs.Totals) != len(sum) {
		t.Fatalf("%d totals, want one per row series (%d)", len(cs.Totals), len(sum))
	}
	for series, v := range cs.Totals {
		if v != sum[series] {
			t.Errorf("totals[%s] = %v, want the row sum %v", series, v, sum[series])
		}
	}

	want := map[string]uint64{}
	for _, s := range f.servers {
		st := s.Stats()
		want[`wrbpg_http_requests_total{endpoint="schedule"}`] += st.Requests
		want[`wrbpg_http_requests_total{endpoint="peer"}`] += st.PeerRequests
		want["wrbpg_solves_total"] += st.Solves
		want["wrbpg_cache_misses_total"] += st.Cache.Misses
		want[`wrbpg_peer_fill_total{outcome="filled"}`] += st.PeerFill["filled"]
	}
	for series, n := range want {
		if n == 0 || cs.Totals[series] != float64(n) {
			t.Errorf("totals[%s] = %v, want the replicas' %d (> 0)", series, cs.Totals[series], n)
		}
	}

	// A peerless server has no fleet to report.
	single := httptest.NewServer(New(Options{}).Handler())
	defer single.Close()
	if resp := getJSON(t, single.URL+"/v1/cluster/stats", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("peerless /v1/cluster/stats: %d, want 404", resp.StatusCode)
	}
}

// scheduleAnswer is the part of a /v1/schedule answer the moves-on-
// demand tests read: the move list as the bytes sent, and the stamp.
type scheduleAnswer struct {
	Schedule json.RawMessage `json:"schedule"`
	Source   string          `json:"source"`
	Cache    string          `json:"cache"`
	Cost     wire.CostMeta   `json:"cost"`
}

func postSchedule(t *testing.T, url string, req wire.ScheduleRequest) scheduleAnswer {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/schedule", req)
	var a scheduleAnswer
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &a) != nil {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	return a
}

// movesOnDemandRequests are one request of each family at a budget
// from which budgets are scanned for one the ring gives replica 1. The
// cdag graph is submitted with its nodes out of canonical order, so
// its moves are remapped to the requester's numbering on the way out,
// and at its total weight, where the search completes on its seed and
// every replica answers with the same schedule.
func movesOnDemandRequests(t *testing.T) map[string]wire.ScheduleRequest {
	t.Helper()
	reqs := map[string]wire.ScheduleRequest{
		"dwt":   {Spec: wire.Spec{Family: "dwt", N: 32, D: 4}},
		"ktree": {Spec: wire.Spec{Family: "ktree", K: 2, Height: 4}},
		"mvm":   {Spec: wire.Spec{Family: "mvm", M: 6, N: 8}},
		"cdag":  {Spec: wire.Spec{Family: "cdag", CDAG: diamondSpec()}},
	}
	for name, req := range reqs {
		inst, err := req.Instance()
		if err != nil {
			t.Fatal(err)
		}
		_, g, err := inst.Build()
		if err != nil {
			t.Fatal(err)
		}
		req.BudgetBits = 2 * int64(core.MinExistenceBudget(g))
		if name == "cdag" {
			req.BudgetBits = int64(g.TotalWeight())
		}
		reqs[name] = req
	}
	return reqs
}

// ownedByReplica1 returns req at the first budget from its own whose
// key the ring assigns to replica 1.
func (f *testFleet) ownedByReplica1(t *testing.T, req wire.ScheduleRequest) wire.ScheduleRequest {
	t.Helper()
	for i := 0; i < 512; i++ {
		if f.ownerOf(t, req) == 1 {
			return req
		}
		req.BudgetBits++
	}
	t.Fatal("no budget in range produced a key owned by replica 1")
	return req
}

// TestClusterPeerFillMovesOnDemand: a fill carries moves only when its
// client asked for them. A forwarder's miss without include_moves is
// filled without moves; the first include_moves request for the key
// refills from the owner, answers as a miss with the peer's cost block,
// and its moves are byte-identical to a single node's, cdag remap
// included; the next is a local hit with the same moves, and the owner
// solved once.
func TestClusterPeerFillMovesOnDemand(t *testing.T) {
	f := newTestFleet(t, 2, Options{})
	single, _ := newTestServer(t, Options{})
	for name, req := range movesOnDemandRequests(t) {
		t.Run(name, func(t *testing.T) {
			req := f.ownedByReplica1(t, req)
			lean, full := req, req
			lean.IncludeMoves, full.IncludeMoves = false, true
			want := postSchedule(t, single.URL, full)
			if len(want.Schedule) == 0 {
				t.Fatalf("single node answered %+v without moves", want)
			}
			solves := [2]uint64{f.servers[0].Stats().Solves, f.servers[1].Stats().Solves}

			a := postSchedule(t, f.urls[0], lean)
			if a.Cache != "miss" || a.Cost.SourceTier != wire.TierPeer || a.Schedule != nil {
				t.Fatalf("lean fill: cache %q, tier %q, schedule %s; want a peer miss without moves", a.Cache, a.Cost.SourceTier, a.Schedule)
			}
			a = postSchedule(t, f.urls[0], full)
			if a.Cache != "miss" || a.Cost.SourceTier != wire.TierPeer || a.Cost.PeerHops != 1 {
				t.Fatalf("refill: cache %q, cost %+v; want a peer miss", a.Cache, a.Cost)
			}
			if !bytes.Equal(a.Schedule, want.Schedule) || a.Source != want.Source {
				t.Fatalf("refill answered %s moves %s, a single node %s moves %s", a.Source, a.Schedule, want.Source, want.Schedule)
			}
			for _, r := range []wire.ScheduleRequest{full, lean} {
				a = postSchedule(t, f.urls[0], r)
				if a.Cache != "hit" || (r.IncludeMoves && !bytes.Equal(a.Schedule, want.Schedule)) || (!r.IncludeMoves && a.Schedule != nil) {
					t.Fatalf("include_moves=%t after the refill: cache %q, moves %s", r.IncludeMoves, a.Cache, a.Schedule)
				}
			}
			if d0, d1 := f.servers[0].Stats().Solves-solves[0], f.servers[1].Stats().Solves-solves[1]; d0 != 0 || d1 != 1 {
				t.Fatalf("forwarder solved %d times and owner %d, want 0 and 1", d0, d1)
			}
		})
	}

	t.Run("traced", func(t *testing.T) {
		// A traced fill without moves: the head carries the owner's
		// span subtree, which the forwarder grafts under peer.fill.
		req := f.ownedByReplica1(t, dwtRequest(16*16+64))
		req.IncludeMoves = false
		resp, body := postTraced(t, f.urls[0]+"/v1/schedule", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var ex obs.TraceExport
		getJSON(t, f.urls[0]+"/v1/trace/"+resp.Header.Get(TraceIDHeader), &ex)
		spans := map[string]*obs.SpanNode{}
		spanNames(ex.Spans, spans)
		fill := spans["peer.fill"]
		if fill == nil || spanAttr(fill, "outcome") != peerFilled {
			t.Fatalf("peer.fill span %+v, want outcome=filled", fill)
		}
		under := map[string]*obs.SpanNode{}
		spanNames(fill.Children, under)
		if under["peer.serve"] == nil || under["solve"] == nil {
			t.Fatalf("peer.fill holds %v, want the owner's peer.serve subtree with its solve", fill.Children)
		}
	})
}
