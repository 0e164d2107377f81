// The traced run: the first stream requests replayed three ways on
// fresh servers, (a) over loopback HTTP, (b) through the in-process
// handler into a recorder, (c) through the library path with a span
// around every layer call. Layer rows are self times from (c);
// serve.other = mean(b) − Σ layer means and http.residual = mean(a) −
// mean(b). Rows reconcile by means, because medians do not add.

package main

import (
	"math"
	"net/http"
	"sort"
	"time"

	"wrbpg/internal/serve/wire"
)

// maxOtherShare bounds |serve.other| as a share of the loopback mean:
// a larger residue means the library path no longer follows the
// server's calls and the layer rows stop explaining the latency. A run
// over it is flagged, not failed: the residue says how well the layer
// rows explain the latency, not whether the answers were right.
const maxOtherShare = 0.10

// layerSpans are the library spans with a layer row, in report order.
var layerSpans = []string{
	spanDecode, spanEncode, spanInstance, spanProbe, spanBuild, spanOptimal,
	spanSimulate, spanFallback, spanPeer, spanAcquire, spanPatch, spanSweep,
}

// tracedRounds splits the replay into rounds; each round replays its
// slice of the stream on (a), (b) and (c) in turn, so a slow spell of
// the host lands on all three ways alike instead of on one of them.
const tracedRounds = 50

// way is one of the traced run's three paths, on its own fresh servers.
type way struct {
	f       *fleet
	call    caller
	tallies []*tally
}

func runTraced(w workload, s settings) (*result, error) {
	n := s.replay(w)
	st, err := w.newStream(s.seed)
	if err != nil {
		return nil, err
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	recs := make([]*recorder, clients)
	t0 := time.Now()
	for c := range recs {
		recs[c] = &recorder{t0: t0}
	}
	g := &gate{keep: n, detail: true}
	var ways [3]*way
	for k := range ways {
		f, err := bootFleet(w.replicas, uint64(s.seed))
		if err != nil {
			return nil, err
		}
		defer f.close()
		wy := &way{f: f, tallies: newTallies(g)}
		switch k {
		case 0: // (a) loopback HTTP
			wy.call = httpCaller(cl, f.urls)
		case 1: // (b) the in-process handler
			hs := make([]http.Handler, len(f.servers))
			for r, srv := range f.servers {
				hs[r] = srv.Handler()
			}
			wy.call = handlerCaller(hs)
		case 2: // (c) the library path; in a fleet its peer fills go to f's owners
			wy.call = libCaller(fleetLibs(f), recs, tierBy(ways[1].tallies))
		}
		want, err := warm(st, wy.call)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			g.hotWant = want
		}
		ways[k] = wy
	}

	stats0 := ways[0].f.stats()
	for r := 0; r < tracedRounds; r++ {
		for _, wy := range ways {
			drive(st, wy.call, wy.tallies, r*n/tracedRounds, (r+1)*n/tracedRounds, time.Time{})
		}
	}
	statsA := ways[0].f.stats().sub(stats0)
	a, b, c := mergeTallies(ways[0].tallies), mergeTallies(ways[1].tallies), mergeTallies(ways[2].tallies)
	spans := mergeSpans(recs)

	res := &result{Workload: w.name, Why: w.why, Attempted: a.attempted + b.attempted + c.attempted}
	layers, rc := layerMetrics(a, b, statsA, spans)
	res.Layers, res.Reconcile = layers, &rc
	res.Spans = spans
	res.Claims = claims(w, a, statsA)
	res.Mismatches = a.mismatches + b.mismatches + c.mismatches + disagree(a.outs, c.outs) + disagree(b.outs, c.outs)
	if w.anytime {
		bad, err := baselineGate(st, a)
		if err != nil {
			return nil, err
		}
		res.Mismatches += bad
	}
	res.Failed = a.errors + b.errors + c.errors + res.Mismatches
	for _, t := range []*tally{a, b, c} {
		if res.FirstError == "" {
			res.FirstError = t.firstErr
		}
	}
	return res, nil
}

// fleetLibs builds one library path per replica of f; in a fleet each
// sends its peer fills to the next replica, over its replica's ring
// client.
func fleetLibs(f *fleet) []*lib {
	if len(f.clusters) == 0 {
		return []*lib{newLib()}
	}
	libs := make([]*lib, len(f.clusters))
	for r, cl := range f.clusters {
		libs[r] = newLib()
		libs[r].ring, libs[r].peer = cl, f.urls[(r+1)%len(f.urls)]
	}
	return libs
}

// tierBy reports, for a stream index, the tier at which the handler
// path (b) answered it. Each round replays (b) before (c), so the
// library answers every index the way the server just did, shed, peer
// filled or solved, and the layer rows follow the server's work.
func tierBy(ts []*tally) func(i int) string {
	return func(i int) string {
		for _, t := range ts {
			if o, ok := t.outs[i]; ok {
				return o.Tier
			}
		}
		return ""
	}
}

// disagree counts the stream indices answered on both paths whose
// outcomes differ.
func disagree(x, y map[int]outcome) int {
	bad := 0
	for i, yo := range y {
		if xo, ok := x[i]; ok && !agree(xo, yo) {
			bad++
		}
	}
	return bad
}

// mergeSpans concatenates the clients' spans of the replayed requests,
// renumbering IDs; warm-up requests (negative indices) are dropped.
func mergeSpans(recs []*recorder) []span {
	var out []span
	for _, r := range recs {
		first := 0
		for first < len(r.spans) && r.spans[first].Req < 0 {
			first++
		}
		off := len(out) - first
		for _, sp := range r.spans[first:] {
			sp.ID += off
			if sp.Parent >= 0 {
				sp.Parent += off
			}
			out = append(out, sp)
		}
	}
	return out
}

// selfTimes folds spans into per-request self times by layer: a span's
// duration minus the part its children cover.
func selfTimes(spans []span) (byLayer map[string][]time.Duration, total map[string]time.Duration) {
	child := make([]int64, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	type key struct {
		req  int
		name string
	}
	perReq := map[key]time.Duration{}
	for _, sp := range spans {
		perReq[key{sp.Req, sp.Name}] += time.Duration(sp.End - sp.Start - child[sp.ID])
	}
	byLayer = map[string][]time.Duration{}
	total = map[string]time.Duration{}
	for k, d := range perReq {
		byLayer[k.name] = append(byLayer[k.name], d)
		total[k.name] += d
	}
	return byLayer, total
}

// reconcile is the layers table's closing rows, in µs, over Requests
// replayed requests.
type reconcile struct {
	Requests   int     `json:"requests"`
	LoopbackUS float64 `json:"http_request_mean_us"`
	HandlerUS  float64 `json:"serve_handler_mean_us"`
	LayersUS   float64 `json:"sum_layer_means_us"`
	OtherUS    float64 `json:"serve_other_us"`
	ResidualUS float64 `json:"http_residual_us"`
	// OtherShare is |OtherUS| / LoopbackUS; Unexplained flags a share
	// above maxOtherShare.
	OtherShare  float64 `json:"other_share"`
	Unexplained bool    `json:"unexplained"`
}

// reconcileKeep is the per-path latency quantile above which a request
// leaves the reconciliation: a GC pause or a preemption lands on one
// path's copy of a request and not the others', and over a few
// thousand requests a handful of them move a mean by more than the
// residue the reconciliation looks for.
const reconcileKeep = 0.99

// reconcileMeans compares the three paths on the requests all of them
// answered, alike where same is set, and none of them served in its
// slowest 1%: loopback (a), handler (b) and the library's root spans
// (c), whose self times sum to the root's duration.
func reconcileMeans(a, b, c map[int]time.Duration, same func(i int) bool) reconcile {
	var common []int
	for i := range c {
		if _, ok := a[i]; ok {
			if _, ok := b[i]; ok && (same == nil || same(i)) {
				common = append(common, i)
			}
		}
	}
	cutoff := func(m map[int]time.Duration) time.Duration {
		ds := make([]time.Duration, 0, len(common))
		for _, i := range common {
			ds = append(ds, m[i])
		}
		sort.Slice(ds, func(x, y int) bool { return ds[x] < ds[y] })
		return ds[max(int(math.Ceil(reconcileKeep*float64(len(ds))))-1, 0)]
	}
	var rc reconcile
	if len(common) == 0 {
		return rc
	}
	ca, cb, cc := cutoff(a), cutoff(b), cutoff(c)
	var sa, sb, sc time.Duration
	for _, i := range common {
		if a[i] <= ca && b[i] <= cb && c[i] <= cc {
			rc.Requests++
			sa, sb, sc = sa+a[i], sb+b[i], sc+c[i]
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(rc.Requests) / float64(time.Microsecond) }
	rc.LoopbackUS, rc.HandlerUS, rc.LayersUS = us(sa), us(sb), us(sc)
	rc.OtherUS = rc.HandlerUS - rc.LayersUS
	rc.ResidualUS = rc.LoopbackUS - rc.HandlerUS
	rc.OtherShare = math.Abs(rc.OtherUS) / rc.LoopbackUS
	rc.Unexplained = rc.OtherShare > maxOtherShare
	return rc
}

// layerMetrics derives the per-layer table from the three replays.
func layerMetrics(a, b *tally, st serverStats, spans []span) (map[string]metric, reconcile) {
	m := map[string]metric{}
	timing := func(name string, ds []time.Duration) {
		d := distUS(ds)
		m[name+".mean"] = metric{Value: d.mean, Unit: "us", N: len(ds)}
		m[name+".p50"] = metric{Value: d.p50, Unit: "us", N: len(ds)}
		m[name+".p99"] = metric{Value: d.p99, Unit: "us", N: len(ds)}
	}
	single := func(name, unit string, v float64, n int) { m[name] = metric{Value: v, Unit: unit, N: n} }

	byLayer, total := selfTimes(spans)
	for _, name := range layerSpans {
		timing(name+"_us", byLayer[name])
	}
	timing("admission.queue_wait_us", a.queueWait)
	timing("serve.handler_us", okLatencies(b.lat))
	timing("http.request_us", okLatencies(a.lat))

	solveTotal := total[spanBuild] + total[spanOptimal] + total[spanSimulate]
	single("wire.resp_bytes", "bytes", ratio(float64(a.respBytes), float64(a.ok)), a.ok)
	single("schedcache.hit_ratio", "ratio", st.hitRatio(), int(st.cacheHits+st.cacheMisses+st.cacheShared))
	single("core.simulate_share", "ratio", ratio(float64(total[spanSimulate]), float64(solveTotal)), len(byLayer[spanSimulate]))
	single("session.hit_ratio", "ratio", ratio(float64(st.sessionHits), float64(st.sessionHits+st.sessionMisses)), int(st.sessionHits+st.sessionMisses))
	single("session.memo_hit_ratio", "ratio", ratio(float64(a.memoHits), float64(a.memoHits+a.memoMisses)), int(a.memoHits+a.memoMisses))
	single("session.cells_reused_ratio", "ratio", ratio(float64(a.cellsReused), float64(a.cellsReused+a.cellsInv)), int(a.cellsReused+a.cellsInv))
	single("anytime.expanded_per_s", "1/s", ratio(float64(a.anyExpanded), float64(a.anyWallUS)/1e6), a.anyN)
	single("anytime.complete_share", "ratio", ratio(float64(a.anyComplete), float64(a.anyN)), a.anyN)
	single("anytime.prune_ratio", "ratio", ratio(float64(a.anyPruned), float64(a.anyPruned+a.anyExpanded)), a.anyN)
	single("anytime.seed_gain", "ratio", median(a.seedGain), len(a.seedGain))
	single("admission.shed_share", "ratio", ratio(float64(st.shed), float64(st.requests)), int(st.requests))
	single("cluster.peer_share", "ratio", ratio(float64(a.tiers[wire.TierPeer]), float64(a.ok)), a.ok)
	extra := 0.0
	if peer, solved := a.byTier[wire.TierPeer], a.byTier[wire.TierSolve]; len(peer) > 0 && len(solved) > 0 {
		extra = distUS(peer).p50 - distUS(solved).p50
	}
	single("cluster.peer_extra_us", "us", extra, len(a.byTier[wire.TierPeer]))
	single("cluster.duplicate_solves", "count", float64(int64(st.solves)-int64(len(a.keys))), int(st.solves))

	roots := map[int]time.Duration{}
	for _, sp := range spans {
		if sp.Parent < 0 {
			roots[sp.Req] = time.Duration(sp.End - sp.Start)
		}
	}
	// (c) answers every index at the tier (b) did, but (a) runs on a
	// server of its own, whose breaker may shed a request (b) searched:
	// such a request would put a search's length into the residual.
	sameTier := func(i int) bool { return a.outs[i].Tier == b.outs[i].Tier }
	rc := reconcileMeans(a.byIdx, b.byIdx, roots, sameTier)
	single("serve.other_us", "us", rc.OtherUS, rc.Requests)
	single("http.residual_us", "us", rc.ResidualUS, rc.Requests)
	return m, rc
}

func okLatencies(lat []time.Duration) []time.Duration {
	out := make([]time.Duration, 0, len(lat))
	for _, d := range lat {
		if d != failedLatency {
			out = append(out, d)
		}
	}
	return out
}

// layerNames lists every per-layer metric in report order.
func layerNames() []string {
	var names []string
	for _, name := range layerSpans {
		names = append(names, name+"_us.mean", name+"_us.p50", name+"_us.p99")
	}
	for _, name := range []string{"admission.queue_wait_us", "serve.handler_us", "http.request_us"} {
		names = append(names, name+".mean", name+".p50", name+".p99")
	}
	return append(names,
		"wire.resp_bytes", "schedcache.hit_ratio", "core.simulate_share",
		"session.hit_ratio", "session.memo_hit_ratio", "session.cells_reused_ratio",
		"anytime.expanded_per_s", "anytime.complete_share", "anytime.prune_ratio", "anytime.seed_gain",
		"admission.shed_share", "cluster.peer_share", "cluster.peer_extra_us", "cluster.duplicate_solves",
		"serve.other_us", "http.residual_us")
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
