package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wrbpg/internal/cdag"
	"wrbpg/internal/serve/wire"
	"wrbpg/internal/solve"
)

// clients is the closed loop's width: one requester per CPU of the
// 2-CPU hosts the benchmark is sized for, each with at most one request
// in flight.
const clients = 2

// setupReps is how many times a run boots and warms its servers; the
// median is setup_s and the last set-up serves the timed phase. The
// first few set-ups of a fresh process run up to three times slower
// than the rest, so a run takes enough of them for the median to sit
// among the settled ones.
const setupReps = 31

// workload is one named traffic mix.
type workload struct {
	name     string
	why      string
	replicas int
	// replay is how many leading stream requests the traced run replays
	// and the correctness gate re-answers through the library path.
	replay int
	// anytime marks a workload answered by the deadline-bound anytime
	// search, which may stop anywhere above the optimum: the gate checks
	// its answers against the baseline scheduler instead of replaying
	// them.
	anytime   bool
	newStream func(seed int64) (stream, error)
}

var workloads = []workload{
	{
		name: "hot-cache", replicas: 1, replay: 2000,
		why: "a fixed warmed key population, so every answer is a cache hit and decode, keying, probe and encode dominate",
		newStream: func(seed int64) (stream, error) {
			h, err := newHotStream(seed)
			if err != nil {
				return nil, err
			}
			return h, nil
		},
	},
	{
		name: "cold-solve", replicas: 1, replay: 2000,
		why: "a new key on every request, so build, the optimal DP and Simulate block every answer",
		newStream: func(seed int64) (stream, error) {
			c, err := newColdStream(seed, saltCold)
			if err != nil {
				return nil, err
			}
			return c, nil
		},
	},
	{
		name: "session-mix", replicas: 1, replay: 2000,
		why: "sweeps and patches on pooled warm sessions, so reads and writes of the memo tables meet",
		newStream: func(seed int64) (stream, error) {
			s, err := newSessionStream(seed)
			if err != nil {
				return nil, err
			}
			return s, nil
		},
	},
	{
		name: "cdag-anytime", replicas: 1, replay: 200, anytime: true,
		why: "fresh random graphs with a 30 ms search deadline, so the anytime tier answers, and while its searches overrun the deadline the fallback-storm breaker sheds to the baseline",
		newStream: func(seed int64) (stream, error) {
			c, err := newCDAGStream(seed)
			if err != nil {
				return nil, err
			}
			return c, nil
		},
	},
	{
		name: "fleet-3", replicas: 3, replay: 2000,
		why: "cold-solve keys round-robin over a 3-replica ring, so about 2/3 of misses take the peer hop",
		newStream: func(seed int64) (stream, error) {
			c, err := newColdStream(seed, saltFleet)
			if err != nil {
				return nil, err
			}
			return c, nil
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// settings are one invocation's run parameters.
type settings struct {
	seed    int64
	seconds int
	quick   bool // smoke mode: 1 s, short replays
}

func (s settings) replay(w workload) int {
	if s.quick {
		return w.replay / 20
	}
	return w.replay
}

// caller answers request i on behalf of client c: over loopback HTTP,
// through the in-process handler, or through the library path. lat
// covers the answer only, not building the transport's request.
type caller func(c, i int, req request) (status int, body []byte, lat time.Duration, err error)

// pick spreads stream index i (negative for warm-up) round-robin over
// n replicas.
func pick(i, n int) int { return ((i % n) + n) % n }

func httpCaller(cl *http.Client, urls []string) caller {
	return func(_, i int, req request) (int, []byte, time.Duration, error) {
		url := urls[pick(i, len(urls))] + req.Path
		t0 := time.Now()
		resp, err := cl.Post(url, "application/json", bytes.NewReader(req.Body))
		if err != nil {
			return 0, nil, time.Since(t0), err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, time.Since(t0), err
	}
}

func handlerCaller(hs []http.Handler) caller {
	return func(_, i int, req request) (int, []byte, time.Duration, error) {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, req.Path, bytes.NewReader(req.Body))
		r.Header.Set("Content-Type", "application/json")
		t0 := time.Now()
		hs[pick(i, len(hs))].ServeHTTP(rec, r)
		return rec.Code, rec.Body.Bytes(), time.Since(t0), nil
	}
}

// libCaller answers through the library path. tierOf, when set, names
// the tier at which the server answered stream index i, so the library
// answers that index as the server did.
func libCaller(libs []*lib, recs []*recorder, tierOf func(i int) string) caller {
	return func(c, i int, req request) (int, []byte, time.Duration, error) {
		var rec *recorder
		if recs != nil {
			rec = recs[c]
			rec.req = i
		}
		tier := ""
		if tierOf != nil {
			tier = tierOf(i)
		}
		t0 := time.Now()
		status, body := libs[pick(i, len(libs))].do(req, rec, tier)
		return status, body, time.Since(t0), nil
	}
}

// drive runs the closed loop over stream indices [from, to): each
// client claims the next index and sends it once its previous answer
// arrived, until the indices or the deadline (when non-zero) run out.
// It returns the wall time from the first send to the last answer and
// the first index it did not send.
func drive(st stream, call caller, tallies []*tally, from, to int, until time.Time) (time.Duration, int) {
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if !until.IsZero() && !time.Now().Before(until) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= to {
					return
				}
				req := st.request(i)
				status, body, lat, err := call(c, i, req)
				tallies[c].record(i, req, status, body, err, lat)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start), min(int(next.Load()), to)
}

func newTallies(g *gate) []*tally {
	ts := make([]*tally, clients)
	for c := range ts {
		ts[c] = newTally(g)
	}
	return ts
}

func mergeTallies(ts []*tally) *tally {
	t := newTally(ts[0].g)
	for _, o := range ts {
		t.merge(o)
	}
	return t
}

// warm sends the stream's warm-up requests one at a time and checks
// them; for hot-cache it returns the warmed cost of every population
// key, which the timed answers must repeat.
func warm(st stream, call caller) ([]int64, error) {
	reqs := st.warmup()
	var want []int64
	if h, ok := st.(*hotStream); ok {
		want = make([]int64, h.population())
	}
	t := newTally(&gate{})
	for j, req := range reqs {
		status, body, _, err := call(0, -1-j, req)
		t.record(-1-j, req, status, body, err, 0)
		if t.errors+t.mismatches > 0 {
			return nil, fmt.Errorf("warm-up: %s", t.firstErr)
		}
		if req.Hot >= 0 {
			var rep reply
			if err := json.Unmarshal(body, &rep); err != nil {
				return nil, err
			}
			if rep.Source != solve.SourceOptimal.String() && (rep.Anytime == nil || !rep.Anytime.Complete) {
				return nil, fmt.Errorf("warm-up: hot key %d answered %s without completing, so it cannot be cached", req.Hot, rep.Source)
			}
			want[req.Hot] = rep.CostBits
		}
	}
	return want, nil
}

// setUp boots the servers and warms them over the client the timed
// phase then uses, so its connections are open.
func setUp(w workload, s settings, st stream) (*fleet, *http.Client, []int64, error) {
	f, err := bootFleet(w.replicas, uint64(s.seed))
	if err != nil {
		return nil, nil, nil, err
	}
	cl := newClient()
	want, err := warm(st, httpCaller(cl, f.urls))
	if err != nil {
		cl.CloseIdleConnections()
		f.close()
		return nil, nil, nil, err
	}
	return f, cl, want, nil
}

// settle waits up to a second for the goroutine count to fall back to
// n: a search that overran its deadline keeps running, and holding its
// state, after its request was answered.
func settle(n int) {
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > n && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runE2E is the untraced end-to-end run of one workload. Generating
// the inputs is the benchmark's work, not the server's, so it is not
// part of set-up.
func runE2E(w workload, s settings) (*result, error) {
	st, err := w.newStream(s.seed)
	if err != nil {
		return nil, err
	}
	reps := setupReps
	if s.quick {
		reps = 3
	}
	var setups []float64
	var (
		f    *fleet
		cl   *http.Client
		want []int64
	)
	for rep := 0; rep < reps; rep++ {
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		f, cl, want, err = setUp(w, s, st)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < reps-1 {
			cl.CloseIdleConnections()
			f.close()
		}
	}
	defer f.close()
	defer cl.CloseIdleConnections()

	length := time.Duration(s.seconds) * time.Second
	if s.quick {
		length = time.Second
	}
	ts := newTallies(&gate{hotWant: want, keep: s.replay(w)})
	stats0 := f.stats()
	goroutines := runtime.NumGoroutine()
	ph := phase{setups: setups}
	var refs []float64
	call := httpCaller(cl, f.urls)
	for k, next := 0, 0; ; k++ {
		ref, err := refSample()
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		refs = append(refs, float64(ref))
		if k == refSlices {
			break
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		var d time.Duration
		d, next = drive(st, call, ts, next, math.MaxInt, time.Now().Add(length/refSlices))
		ph.cpu += cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		ph.elapsed += d
		ph.mallocs += m1.Mallocs - m0.Mallocs
	}
	ph.slowdown = mean(refs) / float64(refNominal)
	settle(goroutines)
	// Objects in a sync.Pool survive one collection in its victim cache;
	// the second frees them, so the live heap leaves pooled buffers out.
	runtime.GC()
	runtime.GC()
	var mLive runtime.MemStats
	runtime.ReadMemStats(&mLive)
	ph.heap = mLive.HeapAlloc
	stats := f.stats().sub(stats0)
	t := mergeTallies(ts)

	res := &result{Workload: w.name, Why: w.why, Attempted: t.attempted}
	res.E2E = e2eMetrics(t, ph)
	res.Claims = claims(w, t, stats)
	mism, err := gateReplay(w, s, st, t)
	if err != nil {
		return nil, err
	}
	res.Mismatches = t.mismatches + mism
	res.Failed = t.errors + res.Mismatches
	res.FirstError = t.firstErr
	return res, nil
}

// phase is what the end-to-end run measured besides the answers: the
// timed slices' wall time, process CPU time and mallocs, the live heap
// after them, the set-up times in seconds, and the host's slowdown,
// the reference samples' mean thread CPU time over refNominal.
type phase struct {
	elapsed, cpu time.Duration
	mallocs      uint64
	heap         uint64
	setups       []float64
	slowdown     float64
}

// e2eMetrics derives the end-to-end table. Times and rates are reported
// at the reference speed: a time measured on a host running slowdown
// times slower than it is divided by slowdown, a rate multiplied. The
// measured values are kept beside them with a ".raw" suffix.
func e2eMetrics(t *tally, ph phase) map[string]metric {
	n := float64(t.attempted)
	m := map[string]metric{
		"error_share":    {Value: ratio(float64(t.errors), n), Unit: "share", N: t.attempted},
		"degraded_share": {Value: ratio(float64(t.degraded), float64(t.ok)), Unit: "share", N: t.ok},
		"excess_ratio":   {Value: ratio(t.ratioSum, float64(t.ratios)), Unit: "ratio", N: t.ratios},
		"allocs_per_req": {Value: ratio(float64(ph.mallocs), n), Unit: "count", N: t.attempted},
		"heap_live_mb":   {Value: float64(ph.heap) / (1 << 20), Unit: "MiB", N: 1},
		"host_slowdown":  {Value: ph.slowdown, Unit: "ratio", N: refSlices + 1},
	}
	timed := func(name string, raw float64, unit string, samples int, rate bool) {
		m[name+".raw"] = metric{Value: raw, Unit: unit, N: samples}
		v := raw / ph.slowdown
		if rate {
			v = raw * ph.slowdown
		}
		m[name] = metric{Value: v, Unit: unit, N: samples}
	}
	timed("rps", float64(t.ok)/ph.elapsed.Seconds(), "1/s", t.ok, true)
	timed("cpu_ms_per_req", ratio(float64(ph.cpu)/float64(time.Millisecond), n), "ms", t.attempted, false)
	timed("setup_s", median(ph.setups), "s", len(ph.setups), false)
	// A percentile that lands on a failed request is +∞, and p99 needs
	// minP99Samples: a missing value fails the run.
	if v, ok := t.hist.percentileUS(0.5); ok && !math.IsInf(v, 1) {
		timed("p50_us", v, "us", t.hist.n, false)
	}
	if v, ok := t.hist.percentileUS(0.99); ok && !math.IsInf(v, 1) {
		timed("p99_us", v, "us", t.hist.n, false)
	}
	return m
}

// claims checks that the workload did what it exists to do.
func claims(w workload, t *tally, st serverStats) []claim {
	hit := st.hitRatio()
	errShare := ratio(float64(t.errors), float64(t.attempted))
	degShare := ratio(float64(t.degraded), float64(t.ok))
	var cs []claim
	zero := func(name string, v float64) { cs = append(cs, atMost(name, v, 0)) }
	switch w.name {
	case "hot-cache":
		cs = append(cs, atLeast("schedcache.hit_ratio", hit, 0.99))
		zero("error_share", errShare)
		zero("degraded_share", degShare)
	case "cold-solve":
		cs = append(cs, atMost("schedcache.hit_ratio", hit, 0.01))
		zero("error_share", errShare)
		zero("degraded_share", degShare)
	case "session-mix":
		zero("error_share", errShare)
		zero("degraded_share", degShare)
	case "cdag-anytime":
		cs = append(cs, atMost("anytime.complete_share", ratio(float64(t.anyComplete), float64(t.anyN)), 0.5))
	case "fleet-3":
		cs = append(cs, atMost("schedcache.hit_ratio", hit, 0.01))
		cs = append(cs, atLeast("cluster.peer_share", ratio(float64(t.tiers[wire.TierPeer]), float64(t.ok)), 0.5))
	}
	return cs
}

// gateReplay re-answers the leading stream indices through the library
// path and counts the indices whose costs disagree with the served
// answers. Anytime answers are instead checked against the baseline
// scheduler's cost, which they may never exceed. The replay solves
// every index on one fresh library path, fleets included: a peer fill
// would reach a replica that served the timed run and answer from its
// cache, so the server would be compared with itself.
func gateReplay(w workload, s settings, st stream, t *tally) (int, error) {
	if w.anytime {
		return baselineGate(st, t)
	}
	call := libCaller([]*lib{newLib()}, nil, nil)
	if _, err := warm(st, call); err != nil {
		return 0, fmt.Errorf("library %w", err)
	}
	n := s.replay(w)
	if n > t.attempted {
		n = t.attempted
	}
	lt := newTallies(&gate{keep: n})
	drive(st, call, lt, 0, n, time.Time{})
	l := mergeTallies(lt)
	return l.errors + l.mismatches + disagree(t.outs, l.outs), nil
}

// baselineGate checks every kept anytime answer against the cost of
// solve.Degraded on the same graph and budget.
func baselineGate(st stream, t *tally) (int, error) {
	bad := 0
	for i, o := range t.outs {
		var wr wire.ScheduleRequest
		if err := decodeStrict(st.request(i).Body, &wr); err != nil {
			return 0, err
		}
		inst, err := wr.Instance()
		if err != nil {
			return 0, err
		}
		p, _, err := inst.Build()
		if err != nil {
			return 0, err
		}
		out, err := solve.Degraded(context.Background(), p, cdag.Weight(wr.BudgetBits))
		if err != nil {
			return 0, err
		}
		if o.Costs[0] > int64(out.Stats.Cost) {
			bad++
		}
	}
	return bad, nil
}
