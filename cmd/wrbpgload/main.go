// Command wrbpgload is the chaos/soak load harness for wrbpgd: it
// replays a mixed schedule/sweep/patch workload against a live daemon
// (-target) or an in-process server (-inproc), in closed loop (capacity
// measurement) or open loop (overload probing), and writes a JSON
// report of status mix, shed rate and latency percentiles.
//
// The two-phase overload run (docs/ROBUSTNESS.md §chaos):
//
//	wrbpgload -inproc -workers 4 -probe 3s -overload 4 -duration 10s \
//	          -assert-no-5xx
//
// measures capacity closed-loop first, then offers 4× that rate open
// loop: the acceptance criterion is nothing but 200s and 429s.
//
// With -inproc, -fault-every N injects a panic into every Nth solver
// work item via the internal fault hook — the chaos half: injected
// crashes must surface as degraded 200s (fallback) or per-item errors,
// never 5xx.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"wrbpg/internal/loadgen"
	"wrbpg/internal/obs/slo"
	"wrbpg/internal/par"
	"wrbpg/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wrbpgload:", err)
		os.Exit(1)
	}
}

// report is the JSON document written to -out.
type report struct {
	Target      string      `json:"target"`
	Mix         loadgen.Mix `json:"mix"`
	TimeoutMS   int64       `json:"timeout_ms"`
	FaultEvery  int         `json:"fault_every,omitempty"`
	FaultsFired int64       `json:"faults_fired,omitempty"`
	// Capacity is the closed-loop probe result when -overload is used.
	Capacity *loadgen.Result `json:"capacity,omitempty"`
	// Run is the main measurement phase.
	Run *loadgen.Result `json:"run"`
	// Cluster carries the fleet accounting for -inproc-replicas runs.
	Cluster     *clusterReport `json:"cluster,omitempty"`
	GeneratedAt string         `json:"generated_at"`
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("wrbpgload", flag.ContinueOnError)
	var (
		target      = fs.String("target", "", "comma-separated base URLs of running wrbpgd replicas, load-balanced round-robin (mutually exclusive with -inproc)")
		inproc      = fs.Bool("inproc", false, "serve an in-process wrbpg server on a loopback port (enables -fault-every)")
		replicas    = fs.Int("inproc-replicas", 0, "boot an N-replica in-process cluster (consistent-hash ring, peer fill) and load it round-robin")
		killSoak    = fs.Duration("kill-soak", 0, "after the main run, soak this long while one replica drains and dies mid-soak (-inproc-replicas only)")
		hotBudgets  = fs.Int("hot-budgets", 0, "draw schedule budgets from a fixed roster of this size per shape, bounding the distinct-key population (0 = unbounded)")
		maxDup      = fs.Int64("max-duplicates", -1, "exit nonzero if fleet duplicate cold solves exceed this (-inproc-replicas only, -1 = no bound)")
		duration    = fs.Duration("duration", 10*time.Second, "main measurement duration")
		workers     = fs.Int("workers", 4, "closed-loop concurrent requesters (ignored when -rate or -overload set)")
		rate        = fs.Float64("rate", 0, "open-loop offered rate in req/s (overrides -workers)")
		maxPending  = fs.Int("max-pending", 0, "open-loop in-flight cap (0 = derived)")
		timeout     = fs.Duration("timeout", 500*time.Millisecond, "per-request solve deadline sent as timeout_ms")
		retries     = fs.Int("retries", 0, "client retries on 429/503 (honors Retry-After)")
		seed        = fs.Int64("seed", 1, "PRNG seed for shapes and budgets")
		mixFlag     = fs.String("mix", "6,2,2", "traffic weights schedule,sweep,patch")
		faultEvery  = fs.Int("fault-every", 0, "inject a panic into every Nth solver work item (-inproc only, 0 = off)")
		maxInflight = fs.Int("max-inflight", 0, "-inproc server max concurrent solves (0 = default)")
		maxQueue    = fs.Int("max-queue", 0, "-inproc server admission queue depth (0 = default)")
		overload    = fs.Float64("overload", 0, "measure capacity closed-loop, then offer this multiple of it open-loop")
		probe       = fs.Duration("probe", 3*time.Second, "closed-loop capacity probe duration for -overload")
		outPath     = fs.String("out", "", "write the JSON report here")
		assertNo5xx = fs.Bool("assert-no-5xx", false, "exit nonzero if any response was a 5xx")
		maxP99      = fs.Duration("max-p99", 0, "exit nonzero if the run's p99 exceeds this (0 = no bound)")
		sloP99      = fs.Duration("slo-p99", 0, "latency SLO gate: exit nonzero if the run's p99 exceeds this target (0 = no gate)")
		sloAvail    = fs.Float64("slo-availability", 0, "availability SLO gate: exit nonzero if sheds+5xx burned more than the error budget for this target fraction, e.g. 0.999 (0 = no gate)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	modes := 0
	for _, on := range []bool{*target != "", *inproc, *replicas > 0} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return errors.New("exactly one of -target, -inproc or -inproc-replicas is required")
	}
	if *faultEvery > 0 && !*inproc {
		return errors.New("-fault-every needs -inproc (the fault hook is process-local)")
	}
	if (*killSoak > 0 || *maxDup >= 0) && *replicas == 0 {
		return errors.New("-kill-soak and -max-duplicates need -inproc-replicas")
	}
	if *replicas == 1 {
		return errors.New("-inproc-replicas needs at least 2 (use -inproc for a single server)")
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}

	var targets []string
	for _, t := range strings.Split(*target, ",") {
		if t = strings.TrimSpace(t); t != "" {
			targets = append(targets, t)
		}
	}
	var flt *fleet
	if *replicas > 1 {
		var err error
		flt, err = startFleet(*replicas, serve.Options{MaxInflight: *maxInflight, MaxQueue: *maxQueue}, uint64(*seed))
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		defer flt.stop()
		targets = flt.urls
		fmt.Fprintf(stdout, "wrbpgload inproc fleet: %s\n", strings.Join(targets, ", "))
	}

	var base string
	var faults atomic.Int64
	if *inproc {
		srv := serve.New(serve.Options{MaxInflight: *maxInflight, MaxQueue: *maxQueue})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go httpSrv.Serve(ln) //nolint:errcheck // torn down with the process
		defer httpSrv.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(stdout, "wrbpgload inproc server on %s\n", base)

		if *faultEvery > 0 {
			n := int64(*faultEvery)
			var calls atomic.Int64
			restore := par.SetFaultHook(func(i int) {
				if calls.Add(1)%n == 0 {
					faults.Add(1)
					panic(fmt.Sprintf("wrbpgload: injected fault (item %d)", i))
				}
			})
			defer restore()
		}
	}

	if base != "" {
		targets = []string{base}
	}
	cfg := loadgen.Config{
		Mix:        mix,
		Duration:   *duration,
		Timeout:    *timeout,
		MaxRetries: *retries,
		MaxPending: *maxPending,
		Seed:       *seed,
		HotBudgets: *hotBudgets,
	}
	if len(targets) == 1 {
		cfg.BaseURL = targets[0]
	} else {
		cfg.BaseURLs = targets
		cfg.ProbeInterval = 50 * time.Millisecond
	}
	rep := &report{Target: strings.Join(targets, ","), Mix: mix, TimeoutMS: timeout.Milliseconds(), FaultEvery: *faultEvery}
	ctx := context.Background()

	switch {
	case *overload > 0:
		// Phase 1: capacity, closed loop.
		pcfg := cfg
		pcfg.Workers, pcfg.Duration = *workers, *probe
		capRes, err := loadgen.Run(ctx, pcfg)
		if err != nil {
			return fmt.Errorf("capacity probe: %w", err)
		}
		rep.Capacity = capRes
		offered := capRes.ThroughputRPS * *overload
		if offered < 1 {
			offered = 1
		}
		fmt.Fprintf(stdout, "capacity %.0f rps (p99 %v); offering %.0f rps (%gx)\n",
			capRes.ThroughputRPS, time.Duration(capRes.P99US)*time.Microsecond, offered, *overload)
		// Phase 2: overload, open loop.
		cfg.Rate = offered
	case *rate > 0:
		cfg.Rate = *rate
	default:
		cfg.Workers = *workers
	}

	res, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return err
	}
	rep.Run = res
	rep.FaultsFired = faults.Load()

	if flt != nil {
		// Fleet accounting is snapshotted before the kill soak so the
		// duplicate metric covers exactly the main phase's traffic.
		cr := &clusterReport{
			Replicas:     len(flt.urls),
			FleetSolves:  flt.solves(),
			DistinctKeys: res.DistinctScheduleKeys,
		}
		cr.DuplicateSolves = int64(cr.FleetSolves) - int64(cr.DistinctKeys)
		cr.PeerRequests, cr.PeerFill = flt.peerTraffic()
		rep.Cluster = cr
		fmt.Fprintf(stdout, "fleet: solves=%d distinct_keys=%d duplicates=%d peer_requests=%d fill=%v\n",
			cr.FleetSolves, cr.DistinctKeys, cr.DuplicateSolves, cr.PeerRequests, cr.PeerFill)

		if *killSoak > 0 {
			scfg := cfg
			scfg.Duration = *killSoak
			type soakOut struct {
				res *loadgen.Result
				err error
			}
			ch := make(chan soakOut, 1)
			go func() {
				r, e := loadgen.Run(ctx, scfg)
				ch <- soakOut{r, e}
			}()
			// Kill a quarter of the way in: in-flight requests, ring
			// rebalance and re-routing all happen under live traffic.
			time.Sleep(*killSoak / 4)
			cr.KilledReplica = flt.killOne(stdout)
			so := <-ch
			if so.err != nil {
				return fmt.Errorf("kill soak: %w", so.err)
			}
			cr.KillSoak = so.res
			fmt.Fprintf(stdout, "kill soak: sent=%d ok=%d shed429=%d 5xx=%d transport=%d\n",
				so.res.Sent, so.res.OK, so.res.Shed429, so.res.ServerErr, so.res.TransportErr)
		}
	}
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)

	fmt.Fprintf(stdout,
		"%s: sent=%d ok=%d shed429=%d degraded=%d 5xx=%d 4xx=%d blown=%d dropped=%d faults=%d p50=%v p99=%v %.0f rps\n",
		res.Mode, res.Sent, res.OK, res.Shed429, res.DegradedShed, res.ServerErr,
		res.ClientErr, res.DeadlineBlown, res.Dropped, rep.FaultsFired,
		time.Duration(res.P50US)*time.Microsecond, time.Duration(res.P99US)*time.Microsecond,
		res.ThroughputRPS)

	if *outPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", *outPath)
	}

	// Assertions last, so the report is on disk even when they fail.
	if *assertNo5xx && res.ServerErr > 0 {
		return fmt.Errorf("%d server errors (5xx) — overload must shed, not fail", res.ServerErr)
	}
	if cr := rep.Cluster; cr != nil {
		if *assertNo5xx && cr.KillSoak != nil && cr.KillSoak.ServerErr > 0 {
			return fmt.Errorf("%d server errors (5xx) during the kill soak — losing a replica must cost capacity, not correctness", cr.KillSoak.ServerErr)
		}
		if *maxDup >= 0 && cr.DuplicateSolves > *maxDup {
			return fmt.Errorf("%d duplicate cold solves across the fleet exceed the -max-duplicates bound %d (cross-replica singleflight should dedup)", cr.DuplicateSolves, *maxDup)
		}
	}
	if *assertNo5xx && res.DeadlineBlown > 0 {
		return fmt.Errorf("%d deadline-blown 200s — admission should have shed them", res.DeadlineBlown)
	}
	if *maxP99 > 0 && time.Duration(res.P99US)*time.Microsecond > *maxP99 {
		return fmt.Errorf("p99 %v exceeds bound %v",
			time.Duration(res.P99US)*time.Microsecond, *maxP99)
	}
	// SLO gates: the identical objective arithmetic wrbpgd serves live
	// on GET /v1/slo, applied to the offline run — burn rate above 1.0
	// means the run spent more than its whole error budget.
	if *sloAvail > 0 {
		if *sloAvail >= 1 {
			return fmt.Errorf("-slo-availability %v: want a target fraction in (0,1), e.g. 0.999", *sloAvail)
		}
		total := uint64(res.OK + res.Shed429 + res.ClientErr + res.ServerErr)
		bad := uint64(res.Shed429 + res.ServerErr)
		if burn := slo.BurnRate(total, bad, 1-*sloAvail); burn > 1 {
			return fmt.Errorf("availability SLO violated: %d/%d bad responses burn %.2fx the error budget for target %v",
				bad, total, burn, *sloAvail)
		}
	}
	if *sloP99 > 0 && time.Duration(res.P99US)*time.Microsecond > *sloP99 {
		return fmt.Errorf("latency SLO violated: p99 %v exceeds target %v",
			time.Duration(res.P99US)*time.Microsecond, *sloP99)
	}
	return nil
}

// parseMix reads "schedule,sweep,patch" weights.
func parseMix(s string) (loadgen.Mix, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return loadgen.Mix{}, fmt.Errorf("mix %q: want three comma-separated weights (schedule,sweep,patch)", s)
	}
	var w [3]int
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return loadgen.Mix{}, fmt.Errorf("mix %q: bad weight %q", s, p)
		}
		w[i] = n
	}
	if w[0]+w[1]+w[2] == 0 {
		return loadgen.Mix{}, fmt.Errorf("mix %q: all weights zero", s)
	}
	return loadgen.Mix{Schedule: w[0], Sweep: w[1], Patch: w[2]}, nil
}
