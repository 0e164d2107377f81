// Command wrbpgd is the scheduling daemon: an HTTP/JSON service over
// the hardened solve facade with a content-addressed schedule cache.
// See docs/SERVICE.md for the API and docs/OBSERVABILITY.md for the
// metrics, tracing and profiling surface.
//
// The daemon prints "wrbpgd listening on ADDR" once the listener is
// bound (so -addr :0 is usable from scripts and tests), and drains
// in-flight solves on SIGINT/SIGTERM before exiting. With -debug-addr
// a second listener serves /debug/pprof/* and /metrics; it prints
// "wrbpgd debug listening on ADDR" when bound.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wrbpg/internal/cluster"
	"wrbpg/internal/guard"
	"wrbpg/internal/obs"
	"wrbpg/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wrbpgd:", err)
		os.Exit(1)
	}
}

// run is the testable daemon body: flag parsing, listener setup, and
// the serve/shutdown lifecycle.
func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("wrbpgd", flag.ContinueOnError)
	var (
		addr           = fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for a random port)")
		debugAddr      = fs.String("debug-addr", "", "optional debug listen address serving /debug/pprof/* and /metrics (keep it loopback)")
		cacheShards    = fs.Int("cache-shards", 0, "schedule cache shard count (0 = default)")
		cachePerShard  = fs.Int("cache-per-shard", 0, "schedule cache entries per shard (0 = default)")
		maxInflight    = fs.Int("max-inflight", 0, "max concurrent solver invocations (0 = default)")
		defaultTimeout = fs.Duration("default-timeout", 0, "per-solve deadline when the request names none (0 = default)")
		maxTimeout     = fs.Duration("max-timeout", 0, "upper clamp on request-supplied solve deadlines (0 = default)")
		maxMemo        = fs.Int("max-memo", 0, "memo-entry ceiling per solve, 0 = unlimited")
		maxStates      = fs.Int("max-states", 0, "search-state ceiling per solve, 0 = unlimited")
		maxSweep       = fs.Int("max-sweep-budgets", 0, "max budgets per sweep request (0 = default)")
		sweepSessions  = fs.Int("sweep-sessions", 0, "warm solver sessions kept for /v1/schedule/sweep (0 = default)")
		traceBuffer    = fs.Int("trace-buffer", 0, "completed request traces kept for /v1/trace/{id} (0 = default)")
		maxQueue       = fs.Int("max-queue", 0, "admission queue depth behind the solver slots (0 = default 8×max-inflight, negative = no queue)")
		brkWindow      = fs.Int("breaker-window", 0, "fallback-storm breaker sliding window size (0 = default, negative = disabled)")
		brkThreshold   = fs.Float64("breaker-threshold", 0, "fallback rate that trips the breaker (0 = default)")
		brkMinSamples  = fs.Int("breaker-min-samples", 0, "window samples required before the breaker may trip (0 = default)")
		brkCooldown    = fs.Duration("breaker-cooldown", 0, "open-state cooldown before a half-open probe (0 = default)")
		readTimeout    = fs.Duration("read-timeout", 30*time.Second, "max duration for reading an entire request, body included")
		writeTimeout   = fs.Duration("write-timeout", 0, "max duration for writing a response; 0 derives max-timeout + 30s (must exceed the longest solve deadline)")
		idleTimeout    = fs.Duration("idle-timeout", 120*time.Second, "keep-alive idle connection timeout")
		drainTimeout   = fs.Duration("drain-timeout", 35*time.Second, "grace period for in-flight solves on shutdown")
		drainDelay     = fs.Duration("drain-delay", 0, "pause between announcing drain on /readyz and closing the listener, so load balancers stop routing first")
		peers          = fs.String("peers", "", "comma-separated base URLs of the other replicas (enables cluster peer routing; requires -cluster-self)")
		clusterSelf    = fs.String("cluster-self", "", "this replica's advertised base URL on the ring, e.g. http://10.0.0.3:8080")
		clusterSeed    = fs.Uint64("cluster-seed", 0, "ring hash seed; must match across the fleet")
		peerVNodes     = fs.Int("peer-vnodes", 0, "virtual nodes per ring member (0 = default; must match across the fleet)")
		peerTimeout    = fs.Duration("peer-timeout", 0, "peer-fill round-trip bound (0 = default 250ms)")
		peerHealth     = fs.Duration("peer-health-interval", 0, "peer /readyz probe period (0 = default 1s)")
		sloLatencyP99  = fs.Duration("slo-latency-p99", 0, "latency SLO target: p99 of API requests must finish within this (0 = default 250ms)")
		sloAvail       = fs.Float64("slo-availability", 0, "availability SLO target fraction of requests not shed/5xx (0 = default 0.999)")
	)
	logFlags := obs.AddLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		return err
	}

	// Cluster membership: -peers turns this replica into a ring member
	// that forwards cold solves for keys it does not own to their owner
	// (docs/CLUSTER.md). Peer routing is strictly additive — a replica
	// with an empty peer list behaves exactly like the single-node
	// daemon.
	var cl *cluster.Cluster
	if *peers != "" || *clusterSelf != "" {
		if *clusterSelf == "" {
			return errors.New("-peers requires -cluster-self (the ring needs this replica's advertised URL)")
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		cl, err = cluster.New(cluster.Config{
			Self:           *clusterSelf,
			Peers:          peerList,
			VNodes:         *peerVNodes,
			Seed:           *clusterSeed,
			PeerTimeout:    *peerTimeout,
			HealthInterval: *peerHealth,
		})
		if err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
	}

	srv := serve.New(serve.Options{
		Cluster:        cl,
		Logger:         logger,
		CacheShards:    *cacheShards,
		CachePerShard:  *cachePerShard,
		MaxInflight:    *maxInflight,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		Limits: guard.Limits{
			MaxMemoEntries: *maxMemo,
			MaxStates:      *maxStates,
		},
		MaxSweepBudgets:   *maxSweep,
		SweepSessions:     *sweepSessions,
		TraceBuffer:       *traceBuffer,
		MaxQueue:          *maxQueue,
		BreakerWindow:     *brkWindow,
		BreakerThreshold:  *brkThreshold,
		BreakerMinSamples: *brkMinSamples,
		BreakerCooldown:   *brkCooldown,
		SLOLatencyP99:     *sloLatencyP99,
		SLOAvailability:   *sloAvail,
	})

	// The write timeout must outlast the slowest admitted solve (queue
	// wait + solve deadline + encoding), or the daemon would cut off
	// exactly the long-running answers it queued for.
	if *writeTimeout <= 0 {
		mt := *maxTimeout
		if mt <= 0 {
			mt = 30 * time.Second // serve.Options default
		}
		*writeTimeout = mt + 30*time.Second
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The bound address goes to stdout so callers that passed :0 can
	// read the real port; everything else logs to stderr.
	fmt.Fprintf(stdout, "wrbpgd listening on %s\n", ln.Addr())
	logger.Info("serving", "config", srv.String(), "addr", ln.Addr().String())

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	// The debug listener is separate so pprof and metrics scraping
	// never share the public port; it is torn down with the daemon.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		fmt.Fprintf(stdout, "wrbpgd debug listening on %s\n", dln.Addr())
		logger.Info("debug listener up", "addr", dln.Addr().String())
		debugSrv = &http.Server{
			Handler:           srv.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       *readTimeout,
			WriteTimeout:      *writeTimeout,
			IdleTimeout:       *idleTimeout,
		}
		go func() {
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The health loop ejects unreachable peers from the ring and
	// re-admits them when /readyz answers again; it dies with the
	// signal context on shutdown.
	if cl != nil {
		cl.Start(ctx)
		logger.Info("cluster", "members", len(cl.Health().Peers)+1, "self", cl.Self())
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	// Announce the drain on /readyz first: load balancers see 503
	// "draining" and stop routing while the listener is still accepting,
	// so no request hits a closed port. The delay gives them a health-
	// check interval to notice before connections start closing.
	srv.BeginDrain()
	if *drainDelay > 0 {
		logger.Info("shutdown: announced on /readyz, delaying listener close", "delay", *drainDelay)
		time.Sleep(*drainDelay)
	}
	logger.Info("shutdown: draining in-flight solves", "grace", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if debugSrv != nil {
		debugSrv.Shutdown(dctx) //nolint:errcheck // best-effort; the daemon is exiting
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("exit", "cache", slog.AnyValue(srv.Stats().Cache))
	return nil
}
