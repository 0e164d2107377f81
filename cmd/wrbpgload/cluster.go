// In-process replica fleet for cluster benchmarking: -inproc-replicas N
// boots N full wrbpg servers on loopback ports, wires them into one
// consistent-hash ring (every replica lists the others as peers), and
// points the load generator at all of them round-robin — the same
// topology a real deployment reaches with N wrbpgd processes behind a
// balancer, compressed into one process so CI can run it.
//
// The fleet exposes the two measurements cluster-check gates on:
//
//   - duplicate cold solves: Σ over replicas of solver invocations on
//     the /v1/schedule path, minus the distinct schedule keys the
//     generator saw answered. With cross-replica singleflight this is
//     ~0 — each key is solved once fleet-wide, wherever it landed.
//   - kill-one soak: mid-run one replica drains (503 on /readyz) and
//     closes; the prober and the peer health loops route around it and
//     the acceptance bar is zero 5xx.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"wrbpg/internal/cluster"
	"wrbpg/internal/loadgen"
	"wrbpg/internal/serve"
)

// clusterReport is the cluster section of the wrbpgload JSON report.
type clusterReport struct {
	Replicas int `json:"replicas"`
	// FleetSolves is Σ replica /v1/schedule solver invocations during
	// the main phase; DuplicateSolves = FleetSolves − DistinctKeys.
	FleetSolves     uint64 `json:"fleet_solves"`
	DistinctKeys    int    `json:"distinct_schedule_keys"`
	DuplicateSolves int64  `json:"duplicate_solves"`
	// PeerRequests / PeerFill aggregate the replica-to-replica traffic:
	// fills by outcome (filled, degraded, shed, timeout, error).
	PeerRequests uint64            `json:"peer_requests"`
	PeerFill     map[string]uint64 `json:"peer_fill,omitempty"`
	// KillSoak is the post-kill measurement phase, when -kill-soak ran.
	KilledReplica string          `json:"killed_replica,omitempty"`
	KillSoak      *loadgen.Result `json:"kill_soak,omitempty"`
}

// fleet is the running in-process replica set.
type fleet struct {
	urls     []string
	servers  []*serve.Server
	https    []*http.Server
	clusters []*cluster.Cluster
	killed   int
	cancel   context.CancelFunc
}

// startFleet boots n replicas. Listeners are allocated first so every
// replica's ring can name all the others' real URLs; the ring seed and
// vnode count match fleet-wide (they must — ownership is computed
// independently on each replica).
func startFleet(n int, opts serve.Options, seed uint64) (*fleet, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{urls: urls, killed: -1, cancel: cancel}
	for i, self := range urls {
		peers := make([]string, 0, n-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cl, err := cluster.New(cluster.Config{
			Self:           self,
			Peers:          peers,
			Seed:           seed,
			HealthInterval: 100 * time.Millisecond,
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		o := opts
		o.Cluster = cl
		srv := serve.New(o)
		hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go hs.Serve(lns[i]) //nolint:errcheck // torn down with the fleet
		cl.Start(ctx)
		f.servers = append(f.servers, srv)
		f.https = append(f.https, hs)
		f.clusters = append(f.clusters, cl)
	}
	return f, nil
}

// killOne takes the last replica out the way a real deploy would: it
// announces the drain on /readyz, waits long enough for the load
// generator's prober and the peers' health loops to observe the 503
// and route around it, then closes the listener.
func (f *fleet) killOne(stdout io.Writer) string {
	i := len(f.urls) - 1
	f.servers[i].BeginDrain()
	time.Sleep(400 * time.Millisecond)
	f.https[i].Close() //nolint:errcheck
	f.killed = i
	fmt.Fprintf(stdout, "killed replica %s (drained, then closed)\n", f.urls[i])
	return f.urls[i]
}

// solves sums /v1/schedule solver invocations across the fleet.
func (f *fleet) solves() uint64 {
	var n uint64
	for _, s := range f.servers {
		n += s.Stats().Solves
	}
	return n
}

// peerTraffic aggregates the replica-to-replica counters.
func (f *fleet) peerTraffic() (reqs uint64, fill map[string]uint64) {
	fill = make(map[string]uint64)
	for _, s := range f.servers {
		st := s.Stats()
		reqs += st.PeerRequests
		for outcome, n := range st.PeerFill {
			fill[outcome] += n
		}
	}
	return reqs, fill
}

func (f *fleet) stop() {
	f.cancel()
	for _, hs := range f.https {
		hs.Close() //nolint:errcheck
	}
}
