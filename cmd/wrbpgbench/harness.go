package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"wrbpg/internal/cluster"
	"wrbpg/internal/serve"
)

// fleet is a set of in-process wrbpgd replicas on loopback. With more
// than one replica every server joins one consistent-hash ring, as
// wrbpgd -peers does; the benchmark owns the ring's health loops.
type fleet struct {
	urls     []string
	servers  []*serve.Server
	clusters []*cluster.Cluster
	https    []*http.Server
	done     []chan struct{}
	cancel   context.CancelFunc
}

// bootFleet starts n replicas with the server's default options.
func bootFleet(n int, ringSeed uint64) (*fleet, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{urls: urls, cancel: cancel}
	for i, self := range urls {
		var opts serve.Options
		if n > 1 {
			peers := append(append([]string(nil), urls[:i]...), urls[i+1:]...)
			cl, err := cluster.New(cluster.Config{Self: self, Peers: peers, Seed: ringSeed})
			if err != nil {
				for _, l := range lns[i:] {
					l.Close()
				}
				f.close()
				return nil, err
			}
			cl.Start(ctx)
			opts.Cluster = cl
			f.clusters = append(f.clusters, cl)
		}
		srv := serve.New(opts)
		hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		done := make(chan struct{})
		go func(ln net.Listener) {
			defer close(done)
			hs.Serve(ln) //nolint:errcheck // returns http.ErrServerClosed on close
		}(lns[i])
		f.servers = append(f.servers, srv)
		f.https = append(f.https, hs)
		f.done = append(f.done, done)
	}
	return f, nil
}

// close stops the health loops and the listeners and waits for every
// Serve loop to return.
func (f *fleet) close() {
	f.cancel()
	for i, hs := range f.https {
		hs.Close() //nolint:errcheck // closing listeners cannot fail usefully here
		<-f.done[i]
	}
}

// serverStats sums the counters the layer metrics read across replicas.
type serverStats struct {
	cacheHits, cacheMisses, cacheShared uint64
	sessionHits, sessionMisses          uint64
	solves, shed, requests              uint64
}

func (f *fleet) stats() serverStats {
	var s serverStats
	for _, srv := range f.servers {
		st := srv.Stats()
		s.cacheHits += st.Cache.Hits
		s.cacheMisses += st.Cache.Misses
		s.cacheShared += st.Cache.Shared
		s.sessionHits += st.SessionHits
		s.sessionMisses += st.SessionMisses
		s.solves += st.Solves
		s.requests += st.Requests + st.Sweeps + st.Patches
		for _, n := range st.Shed {
			s.shed += n
		}
	}
	return s
}

func (s serverStats) sub(o serverStats) serverStats {
	return serverStats{
		cacheHits: s.cacheHits - o.cacheHits, cacheMisses: s.cacheMisses - o.cacheMisses,
		cacheShared: s.cacheShared - o.cacheShared,
		sessionHits: s.sessionHits - o.sessionHits, sessionMisses: s.sessionMisses - o.sessionMisses,
		solves: s.solves - o.solves, shed: s.shed - o.shed, requests: s.requests - o.requests,
	}
}

func (s serverStats) hitRatio() float64 {
	return ratio(float64(s.cacheHits), float64(s.cacheHits+s.cacheMisses+s.cacheShared))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// newClient returns a keep-alive HTTP client sized for the benchmark's
// closed loop.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        16,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: time.Minute,
	}
}
