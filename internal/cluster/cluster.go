// Cluster membership and peer health: the static fleet roster, the
// live ring derived from it, and the probe loop that ejects degraded
// peers and re-admits recovered ones.

package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wrbpg/internal/obs"
)

// Doer abstracts *http.Client for tests.
type Doer interface {
	Do(req *http.Request) (*http.Response, error)
}

// Config is the static membership description of one replica's view of
// the fleet. Every replica must be configured with the same total
// member set (its own Self plus the others as Peers), the same Seed
// and the same VNodes, or the replicas will disagree about key
// ownership — they would still answer correctly (peer fill degrades to
// local solves), but fleet-wide dedup would suffer.
type Config struct {
	// Self is this replica's advertised base URL, e.g.
	// "http://10.0.0.3:8080" — its identity on the ring. Required.
	Self string
	// Peers are the other replicas' base URLs (Self excluded; a listed
	// Self is ignored). An empty list is a single-member cluster: valid,
	// and every key is owned locally.
	Peers []string
	// VNodes is the virtual-node count per member (DefaultVNodes when
	// zero). Must match across the fleet.
	VNodes int
	// Seed perturbs the ring hash so distinct clusters never agree on
	// ownership by accident. Must match across the fleet.
	Seed uint64
	// PeerTimeout bounds one peer-fill round trip (default 250ms). The
	// serving layer additionally caps it to half the request's remaining
	// deadline, so a slow owner can never eat the budget the local
	// fallback solve needs.
	PeerTimeout time.Duration
	// HealthInterval is the probe-loop period (default 1s); each round
	// probes every peer's GET /readyz with a per-probe timeout of the
	// interval (capped at PeerTimeout below it).
	HealthInterval time.Duration
	// FailThreshold is how many consecutive failed probes eject a peer
	// from the ring (default 2 — one blip never re-rings the fleet);
	// a single successful probe re-admits it.
	FailThreshold int
	// Client overrides the HTTP client used for probes and peer fills
	// (tests); default is an http.Client with a PeerTimeout-scaled
	// timeout.
	Client Doer
}

// peerState tracks one peer's probe history.
type peerState struct {
	url     string
	healthy bool
	fails   int
}

// Cluster is one replica's live view of the fleet: the ring, the peer
// health table, and the fill/probe client. Create with New; Start the
// health loop; the serving layer routes through Route and fills
// through Fill.
type Cluster struct {
	self        string
	ring        *Ring
	hc          Doer
	peerTimeout time.Duration
	interval    time.Duration
	failsAfter  int

	mu    sync.Mutex
	peers map[string]*peerState

	ejections    atomic.Uint64
	readmissions atomic.Uint64
	fillErrors   atomic.Uint64
}

// New validates cfg and builds the cluster with every member on the
// ring (optimistic start: peers are presumed healthy until probed).
func New(cfg Config) (*Cluster, error) {
	self := normalizeURL(cfg.Self)
	if self == "" {
		return nil, fmt.Errorf("cluster: Self (this replica's advertised base URL) is required")
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 250 * time.Millisecond
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.FailThreshold < 1 {
		cfg.FailThreshold = 2
	}
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{Timeout: cfg.PeerTimeout + 2*time.Second}
	}
	c := &Cluster{
		self:        self,
		ring:        NewRing(cfg.VNodes, cfg.Seed),
		hc:          hc,
		peerTimeout: cfg.PeerTimeout,
		interval:    cfg.HealthInterval,
		failsAfter:  cfg.FailThreshold,
		peers:       make(map[string]*peerState),
	}
	c.ring.Add(self)
	for _, p := range cfg.Peers {
		u := normalizeURL(p)
		if u == "" || u == self {
			continue
		}
		if _, dup := c.peers[u]; dup {
			continue
		}
		c.peers[u] = &peerState{url: u, healthy: true}
		c.ring.Add(u)
	}
	return c, nil
}

// normalizeURL strips the trailing slash so "http://a:1/" and
// "http://a:1" are the same member.
func normalizeURL(u string) string {
	return strings.TrimRight(strings.TrimSpace(u), "/")
}

// Self returns this replica's ring identity.
func (c *Cluster) Self() string { return c.self }

// PeerTimeout returns the configured per-fill bound.
func (c *Cluster) PeerTimeout() time.Duration { return c.peerTimeout }

// Route returns the replica owning key on the current ring. local is
// true when that is this replica — including when every peer is
// ejected and self is the whole ring.
func (c *Cluster) Route(key string) (owner string, local bool) {
	owner, ok := c.ring.Owner(key)
	if !ok {
		return c.self, true
	}
	return owner, owner == c.self
}

// PeerHealth is one peer's row in the health report.
type PeerHealth struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

// HealthReport summarizes fleet reachability for /readyz.
type HealthReport struct {
	// Total counts cluster members including self; Healthy counts the
	// members currently on the ring (self is always healthy from its own
	// point of view).
	Total   int          `json:"total"`
	Healthy int          `json:"healthy"`
	Peers   []PeerHealth `json:"peers,omitempty"`
}

// Health snapshots peer reachability.
func (c *Cluster) Health() HealthReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := HealthReport{Total: 1 + len(c.peers), Healthy: 1}
	for _, p := range c.peers {
		rep.Peers = append(rep.Peers, PeerHealth{URL: p.url, Healthy: p.healthy})
		if p.healthy {
			rep.Healthy++
		}
	}
	sort.Slice(rep.Peers, func(i, j int) bool { return rep.Peers[i].URL < rep.Peers[j].URL })
	return rep
}

// Start runs the health loop until ctx is canceled. It returns
// immediately for a peerless cluster — there is nothing to probe.
func (c *Cluster) Start(ctx context.Context) {
	c.mu.Lock()
	n := len(c.peers)
	c.mu.Unlock()
	if n == 0 {
		return
	}
	go func() {
		t := time.NewTicker(c.interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.ProbeOnce(ctx)
			}
		}
	}()
}

// ProbeOnce probes every peer's /readyz once and applies the
// eject/re-admit transitions. Exposed so tests (and the fleet harness)
// can drive health deterministically; the Start loop calls it each
// tick. Probes run sequentially — the fleet is a handful of replicas,
// not hundreds.
func (c *Cluster) ProbeOnce(ctx context.Context) {
	c.mu.Lock()
	urls := make([]string, 0, len(c.peers))
	for u := range c.peers {
		urls = append(urls, u)
	}
	c.mu.Unlock()
	sort.Strings(urls)
	for _, u := range urls {
		c.report(u, c.probe(ctx, u))
	}
}

// probe is one /readyz round trip; ready means HTTP 200 inside the
// probe timeout. A 503 (draining or overloaded) is as disqualifying as
// a refused connection: the ring should not route cold solves to a
// replica that is asking balancers to back off.
func (c *Cluster) probe(ctx context.Context, peer string) bool {
	timeout := c.interval
	if c.peerTimeout < timeout {
		timeout = c.peerTimeout
	}
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, peer+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// report applies one probe (or fill-error) observation to the peer's
// state, moving it on or off the ring at the thresholds.
func (c *Cluster) report(peer string, ok bool) {
	c.mu.Lock()
	p := c.peers[peer]
	var eject, readmit bool
	if p != nil {
		if ok {
			p.fails = 0
			if !p.healthy {
				p.healthy = true
				readmit = true
			}
		} else {
			p.fails++
			if p.healthy && p.fails >= c.failsAfter {
				p.healthy = false
				eject = true
			}
		}
	}
	c.mu.Unlock()
	// Ring mutations outside c.mu: Ring has its own lock, and holding
	// both would order c.mu before ring.mu here against Route's
	// ring.mu-only path — fine today, but no reason to create the pair.
	switch {
	case eject:
		c.ejections.Add(1)
		c.ring.Remove(peer)
	case readmit:
		c.readmissions.Add(1)
		c.ring.Add(peer)
	}
}

// ReportFillError feeds a peer-fill transport failure into the health
// state as one failed probe, so a dead owner is ejected after
// FailThreshold failed fills even between probe ticks.
func (c *Cluster) ReportFillError(peer string) {
	c.fillErrors.Add(1)
	c.report(peer, false)
}

// RegisterMetrics exposes the cluster's health counters on reg
// (wrbpg_peer_healthy, wrbpg_peer_members, ejections/re-admissions).
// The serving layer calls it once with its per-server registry.
func (c *Cluster) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("wrbpg_peer_healthy",
		"Cluster members currently on the ring, self included.",
		func() float64 { return float64(c.Health().Healthy) })
	reg.GaugeFunc("wrbpg_peer_members",
		"Static cluster size, self included.",
		func() float64 { return float64(c.Health().Total) })
	reg.CounterFunc("wrbpg_peer_ejections_total",
		"Peers ejected from the ring by the health loop.",
		func() float64 { return float64(c.ejections.Load()) })
	reg.CounterFunc("wrbpg_peer_readmissions_total",
		"Ejected peers re-admitted to the ring on recovery.",
		func() float64 { return float64(c.readmissions.Load()) })
	reg.CounterFunc("wrbpg_peer_fill_transport_errors_total",
		"Peer fills that failed at the transport layer (refused, reset, timed out).",
		func() float64 { return float64(c.fillErrors.Load()) })
}

// Ejections returns how many times the health loop removed a peer.
func (c *Cluster) Ejections() uint64 { return c.ejections.Load() }

// Readmissions returns how many times a peer recovered onto the ring.
func (c *Cluster) Readmissions() uint64 { return c.readmissions.Load() }
