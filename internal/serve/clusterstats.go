// GET /v1/cluster/stats: the fleet-wide stats fan-out. Any replica
// answers for the whole fleet by parsing its own GET /metrics text and
// every healthy peer's, scraped concurrently under the peer timeout,
// and summing the counters (every series named *_total) over the
// replicas that answered. Unreachable peers degrade to an error row
// instead of failing the scrape — a partitioned fleet still reports
// the side you can see.

package serve

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"sync"

	"wrbpg/internal/obs"
	"wrbpg/internal/serve/wire"
)

// ReplicaStats is one replica's row in the fleet view.
type ReplicaStats struct {
	URL  string `json:"url"`
	Self bool   `json:"self,omitempty"`
	// Error marks a replica whose /metrics scrape failed (unreachable,
	// unhealthy or unparseable); Series is absent then.
	Error string `json:"error,omitempty"`
	// Series maps each counter series (obs.Sample.Series, e.g.
	// `wrbpg_shed_total{mode="doomed"}`) to the replica's value.
	Series map[string]float64 `json:"series,omitempty"`
}

// ClusterStats is the GET /v1/cluster/stats response body: fleet
// totals over the reachable replicas plus the per-replica breakdown.
type ClusterStats struct {
	// Replicas counts cluster members including self; Healthy counts
	// members on the ring; Scraped counts members whose /metrics
	// answered this fan-out (totals sum over exactly these).
	Replicas int `json:"replicas"`
	Healthy  int `json:"healthy"`
	Scraped  int `json:"scraped"`
	// Totals sums each counter series across the scraped replicas.
	// wrbpg_solves_total against the schedule requests is the fleet's
	// duplicate-solve ratio; wrbpg_peer_fill_total aggregates the
	// replica-to-replica traffic.
	Totals     map[string]float64 `json:"totals"`
	PerReplica []ReplicaStats     `json:"per_replica"`
}

// handleClusterStats serves GET /v1/cluster/stats.
func (s *Server) handleClusterStats(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		s.writeErr(w, wire.Errorf(http.StatusNotFound, "cluster mode disabled (no -peers)"))
		return
	}
	if r.Method != http.MethodGet {
		s.writeErr(w, wire.Errorf(http.StatusMethodNotAllowed, "GET required"))
		return
	}

	rep := s.cluster.Health()
	// The self row parses the text MetricsHandler serves: the same
	// registries, in the same order.
	var self bytes.Buffer
	s.reg.WriteText(&self)       //nolint:errcheck // a bytes.Buffer never fails
	obs.Default.WriteText(&self) //nolint:errcheck
	rows := make([]ReplicaStats, 1+len(rep.Peers))
	rows[0] = counterRow(s.cluster.Self(), self.Bytes())
	rows[0].Self = true

	// Scrape peers concurrently, each bounded by the peer timeout (a
	// stats scrape should never be slower than a fill). Unhealthy peers
	// are reported without a scrape attempt — the health loop already
	// established they are unreachable.
	var wg sync.WaitGroup
	for i, p := range rep.Peers {
		if !p.Healthy {
			rows[1+i] = ReplicaStats{URL: p.URL, Error: "unhealthy (off the ring)"}
			continue
		}
		wg.Add(1)
		go func(row *ReplicaStats, url string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), s.cluster.PeerTimeout())
			defer cancel()
			text, err := s.cluster.Get(ctx, url, "/metrics")
			if err != nil {
				*row = ReplicaStats{URL: url, Error: err.Error()}
				return
			}
			*row = counterRow(url, text)
		}(&rows[1+i], p.URL)
	}
	wg.Wait()

	out := ClusterStats{
		Replicas:   rep.Total,
		Healthy:    rep.Healthy,
		Totals:     make(map[string]float64),
		PerReplica: rows,
	}
	for _, row := range rows {
		if row.Error != "" {
			continue
		}
		out.Scraped++
		for series, v := range row.Series {
			out.Totals[series] += v
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// counterRow parses one replica's exposition text into its row of
// counter series.
func counterRow(url string, text []byte) ReplicaStats {
	samples, err := obs.ParseText(string(text))
	if err != nil {
		return ReplicaStats{URL: url, Error: err.Error()}
	}
	series := make(map[string]float64)
	for _, sm := range samples {
		if strings.HasSuffix(sm.Name, "_total") {
			series[sm.Series()] = sm.Value
		}
	}
	return ReplicaStats{URL: url, Series: series}
}
