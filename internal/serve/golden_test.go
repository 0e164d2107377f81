package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"wrbpg/internal/serve/wire"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from this server's bodies")

// goldenVolatile matches the body fields that vary from run to run: the
// lookup time, and the anytime search's effort counters (worker
// scheduling, GOMAXPROCS).
var goldenVolatile = regexp.MustCompile(`"(elapsed_us|expanded|pruned|deduped|improvements|workers)": \d+`)

// TestScheduleBodyGolden: /v1/schedule bodies with include_moves match
// the recorded ones byte for byte, volatile counters aside. Client
// bodies stay indented whatever the peer protocol and the schedule
// codec do; one instance per family, the cdag one in the raw named
// form so the moves come back remapped to the requester's numbering.
func TestScheduleBodyGolden(t *testing.T) {
	cases := []struct {
		name string
		req  wire.ScheduleRequest
	}{
		{"dwt", wire.ScheduleRequest{Spec: wire.Spec{Family: "dwt", N: 8, D: 3}}},
		{"ktree", wire.ScheduleRequest{Spec: wire.Spec{Family: "ktree", K: 2, Height: 3, Weights: wire.WeightSpec{Name: "da"}}}},
		{"mvm", wire.ScheduleRequest{Spec: wire.Spec{Family: "mvm", M: 4, N: 6}}},
		{"cdag", wire.ScheduleRequest{Spec: wire.Spec{Family: "cdag", CDAG: &wire.GraphSpec{Nodes: []wire.GraphNode{
			{Name: "out", WeightBits: 2, Deps: []string{"mul", "x"}},
			{Name: "x", WeightBits: 4},
			{Name: "mul", WeightBits: 3, Deps: []string{"x", "y"}},
			{Name: "y", WeightBits: 1},
		}}}}},
	}
	ts, _, _ := newTestServer(t, Options{})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var lb wire.LowerBoundResult
			if resp, body := postJSON(t, ts.URL+"/v1/lowerbound", c.req); resp.StatusCode != http.StatusOK {
				t.Fatalf("lowerbound: %d: %s", resp.StatusCode, body)
			} else if err := json.Unmarshal(body, &lb); err != nil {
				t.Fatal(err)
			}
			req := c.req
			req.BudgetBits = 2 * lb.MinExistenceBits
			req.IncludeMoves = true
			// The second request is a cache hit: its cost block is fixed.
			postJSON(t, ts.URL+"/v1/schedule", req)
			resp, body := postJSON(t, ts.URL+"/v1/schedule", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("schedule: %d: %s", resp.StatusCode, body)
			}
			got := goldenVolatile.ReplaceAll(body, []byte(`"$1": 0`))
			path := filepath.Join("testdata", "golden", c.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("body differs from %s:\n%s", path, got)
			}
		})
	}
}
