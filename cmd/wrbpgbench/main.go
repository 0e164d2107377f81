// Command wrbpgbench is wrbpgd's benchmark: it boots the server
// in-process on loopback, drives one of five named workloads from a
// seed with a closed loop of two keep-alive clients, checks every
// answer, prints every metric by name with its unit, and writes a JSON
// report with a host block, an end-to-end table and a layers table.
//
//	wrbpgbench --workload cold-solve --seed 1 --seconds 15 --trace 0
//	wrbpgbench --workload all --seed 1            # all five, one report
//	wrbpgbench compare A*.json -- B*.json         # paired A/B verdicts
//
// --trace 0 is the untraced end-to-end run; --trace 1 is the separate
// traced run that yields the per-layer table. The last line of
// standard output is one JSON object: correct, attempted, failed and
// the metrics of the run's table. See README.md for the metric and
// workload definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one measured value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// claim is one check that a workload did what it exists to do.
type claim struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Op    string  `json:"op"`
	Limit float64 `json:"limit"`
	OK    bool    `json:"ok"`
}

func atLeast(name string, v, limit float64) claim {
	return claim{Name: name, Value: v, Op: ">=", Limit: limit, OK: v >= limit}
}

func atMost(name string, v, limit float64) claim {
	return claim{Name: name, Value: v, Op: "<=", Limit: limit, OK: v <= limit}
}

// result is one workload's run.
type result struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Trace      bool              `json:"trace"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Mismatches int               `json:"gate_mismatches"`
	FirstError string            `json:"first_error,omitempty"`
	Claims     []claim           `json:"claims"`
	E2E        map[string]metric `json:"e2e,omitempty"`
	Layers     map[string]metric `json:"layers,omitempty"`
	Reconcile  *reconcile        `json:"reconcile,omitempty"`
	Spans      []span            `json:"spans,omitempty"`
}

// correct reports whether every answer passed the gate and every claim
// held.
func (r *result) correct() bool {
	if r.Mismatches > 0 || r.Attempted == 0 {
		return false
	}
	for _, c := range r.Claims {
		if !c.OK {
			return false
		}
	}
	return true
}

// e2eNames are the end-to-end metrics BENCHMARK.json bounds, in print
// order. error_share and degraded_share are reported beside them but
// are zero on most workloads, so they are gated as claims instead.
var e2eNames = []string{
	"rps", "p50_us", "p99_us", "excess_ratio", "cpu_ms_per_req",
	"allocs_per_req", "heap_live_mb", "setup_s",
}

// report is the JSON document a run writes.
type report struct {
	Host      host      `json:"host"`
	Seed      int64     `json:"seed"`
	Seconds   int       `json:"seconds"`
	Quick     bool      `json:"quick,omitempty"`
	Clients   int       `json:"clients"`
	Workloads []*result `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if err := compareMain(args[1:], stdout); err != nil {
			fmt.Fprintln(stderr, "wrbpgbench compare:", err)
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet("wrbpgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+workloadList()+", or all")
	seed := fs.Int64("seed", 1, "seed the workload's requests derive from")
	seconds := fs.Int("seconds", 15, "length of the timed phase")
	trace := fs.Int("trace", 0, "0: untraced end-to-end run; 1: traced run with the per-layer table")
	quick := fs.Bool("quick", false, "smoke run: 1 s, short replays")
	out := fs.String("out", "", "report path (default .bench_build/reports/<workload>-seed<seed>-trace<trace>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "wrbpgbench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(stderr, "wrbpgbench: unknown workload %q (want %s or all)\n", *name, workloadList())
		return 2
	}
	s := settings{seed: *seed, seconds: *seconds, quick: *quick}
	rep := &report{Host: hostInfo(), Seed: *seed, Seconds: *seconds, Quick: *quick, Clients: clients}
	for _, w := range ws {
		var res *result
		var err error
		if *trace == 1 {
			res, err = runTraced(w, s)
		} else {
			res, err = runE2E(w, s)
		}
		if err != nil {
			fmt.Fprintf(stderr, "wrbpgbench: %s: %v\n", w.name, err)
			return 1
		}
		res.Trace = *trace == 1
		printResult(stdout, res)
		rep.Workloads = append(rep.Workloads, res)
	}
	path := *out
	if path == "" {
		path = filepath.Join(".bench_build", "reports", fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace))
	}
	if err := writeReport(path, rep); err != nil {
		fmt.Fprintln(stderr, "wrbpgbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "report written to %s\n", path)
	line, ok := summary(rep.Workloads, *trace == 1, *quick)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

func workloadList() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func printResult(w io.Writer, r *result) {
	table := r.E2E
	if r.Trace {
		table = r.Layers
	}
	for _, k := range sortedKeys(table) {
		m := table[k]
		fmt.Fprintf(w, "%-13s %-36s %14.6g %-6s n=%d\n", r.Workload, k, m.Value, m.Unit, m.N)
	}
	for _, c := range r.Claims {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "%-13s claim %s = %.4g %s %g: %s\n", r.Workload, c.Name, c.Value, c.Op, c.Limit, status)
	}
	if rc := r.Reconcile; rc != nil {
		note := ""
		if rc.Unexplained {
			note = fmt.Sprintf(" (over %.0f%%: the layer rows do not explain the handler's time)", 100*maxOtherShare)
		}
		fmt.Fprintf(w, "%-13s reconcile over %d requests: |serve.other| = %.1f%% of the loopback mean%s\n",
			r.Workload, rc.Requests, 100*rc.OtherShare, note)
	}
	fmt.Fprintf(w, "%-13s attempted=%d failed=%d gate_mismatches=%d\n", r.Workload, r.Attempted, r.Failed, r.Mismatches)
	if r.FirstError != "" {
		fmt.Fprintf(w, "%-13s first error: %s\n", r.Workload, r.FirstError)
	}
}

func writeReport(path string, rep *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// summary builds the closing JSON line. A single workload's metrics
// keep their names; with several workloads each name is prefixed with
// its workload. ok is false when any answer or claim failed or a
// metric could not be measured; a quick run's samples are too small
// for p99, which it therefore omits.
func summary(rs []*result, trace, quick bool) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range rs {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		line.Correct = line.Correct && r.correct()
		names, table := e2eNames, r.E2E
		if trace {
			names, table = layerNames(), r.Layers
		}
		for _, n := range names {
			m, ok := table[n]
			if !ok {
				line.Correct = line.Correct && quick && n == "p99_us"
				continue
			}
			key := n
			if len(rs) > 1 {
				key = r.Workload + "." + n
			}
			line.Metrics[key] = value{Value: m.Value, Unit: m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Sprintf(`{"correct": false, "error": %q}`, err.Error()), false
	}
	return string(b), line.Correct
}
