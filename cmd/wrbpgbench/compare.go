// compare mode: paired A/B verdicts from report files, by the bounds in
// BENCHMARK.json and the choosing-metrics rules. It reads reports only;
// producing them (alternating parent and change runs on one host) is
// the caller's job.

package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// Verdicts.
const (
	verdictBetter      = "better"
	verdictWorse       = "worse"
	verdictWorseWithin = "worse-within-bound"
	verdictUnresolved  = "unresolved"
	verdictUnchanged   = "unchanged"
)

// absoluteBounds are the end-to-end shares bounded in absolute terms:
// they are zero on most workloads, so a relative bound means nothing.
var absoluteBounds = map[string]float64{"error_share": 0.001, "degraded_share": 0.001}

// bound is one metric's regression rule.
type bound struct {
	lowerBetter bool
	limit       float64 // share of A's median, or absolute
	absolute    bool
}

// judgement is the verdict on one workload × metric.
type judgement struct {
	MedianA, MedianB    float64
	IQRA                float64
	Wins, Losses, Pairs int
	Verdict             string
}

// judge applies the rules to A's and B's runs of one metric, paired
// in order:
//   - better: B wins at least 9/10 of the pairs (ties count for
//     neither) and the medians differ by more than A's interquartile
//     range;
//   - worse: B's median is worse than A's by more than the bound;
//   - worse-within-bound: B loses at least 9/10 of the pairs and the
//     medians differ by more than A's interquartile range, by less
//     than the bound: a consistent loss the bound lets pass;
//   - unresolved: A's own spread exceeds the bound, unless every run
//     of B beats every run of A;
//   - unchanged otherwise.
func judge(a, b []float64, bd bound) judgement {
	j := judgement{MedianA: median(a), MedianB: median(b)}
	q1, q3 := quartiles(a)
	j.IQRA = q3 - q1
	better := func(x, y float64) bool { // x better than y
		if bd.lowerBetter {
			return x < y
		}
		return x > y
	}
	j.Pairs = min(len(a), len(b))
	for i := 0; i < j.Pairs; i++ {
		switch {
		case better(b[i], a[i]):
			j.Wins++
		case better(a[i], b[i]):
			j.Losses++
		}
	}
	gain := j.MedianB - j.MedianA // B's improvement over A
	if bd.lowerBetter {
		gain = -gain
	}
	loss, spread := -gain, j.IQRA
	if !bd.absolute && j.MedianA != 0 {
		loss /= abs(j.MedianA)
		spread /= abs(j.MedianA)
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case j.Pairs > 0 && 10*j.Wins >= 9*j.Pairs && gain > j.IQRA:
		j.Verdict = verdictBetter
	case loss > bd.limit:
		j.Verdict = verdictWorse
	case j.Pairs > 0 && 10*j.Losses >= 9*j.Pairs && -gain > j.IQRA:
		j.Verdict = verdictWorseWithin
	case spread > bd.limit && !allBetter:
		j.Verdict = verdictUnresolved
	default:
		j.Verdict = verdictUnchanged
	}
	return j
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// readBounds loads the end-to-end bounds from BENCHMARK.json.
func readBounds(path string) (map[string]bound, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bs := map[string]bound{}
	for _, m := range spec.EndToEnd {
		bs[m.Name] = bound{lowerBetter: m.Better == "lower", limit: m.Bound}
	}
	for name, lim := range absoluteBounds {
		bs[name] = bound{lowerBetter: true, limit: lim, absolute: true}
	}
	return bs, nil
}

// loadRuns reads report files into workload → metric → values, one
// value per file in argument order.
func loadRuns(paths []string) (map[string]map[string][]float64, error) {
	runs := map[string]map[string][]float64{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(raw, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range rep.Workloads {
			if runs[r.Workload] == nil {
				runs[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.E2E {
				runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
			}
		}
	}
	return runs, nil
}

// compareMain implements `wrbpgbench compare [-bench BENCHMARK.json]
// A.json... -- B.json...`. It exits non-zero when any row is worse.
func compareMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "file holding the end-to-end bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	split := -1
	for i, a := range rest {
		if a == "--" {
			split = i
			break
		}
	}
	if split < 1 || split == len(rest)-1 {
		return errors.New("usage: wrbpgbench compare [-bench BENCHMARK.json] A.json... -- B.json...")
	}
	bounds, err := readBounds(*benchPath)
	if err != nil {
		return err
	}
	a, err := loadRuns(rest[:split])
	if err != nil {
		return err
	}
	b, err := loadRuns(rest[split+1:])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-13s %-15s %14s %14s %12s %6s  %s\n", "workload", "metric", "median A", "median B", "IQR A", "wins", "verdict")
	worse := 0
	for _, wl := range sortedKeys(a) {
		for _, name := range sortedKeys(a[wl]) {
			bd, ok := bounds[name]
			if !ok || len(b[wl][name]) == 0 {
				continue
			}
			j := judge(a[wl][name], b[wl][name], bd)
			if j.Verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(out, "%-13s %-15s %14.6g %14.6g %12.4g %3d/%-3d %s\n",
				wl, name, j.MedianA, j.MedianB, j.IQRA, j.Wins, j.Pairs, j.Verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d workload × metric rows worse than their bound", worse)
	}
	return nil
}
