package main

import (
	"math"
	"sort"
	"time"
)

// failedLatency marks a failed or refused request in a latency sample:
// it counts as +∞, so it misses every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// minP99Samples is the smallest sample with at least ten values beyond
// its 99th percentile; below it p99 is not reported.
const minP99Samples = 1000

// histogram is a log-bucketed latency histogram: bucket b holds
// latencies in [histMin·g^b, histMin·g^(b+1)) with g = 1.005, and
// failures are counted apart as +∞. Its size is fixed, so the
// end-to-end run's own memory does not grow with the requests it sends
// and does not shift the server's GC pacing.
type histogram struct {
	counts    [histBuckets]uint32
	n, failed int
}

const (
	histMin     = time.Microsecond
	histBuckets = 4096 // up to about 700 s
)

// histScale is the number of buckets per factor of e.
var histScale = 1 / math.Log1p(0.005)

func (h *histogram) add(d time.Duration) {
	h.n++
	if d == failedLatency {
		h.failed++
		return
	}
	b := 0
	if d > histMin {
		b = min(int(math.Log(float64(d)/float64(histMin))*histScale), histBuckets-1)
	}
	h.counts[b]++
}

func (h *histogram) merge(o *histogram) {
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
	h.failed += o.failed
}

// percentileUS returns the q-quantile (0 < q ≤ 1) in microseconds by
// the nearest-rank rule, interpolated within its bucket; +Inf when that
// rank is a failure. ok is false for an empty histogram, and for
// q ≥ 0.99 when it holds fewer than minP99Samples samples.
func (h *histogram) percentileUS(q float64) (v float64, ok bool) {
	if h.n == 0 || (q >= 0.99 && h.n < minP99Samples) {
		return 0, false
	}
	rank := max(int(math.Ceil(q*float64(h.n)))-1, 0)
	if rank >= h.n-h.failed {
		return math.Inf(1), true
	}
	cum := 0
	for b, c := range h.counts {
		if rank < cum+int(c) {
			pos := (float64(b) + (float64(rank-cum)+0.5)/float64(c)) / histScale
			return float64(histMin) * math.Exp(pos) / float64(time.Microsecond), true
		}
		cum += int(c)
	}
	return math.Inf(1), true // unreachable: the ranks below n−failed are all in buckets
}

// mean returns the arithmetic mean; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so spreads read the same here as in any script checking
// the benchmark. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// dist summarizes a sample of durations: mean, p50 and p99 in µs.
type dist struct{ mean, p50, p99 float64 }

func distUS(ds []time.Duration) dist {
	if len(ds) == 0 {
		return dist{}
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	at := func(q float64) float64 {
		r := int(math.Ceil(q*float64(len(s)))) - 1
		if r < 0 {
			r = 0
		}
		return float64(s[r]) / float64(time.Microsecond)
	}
	return dist{mean: float64(sum) / float64(len(s)) / float64(time.Microsecond), p50: at(0.5), p99: at(0.99)}
}
