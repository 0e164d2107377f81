// The fallback-storm circuit breaker: when the optimal tier is
// thrashing — most solves burning their whole deadline only to degrade
// to the baseline anyway — the breaker opens and requests skip
// straight to the baseline, so solver slots stop being wasted on work
// that was going to degrade regardless. After a cooldown the breaker
// goes half-open and lets exactly one probe attempt the optimal tier:
// an optimal answer closes it, another fallback re-opens it.
//
// The caller contract: every Allow() == true must be balanced by
// exactly one Record (the solve ran — report whether it degraded) or
// Cancel (the request was shed before reaching the optimal tier, so it
// says nothing about solver health). A nil *breaker is a disabled
// breaker: Allow always admits, Record/Cancel are no-ops.

package serve

import (
	"sync"
	"time"

	"wrbpg/internal/obs"
)

// breakerState is the classic three-state machine. The numeric values
// are the wrbpg_breaker_state gauge encoding.
type breakerState int32

const (
	breakerClosed   breakerState = 0
	breakerHalfOpen breakerState = 1
	breakerOpen     breakerState = 2
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half_open"
	default:
		return "open"
	}
}

// breaker tracks the fallback rate of recent solves over a sliding
// window and trips open when it crosses the threshold. All state is
// behind one mutex — the per-solve cost is a few loads and stores,
// invisible next to a solve.
type breaker struct {
	mu sync.Mutex
	// window is the ring of recent solve outcomes (true = degraded);
	// n is the filled count, idx the next write slot, falls the number
	// of true entries currently in the window.
	window []bool
	n      int
	idx    int
	falls  int
	// threshold is the fallback rate that trips the breaker once the
	// window holds at least minSamples outcomes.
	threshold  float64
	minSamples int
	// cooldown is how long the breaker stays open before allowing a
	// half-open probe.
	cooldown time.Duration
	state    breakerState
	openedAt time.Time
	// probing marks the single in-flight half-open probe.
	probing bool

	gauge *obs.Gauge
	trips *obs.Counter
	// now is replaceable in tests.
	now func() time.Time
}

// newBreaker builds the breaker from resolved options (BreakerWindow
// already validated > 0); minSamples is clamped to the window so a
// misconfigured floor cannot make the breaker untrippable.
func newBreaker(window, minSamples int, threshold float64, cooldown time.Duration, gauge *obs.Gauge, trips *obs.Counter) *breaker {
	if minSamples > window {
		minSamples = window
	}
	return &breaker{
		window:     make([]bool, window),
		threshold:  threshold,
		minSamples: minSamples,
		cooldown:   cooldown,
		gauge:      gauge,
		trips:      trips,
		now:        time.Now,
	}
}

// Allow reports whether the request may attempt the optimal tier.
// While open it returns false (callers degrade without queueing);
// after the cooldown it transitions to half-open and admits a single
// probe.
func (b *breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.setState(breakerHalfOpen)
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record reports one completed solve that Allow admitted: fallback
// says whether it degraded to the baseline. In half-open the outcome
// decides the next state; closed slides the window and may trip.
func (b *breaker) Record(fallback bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.probing = false
		if fallback {
			b.trip()
		} else {
			b.reset()
		}
		return
	case breakerOpen:
		// A solve admitted before the trip finishing late: the window
		// was already judged, ignore the straggler.
		return
	}
	if b.n == len(b.window) {
		if b.window[b.idx] {
			b.falls--
		}
	} else {
		b.n++
	}
	b.window[b.idx] = fallback
	if fallback {
		b.falls++
	}
	b.idx = (b.idx + 1) % len(b.window)
	if b.n >= b.minSamples && float64(b.falls) >= b.threshold*float64(b.n) {
		b.trip()
	}
}

// Cancel returns an unused Allow: the request was shed (or canceled)
// before reaching the optimal tier, so it carries no health signal. In
// half-open it frees the probe slot for the next request.
func (b *breaker) Cancel() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
	}
}

// State names the current state for /readyz and the startup log;
// "disabled" for a nil breaker.
func (b *breaker) State() string {
	if b == nil {
		return "disabled"
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String()
}

// trip opens the breaker and clears the window (called locked).
func (b *breaker) trip() {
	b.setState(breakerOpen)
	b.openedAt = b.now()
	b.probing = false
	b.n, b.idx, b.falls = 0, 0, 0
	b.trips.Inc()
}

// reset closes the breaker with a fresh window (called locked).
func (b *breaker) reset() {
	b.setState(breakerClosed)
	b.n, b.idx, b.falls = 0, 0, 0
}

// setState updates the state and its gauge (called locked).
func (b *breaker) setState(s breakerState) {
	b.state = s
	b.gauge.Set(int64(s))
}
