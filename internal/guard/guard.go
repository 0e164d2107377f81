// Package guard provides the shared runtime-protection vocabulary for
// the solver packages: typed abort errors, resource limits, and a
// cheap cancellation/budget checker threaded through the DP loops.
//
// The hardness results for red-blue pebbling (Papp et al.) mean the
// exponential solvers (exact search, memory-state DPs) cannot be given
// unbounded time or memory in a serving system. Every long-running
// solver therefore accepts a context plus a Limits value and checks a
// *Checker at its iteration points; a tripped checker makes the solver
// unwind promptly with one of the typed errors below, without
// poisoning its memo tables (partial results computed after the trip
// are never stored).
//
// The zero Checker pointer (nil) is valid and free: every method is
// nil-safe, so solvers pay a single pointer test on their hot paths
// when no guard is installed.
package guard

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Typed abort reasons. Callers classify with errors.Is; the solve
// facade degrades to the baseline scheduler on ErrDeadline and
// ErrBudgetExceeded, and propagates ErrCanceled (the caller went away,
// so no answer is wanted at all).
var (
	// ErrCanceled reports that the caller's context was canceled.
	ErrCanceled = errors.New("guard: solve canceled")
	// ErrDeadline reports that the context deadline (or Limits.Deadline)
	// expired before the solver finished.
	ErrDeadline = errors.New("guard: solve deadline exceeded")
	// ErrBudgetExceeded reports that a resource ceiling of Limits was
	// hit (memo entries or explored states).
	ErrBudgetExceeded = errors.New("guard: resource budget exceeded")
	// ErrOptimalInfeasible reports a memory budget outside the optimal
	// tier's search space (e.g. below MVM's tiling minimum) even though
	// the budget clears the schedule-existence bound — the baseline
	// scheduler can still answer, so the error is degradable.
	ErrOptimalInfeasible = errors.New("guard: budget outside optimal search space")
)

// Limits bounds a single solve. The zero value imposes no bounds.
type Limits struct {
	// MaxMemoEntries caps the number of memoized DP cells a scheduler
	// may create (dwt, ktree). 0 = unlimited.
	MaxMemoEntries int
	// MaxStates caps the number of distinct game states the exact
	// Dijkstra search may track. 0 = unlimited.
	MaxStates int
	// Deadline, when positive, bounds the wall-clock time of the solve;
	// it composes with (tightens, never loosens) any deadline already
	// carried by the caller's context.
	Deadline time.Duration
}

// Unlimited reports whether the limits impose no resource ceilings.
func (l Limits) Unlimited() bool {
	return l.MaxMemoEntries == 0 && l.MaxStates == 0 && l.Deadline == 0
}

// tickMask throttles context polling: the context is consulted on a
// query's first Tick and then once every tickMask+1 calls, keeping
// checkpoints to a counter increment in the common case.
const tickMask = 255

// Counts is the observation side of a Checker: cheap solver-progress
// counters the DP kernels feed as they run. Unlike the budget charges
// (which reset per query so Limits stay per-query), counts accumulate
// across Reset for the checker's lifetime — a warm session owns one
// Checker, so the serving layer reads deltas between queries and feeds
// its metrics registry without touching the DP hot paths twice.
type Counts struct {
	// MemoHits counts warm memo probes (a cell or interval answered
	// without recomputation).
	MemoHits int64
	// MemoEntries counts memoized cells created (AddMemo charges).
	MemoEntries int64
	// States counts tracked search states (AddStates charges).
	States int64
	// IntervalSplits counts budget-interval memo stores that were
	// clipped against an existing neighbouring step (dense sweeps split
	// the budget axis finer and finer; a high rate means queries land
	// between known steps).
	IntervalSplits int64
	// CellsInvalidated counts memo cells (or budget intervals) cleared
	// by a patch invalidation — the work an incremental re-solve pays.
	CellsInvalidated int64
	// CellsReused counts memo cells that survived a patch invalidation
	// — the work an incremental re-solve avoids redoing.
	CellsReused int64
}

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.MemoHits += other.MemoHits
	c.MemoEntries += other.MemoEntries
	c.States += other.States
	c.IntervalSplits += other.IntervalSplits
	c.CellsInvalidated += other.CellsInvalidated
	c.CellsReused += other.CellsReused
}

// Checker is the per-solve cancellation and budget monitor. It is not
// safe for concurrent use — each goroutine (or worker-pool chunk)
// installs its own. A nil *Checker is valid and disables all checks.
type Checker struct {
	ctx    context.Context
	cancel context.CancelFunc
	lim    Limits
	ticks  uint
	memo   int
	states int
	err    error
	counts Counts
}

// New builds a checker for one solve. When lim.Deadline is positive a
// timeout context is derived; Release must be called (defer it) to
// free the timer.
func New(ctx context.Context, lim Limits) *Checker {
	if ctx == nil {
		ctx = context.Background()
	}
	c := &Checker{ctx: ctx, lim: lim}
	if lim.Deadline > 0 {
		c.ctx, c.cancel = context.WithTimeout(ctx, lim.Deadline)
	}
	return c
}

// Reset reinitializes c in place for a new solve under ctx and lim,
// reusing the allocation — solver sessions own one Checker value and
// Reset it per budget query, so a warm query allocates nothing (a
// timeout context is still derived, and costs, when lim.Deadline is
// positive; deadline-free sessions poll ctx directly). Any deadline
// timer from the previous solve is released first, so Reset may be
// called without an intervening Release.
func (c *Checker) Reset(ctx context.Context, lim Limits) {
	if c.cancel != nil {
		c.cancel()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Budget charges reset (Limits are per query); observation counts
	// survive, so session owners can read cumulative progress.
	*c = Checker{ctx: ctx, lim: lim, counts: c.counts}
	if lim.Deadline > 0 {
		c.ctx, c.cancel = context.WithTimeout(ctx, lim.Deadline)
	}
}

// Release ends the query: it frees the deadline timer, if any, and
// drops the query's context, keeping the observation counts and the
// abort reason, so an idle checker keeps no finished request
// reachable. Reset re-arms the checker. Safe on nil.
func (c *Checker) Release() {
	if c == nil {
		return
	}
	if c.cancel != nil {
		c.cancel()
	}
	c.ctx, c.cancel = context.Background(), nil
}

// Context returns the (possibly deadline-narrowed) context the checker
// polls, for handing to worker pools. Background for a nil checker.
func (c *Checker) Context() context.Context {
	if c == nil {
		return context.Background()
	}
	return c.ctx
}

// Err returns the tripped error, or nil while the solve may continue.
func (c *Checker) Err() error {
	if c == nil {
		return nil
	}
	return c.err
}

// trip latches the first abort reason and feeds the process-wide
// abort counter (wrbpg_guard_aborts_total).
func (c *Checker) trip(err error) error {
	if c.err == nil {
		c.err = err
		noteAbort(err)
	}
	return c.err
}

// Tick is the periodic cancellation checkpoint: call it once per DP
// cell / search iteration. It returns non-nil once the solve must
// abort. The context is polled on the first call after New or Reset,
// so a query with only a few cold cells still sees a dead context,
// and then once every 256 calls, so a checkpoint normally costs a
// counter increment.
func (c *Checker) Tick() error {
	if c == nil {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	c.ticks++
	if c.ticks&tickMask != 1 {
		return nil
	}
	// ctx.Err, not a select on Done: the first Done call on a fresh
	// cancelable context allocates its channel.
	if err := c.ctx.Err(); err != nil {
		return c.trip(Wrap(err))
	}
	return nil
}

// NoteHit records one warm memo hit. It sits on the warmest solver
// paths, so it is a nil test plus a plain increment — no atomics, the
// checker is single-goroutine by contract.
func (c *Checker) NoteHit() {
	if c != nil {
		c.counts.MemoHits++
	}
}

// NoteSplit records one clipped budget-interval store.
func (c *Checker) NoteSplit() {
	if c != nil {
		c.counts.IntervalSplits++
	}
}

// NoteInvalidation records one patch invalidation: invalidated memo
// cells cleared because a changed node sits in their subtree, and
// reused cells that survived. Patching runs outside any query, so this
// is plain arithmetic like the other observation notes.
func (c *Checker) NoteInvalidation(invalidated, reused int64) {
	if c != nil {
		c.counts.CellsInvalidated += invalidated
		c.counts.CellsReused += reused
	}
}

// Counts returns the cumulative observation counters (they survive
// Reset). Zero for a nil checker.
func (c *Checker) Counts() Counts {
	if c == nil {
		return Counts{}
	}
	return c.counts
}

// TakeCounts returns the cumulative observation counters and zeroes
// them, so per-query deltas need no bookkeeping on the caller's side.
// Callers flush the delta with FamilyCounters.Record.
func (c *Checker) TakeCounts() Counts {
	if c == nil {
		return Counts{}
	}
	ct := c.counts
	c.counts = Counts{}
	return ct
}

// AddMemo charges n new memo entries against Limits.MaxMemoEntries and
// returns non-nil once the ceiling is exceeded (or the checker already
// tripped). Call it before storing a fresh DP cell and skip the store
// on error.
func (c *Checker) AddMemo(n int) error {
	if c == nil {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	c.memo += n
	c.counts.MemoEntries += int64(n)
	if c.lim.MaxMemoEntries > 0 && c.memo > c.lim.MaxMemoEntries {
		return c.trip(fmt.Errorf("%w: %d memo entries exceed limit %d",
			ErrBudgetExceeded, c.memo, c.lim.MaxMemoEntries))
	}
	return nil
}

// AddStates charges n tracked search states against Limits.MaxStates.
func (c *Checker) AddStates(n int) error {
	if c == nil {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	c.states += n
	c.counts.States += int64(n)
	if c.lim.MaxStates > 0 && c.states > c.lim.MaxStates {
		return c.trip(fmt.Errorf("%w: %d search states exceed limit %d",
			ErrBudgetExceeded, c.states, c.lim.MaxStates))
	}
	return nil
}

// Wrap maps a context error onto the typed taxonomy: Canceled →
// ErrCanceled, DeadlineExceeded → ErrDeadline. Other errors (and nil)
// pass through unchanged.
func Wrap(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.Canceled):
		return ErrCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadline
	default:
		return err
	}
}

// ClampDeadline maps a caller-facing deadline request onto a solve
// budget: it starts from want (0 = unlimited), never exceeds max
// (0 = no ceiling), and never outlives a deadline already carried by
// ctx — so a solver handed the result unwinds before the transport
// (e.g. an HTTP request context) gives up on it. The returned duration
// is at least 1ns whenever any bound applies, keeping "deadline
// already passed" distinguishable from "no deadline" (0).
func ClampDeadline(ctx context.Context, want, max time.Duration) time.Duration {
	d := want
	if max > 0 && (d == 0 || d > max) {
		d = max
	}
	if ctx != nil {
		if t, ok := ctx.Deadline(); ok {
			if left := time.Until(t); d == 0 || left < d {
				d = left
			}
		}
	}
	if d < 0 {
		d = time.Nanosecond
	}
	return d
}

// Degradable reports whether err is a reason to fall back to the
// baseline scheduler rather than fail outright: the solver ran out of
// time or resources — or its search space excludes the budget — but
// the caller is still waiting for an answer. Cancellation is not
// degradable — the caller abandoned the request.
func Degradable(err error) bool {
	return errors.Is(err, ErrDeadline) ||
		errors.Is(err, ErrBudgetExceeded) ||
		errors.Is(err, ErrOptimalInfeasible) ||
		errors.Is(err, context.DeadlineExceeded)
}
