// Package solve is the hardened entry point to the optimal schedulers:
// it runs a solver under a context, a deadline and resource limits,
// and degrades gracefully to the baseline scheduler (Section 5.1) when
// the optimal solve cannot finish — so a caller always gets a valid
// schedule within its budget envelope, or a typed error explaining why
// not even the baseline could deliver one.
//
// The degradation contract:
//
//   - The optimal solver runs in its own goroutine with a panic
//     recover, so a crashing or genuinely hung solver (one that
//     ignores its context) cannot take the caller down or block it
//     past the deadline.
//   - Deadline expiry, resource-budget exhaustion (guard.Limits),
//     solver panics and invalid optimal schedules degrade to the
//     layer-by-layer baseline (layered graphs) or the greedy
//     topological baseline (arbitrary CDAGs).
//   - Cancellation (guard.ErrCanceled) never degrades: the caller went
//     away, so no answer is wanted at all.
//   - Every returned schedule — optimal or fallback — has passed
//     core.Simulate under the requested budget.
package solve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"wrbpg/internal/anytime"
	"wrbpg/internal/baseline"
	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/dwt"
	"wrbpg/internal/guard"
	"wrbpg/internal/ktree"
	"wrbpg/internal/mvm"
	"wrbpg/internal/obs"
	"wrbpg/internal/par"
)

// ErrPanic marks degradations caused by a recovered solver panic, so
// callers can classify the cause with errors.Is without string
// matching. It reads naturally inside the wrapping message
// ("optimal solver panicked: …").
var ErrPanic = errors.New("panicked")

// ErrShed marks a solve that never attempted the optimal tier: the
// serving layer's overload control shed it straight to the baseline
// scheduler (see Degraded). It reads naturally inside the wrapping
// message ("shed by overload control").
var ErrShed = errors.New("shed by overload control")

// FallbackReason classifies a degradation (or abort) cause into the
// label vocabulary shared by the wrbpg_fallback_total metric and the
// wire-level fallback_reason field: "canceled", "deadline", "budget",
// "panic", "shed" or "other" ("" for nil). It extends guard.AbortReason
// with the causes only this layer can see (the Run recover,
// *par.PanicError from sweep workers, and overload sheds).
func FallbackReason(err error) string {
	var pe *par.PanicError
	if errors.Is(err, ErrShed) {
		return "shed"
	}
	if errors.Is(err, ErrPanic) || errors.As(err, &pe) {
		return "panic"
	}
	return guard.AbortReason(err)
}

// Source identifies which scheduler produced an Outcome's schedule.
type Source int

const (
	// SourceOptimal marks a schedule from the dataflow-specific
	// optimal solver.
	SourceOptimal Source = iota
	// SourceFallback marks a schedule from the baseline scheduler,
	// produced because the optimal solve was aborted.
	SourceFallback
	// SourceAnytime marks a schedule from the anytime branch-and-bound
	// tier (family cdag): the best schedule found within the deadline,
	// never worse than the baseline, optimal only when
	// Outcome.Anytime.Complete is set.
	SourceAnytime
)

func (s Source) String() string {
	switch s {
	case SourceOptimal:
		return "optimal"
	case SourceFallback:
		return "fallback"
	case SourceAnytime:
		return "anytime"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Problem packages one schedulable instance: the underlying CDAG (for
// validation and the fallback), its layer structure when it has one,
// and the optimal solver to attempt first.
type Problem struct {
	// Name labels the instance in errors and degradation logs.
	Name string
	// G is the underlying CDAG; the fallback scheduler and the
	// core.Simulate validation run against it.
	G *cdag.Graph
	// Layers, when non-nil, routes the fallback through
	// baseline.LayerByLayer; nil falls back to baseline.Greedy.
	Layers [][]cdag.NodeID
	// Optimal attempts the optimal solve. It must honour ctx and lim
	// cooperatively (the *Ctx solver methods do); Run additionally
	// isolates it in a goroutine so even a non-cooperative solver
	// cannot hang the caller.
	Optimal func(ctx context.Context, lim guard.Limits, budget cdag.Weight) (core.Schedule, error)
	// Anytime marks problems whose Optimal is the anytime tier: a
	// successful return is labeled SourceAnytime and carries the info
	// the closure deposited in the info holder.
	Anytime bool
	// info receives the anytime search report. The Optimal closure
	// writes it before returning; Run reads it only after receiving the
	// closure's result from its channel (a happens-before edge), and
	// never on the abandoned-goroutine path.
	info *AnytimeInfo
}

// AnytimeInfo reports the anytime search behind a SourceAnytime
// outcome: whether the search completed (frontier drained or the
// Proposition 2.4 bound met — the result is then optimal within the
// no-recompute space and safe to cache), the baseline seed it started
// from, and the search counters the serving layer feeds its
// wrbpg_anytime_* metrics from.
type AnytimeInfo struct {
	Complete     bool
	SeedCost     cdag.Weight
	Cost         cdag.Weight
	LowerBound   cdag.Weight
	Expanded     int64
	Pruned       int64
	Deduped      int64
	Improvements int64
	Workers      int
}

// Outcome reports one hardened solve.
type Outcome struct {
	// Source says which scheduler produced Schedule.
	Source Source
	// Schedule is the validated schedule.
	Schedule core.Schedule
	// Stats is the core.Simulate result for Schedule under Budget.
	Stats core.Stats
	// Budget is the fast-memory budget the solve ran under.
	Budget cdag.Weight
	// Err, when Source is SourceFallback, is the typed reason the
	// optimal solve was abandoned (the degradation event to log). It
	// is nil for SourceOptimal.
	Err error
	// Elapsed is the wall-clock time of the whole solve, fallback
	// included.
	Elapsed time.Duration
	// Anytime, set on SourceAnytime outcomes, reports the search behind
	// the schedule (completeness, seed, pruning counters).
	Anytime *AnytimeInfo
}

// optResult carries the optimal goroutine's answer.
type optResult struct {
	sched    core.Schedule
	err      error
	panicked bool
}

// Run attempts p.Optimal under ctx and lim and degrades to the
// baseline scheduler when the attempt times out, exhausts its resource
// limits, panics, or returns an invalid schedule. The fallback runs
// without limits (it is linear-time) but is still validated; if it
// fails too, Run returns an error wrapping both causes. Cancellation
// of ctx itself is returned as guard.ErrCanceled without fallback.
func Run(ctx context.Context, p Problem, budget cdag.Weight, lim guard.Limits) (Outcome, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	rctx := ctx
	cancel := context.CancelFunc(func() {})
	if lim.Deadline > 0 {
		rctx, cancel = context.WithTimeout(ctx, lim.Deadline)
	}
	defer cancel()

	// The optimal attempt, its validation and the fallback each get a
	// trace span when the caller's context carries a trace (nil no-op
	// spans otherwise). Spans parent under the caller's active span, not
	// under each other: they are sequential phases of one solve.
	octx, osp := obs.StartSpan(rctx, "solve.optimal")

	ch := make(chan optResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- optResult{
					err:      fmt.Errorf("solve: %s optimal solver %w: %v", p.Name, ErrPanic, r),
					panicked: true,
				}
			}
		}()
		sched, err := p.Optimal(octx, lim, budget)
		ch <- optResult{sched: sched, err: err}
	}()

	var optErr error
	degrade := false
	out := Outcome{Source: SourceOptimal, Budget: budget}
	select {
	case r := <-ch:
		optErr = r.err
		// A solver bug (panic) is degradable: the caller still wants an
		// answer, and the baseline is an independent code path.
		degrade = r.panicked
		if r.panicked {
			osp.SetAttr("panic", "true")
		} else if optErr != nil {
			osp.SetAttr("err", optErr.Error())
		}
		osp.End()
		if optErr == nil {
			_, ssp := obs.StartSpan(ctx, "solve.simulate")
			stats, err := core.Simulate(p.G, budget, r.sched)
			ssp.End()
			if err != nil {
				// An invalid "optimal" schedule is a solver bug, but the
				// caller still wants an answer: degrade and surface it.
				optErr = fmt.Errorf("solve: %s optimal schedule failed validation: %w", p.Name, err)
				degrade = true
			} else {
				out.Schedule = r.sched
				out.Stats = stats
				if p.Anytime {
					out.Source = SourceAnytime
					if p.info != nil {
						info := *p.info
						out.Anytime = &info
					}
				}
			}
		}
	case <-rctx.Done():
		// The solver did not return by the deadline — either it is
		// mid-unwind (cooperative) or genuinely hung (it ignores its
		// context). Abandon the goroutine; the buffered channel lets it
		// exit whenever it eventually finishes.
		optErr = guard.Wrap(rctx.Err())
		osp.SetAttr("err", optErr.Error())
		osp.SetAttr("abandoned", "true")
		osp.End()
	}

	if optErr == nil {
		out.Elapsed = time.Since(start)
		return out, nil
	}
	if !degrade {
		// A *par.PanicError returned as a plain error (a pool worker
		// panicked inside the optimal tier, already recovered by par) is
		// the same solver-bug case as the goroutine recover above: the
		// caller still wants an answer and the baseline is an independent
		// code path.
		degrade = guard.Degradable(optErr) || FallbackReason(optErr) == "panic"
	}
	if !degrade {
		return Outcome{Source: SourceOptimal, Budget: budget, Err: optErr, Elapsed: time.Since(start)},
			fmt.Errorf("solve: %s: %w", p.Name, optErr)
	}

	return baselineOutcome(ctx, p, budget, optErr, start)
}

// baselineOutcome is the tail Run's degradation and Degraded share:
// the baseline schedule for the problem, Simulate-validated under a
// solve.fallback span, answered as a SourceFallback Outcome whose Err
// is cause, the reason the optimal tier gave way. An error wraps cause
// and the baseline's own failure.
func baselineOutcome(ctx context.Context, p Problem, budget cdag.Weight, cause error, start time.Time) (Outcome, error) {
	_, fsp := obs.StartSpan(ctx, "solve.fallback")
	fsp.SetAttr("reason", FallbackReason(cause))
	out := Outcome{Source: SourceFallback, Budget: budget, Err: cause}
	sched, err := fallback(p, budget)
	var stats core.Stats
	if err == nil {
		if stats, err = core.Simulate(p.G, budget, sched); err != nil {
			err = fmt.Errorf("baseline schedule failed validation: %w", err)
		}
	}
	fsp.End()
	out.Elapsed = time.Since(start)
	if err != nil {
		return out, fmt.Errorf("solve: %s: %w, and the baseline failed: %w", p.Name, cause, err)
	}
	out.Schedule, out.Stats = sched, stats
	return out, nil
}

// fallback produces the baseline schedule for the problem.
func fallback(p Problem, budget cdag.Weight) (core.Schedule, error) {
	if p.Layers != nil {
		return baseline.LayerByLayer(p.G, p.Layers, budget)
	}
	return baseline.Greedy(p.G, budget)
}

// Degraded runs only the baseline scheduler — the overload answer of a
// serving layer whose admission control decided this request cannot
// afford (or must not touch) the optimal tier. The schedule is still
// Simulate-validated, and the Outcome is flagged SourceFallback with
// Err = ErrShed (FallbackReason "shed"), so shed solves land in the
// same fallback metrics and logs as deadline degradations.
func Degraded(ctx context.Context, p Problem, budget cdag.Weight) (Outcome, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		werr := guard.Wrap(err)
		return Outcome{Source: SourceFallback, Budget: budget, Err: werr, Elapsed: time.Since(start)},
			fmt.Errorf("solve: %s: %w", p.Name, werr)
	}
	return baselineOutcome(ctx, p, budget, ErrShed, start)
}

// solver is the guarded query surface every DP family's optimal tier
// shares: dwt.Scheduler, ktree.Scheduler and mvm.Session. A solver
// holds a query's context only while it answers it. Queries accumulate
// solver-progress counts in the solver; whoever drives it flushes them
// with TakeCounts into FamilyCounters.Record, under the context the
// queries ran under.
type solver interface {
	CostCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (cdag.Weight, error)
	ScheduleCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (core.Schedule, error)
	TakeCounts() guard.Counts
}

// Each family's solver counter set, resolved once: a flush is a few
// atomic adds, never a registry lookup.
var (
	dwtCounters   = guard.CountersFor(FamilyDWT)
	ktreeCounters = guard.CountersFor(FamilyKTree)
	mvmCounters   = guard.CountersFor(FamilyMVM)
)

// family is one instance's built graph, typed by its dataflow family.
// Build's Problems and NewSession both construct the family's solver
// through it, so a one-shot solve and a warm session run the same
// guarded solver and flush its counts into the same counter set.
type family struct {
	name   string
	g      *cdag.Graph
	layers [][]cdag.NodeID // nil routes the fallback through baseline.Greedy
	dwt    *dwt.Graph
	tree   *ktree.Tree
	mvm    *mvm.Graph
	// pool, for a dwt or ktree graph built over the shape table, is its
	// entry's pool of idle schedulers of the shape; nil otherwise.
	pool *sync.Pool
}

// newSolver returns a fresh solver for the family and the counter set
// its counts flush into.
func (f family) newSolver() (solver, *guard.FamilyCounters, error) {
	switch {
	case f.dwt != nil:
		s, err := dwt.NewScheduler(f.dwt)
		if err != nil {
			return nil, nil, err
		}
		return s, dwtCounters, nil
	case f.tree != nil:
		return ktree.NewScheduler(f.tree), ktreeCounters, nil
	}
	return mvm.NewSession(f.mvm), mvmCounters, nil
}

// pooled returns a solver for the family and its counter set: an idle
// scheduler of the shape, re-pointed at f's graph, when the pool holds
// one, and a fresh solver otherwise. Reset leaves the scheduler as
// NewScheduler would build it, so the answer and the counts are the
// same either way.
func (f family) pooled() (solver, *guard.FamilyCounters, error) {
	if f.pool != nil {
		switch s := f.pool.Get().(type) {
		case *dwt.Scheduler:
			if err := s.Reset(f.dwt); err != nil {
				return nil, nil, err
			}
			return s, dwtCounters, nil
		case *ktree.Scheduler:
			s.Reset(f.tree)
			return s, ktreeCounters, nil
		}
	}
	return f.newSolver()
}

// problem wraps the family as a Problem: every optimal attempt runs on
// a solver of its own, flushes its counts once, and then, if the
// solver returned, hands it to the shape's pool. A panicking solver is
// dropped, and one whose attempt Run abandoned at its deadline stays
// with its goroutine until it returns.
func (f family) problem() Problem {
	return Problem{
		Name:   f.name,
		G:      f.g,
		Layers: f.layers,
		Optimal: func(ctx context.Context, lim guard.Limits, budget cdag.Weight) (core.Schedule, error) {
			s, fc, err := f.pooled()
			if err != nil {
				return nil, err
			}
			returned := false
			defer func() {
				// Flush first: once back in the pool, the scheduler is
				// another solve's to take.
				fc.Record(ctx, s.TakeCounts())
				if returned && f.pool != nil {
					f.pool.Put(s)
				}
			}()
			sched, err := s.ScheduleCtx(ctx, lim, budget)
			returned = true
			return sched, err
		},
	}
}

// DWT wraps a DWT graph: the optimal solver is the P(v, b) dynamic
// program (Lemma 3.3) and the fallback is layer-by-layer over the
// graph's layer structure.
func DWT(g *dwt.Graph) Problem {
	return family{name: FamilyDWT, g: g.G, layers: g.Layers, dwt: g}.problem()
}

// KTree wraps a k-ary tree: the optimal solver is the Pt(v, b) dynamic
// program (Eq. 6) and the fallback is the greedy topological baseline.
func KTree(t *ktree.Tree) Problem {
	return family{name: FamilyKTree, g: t.G, tree: t}.problem()
}

// MVM wraps an MVM graph: the optimal solver is the tile-configuration
// search of Section 4.3 and the fallback is the greedy topological
// baseline.
func MVM(g *mvm.Graph) Problem {
	return family{name: FamilyMVM, g: g.G, mvm: g}.problem()
}

// anytimeMargin returns how much of the caller's deadline the anytime
// search leaves on the table so its incumbent wins the race against
// Run's watchdog: the search polls its deadline every few hundred
// expansions, so without a margin the watchdog (which fires at exactly
// lim.Deadline) would declare the solve late and serve the bare
// baseline instead of the strictly-better incumbent sitting in the
// returning goroutine.
func anytimeMargin(d time.Duration) time.Duration {
	m := d / 8
	if m > 25*time.Millisecond {
		m = 25 * time.Millisecond
	}
	if m < time.Millisecond {
		m = time.Millisecond
	}
	return m
}

// AnytimeCDAG wraps an arbitrary CDAG with the anytime tier: the
// "optimal" attempt is the parallel branch-and-bound search of
// internal/anytime, which returns the best schedule found within the
// deadline (never worse than the baselines it seeds from), and the
// fallback — reachable only through sheds and crashes, since the
// search itself degrades internally — is layer-by-layer over the
// graph's depth layers. A successful Run is labeled SourceAnytime and
// carries Outcome.Anytime. The returned Problem must not be Run
// concurrently with itself (the info holder is per-Problem).
func AnytimeCDAG(g *cdag.Graph) Problem {
	info := &AnytimeInfo{}
	return Problem{
		Name:    "cdag",
		G:       g,
		Layers:  anytime.DepthLayers(g),
		Anytime: true,
		info:    info,
		Optimal: func(ctx context.Context, lim guard.Limits, budget cdag.Weight) (core.Schedule, error) {
			if lim.Deadline > 0 {
				inner := lim.Deadline - anytimeMargin(lim.Deadline)
				if inner < time.Millisecond {
					inner = lim.Deadline / 2
				}
				lim.Deadline = inner
			}
			res, err := anytime.Search(ctx, g, budget, lim, anytime.Options{})
			if err != nil {
				return nil, err
			}
			*info = AnytimeInfo{
				Complete:     res.Complete,
				SeedCost:     res.SeedCost,
				Cost:         res.Cost,
				LowerBound:   res.LowerBound,
				Expanded:     res.Expanded,
				Pruned:       res.Pruned,
				Deduped:      res.Deduped,
				Improvements: res.Improvements,
				Workers:      res.Workers,
			}
			return res.Schedule, nil
		},
	}
}
