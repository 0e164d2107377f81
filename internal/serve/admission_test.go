package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"wrbpg/internal/obs"
)

// newTestAdmission builds an admission queue with fresh (unregistered
// test) metric handles.
func newTestAdmission(slots, maxQueue int) *admission {
	reg := obs.NewRegistry()
	return &admission{
		slots:    make(chan struct{}, slots),
		maxQueue: maxQueue,
		depth:    reg.Gauge("test_depth", "t"),
		hold:     reg.Histogram("test_hold", "t", latencyBoundsUS),
	}
}

func TestAdmissionFastPath(t *testing.T) {
	a := newTestAdmission(2, 4)
	tk1, shed := a.Acquire(context.Background(), time.Second)
	if shed != nil {
		t.Fatalf("shed %q with free slots", shed.mode)
	}
	tk2, shed := a.Acquire(context.Background(), time.Second)
	if shed != nil {
		t.Fatalf("shed %q with one free slot", shed.mode)
	}
	tk1.Release()
	tk2.Release()
	if got := a.hold.Count(); got != 2 {
		t.Fatalf("hold histogram count = %d, want 2", got)
	}
}

func TestAdmissionQueueFull(t *testing.T) {
	a := newTestAdmission(1, 0) // no queue at all
	tk, shed := a.Acquire(context.Background(), time.Second)
	if shed != nil {
		t.Fatal("first acquire shed")
	}
	_, shed = a.Acquire(context.Background(), time.Second)
	if shed == nil {
		t.Fatal("second acquire admitted past the slot count with a zero queue")
	}
	if shed.mode != shedQueueFull {
		t.Fatalf("mode = %q, want %q", shed.mode, shedQueueFull)
	}
	if shed.retryAfter < 1 {
		t.Fatalf("retryAfter = %d, want >= 1", shed.retryAfter)
	}
	tk.Release()
	// The slot is free again.
	tk2, shed := a.Acquire(context.Background(), time.Second)
	if shed != nil {
		t.Fatalf("acquire after release shed %q", shed.mode)
	}
	tk2.Release()
}

// TestAdmissionDoomedByEstimate: once the hold histogram reports slow
// solves, an arrival whose deadline budget is smaller than the
// estimated queue wait is shed without queueing.
func TestAdmissionDoomedByEstimate(t *testing.T) {
	a := newTestAdmission(1, 8)
	// Teach the estimator that holds take ~5s.
	for i := 0; i < 10; i++ {
		a.hold.Observe(5_000_000)
	}
	// Occupy the only slot so Acquire leaves the fast path.
	tk, shed := a.Acquire(context.Background(), 0)
	if shed != nil {
		t.Fatal("first acquire shed")
	}
	defer tk.Release()

	_, shed = a.Acquire(context.Background(), 100*time.Millisecond)
	if shed == nil {
		t.Fatal("queued work that could not survive the estimated wait")
	}
	if shed.mode != shedDoomed {
		t.Fatalf("mode = %q, want %q", shed.mode, shedDoomed)
	}
	// 5s median over 1 slot: the estimate is seconds, so Retry-After
	// must be > 1 and bounded.
	if shed.retryAfter < 2 || shed.retryAfter > 60 {
		t.Fatalf("retryAfter = %d, want in [2, 60] for a ~%v estimate", shed.retryAfter, shed.estWait)
	}
	// A request with no deadline budget still queues — and is bounded
	// only by its context.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *shedDecision, 1)
	go func() {
		_, sd := a.Acquire(ctx, 0)
		done <- sd
	}()
	for a.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if sd := <-done; sd == nil || sd.mode != shedCanceled {
		t.Fatalf("canceled waiter: %+v, want mode canceled", sd)
	}
}

// TestAdmissionWaitCappedByBudget: a queued request whose deadline
// budget expires while waiting is shed as doomed, not left queued.
func TestAdmissionWaitCappedByBudget(t *testing.T) {
	a := newTestAdmission(1, 8)
	tk, shed := a.Acquire(context.Background(), 0)
	if shed != nil {
		t.Fatal("first acquire shed")
	}
	defer tk.Release()

	start := time.Now()
	_, shed = a.Acquire(context.Background(), 30*time.Millisecond)
	if shed == nil {
		t.Fatal("acquire returned a ticket while the slot was held")
	}
	if shed.mode != shedDoomed {
		t.Fatalf("mode = %q, want %q", shed.mode, shedDoomed)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("waited %v, want ~the 30ms budget", waited)
	}
	if a.queued.Load() != 0 {
		t.Fatalf("queued = %d after timed-out wait, want 0", a.queued.Load())
	}
}

// TestAdmissionCanceledWaiterReleasesPosition: a waiter whose context
// is canceled leaves the queue immediately (depth gauge back to zero)
// and the next arrival can take the freed position. Run under -race
// this also exercises the CAS-bounded queue accounting.
func TestAdmissionCanceledWaiterReleasesPosition(t *testing.T) {
	a := newTestAdmission(1, 1)
	tk, shed := a.Acquire(context.Background(), 0)
	if shed != nil {
		t.Fatal("first acquire shed")
	}

	ctx, cancel := context.WithCancel(context.Background())
	entered := make(chan struct{})
	a.enqueued = func() { close(entered) }
	done := make(chan *shedDecision, 1)
	go func() {
		_, sd := a.Acquire(ctx, 0)
		done <- sd
	}()
	<-entered
	if a.queued.Load() != 1 || a.depth.Value() != 1 {
		t.Fatalf("queued=%d depth=%d while waiting, want 1/1", a.queued.Load(), a.depth.Value())
	}
	// The queue is at capacity: another arrival is shed queue_full.
	if _, sd := a.Acquire(context.Background(), 0); sd == nil || sd.mode != shedQueueFull {
		t.Fatalf("arrival at capacity: %+v, want queue_full", sd)
	}
	cancel()
	if sd := <-done; sd == nil || sd.mode != shedCanceled {
		t.Fatalf("canceled waiter: %+v, want canceled", sd)
	}
	if a.queued.Load() != 0 || a.depth.Value() != 0 {
		t.Fatalf("queued=%d depth=%d after cancel, want 0/0", a.queued.Load(), a.depth.Value())
	}
	// The freed position admits the next waiter once the slot releases.
	a.enqueued = nil
	got := make(chan *ticket, 1)
	go func() {
		tk2, _ := a.Acquire(context.Background(), 0)
		got <- tk2
	}()
	tk.Release()
	tk2 := <-got
	if tk2 == nil {
		t.Fatal("waiter after cancel never admitted")
	}
	tk2.Release()
}

// TestAdmissionConcurrentChurn hammers the queue from many goroutines
// under -race: the invariants are no lost slots and queue accounting
// returning to zero.
func TestAdmissionConcurrentChurn(t *testing.T) {
	a := newTestAdmission(2, 4)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tk, shed := a.Acquire(context.Background(), 10*time.Millisecond)
				if shed != nil {
					continue
				}
				tk.Release()
			}
		}()
	}
	wg.Wait()
	if a.queued.Load() != 0 || a.depth.Value() != 0 {
		t.Fatalf("queued=%d depth=%d after churn, want 0/0", a.queued.Load(), a.depth.Value())
	}
	// Both slots are free.
	t1, s1 := a.Acquire(context.Background(), time.Second)
	t2, s2 := a.Acquire(context.Background(), time.Second)
	if s1 != nil || s2 != nil {
		t.Fatal("slots leaked during churn")
	}
	t1.Release()
	t2.Release()
}

func TestMedianHoldEstimate(t *testing.T) {
	a := newTestAdmission(2, 4)
	if got := a.estimateWait(0); got != 0 {
		t.Fatalf("cold-start estimate = %v, want 0", got)
	}
	for i := 0; i < 9; i++ {
		a.hold.Observe(40) // ≤ first bucket (50µs)
	}
	// Median in the 50µs bucket; 2 slots, 0 queued → one wave.
	if got := a.estimateWait(0); got != 50*time.Microsecond {
		t.Fatalf("estimate = %v, want 50µs", got)
	}
	// 4 queued ahead over 2 slots → (4+2)/2 = 3 waves.
	if got := a.estimateWait(4); got != 150*time.Microsecond {
		t.Fatalf("estimate = %v, want 150µs", got)
	}
}
