package guard

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilCheckerIsFree(t *testing.T) {
	var c *Checker
	if err := c.Tick(); err != nil {
		t.Fatalf("nil Tick = %v", err)
	}
	if err := c.AddMemo(1 << 30); err != nil {
		t.Fatalf("nil AddMemo = %v", err)
	}
	if err := c.AddStates(1 << 30); err != nil {
		t.Fatalf("nil AddStates = %v", err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("nil Err = %v", err)
	}
	c.Release() // must not panic
	if c.Context() == nil {
		t.Fatal("nil Context() = nil")
	}
}

func TestTickCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := New(ctx, Limits{})
	defer c.Release()
	if err := c.Tick(); err != nil {
		t.Fatalf("live context tripped: %v", err)
	}
	cancel()
	// The poll is throttled; within 256+1 ticks it must land.
	var err error
	for i := 0; i < 2*(tickMask+1); i++ {
		if err = c.Tick(); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("after cancel: err = %v, want ErrCanceled", err)
	}
	// Latched: every later call returns the same reason immediately.
	if err := c.Tick(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("latched err = %v", err)
	}
	if err := c.AddMemo(1); !errors.Is(err, ErrCanceled) {
		t.Fatalf("AddMemo after trip = %v", err)
	}
}

// TestFirstTickPollsCanceled: a query whose context is already dead
// trips on its first checkpoint, so a solve with fewer cold cells than
// the poll stride still aborts; Reset restarts the stride.
func TestFirstTickPollsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New(ctx, Limits{})
	defer c.Release()
	if err := c.Tick(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("first Tick under a canceled context = %v, want ErrCanceled", err)
	}
	live, stop := context.WithCancel(context.Background())
	c.Reset(live, Limits{})
	if err := c.Tick(); err != nil {
		t.Fatalf("first Tick after Reset under a live context = %v", err)
	}
	stop()
	c.Reset(live, Limits{})
	if err := c.Tick(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("first Tick after Reset under a canceled context = %v, want ErrCanceled", err)
	}
}

func TestDeadlineFromLimits(t *testing.T) {
	c := New(context.Background(), Limits{Deadline: time.Millisecond})
	defer c.Release()
	deadline := time.Now().Add(500 * time.Millisecond)
	var err error
	for time.Now().Before(deadline) {
		if err = c.Tick(); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}

func TestMemoAndStateBudgets(t *testing.T) {
	c := New(context.Background(), Limits{MaxMemoEntries: 3})
	defer c.Release()
	for i := 0; i < 3; i++ {
		if err := c.AddMemo(1); err != nil {
			t.Fatalf("AddMemo #%d = %v", i, err)
		}
	}
	if err := c.AddMemo(1); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("4th AddMemo = %v, want ErrBudgetExceeded", err)
	}

	s := New(context.Background(), Limits{MaxStates: 2})
	defer s.Release()
	if err := s.AddStates(2); err != nil {
		t.Fatalf("AddStates(2) = %v", err)
	}
	if err := s.AddStates(1); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("AddStates over = %v, want ErrBudgetExceeded", err)
	}
}

func TestWrapAndDegradable(t *testing.T) {
	if Wrap(nil) != nil {
		t.Fatal("Wrap(nil) != nil")
	}
	if !errors.Is(Wrap(context.Canceled), ErrCanceled) {
		t.Fatal("Wrap(Canceled) != ErrCanceled")
	}
	if !errors.Is(Wrap(context.DeadlineExceeded), ErrDeadline) {
		t.Fatal("Wrap(DeadlineExceeded) != ErrDeadline")
	}
	other := errors.New("other")
	if Wrap(other) != other {
		t.Fatal("Wrap(other) changed the error")
	}
	if Degradable(ErrCanceled) {
		t.Fatal("ErrCanceled must not be degradable")
	}
	if !Degradable(ErrDeadline) || !Degradable(ErrBudgetExceeded) {
		t.Fatal("deadline/budget must be degradable")
	}
}

func TestClampDeadline(t *testing.T) {
	bg := context.Background()
	if d := ClampDeadline(bg, 0, 0); d != 0 {
		t.Fatalf("no bounds: %v, want 0", d)
	}
	if d := ClampDeadline(bg, time.Second, 0); d != time.Second {
		t.Fatalf("want only: %v, want 1s", d)
	}
	if d := ClampDeadline(bg, time.Minute, time.Second); d != time.Second {
		t.Fatalf("max clamps want: %v, want 1s", d)
	}
	if d := ClampDeadline(bg, 0, time.Second); d != time.Second {
		t.Fatalf("max bounds unlimited want: %v, want 1s", d)
	}
	if d := ClampDeadline(nil, time.Second, 0); d != time.Second {
		t.Fatalf("nil ctx: %v, want 1s", d)
	}
	// A context deadline tightens but never loosens.
	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	if d := ClampDeadline(ctx, time.Minute, 0); d > 50*time.Millisecond {
		t.Fatalf("ctx must tighten: %v", d)
	}
	if d := ClampDeadline(ctx, time.Nanosecond, time.Minute); d > time.Nanosecond {
		t.Fatalf("want below ctx deadline must survive: %v", d)
	}
	// An already-expired context yields a positive sentinel, not 0
	// ("no deadline") and not a negative duration.
	expired, cancel2 := context.WithDeadline(bg, time.Now().Add(-time.Second))
	defer cancel2()
	if d := ClampDeadline(expired, time.Minute, 0); d <= 0 {
		t.Fatalf("expired ctx: %v, want > 0", d)
	}
}

func TestUnlimited(t *testing.T) {
	if !(Limits{}).Unlimited() {
		t.Fatal("zero Limits must be Unlimited")
	}
	if (Limits{MaxStates: 1}).Unlimited() {
		t.Fatal("MaxStates=1 is not Unlimited")
	}
}
