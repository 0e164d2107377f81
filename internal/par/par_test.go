package par

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrder(t *testing.T) {
	in := make([]int, 100)
	for i := range in {
		in[i] = i
	}
	out, err := MapCtx(context.Background(), 4, in, func(x int) (int, error) { return x * x, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, y := range out {
		if y != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, y, i*i)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := MapCtx(context.Background(), 4, nil, func(x int) (int, error) { return x, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestMapSerialError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	_, err := MapCtx(context.Background(), 1, []int{1, 2, 3, 4}, func(x int) (int, error) {
		calls++
		if x == 2 {
			return 0, boom
		}
		return x, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 2 {
		t.Fatalf("serial path evaluated %d jobs after error, want 2", calls)
	}
}

// TestMapEarlyAbort: after the first failure no queued job should be
// evaluated. The first job fails immediately while holding all other
// workers at a gate, so all remaining jobs must be skipped.
func TestMapEarlyAbort(t *testing.T) {
	const n = 1000
	in := make([]int, n)
	for i := range in {
		in[i] = i
	}
	boom := errors.New("boom")
	gate := make(chan struct{})
	var calls atomic.Int64
	_, err := MapCtx(context.Background(), 4, in, func(x int) (int, error) {
		calls.Add(1)
		if x == 0 {
			defer close(gate)
			return 0, boom
		}
		<-gate
		return x, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Worker count jobs may already be in flight when the error lands;
	// everything else must have been skipped.
	if c := calls.Load(); c > 8 {
		t.Fatalf("%d jobs evaluated after early error, want ≤ 8", c)
	}
}

// TestMapActuallyConcurrent: a four-worker pool runs jobs at the same
// time, even on one CPU — every job blocks until a second one is in
// flight, so a serial pool times out — and never more than four.
func TestMapActuallyConcurrent(t *testing.T) {
	const workers = 4
	var inFlight, peak atomic.Int32
	overlap := make(chan struct{})
	var once sync.Once
	_, err := MapCtx(context.Background(), workers, make([]int, 32), func(int) (int, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		if n >= 2 {
			once.Do(func() { close(overlap) })
		}
		select {
		case <-overlap:
			return 0, nil
		case <-time.After(5 * time.Second):
			return 0, errors.New("no second job started within 5s: the pool ran serially")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p < 2 || p > workers {
		t.Errorf("peak in-flight = %d, want 2..%d", p, workers)
	}
}

func TestMapFirstErrorWins(t *testing.T) {
	in := []int{0, 1, 2, 3, 4, 5, 6, 7}
	_, err := MapCtx(context.Background(), 4, in, func(x int) (int, error) {
		if x%2 == 1 {
			time.Sleep(time.Millisecond)
			return 0, fmt.Errorf("err-%d", x)
		}
		return x, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestChunks(t *testing.T) {
	cases := []struct {
		n, parts int
		want     [][2]int
	}{
		{0, 4, nil},
		{3, 8, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{10, 3, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{6, 2, [][2]int{{0, 3}, {3, 6}}},
	}
	for _, c := range cases {
		got := Chunks(c.n, c.parts)
		if len(got) != len(c.want) {
			t.Fatalf("Chunks(%d,%d) = %v, want %v", c.n, c.parts, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Chunks(%d,%d) = %v, want %v", c.n, c.parts, got, c.want)
			}
		}
	}
	// Chunks cover [0,n) exactly for a spread of shapes.
	for n := 1; n <= 17; n++ {
		for parts := 1; parts <= 6; parts++ {
			cs := Chunks(n, parts)
			pos := 0
			for _, c := range cs {
				if c[0] != pos || c[1] <= c[0] {
					t.Fatalf("Chunks(%d,%d) = %v not contiguous", n, parts, cs)
				}
				pos = c[1]
			}
			if pos != n {
				t.Fatalf("Chunks(%d,%d) covers [0,%d), want [0,%d)", n, parts, pos, n)
			}
		}
	}
}
