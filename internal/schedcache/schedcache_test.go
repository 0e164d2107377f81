package schedcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wrbpg/internal/core"
	"wrbpg/internal/dwt"
	"wrbpg/internal/guard"
	"wrbpg/internal/solve"
	"wrbpg/internal/wcfg"
)

// TestEvictionOrder: with a single shard of capacity 3, the
// least-recently-used entry goes first, and a Get refreshes recency.
func TestEvictionOrder(t *testing.T) {
	c := New[int](1, 3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	if _, ok := c.Get("a"); !ok { // refresh a: order is now c, b behind a
		t.Fatal("a missing before eviction")
	}
	c.Put("d", 4) // evicts b, the LRU entry
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should have survived eviction", k)
		}
	}
	st := c.Snapshot()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Entries != 3 {
		t.Fatalf("entries = %d, want 3", st.Entries)
	}
}

// TestEvictionRespectsCapacity: inserting far past capacity never
// grows a shard beyond its cap.
func TestEvictionRespectsCapacity(t *testing.T) {
	c := New[int](4, 2)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if n := c.Len(); n > 8 {
		t.Fatalf("cache holds %d entries, cap is 8", n)
	}
	st := c.Snapshot()
	if st.Stores != 100 {
		t.Fatalf("stores = %d, want 100", st.Stores)
	}
	if int(st.Stores)-int(st.Evictions) != st.Entries {
		t.Fatalf("stores %d - evictions %d != entries %d", st.Stores, st.Evictions, st.Entries)
	}
}

// TestSingleflightDedup: N concurrent Do calls for one key run fn
// exactly once; every caller sees the same value, and exactly one
// reports Miss with the rest Shared. Run under -race (make race).
func TestSingleflightDedup(t *testing.T) {
	c := New[int](8, 16)
	const callers = 32
	var calls atomic.Int32
	release := make(chan struct{})

	var wg sync.WaitGroup
	states := make([]State, callers)
	vals := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, st, err := c.Do("hot", func() (int, bool, error) {
				calls.Add(1)
				<-release // hold the leader so every waiter piles up
				return 42, true, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			vals[i], states[i] = v, st
		}(i)
	}
	// Let the goroutines reach Do before releasing the leader. The
	// sleep only widens the dedup window; correctness (exactly one fn
	// call) must hold regardless of interleaving.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want exactly 1", got)
	}
	miss, shared := 0, 0
	for i := 0; i < callers; i++ {
		if vals[i] != 42 {
			t.Fatalf("caller %d got %d, want 42", i, vals[i])
		}
		switch states[i] {
		case Miss:
			miss++
		case Shared:
			shared++
		case Hit:
			t.Fatalf("caller %d reported Hit during a cold singleflight", i)
		}
	}
	if miss != 1 || shared != callers-1 {
		t.Fatalf("miss=%d shared=%d, want 1 and %d", miss, shared, callers-1)
	}
	// A later call is a plain hit.
	if _, st, _ := c.Do("hot", func() (int, bool, error) { return 0, true, nil }); st != Hit {
		t.Fatalf("post-singleflight state = %v, want Hit", st)
	}
}

// TestDoErrorNotCached: a failing fn propagates to every waiter and
// leaves nothing behind, so the next Do retries.
func TestDoErrorNotCached(t *testing.T) {
	c := New[int](1, 4)
	boom := errors.New("boom")
	if _, _, err := c.Do("k", func() (int, bool, error) { return 0, true, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("failed computation was cached")
	}
	v, st, err := c.Do("k", func() (int, bool, error) { return 7, true, nil })
	if err != nil || v != 7 || st != Miss {
		t.Fatalf("retry got (%d, %v, %v), want (7, Miss, nil)", v, st, err)
	}
}

// TestUncacheableNotStored: fn can succeed while declining caching
// (the serving layer does this for deadline-degraded fallbacks).
func TestUncacheableNotStored(t *testing.T) {
	c := New[int](1, 4)
	runs := 0
	for i := 0; i < 2; i++ {
		v, st, err := c.Do("k", func() (int, bool, error) { runs++; return 9, false, nil })
		if err != nil || v != 9 || st != Miss {
			t.Fatalf("call %d: got (%d, %v, %v), want (9, Miss, nil)", i, v, st, err)
		}
	}
	if runs != 2 {
		t.Fatalf("fn ran %d times; uncacheable results must not be stored", runs)
	}
}

// TestHitAfterSolveDeterminism: a real DWT solve cached on miss is
// byte-identical to an independent fresh solve of the same canonical
// instance — the content-addressing contract that makes cache hits
// indistinguishable from solving.
func TestHitAfterSolveDeterminism(t *testing.T) {
	build := func() (solve.Problem, *dwt.Graph) {
		g, err := dwt.Build(32, 4, dwt.ConfigWeights(wcfg.Equal(16)))
		if err != nil {
			t.Fatal(err)
		}
		return solve.DWT(g), g
	}
	p, g := build()
	budget := core.MinExistenceBudget(g.G) + 64

	c := New[core.Schedule](1, 4)
	key := "dwt-instance"
	doSolve := func() (core.Schedule, bool, error) {
		out, err := solve.Run(context.Background(), p, budget, guard.Limits{Deadline: time.Minute})
		if err != nil {
			return nil, false, err
		}
		return out.Schedule, out.Source == solve.SourceOptimal, nil
	}
	cached, st, err := c.Do(key, doSolve)
	if err != nil || st != Miss {
		t.Fatalf("cold solve: state %v err %v", st, err)
	}
	warm, st, err := c.Do(key, func() (core.Schedule, bool, error) {
		t.Fatal("warm request must not re-solve")
		return nil, false, nil
	})
	if err != nil || st != Hit {
		t.Fatalf("warm lookup: state %v err %v", st, err)
	}

	// Fresh solve on an independently built (but canonically identical)
	// instance.
	p2, _ := build()
	out2, err := solve.Run(context.Background(), p2, budget, guard.Limits{Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	enc := func(s core.Schedule) []byte {
		b, err := s.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(enc(cached), enc(warm)) {
		t.Fatal("cache returned different bytes for the same key")
	}
	if !bytes.Equal(enc(warm), enc(out2.Schedule)) {
		t.Fatal("cached schedule differs from a fresh solve of the same instance")
	}
}

// TestShardStats: per-shard rows sum to the aggregate snapshot, and
// evictions land on the shard that overflowed.
func TestShardStats(t *testing.T) {
	c := New[int](4, 2) // 4 shards × 2 entries
	if c.Shards() != 4 {
		t.Fatalf("Shards=%d, want 4", c.Shards())
	}
	for i := 0; i < 40; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	agg := c.Snapshot()
	entries, evictions := 0, uint64(0)
	for i := range c.Shards() {
		row := c.ShardStat(i)
		if row.Capacity != 2 {
			t.Fatalf("shard %d capacity=%d, want 2", i, row.Capacity)
		}
		if row.Entries > row.Capacity {
			t.Fatalf("shard %d entries=%d exceeds capacity", i, row.Entries)
		}
		entries += row.Entries
		evictions += row.Evictions
	}
	if entries != agg.Entries {
		t.Fatalf("per-shard entries sum %d != aggregate %d", entries, agg.Entries)
	}
	if evictions != agg.Evictions {
		t.Fatalf("per-shard evictions sum %d != aggregate %d", evictions, agg.Evictions)
	}
	if evictions == 0 {
		t.Fatal("40 inserts into 8 total capacity evicted nothing")
	}
}
