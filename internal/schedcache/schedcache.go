// Package schedcache is the content-addressed schedule cache behind
// the wrbpgd serving layer. Solving a WRBPG instance is NP-hard in
// general (Papp & Wattenhofer), but serving workloads re-submit the
// same dataflow shapes constantly; keying solved results by a digest
// of the canonical instance (family + parameters + weight digest +
// budget, see solve.Instance.Key) turns repeated exponential solves
// into microsecond lookups.
//
// The cache is a sharded LRU with per-key singleflight: concurrent
// requests for the same key trigger exactly one computation, with the
// other callers blocking on the leader's result. Sharding keeps lock
// contention bounded under concurrent serving traffic; statistics are
// lock-free atomics so GET /metrics never contends with the request
// path.
package schedcache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// State classifies how a Do call obtained its value.
type State int

const (
	// Miss: this caller computed the value itself.
	Miss State = iota
	// Hit: the value was already cached.
	Hit
	// Shared: another in-flight caller was computing the same key;
	// this caller waited and shares that result (singleflight dedup).
	Shared
)

func (s State) String() string {
	switch s {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	default:
		return "unknown"
	}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Shared    uint64 `json:"shared"`
	Stores    uint64 `json:"stores"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// call is one in-flight computation other callers can wait on.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// entry is one cached key/value pair; elem is its LRU list node.
type entry[V any] struct {
	key string
	val V
}

// shard is one lock domain: an LRU (front = most recent) plus the
// singleflight table for keys currently being computed. evictions is
// per-shard so ShardStat can expose skew — a single hot shard
// evicting while the others idle means the key distribution (or the
// shard count) is off.
type shard[V any] struct {
	mu        sync.Mutex
	lru       *list.List // of *entry[V]
	byKey     map[string]*list.Element
	inflight  map[string]*call[V]
	cap       int
	evictions atomic.Uint64
}

// Cache is a sharded LRU of solved results, safe for concurrent use.
type Cache[V any] struct {
	shards    []shard[V]
	mask      uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	shared    atomic.Uint64
	stores    atomic.Uint64
	evictions atomic.Uint64
}

// New builds a cache with the given shard count (rounded up to a power
// of two, minimum 1) and per-shard entry capacity (minimum 1). Total
// capacity is shards × perShard.
func New[V any](shards, perShard int) *Cache[V] {
	n := 1
	for n < shards {
		n <<= 1
	}
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache[V]{shards: make([]shard[V], n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i] = shard[V]{
			lru:      list.New(),
			byKey:    make(map[string]*list.Element),
			inflight: make(map[string]*call[V]),
			cap:      perShard,
		}
	}
	return c
}

// fnv1a hashes the key for shard selection (64-bit FNV-1a, inlined to
// avoid the hash.Hash allocation on every request).
func fnv1a(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

func (c *Cache[V]) shardFor(key string) *shard[V] {
	return &c.shards[fnv1a(key)&c.mask]
}

// Get returns the cached value for key, if present, promoting it to
// most-recently-used.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
		v := el.Value.(*entry[V]).val
		s.mu.Unlock()
		c.hits.Add(1)
		return v, true
	}
	s.mu.Unlock()
	c.misses.Add(1)
	var zero V
	return zero, false
}

// put inserts or refreshes key under the shard lock (caller holds it).
func (c *Cache[V]) put(s *shard[V], key string, v V) {
	if el, ok := s.byKey[key]; ok {
		el.Value.(*entry[V]).val = v
		s.lru.MoveToFront(el)
		return
	}
	s.byKey[key] = s.lru.PushFront(&entry[V]{key: key, val: v})
	c.stores.Add(1)
	for s.lru.Len() > s.cap {
		last := s.lru.Back()
		s.lru.Remove(last)
		delete(s.byKey, last.Value.(*entry[V]).key)
		c.evictions.Add(1)
		s.evictions.Add(1)
	}
}

// Put stores key → v unconditionally.
func (c *Cache[V]) Put(key string, v V) {
	s := c.shardFor(key)
	s.mu.Lock()
	c.put(s, key, v)
	s.mu.Unlock()
}

// Do returns the value for key, computing it with fn on a miss. At
// most one fn runs per key at a time: concurrent Do calls for the same
// key block on the leader and share its result (State Shared). fn
// reports via cacheable whether a successful result may be stored —
// the serving layer declines to cache deadline-degraded fallback
// schedules, since a later request with more headroom could still
// solve optimally. An fn error is returned to every waiter and nothing
// is cached.
func (c *Cache[V]) Do(key string, fn func() (v V, cacheable bool, err error)) (V, State, error) {
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
		v := el.Value.(*entry[V]).val
		s.mu.Unlock()
		c.hits.Add(1)
		return v, Hit, nil
	}
	if cl, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-cl.done
		c.shared.Add(1)
		return cl.val, Shared, cl.err
	}
	cl := &call[V]{done: make(chan struct{})}
	s.inflight[key] = cl
	s.mu.Unlock()

	v, cacheable, err := fn()
	cl.val, cl.err = v, err

	s.mu.Lock()
	delete(s.inflight, key)
	if err == nil && cacheable {
		c.put(s, key, v)
	}
	s.mu.Unlock()
	close(cl.done)
	c.misses.Add(1)
	return v, Miss, err
}

// Len returns the number of cached entries across all shards.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// ShardStat is one shard's row: its live entry count, its share of the
// evictions, and its fixed capacity. The rows expose distribution skew
// the aggregate Snapshot hides: FNV-1a over content digests should load
// shards near-uniformly, so one shard evicting while its siblings sit
// half-empty points at a pathological key population or an undersized
// shard count.
type ShardStat struct {
	Entries   int    `json:"entries"`
	Evictions uint64 `json:"evictions"`
	Capacity  int    `json:"capacity"`
}

// ShardStat snapshots shard i (panics on an out-of-range index, like a
// slice).
func (c *Cache[V]) ShardStat(i int) ShardStat {
	s := &c.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return ShardStat{Entries: s.lru.Len(), Evictions: s.evictions.Load(), Capacity: s.cap}
}

// Shards returns the shard count (power of two; see New).
func (c *Cache[V]) Shards() int { return len(c.shards) }

// Snapshot returns the current counters.
func (c *Cache[V]) Snapshot() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Shared:    c.shared.Load(),
		Stores:    c.stores.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
		Capacity:  len(c.shards) * c.shards[0].cap,
	}
}
