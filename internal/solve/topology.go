// The shape table: the family topologies (dwt.Topology,
// ktree.Topology, mvm.Topology) of recently built shapes, shared by
// every cold solve and session of that shape. A topology depends on
// the family and its two shape parameters alone, so a request for a
// known shape under any weight configuration or delta list skips the
// graph construction and only allocates and fills its weights. The
// layout of a DP's budget memo depends on the shape alone too, so each
// entry also pools the idle dwt or ktree schedulers of its shape, and
// a cold solve re-points one at its graph instead of building one.

package solve

import (
	"sync"
	"sync/atomic"
	"weak"
)

// shapeSlots is the number of direct-mapped slots in the shape table.
// A shape whose slot holds another shape replaces it, so the table
// never names more than shapeSlots shapes.
const shapeSlots = 64

// shapeKey names one shape: the family and its two shape parameters
// (dwt n and d, ktree k and height, mvm m and n).
type shapeKey struct {
	family string
	a, b   int
}

// shapeEntry is the shape a slot holds: its key, a weak pointer to
// its topology (weak.Pointer[T] for the family's topology type T), and
// keep, which holds the topology strongly between requests.
//
// Every graph made from a topology keeps it alive through its namer,
// so the weak pointer finds it while any instance of the shape lives,
// and all instances, sessions included, share one topology. keep lets
// a shape in steady use outlive collections that find no graph of it
// alive, and it is the hot path: a sync.Pool hit takes no lock and no
// weak-to-strong conversion, which the runtime stalls around the end
// of every mark phase. A sync.Pool drops what no Get has taken across
// two collections, so keep never pins an idle shape.
//
// solvers holds the shape's idle schedulers (*dwt.Scheduler or
// *ktree.Scheduler; mvm solves take none). A scheduler holds its last
// graph, and so the topology, strongly, but as a sync.Pool it too
// drops what two collections find idle.
type shapeEntry struct {
	key     shapeKey
	topo    any
	keep    sync.Pool
	solvers sync.Pool
}

// shapes is the process-wide shape table.
var shapes [shapeSlots]atomic.Pointer[shapeEntry]

// slot maps the key to its slot: FNV-1a over the family name, then
// the parameters, with a splitmix64 finish so nearby parameters spread.
func (k shapeKey) slot() int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.family); i++ {
		h = (h ^ uint64(k.family[i])) * 1099511628211
	}
	h = (h ^ uint64(k.a)) * 1099511628211
	h = (h ^ uint64(k.b)) * 1099511628211
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int(h % shapeSlots)
}

// topology returns the family topology of shape k with the scheduler
// pool of its entry: the table's, while a graph of the shape is alive
// or a request has used it since the collection before last, and
// otherwise a new one from build(k.a, k.b), whose entry then takes the
// slot. Topologies are immutable, so any number of requests share one;
// an entry holds one topology for its life, so every scheduler in its
// pool was built over that topology. A build error is returned and the
// slot is left as it was.
func topology[T any](k shapeKey, build func(a, b int) (*T, error)) (*T, *sync.Pool, error) {
	slot := &shapes[k.slot()]
	e := slot.Load()
	if e != nil && e.key == k {
		t, _ := e.keep.Get().(*T)
		if t == nil {
			t = e.topo.(weak.Pointer[T]).Value()
		}
		if t != nil {
			e.keep.Put(t)
			return t, &e.solvers, nil
		}
	}
	t, err := build(k.a, k.b)
	if err != nil {
		return nil, nil, err
	}
	e = &shapeEntry{key: k, topo: weak.Make(t)}
	e.keep.Put(t)
	slot.Store(e)
	return t, &e.solvers, nil
}
