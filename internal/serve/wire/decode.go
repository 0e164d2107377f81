// Request decoding. A request body in the form clients send — keys
// spelled exactly as in the struct tags, each once; plain integers;
// strings of printable ASCII without escapes; no null — is read in one
// pass by a scanner that builds the request directly, cdag graphs
// included. Any other body goes to encoding/json with unknown fields
// disallowed, so which bodies are accepted, what they decode to and
// every error message are the same either way; only the cost differs.
// The head of a peer's packed frame is scanned the same way, with
// json.Unmarshal as its general decoder (scanPeerHead).

package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"

	"wrbpg/internal/cdag"
	"wrbpg/internal/solve"
)

// DecodeRequest decodes one request body into v, which must point at a
// zero value: refusing unknown fields, and refusing anything but
// whitespace after the value. A *ScheduleRequest, *PatchRequest or
// *PeerScheduleRequest is scanned when its body takes the plain form;
// every other case goes to DecodeStream. Errors are structured 400s.
func DecodeRequest(data []byte, v any) error {
	if scan(data, v) {
		return nil
	}
	return DecodeStream(bytes.NewReader(data), v)
}

// scan decodes data into v with the scanner. It reports false, with v
// left zero, for a body outside the plain form or a v of another type.
func scan(data []byte, v any) bool {
	sc := scanner{data: data}
	defer sc.release()
	switch v := v.(type) {
	case *ScheduleRequest:
		if sc.scheduleRequest(v) && sc.end() {
			return true
		}
		*v = ScheduleRequest{}
	case *PatchRequest:
		if sc.patchRequest(v) && sc.end() {
			return true
		}
		*v = PatchRequest{}
	case *PeerScheduleRequest:
		if sc.peerRequest(v) && sc.end() {
			return true
		}
		*v = PeerScheduleRequest{}
	}
	return false
}

// DecodeStream is the general decoder: encoding/json with unknown
// fields disallowed, then a check that only whitespace follows the
// value. A read error after the value, such as a body over its size
// cap, is not trailing data: the value was complete without it.
func DecodeStream(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return Errorf(http.StatusBadRequest, "malformed request body: %v", unembedSpec(err))
	}
	if trailingData(io.MultiReader(dec.Buffered(), r)) {
		return Errorf(http.StatusBadRequest, "trailing data after request body")
	}
	return nil
}

// unembedSpec drops the embedded Spec from a type error's field path,
// which encoding/json spells with the Go name of every embedded struct:
// the message names the field as the body does, "ScheduleRequest.n"
// and not "ScheduleRequest.Spec.n". No JSON key is "Spec".
func unembedSpec(err error) error {
	var te *json.UnmarshalTypeError
	if errors.As(err, &te) {
		path := strings.Split(te.Field, ".")
		te.Field = strings.Join(slices.DeleteFunc(path, func(p string) bool { return p == "Spec" }), ".")
	}
	return err
}

// trailingData reports whether r holds a byte other than JSON
// whitespace before its end or its first error. (json.Decoder.More is
// not this test: it also reports false before a ']' or '}'.)
func trailingData(r io.Reader) bool {
	var buf [512]byte
	for {
		n, err := r.Read(buf[:])
		for _, c := range buf[:n] {
			if !isSpace(c) {
				return true
			}
		}
		if err != nil {
			return false
		}
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// scanner is a cursor over a body in the plain form. Every method
// reports false for input outside that form; callers then give up on
// the whole body.
type scanner struct {
	data []byte
	pos  int
	tmp  *graphScratch // borrowed from scratchPool by the first graph
}

// ws skips JSON whitespace.
func (sc *scanner) ws() {
	for sc.pos < len(sc.data) && isSpace(sc.data[sc.pos]) {
		sc.pos++
	}
}

// end reports whether only whitespace is left.
func (sc *scanner) end() bool {
	sc.ws()
	return sc.pos == len(sc.data)
}

// lit skips whitespace and consumes c if it comes next.
func (sc *scanner) lit(c byte) bool {
	sc.ws()
	if sc.pos < len(sc.data) && sc.data[sc.pos] == c {
		sc.pos++
		return true
	}
	return false
}

// span reads a string of printable ASCII without escapes and returns
// the bounds of its contents.
func (sc *scanner) span() (start, end int, ok bool) {
	if !sc.lit('"') {
		return 0, 0, false
	}
	start = sc.pos
	for i := start; i < len(sc.data); i++ {
		switch c := sc.data[i]; {
		case c == '"':
			sc.pos = i + 1
			return start, i, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// knownStrings are request values whose decoded strings are shared
// constants instead of fresh allocations; resultStrings are the same
// for a peer's answer.
var (
	knownStrings = []string{
		solve.FamilyDWT, solve.FamilyKTree, solve.FamilyMVM, solve.FamilyCDAG,
		"equal", "da", "double", "double-accumulator",
	}
	resultStrings = []string{
		"optimal", "anytime", "fallback", "hit", "miss", "shared",
		TierCache, TierShared, TierPeer, TierSession, TierSolve, TierDegraded, TierBreaker,
	}
)

// text reads a string into *dst.
func (sc *scanner) text(dst *string) bool { return sc.textOf(dst, knownStrings) }

// textOf reads a string into *dst, sharing it when it is in known.
func (sc *scanner) textOf(dst *string, known []string) bool {
	s, e, ok := sc.span()
	if !ok {
		return false
	}
	b := sc.data[s:e]
	for _, k := range known {
		if string(b) == k {
			*dst = k
			return true
		}
	}
	*dst = string(b)
	return true
}

// integer reads a plain JSON integer within [lo, hi], where lo < 0 <
// hi: encoding/json refuses one out of its field's range.
func (sc *scanner) integer(lo, hi int64) (int64, bool) {
	sc.ws()
	limit := uint64(hi)
	neg := sc.pos < len(sc.data) && sc.data[sc.pos] == '-'
	if neg {
		sc.pos++
		limit = uint64(-(lo + 1)) + 1
	}
	start := sc.pos
	var u uint64
	for ; sc.pos < len(sc.data) && sc.data[sc.pos] >= '0' && sc.data[sc.pos] <= '9'; sc.pos++ {
		d := uint64(sc.data[sc.pos] - '0')
		if u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if digits := sc.pos - start; digits == 0 || (digits > 1 && sc.data[start] == '0') {
		return 0, false
	}
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

func (sc *scanner) int64v(dst *int64) bool {
	v, ok := sc.integer(math.MinInt64, math.MaxInt64)
	*dst = v
	return ok
}

func (sc *scanner) intv(dst *int) bool {
	v, ok := sc.integer(math.MinInt, math.MaxInt)
	*dst = int(v)
	return ok
}

func (sc *scanner) boolv(dst *bool) bool {
	sc.ws()
	switch rest := sc.data[sc.pos:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		sc.pos, *dst = sc.pos+len("true"), true
	case bytes.HasPrefix(rest, []byte("false")):
		sc.pos, *dst = sc.pos+len("false"), false
	default:
		return false
	}
	return true
}

// maxKeys bounds the keys of one object: more than any request type
// has means a duplicate or an unknown key.
const maxKeys = 16

// object reads an object, handing each key to field, which reads the
// value and reports false for a key it does not know. A key may appear
// once.
func (sc *scanner) object(field func(key []byte) bool) bool {
	if !sc.lit('{') {
		return false
	}
	if sc.lit('}') {
		return true
	}
	var seen [maxKeys][2]int
	for n := 0; ; n++ {
		s, e, ok := sc.span()
		if !ok || n == maxKeys || !sc.lit(':') {
			return false
		}
		key := sc.data[s:e]
		for _, k := range seen[:n] {
			if string(sc.data[k[0]:k[1]]) == string(key) {
				return false
			}
		}
		seen[n] = [2]int{s, e}
		if !field(key) {
			return false
		}
		if sc.lit('}') {
			return true
		}
		if !sc.lit(',') {
			return false
		}
	}
}

// array reads an array, reading each element with elem.
func (sc *scanner) array(elem func() bool) bool {
	if !sc.lit('[') {
		return false
	}
	if sc.lit(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if sc.lit(']') {
			return true
		}
		if !sc.lit(',') {
			return false
		}
	}
}

// flatCount is the element count of the array of scalars starting at
// the cursor, for sizing its slice once. Malformed input makes it
// wrong, never the decode: the array is then refused anyway.
func (sc *scanner) flatCount() int {
	rest := sc.data[sc.pos:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return bytes.Count(rest, []byte{','}) + 1
}

func (sc *scanner) scheduleRequest(r *ScheduleRequest) bool {
	return sc.object(func(key []byte) bool {
		switch string(key) {
		case "budget_bits":
			return sc.int64v(&r.BudgetBits)
		case "timeout_ms":
			return sc.int64v(&r.TimeoutMS)
		case "include_moves":
			return sc.boolv(&r.IncludeMoves)
		}
		return sc.instanceField(key, &r.Spec)
	})
}

// instanceField reads one of the fields of the Spec that ScheduleRequest
// and PatchRequest embed into r.
func (sc *scanner) instanceField(key []byte, r *Spec) bool {
	switch string(key) {
	case "family":
		return sc.text(&r.Family)
	case "n":
		return sc.intv(&r.N)
	case "d":
		return sc.intv(&r.D)
	case "m":
		return sc.intv(&r.M)
	case "k":
		return sc.intv(&r.K)
	case "height":
		return sc.intv(&r.Height)
	case "weights":
		return sc.weights(&r.Weights)
	case "graph":
		return sc.graph(&r.Graph)
	case "cdag":
		return sc.graphSpec(&r.CDAG)
	case "deltas":
		return sc.deltas(&r.Deltas)
	}
	return false
}

func (sc *scanner) patchRequest(r *PatchRequest) bool {
	return sc.object(func(key []byte) bool {
		switch string(key) {
		case "base_key":
			return sc.text(&r.BaseKey)
		case "budgets_bits":
			return sc.int64s(&r.BudgetsBits)
		case "timeout_ms":
			return sc.int64v(&r.TimeoutMS)
		}
		return sc.instanceField(key, &r.Spec)
	})
}

func (sc *scanner) peerRequest(r *PeerScheduleRequest) bool {
	return sc.object(func(key []byte) bool {
		switch string(key) {
		case "req":
			return sc.scheduleRequest(&r.Req)
		case "key":
			return sc.text(&r.Key)
		case "origin":
			return sc.text(&r.Origin)
		}
		return false
	})
}

// scanPeerHead decodes the head of a packed peer frame into env, which
// must be zero, when it takes the plain form without a trace member;
// otherwise it reports false and the caller decodes the head with
// json.Unmarshal, which then decodes it exactly as the scanner would
// have.
func scanPeerHead(head []byte, env *PeerScheduleResponse) bool {
	sc := scanner{data: head}
	return sc.object(func(key []byte) bool {
		if string(key) != "result" {
			return false
		}
		env.Result = new(ScheduleResult)
		return sc.result(env.Result)
	}) && sc.end()
}

// result reads a ScheduleResult without a move list.
func (sc *scanner) result(r *ScheduleResult) bool {
	return sc.object(func(key []byte) bool {
		switch string(key) {
		case "workload":
			return sc.text(&r.Workload)
		case "source":
			return sc.textOf(&r.Source, resultStrings)
		case "fallback_reason":
			return sc.text(&r.FallbackReason)
		case "fallback_cause":
			return sc.text(&r.FallbackCause)
		case "budget_bits":
			return sc.int64v(&r.BudgetBits)
		case "cost_bits":
			return sc.int64v(&r.CostBits)
		case "peak_bits":
			return sc.int64v(&r.PeakBits)
		case "lower_bound_bits":
			return sc.int64v(&r.LowerBoundBits)
		case "move_count":
			return sc.intv(&r.MoveCount)
		case "move_kinds":
			return sc.moveKinds(&r.MoveKinds)
		case "anytime":
			r.Anytime = new(AnytimeResult)
			return sc.anytime(r.Anytime)
		case "elapsed_us":
			return sc.int64v(&r.ElapsedUS)
		case "cache_key":
			return sc.text(&r.CacheKey)
		case "cache":
			return sc.textOf(&r.Cache, resultStrings)
		case "cost":
			r.Cost = new(CostMeta)
			return sc.cost(r.Cost)
		}
		return false
	})
}

func (sc *scanner) moveKinds(k *MoveKinds) bool {
	return sc.object(func(key []byte) bool {
		switch string(key) {
		case "M1":
			return sc.intv(&k.M1)
		case "M2":
			return sc.intv(&k.M2)
		case "M3":
			return sc.intv(&k.M3)
		case "M4":
			return sc.intv(&k.M4)
		}
		return false
	})
}

func (sc *scanner) anytime(a *AnytimeResult) bool {
	return sc.object(func(key []byte) bool {
		switch string(key) {
		case "complete":
			return sc.boolv(&a.Complete)
		case "seed_cost_bits":
			return sc.int64v(&a.SeedCostBits)
		case "expanded":
			return sc.int64v(&a.Expanded)
		case "pruned":
			return sc.int64v(&a.Pruned)
		case "deduped":
			return sc.int64v(&a.Deduped)
		case "improvements":
			return sc.int64v(&a.Improvements)
		case "workers":
			return sc.intv(&a.Workers)
		}
		return false
	})
}

func (sc *scanner) cost(c *CostMeta) bool {
	return sc.object(func(key []byte) bool {
		switch string(key) {
		case "source_tier":
			return sc.textOf(&c.SourceTier, resultStrings)
		case "queue_wait_us":
			return sc.int64v(&c.QueueWaitUS)
		case "solve_wall_us":
			return sc.int64v(&c.SolveWallUS)
		case "states_expanded":
			return sc.int64v(&c.StatesExpanded)
		case "memo_hits":
			return sc.int64v(&c.MemoHits)
		case "memo_misses":
			return sc.int64v(&c.MemoMisses)
		case "cells_invalidated":
			return sc.int64v(&c.CellsInvalidated)
		case "cells_reused":
			return sc.int64v(&c.CellsReused)
		case "peer_hops":
			return sc.intv(&c.PeerHops)
		}
		return false
	})
}

func (sc *scanner) weights(w *WeightSpec) bool {
	return sc.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return sc.text(&w.Name)
		case "word_bits":
			return sc.intv(&w.WordBits)
		case "input_words":
			return sc.intv(&w.InputWords)
		case "node_words":
			return sc.intv(&w.NodeWords)
		}
		return false
	})
}

func (sc *scanner) deltas(dst *[]PatchDelta) bool {
	ds := []PatchDelta{}
	ok := sc.array(func() bool {
		var d PatchDelta
		ok := sc.object(func(key []byte) bool {
			switch string(key) {
			case "node":
				return sc.int64v(&d.Node)
			case "weight_bits":
				return sc.int64v(&d.WeightBits)
			}
			return false
		})
		ds = append(ds, d)
		return ok
	})
	*dst = ds
	return ok
}

func (sc *scanner) int64s(dst *[]int64) bool {
	vs := make([]int64, 0, sc.flatCount())
	ok := sc.array(func() bool {
		v, ok := sc.integer(math.MinInt64, math.MaxInt64)
		vs = append(vs, v)
		return ok
	})
	*dst = vs
	return ok
}

// graphScratch is the working memory of the graph readers: nodes as
// read, with their strings as spans of the body, their lists as
// windows of one flat array each, and the bytes of every string kept
// so that all of them become one allocation. It is pooled, and holds
// no pointer into a decoded request once returned.
type graphScratch struct {
	nodes   []scratchNode
	deps    [][2]int      // GraphSpec deps, as spans
	parents []cdag.NodeID // interchange parents
	strs    []byte
	inter   []cdag.InterchangeNode
}

// scratchNode is one node as read: either a GraphNode or an
// interchange node. lists is -1 when the node has no list key, so an
// absent list stays nil and an empty one does not.
type scratchNode struct {
	name         [2]int
	weight       int64
	first, lists int
}

var scratchPool = sync.Pool{New: func() any { return new(graphScratch) }}

// maxPooledScratch bounds the scratch a pool keeps, in elements.
const maxPooledScratch = 1 << 14

// scratch returns the scanner's graph scratch, emptied.
func (sc *scanner) scratch() *graphScratch {
	if sc.tmp == nil {
		sc.tmp = scratchPool.Get().(*graphScratch)
	}
	t := sc.tmp
	t.nodes, t.deps, t.parents, t.strs = t.nodes[:0], t.deps[:0], t.parents[:0], t.strs[:0]
	return t
}

// release returns the scratch to its pool.
func (sc *scanner) release() {
	t := sc.tmp
	if t == nil {
		return
	}
	sc.tmp = nil
	if cap(t.nodes) > maxPooledScratch || cap(t.deps) > maxPooledScratch || cap(t.inter) > maxPooledScratch ||
		cap(t.parents) > maxPooledScratch || cap(t.strs) > 16*maxPooledScratch {
		return
	}
	scratchPool.Put(t)
}

// keep appends the bytes of span s of data to the string bytes.
func (t *graphScratch) keep(data []byte, s [2]int) {
	t.strs = append(t.strs, data[s[0]:s[1]]...)
}

// cutter hands out, in order, the strings kept back to back in all.
type cutter struct {
	all string
	off int
}

// next returns the string of the next kept span s.
func (c *cutter) next(s [2]int) string {
	n := s[1] - s[0]
	c.off += n
	return c.all[c.off-n : c.off]
}

// graphNodes reads {"nodes":[...]} with node reading one element into
// the scratch. present reports whether the nodes key appeared.
func (sc *scanner) graphNodes(t *graphScratch, node func(*scratchNode) bool) (present, ok bool) {
	ok = sc.object(func(key []byte) bool {
		if string(key) != "nodes" {
			return false
		}
		present = true
		return sc.array(func() bool {
			t.nodes = append(t.nodes, scratchNode{lists: -1})
			return node(&t.nodes[len(t.nodes)-1])
		})
	})
	return present, ok
}

// graphSpec reads the raw node/edge form into *dst.
func (sc *scanner) graphSpec(dst **GraphSpec) bool {
	t := sc.scratch()
	present, ok := sc.graphNodes(t, func(nd *scratchNode) bool {
		return sc.object(func(key []byte) bool {
			switch string(key) {
			case "name":
				s, e, ok := sc.span()
				nd.name = [2]int{s, e}
				return ok
			case "weight_bits":
				return sc.int64v(&nd.weight)
			case "deps":
				nd.first, nd.lists = len(t.deps), 0
				return sc.array(func() bool {
					s, e, ok := sc.span()
					t.deps = append(t.deps, [2]int{s, e})
					nd.lists++
					return ok
				})
			}
			return false
		})
	})
	if !ok {
		return false
	}
	spec := &GraphSpec{}
	*dst = spec
	if !present {
		return true
	}
	// One string holds every name and dep, in node order.
	for _, nd := range t.nodes {
		t.keep(sc.data, nd.name)
		if nd.lists > 0 {
			for _, d := range t.deps[nd.first : nd.first+nd.lists] {
				t.keep(sc.data, d)
			}
		}
	}
	c := cutter{all: string(t.strs)}
	var deps []string
	if len(t.deps) > 0 {
		deps = make([]string, len(t.deps))
	}
	spec.Nodes = make([]GraphNode, len(t.nodes))
	for i, nd := range t.nodes {
		gn := &spec.Nodes[i]
		gn.Name, gn.WeightBits = c.next(nd.name), nd.weight
		switch {
		case nd.lists == 0:
			gn.Deps = []string{}
		case nd.lists > 0:
			gn.Deps = deps[nd.first : nd.first+nd.lists : nd.first+nd.lists]
			for j, d := range t.deps[nd.first : nd.first+nd.lists] {
				gn.Deps[j] = c.next(d)
			}
		}
	}
	return true
}

// graph reads the cdag interchange form into *dst and builds it with
// cdag.FromInterchange, the constructor cdag.Graph.UnmarshalJSON uses.
// A graph that constructor refuses is refused here too, and the
// general decoder then reports the same error.
func (sc *scanner) graph(dst **cdag.Graph) bool {
	t := sc.scratch()
	_, ok := sc.graphNodes(t, func(nd *scratchNode) bool {
		return sc.object(func(key []byte) bool {
			switch string(key) {
			case "w":
				return sc.int64v(&nd.weight)
			case "name":
				s, e, ok := sc.span()
				nd.name = [2]int{s, e}
				return ok
			case "parents":
				nd.first, nd.lists = len(t.parents), 0
				return sc.array(func() bool {
					p, ok := sc.integer(math.MinInt32, math.MaxInt32)
					t.parents = append(t.parents, cdag.NodeID(p))
					nd.lists++
					return ok
				})
			}
			return false
		})
	})
	if !ok {
		return false
	}
	for _, nd := range t.nodes {
		t.keep(sc.data, nd.name)
	}
	c := cutter{all: string(t.strs)}
	t.inter = t.inter[:0]
	for _, nd := range t.nodes {
		in := cdag.InterchangeNode{Weight: nd.weight, Name: c.next(nd.name)}
		if nd.lists > 0 {
			in.Parents = t.parents[nd.first : nd.first+nd.lists]
		}
		t.inter = append(t.inter, in)
	}
	g, err := cdag.FromInterchange(t.inter)
	clear(t.inter) // the scratch must not keep the names alive
	if err != nil {
		return false
	}
	*dst = g
	return true
}
