// Request streams: request i of a workload is a pure function of
// (seed, i). The server only ever sees the generated bodies; the
// library replay and the correctness gate regenerate the same request
// from its index.

package main

import (
	"context"
	"encoding/json"
	"fmt"

	"wrbpg/internal/anytime"
	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
	"wrbpg/internal/mvm"
	"wrbpg/internal/solve"
	"wrbpg/internal/wcfg"
)

// Request paths the workloads use.
const (
	pathSchedule = "/v1/schedule"
	pathSweep    = "/v1/schedule/sweep"
	pathPatch    = "/v1/schedule/patch"
)

// request is one generated API call. Budgets are the budgets it asks
// for, in order (one for a schedule). Hot is the hot-cache population
// index the request resubmits (-1 for every other workload); the
// correctness gate checks its answer against the warmed one. LB, when
// set, is the instance's Proposition 2.4 lower bound as the generator
// computed it, which sweep and patch costs are checked against.
type request struct {
	Path    string
	Body    []byte
	Budgets []int64
	Hot     int
	LB      int64
}

// stream generates a workload's requests.
type stream interface {
	// request returns request i of the timed stream.
	request(i int) request
	// warmup returns the requests sent during set-up, before the first
	// timed request: the same for every seed, so every run's set-up does
	// the same work. None of them shares a key with the timed stream
	// unless the workload is meant to hit the cache.
	warmup() []request
}

// rng is splitmix64: a few nanoseconds per draw and no allocation, so
// generating a request costs far less than serving it.
type rng struct{ s uint64 }

func newRNG(parts ...uint64) rng {
	r := rng{s: 0x9E3779B97F4A7C15}
	for _, p := range parts {
		r.s ^= p
		r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int64) int64 { return lo + int64(r.next()%uint64(hi-lo+1)) }

// Stream identifiers salt the per-request generators, so two workloads
// run with one seed draw unrelated inputs.
const (
	saltHot uint64 = iota + 1
	saltCold
	saltSession
	saltCDAG
	saltFleet
	saltWarm
)

// shape is one parametric instance family with its two size
// parameters: dwt (n, d), ktree (k, height) or mvm (m, n).
type shape struct {
	Family string
	A, B   int
}

func (s shape) instance(cfg wcfg.Config) solve.Instance {
	in := solve.Instance{Family: s.Family, Cfg: cfg}
	switch s.Family {
	case solve.FamilyDWT:
		in.N, in.D = s.A, s.B
	case solve.FamilyKTree:
		in.K, in.Height = s.A, s.B
	case solve.FamilyMVM:
		in.M, in.N = s.A, s.B
	}
	return in
}

// bounds returns the instance's existence bound and, for mvm, the
// smallest budget the tile search covers (0 otherwise): below it the
// optimal tier cannot answer and the server degrades to the baseline.
func (s shape) bounds(cfg wcfg.Config) (exist, tiling cdag.Weight, g *cdag.Graph, err error) {
	in := s.instance(cfg)
	_, g, err = in.Build()
	if err != nil {
		return 0, 0, nil, err
	}
	if s.Family == solve.FamilyMVM {
		mg, err := mvm.Build(s.A, s.B, cfg)
		if err != nil {
			return 0, 0, nil, err
		}
		tiling = mg.TilingMinBudget()
	}
	return core.MinExistenceBudget(g), tiling, g, nil
}

// optimalFloor is the smallest budget at which the optimal tier
// answers: 1.5× the existence bound, and at least the tiling minimum.
func optimalFloor(exist, tiling cdag.Weight) int64 {
	lo := (3*int64(exist) + 1) / 2
	if int64(tiling) > lo {
		lo = int64(tiling)
	}
	return lo
}

// Wire bodies. They mirror the server's request schema field for field
// but are declared here, so the benchmark's traffic does not change
// when the server's Go types do.
type weightsBody struct {
	WordBits   int `json:"word_bits"`
	InputWords int `json:"input_words"`
	NodeWords  int `json:"node_words"`
}

type specNode struct {
	Name       string   `json:"name"`
	WeightBits int64    `json:"weight_bits"`
	Deps       []string `json:"deps,omitempty"`
}

type specBody struct {
	Nodes []specNode `json:"nodes"`
}

type deltaBody struct {
	Node       int64 `json:"node"`
	WeightBits int64 `json:"weight_bits"`
}

type body struct {
	Family      string       `json:"family"`
	N           int          `json:"n,omitempty"`
	D           int          `json:"d,omitempty"`
	M           int          `json:"m,omitempty"`
	K           int          `json:"k,omitempty"`
	Height      int          `json:"height,omitempty"`
	Weights     *weightsBody `json:"weights,omitempty"`
	BudgetBits  int64        `json:"budget_bits,omitempty"`
	BudgetsBits []int64      `json:"budgets_bits,omitempty"`
	Deltas      []deltaBody  `json:"deltas,omitempty"`
	Graph       *cdag.Graph  `json:"graph,omitempty"`
	CDAG        *specBody    `json:"cdag,omitempty"`
	TimeoutMS   int64        `json:"timeout_ms,omitempty"`
}

func shapeBody(s shape, w *weightsBody) body {
	b := body{Family: s.Family, Weights: w}
	in := s.instance(wcfg.Config{})
	b.N, b.D, b.M, b.K, b.Height = in.N, in.D, in.M, in.K, in.Height
	return b
}

func encode(path string, b body, hot int) request {
	raw, err := json.Marshal(b)
	if err != nil {
		panic(fmt.Sprintf("wrbpgbench: encode %s body: %v", path, err)) // only plain structs are marshaled
	}
	budgets := b.BudgetsBits
	if path == pathSchedule {
		budgets = []int64{b.BudgetBits}
	}
	return request{Path: path, Body: raw, Budgets: budgets, Hot: hot}
}

// ---- hot-cache --------------------------------------------------------

// hotShapes is wrbpgload's default roster.
var hotShapes = []shape{
	{solve.FamilyDWT, 16, 2}, {solve.FamilyDWT, 32, 4},
	{solve.FamilyKTree, 2, 3}, {solve.FamilyKTree, 3, 3},
	{solve.FamilyMVM, 6, 8},
}

const (
	hotBudgets = 4 // per shape
	hotGraphs  = 8
	// fastMaxStates caps the single-worker search that admits a random
	// graph as fast: graphs whose search completes under it complete
	// within a millisecond on the server, so their answers are
	// cacheable and cost a set-up no deadline.
	fastMaxStates = 300
)

// fastGraphs draws count cdag.Random graphs (n 16–24) whose search at
// 1.5× the existence bound completes within fastMaxStates, from the
// generator salted with salt, and returns them with those budgets.
func fastGraphs(salt uint64, count int) ([]*cdag.Graph, []int64, error) {
	var gs []*cdag.Graph
	var budgets []int64
	for cand := uint64(0); len(gs) < count; cand++ {
		if cand > 10000 {
			return nil, nil, fmt.Errorf("no %d fast-completing graphs among %d candidates", count, cand)
		}
		cr := newRNG(salt, 1<<61+cand)
		g := cdag.Random(int64(cr.next()>>1), 16+cr.intn(9))
		budget := core.MinExistenceBudget(g) * 3 / 2
		res, err := anytime.Search(context.Background(), g, budget, guard.Limits{MaxStates: fastMaxStates}, anytime.Options{Workers: 1})
		if err != nil || !res.Complete {
			continue
		}
		gs = append(gs, g)
		budgets = append(budgets, int64(budget))
	}
	return gs, budgets, nil
}

type hotStream struct {
	seed   uint64
	params []request // one body per parametric key
	graphs []*cdag.Graph
	budget []int64 // per graph
}

// newHotStream draws the population from a fixed generator, like
// wrbpgload's fixed roster, so every seed answers the same 28 keys and
// the answer mix repeats; the seed draws the request sequence and the
// graphs' relabelings.
func newHotStream(seed int64) (*hotStream, error) {
	h := &hotStream{seed: uint64(seed)}
	r := newRNG(saltHot, 1<<62)
	for _, s := range hotShapes {
		exist, tiling, _, err := s.bounds(wcfg.Equal(wcfg.DefaultWordBits))
		if err != nil {
			return nil, err
		}
		lo, hi := optimalFloor(exist, tiling), 2*int64(exist)
		// One budget per quarter of [lo, hi].
		for q := int64(0); q < hotBudgets; q++ {
			qlo, qhi := lo+(hi-lo)*q/hotBudgets, lo+(hi-lo)*(q+1)/hotBudgets-1
			if q == hotBudgets-1 {
				qhi = hi
			}
			b := shapeBody(s, nil)
			b.BudgetBits = r.between(qlo, qhi)
			h.params = append(h.params, encode(pathSchedule, b, len(h.params)))
		}
	}
	var err error
	if h.graphs, h.budget, err = fastGraphs(saltHot, hotGraphs); err != nil {
		return nil, fmt.Errorf("hot-cache: %w", err)
	}
	return h, nil
}

// population is the number of distinct hot keys.
func (h *hotStream) population() int { return len(h.params) + len(h.graphs) }

func (h *hotStream) request(i int) request {
	r := newRNG(h.seed, saltHot, uint64(i))
	if r.intn(4) < 3 {
		return h.params[r.intn(len(h.params))]
	}
	k := r.intn(len(h.graphs))
	return h.graphRequest(k, &r)
}

// graphRequest submits hot graph k in the raw node/edge form under a
// fresh node order and fresh names; the server's canonical form maps
// every relabeling onto one cache key.
func (h *hotStream) graphRequest(k int, r *rng) request {
	g := h.graphs[k]
	n := g.Len()
	order := make([]int, n)
	for v := range order {
		order[v] = v
	}
	for v := n - 1; v > 0; v-- {
		j := r.intn(v + 1)
		order[v], order[j] = order[j], order[v]
	}
	base := r.intn(1 << 20)
	names := make([]string, n)
	for pos, v := range order {
		names[v] = fmt.Sprintf("t%d", base+pos)
	}
	spec := &specBody{Nodes: make([]specNode, n)}
	for pos, v := range order {
		id := cdag.NodeID(v)
		nd := specNode{Name: names[v], WeightBits: g.Weight(id)}
		for _, p := range g.Parents(id) {
			nd.Deps = append(nd.Deps, names[p])
		}
		spec.Nodes[pos] = nd
	}
	return encode(pathSchedule, body{Family: solve.FamilyCDAG, BudgetBits: h.budget[k], CDAG: spec}, len(h.params)+k)
}

func (h *hotStream) warmup() []request {
	out := append([]request(nil), h.params...)
	for k := range h.graphs {
		r := newRNG(saltWarm, uint64(k))
		out = append(out, h.graphRequest(k, &r))
	}
	return out
}

// ---- cold-solve and fleet-3 -----------------------------------------

var coldShapes = []shape{
	{solve.FamilyDWT, 64, 6}, {solve.FamilyDWT, 128, 7},
	{solve.FamilyKTree, 3, 4}, {solve.FamilyKTree, 2, 8},
	{solve.FamilyMVM, 12, 16}, {solve.FamilyMVM, 16, 32},
}

// The cold key space: shape × word bits × input words × node words ×
// budget offset. Request i takes key perm(i), an affine permutation of
// the space, so no key repeats within the first coldDomain requests.
// Warm-up requests take budget offsets above the timed stream's, so
// they share no key with it.
const (
	coldWordLo, coldWordHi = 8, 64
	coldWords              = 4  // input and node words each in [1, coldWords]
	coldOffsets            = 64 // budget offsets above the optimal floor
	coldWarm               = 64 // warm-up requests
)

var coldDomain = len(coldShapes) * (coldWordHi - coldWordLo + 1) * coldWords * coldWords * coldOffsets

type coldStream struct {
	a, b uint64 // perm(i) = (a·i + b) mod coldDomain, gcd(a, coldDomain) = 1
	// exist and tiling hold each shape's bounds at word_bits 1, indexed
	// [shape][input words-1][node words-1]; every weight is a multiple
	// of word_bits, so both bounds scale linearly with it.
	exist, tiling [][coldWords][coldWords]int64
}

func newColdStream(seed int64, salt uint64) (*coldStream, error) {
	r := newRNG(uint64(seed), salt, 1<<62)
	n := uint64(coldDomain)
	c := &coldStream{a: r.next()%n | 1, b: r.next() % n}
	for gcd(c.a, n) != 1 {
		c.a = (c.a + 2) % n
	}
	c.exist = make([][coldWords][coldWords]int64, len(coldShapes))
	c.tiling = make([][coldWords][coldWords]int64, len(coldShapes))
	for si, s := range coldShapes {
		for iw := 1; iw <= coldWords; iw++ {
			for nw := 1; nw <= coldWords; nw++ {
				exist, tiling, _, err := s.bounds(wcfg.Config{Name: "Custom", WordBits: 1, InputWords: iw, NodeWords: nw})
				if err != nil {
					return nil, err
				}
				c.exist[si][iw-1][nw-1], c.tiling[si][iw-1][nw-1] = int64(exist), int64(tiling)
			}
		}
	}
	return c, nil
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (c *coldStream) request(i int) request {
	return c.at((c.a*uint64(i)+c.b)%uint64(coldDomain), 0)
}

// at builds the request for key idx of the space, its budget offset
// raised by extra.
func (c *coldStream) at(idx uint64, extra int64) request {
	off := int64(idx%coldOffsets) + extra
	idx /= coldOffsets
	nw := int(idx%coldWords) + 1
	idx /= coldWords
	iw := int(idx%coldWords) + 1
	idx /= coldWords
	wb := int(idx%(coldWordHi-coldWordLo+1)) + coldWordLo
	si := int(idx / (coldWordHi - coldWordLo + 1))
	exist := cdag.Weight(c.exist[si][iw-1][nw-1] * int64(wb))
	tiling := cdag.Weight(c.tiling[si][iw-1][nw-1] * int64(wb))
	b := shapeBody(coldShapes[si], &weightsBody{WordBits: wb, InputWords: iw, NodeWords: nw})
	// wb ≥ 8, so off·wb/4 is strictly increasing in off: distinct
	// offsets are distinct budgets.
	b.BudgetBits = optimalFloor(exist, tiling) + off*int64(wb)/4
	return encode(pathSchedule, b, -1)
}

// warmup spreads its keys evenly over the space, so every shape is
// warmed.
func (c *coldStream) warmup() []request {
	out := make([]request, coldWarm)
	for j := range out {
		out[j] = c.at(uint64(j*(coldDomain/coldWarm)), coldOffsets)
	}
	return out
}

// ---- session-mix ------------------------------------------------------

var sessionShapes = []shape{
	{solve.FamilyKTree, 3, 4}, {solve.FamilyKTree, 2, 8},
	{solve.FamilyDWT, 128, 7}, {solve.FamilyMVM, 16, 32},
}

const (
	sweepBudgets = 8
	patchBudgets = 4
	maxDeltas    = 4
	// Patched node weights are drawn from [8, 64] bits; budgets for a
	// patch start at (k+1)·64, the existence bound of any patched k-ary
	// tree, so every patched answer is feasible.
	deltaLo, deltaHi = 8, 64
	sessionWarm      = 16
)

type sessionStream struct {
	seed        uint64
	lo, hi      []int64 // sweep budget band per base
	graphs      []*cdag.Graph
	patchable   []int // indices of the ktree bases
	patchLo     []int64
	sweepBodies []body
}

func newSessionStream(seed int64) (*sessionStream, error) {
	s := &sessionStream{seed: uint64(seed)}
	for i, sh := range sessionShapes {
		exist, tiling, g, err := sh.bounds(wcfg.Equal(wcfg.DefaultWordBits))
		if err != nil {
			return nil, err
		}
		s.lo = append(s.lo, optimalFloor(exist, tiling))
		s.hi = append(s.hi, 3*int64(exist))
		s.graphs = append(s.graphs, g)
		s.patchLo = append(s.patchLo, int64(sh.A+1)*deltaHi)
		if sh.Family == solve.FamilyKTree {
			s.patchable = append(s.patchable, i)
		}
		s.sweepBodies = append(s.sweepBodies, shapeBody(sh, nil))
	}
	return s, nil
}

func (s *sessionStream) request(i int) request {
	return s.at(newRNG(s.seed, saltSession, uint64(i)))
}

func (s *sessionStream) at(r rng) request {
	if r.intn(2) == 0 {
		k := r.intn(len(sessionShapes))
		b := s.sweepBodies[k]
		b.BudgetsBits = make([]int64, sweepBudgets)
		for j := range b.BudgetsBits {
			b.BudgetsBits[j] = r.between(s.lo[k], s.hi[k])
		}
		req := encode(pathSweep, b, -1)
		req.LB = int64(core.LowerBound(s.graphs[k]))
		return req
	}
	k := s.patchable[r.intn(len(s.patchable))]
	g := s.graphs[k]
	b := s.sweepBodies[k]
	b.Deltas = make([]deltaBody, 1+r.intn(maxDeltas))
	patched := map[cdag.NodeID]int64{} // last write wins, as on the server
	for j := range b.Deltas {
		b.Deltas[j] = deltaBody{Node: int64(r.intn(g.Len())), WeightBits: r.between(deltaLo, deltaHi)}
		patched[cdag.NodeID(b.Deltas[j].Node)] = b.Deltas[j].WeightBits
	}
	b.BudgetsBits = make([]int64, patchBudgets)
	for j := range b.BudgetsBits {
		b.BudgetsBits[j] = r.between(s.patchLo[k], 2*s.patchLo[k])
	}
	req := encode(pathPatch, b, -1)
	req.LB = int64(core.LowerBound(g))
	for v, w := range patched {
		if g.IsSource(v) || g.IsSink(v) {
			req.LB += w - int64(g.Weight(v))
		}
	}
	return req
}

// warmup builds every pooled session with one sweep, then runs a short
// mixed prefix from a separate generator.
func (s *sessionStream) warmup() []request {
	var out []request
	for k := range sessionShapes {
		b := s.sweepBodies[k]
		b.BudgetsBits = []int64{s.lo[k]}
		out = append(out, encode(pathSweep, b, -1))
	}
	for j := 0; j < sessionWarm; j++ {
		out = append(out, s.at(newRNG(saltWarm, uint64(j))))
	}
	return out
}

// ---- cdag-anytime -----------------------------------------------------

const (
	anytimeTimeoutMS = 30
	anytimeWarm      = 4
)

type cdagStream struct {
	seed uint64
	warm []request
}

// newCDAGStream warms with small graphs whose search completes within
// a millisecond, so set-up is the server's work rather than the
// searches' 30 ms deadlines.
func newCDAGStream(seed int64) (*cdagStream, error) {
	gs, budgets, err := fastGraphs(saltWarm, anytimeWarm)
	if err != nil {
		return nil, fmt.Errorf("cdag-anytime: %w", err)
	}
	c := &cdagStream{seed: uint64(seed)}
	for k, g := range gs {
		c.warm = append(c.warm, cdagRequest(g, budgets[k]))
	}
	return c, nil
}

func (c *cdagStream) request(i int) request {
	r := newRNG(c.seed, saltCDAG, uint64(i))
	n := 40 + r.intn(17)
	g := cdag.Random(int64(r.next()>>1), n)
	return cdagRequest(g, int64(core.MinExistenceBudget(g))*3/2)
}

func cdagRequest(g *cdag.Graph, budget int64) request {
	return encode(pathSchedule, body{Family: solve.FamilyCDAG, Graph: g, BudgetBits: budget, TimeoutMS: anytimeTimeoutMS}, -1)
}

func (c *cdagStream) warmup() []request { return c.warm }
