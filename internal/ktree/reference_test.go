package ktree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/stepmemo"
)

// refScheduler is the Eq. 6 DP in its plain form, the differential
// oracle for Scheduler: every (σ, δ) strategy is enumerated, spill-last
// ones included, each strategy probes the memo once per parent, and
// leaves and the infeasible region are stored as memo steps like any
// other cell. Scheduler must agree with it on every cost and emit
// byte-identical schedules.
type refScheduler struct {
	t     *Tree
	memo  stepmemo.Rows[entry]
	exist []cdag.Weight
}

// entry is one reference cell: its cost and its argmin (σ row, δ).
type entry struct {
	cost    cdag.Weight
	permIdx int32
	delta   uint16
}

func newRefScheduler(t *Tree) *refScheduler {
	g := t.G
	r := &refScheduler{t: t, memo: stepmemo.NewRows[entry](g, func(cdag.NodeID) bool { return true }), exist: make([]cdag.Weight, g.Len())}
	for v := range r.exist {
		id := cdag.NodeID(v)
		e := g.Weight(id)
		for _, p := range g.Parents(id) {
			e += g.Weight(p)
		}
		for _, p := range g.Parents(id) {
			e = max(e, r.exist[p])
		}
		r.exist[v] = e
	}
	return r
}

func (r *refScheduler) pt(v cdag.NodeID, b cdag.Weight) (entry, cdag.Weight, cdag.Weight) {
	if st := r.memo.Find(v, b); st != nil {
		return st.V, st.Lo, st.Hi
	}
	g := r.t.G
	if b < r.exist[v] {
		return r.memo.Store(v, b, -Inf, r.exist[v]-1, entry{cost: Inf})
	}
	if g.IsSource(v) {
		w := g.Weight(v)
		return r.memo.Store(v, b, w, Inf, entry{cost: w})
	}
	parents := g.Parents(v)
	k := len(parents)
	lo, hi := r.exist[v], Inf
	best := entry{cost: Inf}
	for pi, order := range permTable(k) {
		for delta := uint16(0); delta < 1<<uint(k); delta++ {
			skip := false
			var cost, held cdag.Weight
			for i := 0; i < k && !skip; i++ {
				p := parents[order[i]]
				keep := delta&(1<<uint(i)) != 0
				if !keep && g.IsSource(p) {
					skip = true
					break
				}
				sub, slo, shi := r.pt(p, b-held)
				lo, hi = max(lo, slo+held), min(hi, shi+held)
				if sub.cost >= Inf {
					skip = true
					break
				}
				cost += sub.cost
				if keep {
					held += g.Weight(p)
				} else {
					cost += 2 * g.Weight(p)
				}
			}
			if skip || cost >= best.cost {
				continue
			}
			best = entry{cost: cost, permIdx: int32(pi), delta: delta}
		}
	}
	return r.memo.Store(v, b, lo, hi, best)
}

func (r *refScheduler) minCost(b cdag.Weight) cdag.Weight {
	e, _, _ := r.pt(r.t.Root, b)
	if e.cost >= Inf {
		return Inf
	}
	return e.cost + r.t.G.Weight(r.t.Root)
}

func (r *refScheduler) schedule(b cdag.Weight) (core.Schedule, error) {
	if r.minCost(b) >= Inf {
		return nil, fmt.Errorf("ref: no valid schedule under budget %d", b)
	}
	var sched core.Schedule
	if err := r.gen(r.t.Root, b, &sched); err != nil {
		return nil, err
	}
	return sched.Append(
		core.Move{Kind: core.M2, Node: r.t.Root},
		core.Move{Kind: core.M4, Node: r.t.Root},
	), nil
}

func (r *refScheduler) gen(v cdag.NodeID, b cdag.Weight, sched *core.Schedule) error {
	g := r.t.G
	e, _, _ := r.pt(v, b)
	if e.cost >= Inf {
		return fmt.Errorf("ref: infeasible subproblem node %d budget %d", v, b)
	}
	if g.IsSource(v) {
		*sched = sched.Append(core.Move{Kind: core.M1, Node: v})
		return nil
	}
	parents := g.Parents(v)
	order := permTable(len(parents))[e.permIdx]
	var held cdag.Weight
	for i, oi := range order {
		p := parents[oi]
		if err := r.gen(p, b-held, sched); err != nil {
			return err
		}
		if e.delta&(1<<uint(i)) != 0 {
			held += g.Weight(p)
		} else {
			*sched = sched.Append(
				core.Move{Kind: core.M2, Node: p},
				core.Move{Kind: core.M4, Node: p},
			)
		}
	}
	for i, oi := range order {
		if e.delta&(1<<uint(i)) == 0 {
			*sched = sched.Append(core.Move{Kind: core.M1, Node: parents[oi]})
		}
	}
	*sched = sched.Append(core.Move{Kind: core.M3, Node: v})
	for _, p := range parents {
		*sched = sched.Append(core.Move{Kind: core.M4, Node: p})
	}
	return nil
}

// matchReference checks s against a cold reference over the current
// weights of tr at budget b: equal MinCost, and either both schedules
// fail or they are move-for-move identical, s's sized exactly.
func matchReference(t *testing.T, s *Scheduler, ref *refScheduler, b cdag.Weight) {
	t.Helper()
	if got, want := s.MinCost(b), ref.minCost(b); got != want {
		t.Fatalf("budget %d: MinCost %d, reference %d", b, got, want)
	}
	got, gerr := s.Schedule(b)
	want, werr := ref.schedule(b)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("budget %d: Schedule err %v, reference err %v", b, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if !slices.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("budget %d: schedules differ at move %d of %d/%d", b, i, len(got), len(want))
	}
	if cap(got) != len(got) {
		t.Fatalf("budget %d: schedule capacity %d, length %d: moves miscounted", b, cap(got), len(got))
	}
}

// referenceTrees returns random trees with in-degree up to 1…5 and
// full trees, all under random positive weights.
func referenceTrees(t *testing.T, rng *rand.Rand) []*Tree {
	t.Helper()
	var trees []*Tree
	for k := 1; k <= 5; k++ {
		for range 4 {
			tr, err := Random(rng, 1+rng.Intn(8), k, 6)
			if err != nil {
				t.Fatal(err)
			}
			trees = append(trees, tr)
		}
	}
	for _, kh := range [][2]int{{1, 4}, {2, 3}, {3, 2}, {4, 1}, {4, 2}, {5, 1}} {
		tr, err := FullTree(kh[0], kh[1], func(int, int) cdag.Weight { return 1 + cdag.Weight(rng.Intn(6)) })
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	return trees
}

// referenceBudgets returns every budget from one below tr's existence
// bound to its total weight, shuffled, so a warm scheduler meets
// budgets on both sides of the steps it has stored.
func referenceBudgets(rng *rand.Rand, tr *Tree) []cdag.Weight {
	var bs []cdag.Weight
	for b := core.MinExistenceBudget(tr.G) - 1; b <= tr.G.TotalWeight(); b++ {
		bs = append(bs, b)
	}
	rng.Shuffle(len(bs), func(i, j int) { bs[i], bs[j] = bs[j], bs[i] })
	return bs
}

// TestPtMatchesReference: one warm Scheduler per tree answers every
// budget with the reference's cost and schedule, and so does a cold
// one.
func TestPtMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for ti, tr := range referenceTrees(t, rng) {
		t.Run(fmt.Sprintf("tree%d_k%d_n%d", ti, tr.K, tr.G.Len()), func(t *testing.T) {
			s, ref := NewScheduler(tr), newRefScheduler(tr)
			for i, b := range referenceBudgets(rng, tr) {
				matchReference(t, s, ref, b)
				if i%8 == 0 {
					matchReference(t, NewScheduler(tr), ref, b)
				}
			}
		})
	}
}

// TestPtMatchesReferenceAfterSetWeights: a warm Scheduler patched
// through random weight deltas keeps answering like a reference built
// cold at the patched weights.
func TestPtMatchesReferenceAfterSetWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for ti, tr := range referenceTrees(t, rng) {
		t.Run(fmt.Sprintf("tree%d_k%d_n%d", ti, tr.K, tr.G.Len()), func(t *testing.T) {
			s := NewScheduler(tr)
			bs := referenceBudgets(rng, tr)
			for _, b := range bs[:min(8, len(bs))] {
				s.MinCost(b) // warm the memo the patches will cut into
			}
			for round := range 4 {
				ds := make([]cdag.WeightDelta, 1+rng.Intn(3))
				for i := range ds {
					ds[i] = cdag.WeightDelta{Node: cdag.NodeID(rng.Intn(tr.G.Len())), Weight: 1 + cdag.Weight(rng.Intn(6))}
				}
				if _, _, err := s.SetWeights(ds); err != nil {
					t.Fatalf("round %d: SetWeights(%v): %v", round, ds, err)
				}
				ref := newRefScheduler(tr)
				for _, b := range referenceBudgets(rng, tr) {
					matchReference(t, s, ref, b)
				}
			}
		})
	}
}

// sharedTrees returns full trees whose equal subtrees share class
// cells: weights fixed per depth, and weights drawn from {1, 2}.
func sharedTrees(t *testing.T, rng *rand.Rand) []*Tree {
	t.Helper()
	var trees []*Tree
	for _, kh := range [][2]int{{2, 3}, {2, 4}, {3, 2}, {3, 3}, {4, 2}} {
		perDepth := make([]cdag.Weight, kh[1]+1)
		for d := range perDepth {
			perDepth[d] = 1 + cdag.Weight(rng.Intn(4))
		}
		for _, wf := range []func(int, int) cdag.Weight{
			func(d, _ int) cdag.Weight { return perDepth[d] },
			func(int, int) cdag.Weight { return 1 + cdag.Weight(rng.Intn(2)) },
		} {
			tr, err := FullTree(kh[0], kh[1], wf)
			if err != nil {
				t.Fatal(err)
			}
			trees = append(trees, tr)
		}
	}
	return trees
}

// sharedRoots returns the representatives that other nodes share,
// with the first node sharing each, so a patch of either lies on the
// root chain of a class's cells or of one of its members.
func sharedRoots(s *Scheduler) []cdag.NodeID {
	var out []cdag.NodeID
	seen := map[cdag.NodeID]bool{}
	for v := range s.t.G.Len() {
		if r := s.Rep(cdag.NodeID(v)); r != cdag.NodeID(v) && !seen[r] {
			seen[r] = true
			out = append(out, r, cdag.NodeID(v))
		}
	}
	return out
}

// TestSetWeightsSharedCellsMatchReference holds the class-shared memo
// to the reference on trees full of equal subtrees: cold schedulers,
// one warm scheduler over every budget, a pooled scheduler Reset to the
// tree, and a warm scheduler through patch → revert sequences on the
// representatives' root chains and their members', each answering every
// budget with the reference's cost and schedule.
func TestSetWeightsSharedCellsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trees := sharedTrees(t, rng)
	for ti, tr := range trees {
		t.Run(fmt.Sprintf("tree%d_k%d_n%d", ti, tr.K, tr.G.Len()), func(t *testing.T) {
			ref := newRefScheduler(tr)
			s := NewScheduler(tr)
			if len(sharedRoots(s)) == 0 {
				t.Fatal("no two subtrees share a class")
			}
			pooled := NewScheduler(trees[ti^1])
			pooled.MinCost(core.MinExistenceBudget(trees[ti^1].G))
			pooled.Reset(tr)
			for i, b := range referenceBudgets(rng, tr) {
				matchReference(t, s, ref, b)
				matchReference(t, pooled, ref, b)
				if i%4 == 0 {
					matchReference(t, NewScheduler(tr), ref, b)
				}
			}
			checkReps(t, s)
			for _, v := range sharedRoots(s) {
				w := tr.G.Weight(v)
				for _, nw := range []cdag.Weight{w%3 + 1, w} {
					if _, _, err := s.SetWeights([]cdag.WeightDelta{{Node: v, Weight: nw}}); err != nil {
						t.Fatalf("SetWeights(%d: %d): %v", v, nw, err)
					}
					checkReps(t, s)
					ref := newRefScheduler(tr)
					for _, b := range referenceBudgets(rng, tr) {
						matchReference(t, s, ref, b)
					}
				}
			}
		})
	}
}

// byteStream reads a fuzz input one byte at a time, then zeros.
type byteStream []byte

func (s *byteStream) next() int {
	if len(*s) == 0 {
		return 0
	}
	c := (*s)[0]
	*s = (*s)[1:]
	return int(c)
}

// decodeTree builds a small in-tree, as Random does, with every choice
// read from data: in-degree bound, node count, parent picks and
// weights in [1, 8].
func decodeTree(data *byteStream) (*Tree, error) {
	k := 1 + data.next()%4
	w := func() cdag.Weight { return 1 + cdag.Weight(data.next()%8) }
	g := &cdag.Graph{}
	var frontier []cdag.NodeID
	for range 1 + data.next()%6 {
		var parents []cdag.NodeID
		for range 1 + data.next()%k {
			if len(frontier) > 0 && data.next()&1 == 1 {
				j := data.next() % len(frontier)
				parents = append(parents, frontier[j])
				frontier = slices.Delete(frontier, j, j+1)
			} else {
				parents = append(parents, g.AddNode(w(), ""))
			}
		}
		frontier = append(frontier, g.AddNode(w(), "", parents...))
	}
	for len(frontier) > 1 {
		take := min(2, len(frontier))
		frontier = append(frontier[take:], g.AddNode(w(), "", frontier[:take]...))
	}
	return New(g)
}

// FuzzPtMatchesReference decodes a tree, a budget and one weight patch
// from the input and holds Scheduler to the reference before the
// patch, after it and after its revert.
func FuzzPtMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 2, 5, 1, 0, 7, 3, 4, 9, 2, 1, 1, 0, 6})
	f.Add([]byte{3, 5, 3, 1, 1, 0, 2, 6, 4, 7, 1, 0, 3, 2, 5, 8, 1, 1, 4, 2, 200, 3, 5})
	// Uniform weights, so equal subtrees share class cells and the patch
	// lands on the first leaf, whose root chain holds every class's row:
	// a full binary tree of weight-1 nodes, and a full ternary tree of
	// weight-2 nodes.
	f.Add([]byte{1, 2, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 5, 0, 3})
	f.Add([]byte{2, 3, 2, 1, 1, 1, 1, 2, 0, 1, 0, 1, 0, 1, 1, 2, 0, 1, 0, 1, 0, 1, 1, 2, 1, 0, 1, 0, 1, 0, 1, 9, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := byteStream(data)
		tr, err := decodeTree(&in)
		if err != nil {
			t.Fatal(err)
		}
		exist, total := core.MinExistenceBudget(tr.G), tr.G.TotalWeight()
		b := exist - 1 + cdag.Weight(in.next())%(total-exist+2)
		s := NewScheduler(tr)
		matchReference(t, s, newRefScheduler(tr), b)
		d := cdag.WeightDelta{Node: cdag.NodeID(in.next() % tr.G.Len()), Weight: 1 + cdag.Weight(in.next()%8)}
		undo := cdag.WeightDelta{Node: d.Node, Weight: tr.G.Weight(d.Node)}
		for _, d := range []cdag.WeightDelta{d, undo} {
			if _, _, err := s.SetWeights([]cdag.WeightDelta{d}); err != nil {
				t.Fatal(err)
			}
			matchReference(t, s, newRefScheduler(tr), b)
		}
	})
}
