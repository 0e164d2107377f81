package cdag

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// adjModel is the naive adjacency the slab storage must agree with:
// one freshly allocated slice per node and direction.
type adjModel struct {
	weights           []Weight
	names             []string
	parents, children [][]NodeID
}

func (m *adjModel) add(w Weight, name string, parents []NodeID) {
	id := NodeID(len(m.weights))
	m.weights = append(m.weights, w)
	m.names = append(m.names, name)
	m.parents = append(m.parents, slices.Clone(parents))
	m.children = append(m.children, nil)
	for _, p := range parents {
		m.children[p] = append(m.children[p], id)
	}
}

// check compares every node of g with the model.
func (m *adjModel) check(g *Graph) error {
	if g.Len() != len(m.weights) {
		return fmt.Errorf("Len %d, model %d", g.Len(), len(m.weights))
	}
	for v := range m.weights {
		id := NodeID(v)
		if g.Weight(id) != m.weights[v] {
			return fmt.Errorf("node %d: weight %d, model %d", v, g.Weight(id), m.weights[v])
		}
		if g.Name(id) != m.names[v] {
			return fmt.Errorf("node %d: name %q, model %q", v, g.Name(id), m.names[v])
		}
		if !slices.Equal(g.Parents(id), m.parents[v]) {
			return fmt.Errorf("node %d: parents %v, model %v", v, g.Parents(id), m.parents[v])
		}
		if !slices.Equal(g.Children(id), m.children[v]) {
			return fmt.Errorf("node %d: children %v, model %v", v, g.Children(id), m.children[v])
		}
	}
	return nil
}

// randomParents draws up to 3 distinct earlier nodes, biased toward a
// few hubs so that some nodes collect far more than two children.
func randomParents(rng *rand.Rand, id int) []NodeID {
	if id == 0 || rng.Intn(5) == 0 {
		return nil
	}
	k := 1 + rng.Intn(3)
	var ps []NodeID
	for len(ps) < k && len(ps) < id {
		p := NodeID(rng.Intn(id))
		if rng.Intn(3) == 0 {
			p = NodeID(rng.Intn(min(id, 3))) // a hub
		}
		if !slices.Contains(ps, p) {
			ps = append(ps, p)
		}
	}
	return ps
}

// TestSlabMatchesAdjacencyModel builds random graphs with an exact
// reservation, too small a one, and none, interleaving weight updates
// and cdag.Random-style direct appends to the adjacency windows, and
// compares every node with the naive model after every step.
func TestSlabMatchesAdjacencyModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, mode := range []string{"exact", "small", "none"} {
			rng := rand.New(rand.NewSource(seed))
			n := 2 + rng.Intn(60)
			plan := make([][]NodeID, n)
			edges := 0
			for v := range plan {
				plan[v] = randomParents(rng, v)
				edges += len(plan[v])
			}
			g, m := &Graph{}, &adjModel{}
			switch mode {
			case "exact":
				g.Reserve(n, edges)
			case "small":
				g.Reserve(n/3, edges/4)
			}
			for v, ps := range plan {
				name := ""
				if rng.Intn(2) == 0 {
					name = fmt.Sprintf("v%d", v)
				}
				w := Weight(1 + rng.Intn(9))
				g.AddNode(w, name, ps...)
				m.add(w, name, ps)
				switch rng.Intn(4) {
				case 0: // reweight an earlier node
					u := NodeID(rng.Intn(v + 1))
					w := Weight(1 + rng.Intn(9))
					g.SetWeight(u, w)
					m.weights[u] = w
				case 1: // a late edge, appended directly as cdag.Random does
					if v >= 1 {
						lo := NodeID(rng.Intn(v))
						hi := NodeID(v)
						g.parents[hi] = append(g.parents[hi], lo)
						g.children[lo] = append(g.children[lo], hi)
						m.parents[hi] = append(m.parents[hi], lo)
						m.children[lo] = append(m.children[lo], hi)
					}
				}
				if err := m.check(g); err != nil {
					t.Fatalf("seed %d %s after node %d: %v", seed, mode, v, err)
				}
			}
		}
	}
}

// TestSlabChildCounts covers nodes with 0, 1, 2 and more than two
// children, reserved exactly (so the spills outgrow the children slab)
// and not at all.
func TestSlabChildCounts(t *testing.T) {
	// Hubs 0–3 get 0, 1, 4 and 9 children; node 4 then gets two.
	plan := make([][]NodeID, 4)
	for h := 1; h < 4; h++ {
		for i := 0; i < h*h; i++ {
			plan = append(plan, []NodeID{NodeID(h)})
		}
	}
	plan = append(plan, []NodeID{4}, []NodeID{4, 5})
	edges := 0
	for _, ps := range plan {
		edges += len(ps)
	}
	for _, reserve := range []bool{true, false} {
		g, m := &Graph{}, &adjModel{}
		if reserve {
			g.Reserve(len(plan), edges)
		}
		for _, ps := range plan {
			g.AddNode(1, "", ps...)
			m.add(1, "", ps)
			if err := m.check(g); err != nil {
				t.Fatalf("reserve=%v: %v", reserve, err)
			}
		}
		for v, want := range []int{0, 1, 4, 9, 2} {
			if got := g.OutDegree(NodeID(v)); got != want {
				t.Errorf("reserve=%v: node %d has %d children, want %d", reserve, v, got, want)
			}
		}
	}
}

// TestRandomMirrorsAdjacency: cdag.Random's late-attach pass appends
// to the capped windows directly; every edge must still appear once in
// each direction, so no append overwrote a neighbour's slots.
func TestRandomMirrorsAdjacency(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		g := Random(seed, 10+int(seed)*3)
		count := map[[2]NodeID]int{}
		for v := 0; v < g.Len(); v++ {
			for _, p := range g.Parents(NodeID(v)) {
				count[[2]NodeID{p, NodeID(v)}]++
			}
			for _, c := range g.Children(NodeID(v)) {
				count[[2]NodeID{NodeID(v), c}]--
			}
		}
		for e, d := range count {
			if d != 0 {
				t.Fatalf("seed %d: edge %v listed %+d more times as parent than as child", seed, e, d)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// namerGraph is a small graph whose names come from a namer, the way
// the family builders store them.
func namerGraph() (*Graph, []string) {
	g := &Graph{}
	g.Reserve(6, 6)
	a := g.AddNode(1, "")
	b := g.AddNode(2, "")
	c := g.AddNode(3, "", a, b)
	d := g.AddNode(4, "", a)
	g.AddNode(5, "", c, d)
	g.AddNode(6, "", b)
	names := []string{"in[a]", "in[b]", "mid[c]", "mid[d]", "out[e]", "out[f]"}
	g.SetNamer(func(v NodeID) string { return names[v] })
	return g, names
}

// TestNamerNamesSurviveDerivedGraphs: Clone, Prune, Canonical,
// MarshalJSON and DOT of a namer graph carry the namer's names.
func TestNamerNamesSurviveDerivedGraphs(t *testing.T) {
	g, names := namerGraph()
	for v, want := range names {
		if got := g.Name(NodeID(v)); got != want {
			t.Fatalf("Name(%d) = %q, want %q", v, got, want)
		}
	}
	if c := g.Clone(); !c.Equal(g) {
		t.Error("Clone changed names or structure")
	}
	pruned, mapping, err := g.Prune(map[NodeID]bool{5: true})
	if err != nil {
		t.Fatal(err)
	}
	canon, perm := Canonical(g)
	for v, want := range names {
		if nv := mapping[v]; nv != None && pruned.Name(nv) != want {
			t.Errorf("Prune: node %d named %q, want %q", nv, pruned.Name(nv), want)
		}
		if got := canon.Name(perm[v]); got != want {
			t.Errorf("Canonical: node %d named %q, want %q", perm[v], got, want)
		}
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Errorf("JSON round trip changed the graph: %s", data)
	}
	dot := g.DOT("namer")
	for _, want := range names {
		if !strings.Contains(dot, `label="`+want+" (w=") {
			t.Errorf("DOT lacks label %q:\n%s", want, dot)
		}
	}
	g.SetNamer(nil)
	if g.Name(0) != "" {
		t.Errorf("SetNamer(nil): Name(0) = %q, want the stored empty name", g.Name(0))
	}
}

// TestSlabConcurrentReaders reads a finished graph from several
// goroutines at once, as anytime search workers do; under -race any
// write hidden in a read path fails the test.
func TestSlabConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, m := &Graph{}, &adjModel{}
	g.Reserve(200, 300)
	for v := 0; v < 200; v++ {
		ps := randomParents(rng, v)
		g.AddNode(Weight(1+v%7), "", ps...)
		m.add(Weight(1+v%7), "", ps)
	}
	g.SetNamer(func(v NodeID) string { return fmt.Sprintf("n%d", v) })
	for v := range m.names {
		m.names[v] = fmt.Sprintf("n%d", v)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := m.check(g); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
