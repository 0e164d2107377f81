package solve

import (
	"context"
	"testing"
	"time"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
	"wrbpg/internal/wcfg"
)

func equalCfg() wcfg.Config { return wcfg.Equal(16) }

// TestInstanceKeyStability: the key depends on exactly the semantic
// content — family, parameters, weights, budget — and nothing else.
func TestInstanceKeyStability(t *testing.T) {
	a := Instance{Family: FamilyDWT, N: 64, D: 4, Cfg: equalCfg()}
	b := Instance{Family: FamilyDWT, N: 64, D: 4, Cfg: equalCfg()}
	if a.Key(512) != b.Key(512) {
		t.Fatal("identical instances produced different keys")
	}
	if a.Key(512) == a.Key(513) {
		t.Fatal("budget must be part of the key")
	}
	c := Instance{Family: FamilyDWT, N: 64, D: 5, Cfg: equalCfg()}
	if a.Key(512) == c.Key(512) {
		t.Fatal("parameters must be part of the key")
	}
	d := Instance{Family: FamilyDWT, N: 64, D: 4, Cfg: wcfg.DoubleAccumulator(16)}
	if a.Key(512) == d.Key(512) {
		t.Fatal("weight configuration must be part of the key")
	}
	e := Instance{Family: FamilyMVM, M: 64, N: 4, Cfg: equalCfg()}
	if a.Key(512) == e.Key(512) {
		t.Fatal("family must be part of the key")
	}
}

// TestInstanceKeyCDAG: explicit graphs are content-addressed on
// weights and edges, not on display names.
func TestInstanceKeyCDAG(t *testing.T) {
	build := func(name string, w cdag.Weight) *cdag.Graph {
		g := &cdag.Graph{}
		a := g.AddNode(8, name)
		b := g.AddNode(8, "b")
		g.AddNode(w, "root", a, b)
		return g
	}
	base := Instance{Family: FamilyCDAG, G: build("a", 16)}
	renamed := Instance{Family: FamilyCDAG, G: build("zzz", 16)}
	if base.Key(64) != renamed.Key(64) {
		t.Fatal("node names must not affect the key")
	}
	reweighted := Instance{Family: FamilyCDAG, G: build("a", 24)}
	if base.Key(64) == reweighted.Key(64) {
		t.Fatal("node weights must affect the key")
	}
}

// TestInstanceValidate: malformed instances are rejected with errors,
// never panics.
func TestInstanceValidate(t *testing.T) {
	bad := []Instance{
		{Family: "nope", Cfg: equalCfg()},
		{Family: FamilyDWT, N: 0, D: 3, Cfg: equalCfg()},
		{Family: FamilyDWT, N: 64, D: 0, Cfg: equalCfg()},
		{Family: FamilyMVM, M: 0, N: 8, Cfg: equalCfg()}, // the MVM(0,n) case
		{Family: FamilyMVM, M: 1, N: 8, Cfg: equalCfg()},
		{Family: FamilyKTree, K: 0, Height: 2, Cfg: equalCfg()},
		{Family: FamilyKTree, K: 99, Height: 2, Cfg: equalCfg()},
		{Family: FamilyCDAG, G: nil},
		{Family: FamilyDWT, N: 64, D: 4, Cfg: wcfg.Config{WordBits: -8, InputWords: 1, NodeWords: 1}},
		{Family: FamilyDWT, N: 64, D: 4, Cfg: wcfg.Config{WordBits: 16, InputWords: 0, NodeWords: 1}},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("case %d (%s): Validate accepted a malformed instance", i, in.Family)
		}
		if _, _, err := in.Build(); err == nil {
			t.Errorf("case %d (%s): Build accepted a malformed instance", i, in.Family)
		}
	}
	// dwt n not a multiple of 2^d passes Validate's cheap checks but
	// must fail Build through the constructor's own validation.
	odd := Instance{Family: FamilyDWT, N: 65, D: 4, Cfg: equalCfg()}
	if _, _, err := odd.Build(); err == nil {
		t.Error("dwt n=65 d=4 must fail Build")
	}
}

// TestInstanceBuildAndSolve: every family builds into a Problem that
// solves optimally end to end.
func TestInstanceBuildAndSolve(t *testing.T) {
	cg := &cdag.Graph{}
	a := cg.AddNode(4, "a")
	b := cg.AddNode(4, "b")
	cg.AddNode(8, "root", a, b)

	cases := []Instance{
		{Family: FamilyDWT, N: 16, D: 4, Cfg: equalCfg()},
		{Family: FamilyKTree, K: 2, Height: 3, Cfg: equalCfg()},
		{Family: FamilyMVM, M: 4, N: 6, Cfg: equalCfg()},
		{Family: FamilyCDAG, G: cg},
	}
	for _, in := range cases {
		p, g, err := in.Build()
		if err != nil {
			t.Fatalf("%s: %v", in.Family, err)
		}
		if g == nil || p.G != g {
			t.Fatalf("%s: Problem graph mismatch", in.Family)
		}
		budget := core.MinExistenceBudget(g) + 64
		out, err := Run(context.Background(), p, budget, guard.Limits{Deadline: time.Minute})
		if err != nil {
			t.Fatalf("%s: %v", in.Family, err)
		}
		// cdag routes through the anytime tier; on a graph this small the
		// search drains its frontier, so Complete certifies the answer.
		if in.Family == FamilyCDAG {
			if out.Source != SourceAnytime {
				t.Fatalf("%s: Source = %v, want anytime", in.Family, out.Source)
			}
			if out.Anytime == nil || !out.Anytime.Complete {
				t.Fatalf("%s: tiny anytime search did not report Complete (%+v)", in.Family, out.Anytime)
			}
		} else if out.Source != SourceOptimal {
			t.Fatalf("%s: Source = %v, want optimal", in.Family, out.Source)
		}
		if _, err := core.Simulate(g, budget, out.Schedule); err != nil {
			t.Fatalf("%s: schedule invalid: %v", in.Family, err)
		}
		if in.Label() == "" {
			t.Fatalf("%s: empty label", in.Family)
		}
	}
}
