package solve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/dwt"
	"wrbpg/internal/guard"
	"wrbpg/internal/par"
)

// patchTargets builds a random canonical delta list over the
// instance's source nodes (always patch-safe for dwt and ktree).
func patchTargets(rng *rand.Rand, srcs []cdag.NodeID, maxLen int) []cdag.WeightDelta {
	ds := make([]cdag.WeightDelta, 1+rng.Intn(maxLen))
	for i := range ds {
		ds[i] = cdag.WeightDelta{
			Node:   srcs[rng.Intn(len(srcs))],
			Weight: 1 + cdag.Weight(rng.Intn(5)),
		}
	}
	return cdag.CanonicalDeltas(ds)
}

// TestSessionPatchToMatchesColdSolves is the end-to-end incremental
// determinism property at the facade layer: a session driven through a
// random PatchTo sequence must answer every sweep bit-identically to a
// cold session built directly from the patched instance — for both
// incremental families.
func TestSessionPatchToMatchesColdSolves(t *testing.T) {
	for _, inst := range []Instance{
		{Family: FamilyKTree, K: 4, Height: 3, Cfg: equalCfg()},
		{Family: FamilyDWT, N: 16, D: 4, Cfg: equalCfg()},
	} {
		t.Run(inst.Family, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			s, err := NewSession(inst)
			if err != nil {
				t.Fatal(err)
			}
			srcs := s.Graph().Sources()
			for round := 0; round < 10; round++ {
				target := patchTargets(rng, srcs, 3)
				st, err := s.PatchTo(target)
				if err != nil {
					t.Fatalf("round %d: PatchTo(%v): %v", round, target, err)
				}
				if !reflect.DeepEqual(s.Deltas(), target) {
					t.Fatalf("round %d: Deltas() = %v, want %v", round, s.Deltas(), target)
				}
				patched := inst
				patched.Deltas = target
				cold, err := NewSession(patched)
				if err != nil {
					t.Fatal(err)
				}
				if s.LowerBound() != cold.LowerBound() || s.MinExistence() != cold.MinExistence() {
					t.Fatalf("round %d: bounds diverged: warm (lb=%d min=%d) cold (lb=%d min=%d)",
						round, s.LowerBound(), s.MinExistence(), cold.LowerBound(), cold.MinExistence())
				}
				min := s.MinExistence()
				budgets := []cdag.Weight{min - 1, min, min + 5, min + 11}
				warm, err := s.SweepCosts(context.Background(), guard.Limits{}, budgets, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := cold.SweepCosts(context.Background(), guard.Limits{}, budgets, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(warm, want) {
					t.Fatalf("round %d: patched sweep differs from cold instance sweep after %v", round, target)
				}
				if round > 0 && st.Changed == 0 && len(target) > 0 {
					// Not an invariant violation — the rng may re-assert the
					// same weights — but the diff must then be empty-safe.
					if st.Invalidated != 0 {
						t.Fatalf("round %d: no weights changed but %d cells invalidated", round, st.Invalidated)
					}
				}
			}
		})
	}
}

// TestPatchToBoundsMatchRecompute: the bounds a session keeps across
// patches, Prop 2.4 updated from the applied deltas and Prop 2.3 read
// from the family solver, equal a full recomputation on the patched
// graph after every step of random patch → revert sequences that write
// sources, sinks and interior nodes. A patch the family refuses leaves
// both unchanged.
func TestPatchToBoundsMatchRecompute(t *testing.T) {
	for _, inst := range []Instance{
		{Family: FamilyKTree, K: 2, Height: 4, Cfg: equalCfg()},
		{Family: FamilyKTree, K: 3, Height: 3, Cfg: equalCfg()},
		{Family: FamilyDWT, N: 16, D: 4, Cfg: equalCfg()},
		{Family: FamilyDWT, N: 32, D: 3, Cfg: equalCfg(), Deltas: []cdag.WeightDelta{{Node: 0, Weight: 7}}},
	} {
		t.Run(inst.Label(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			s, err := NewSession(inst)
			if err != nil {
				t.Fatal(err)
			}
			g := s.Graph()
			check := func(step string) {
				t.Helper()
				if lb, min := core.LowerBound(g), core.MinExistenceBudget(g); s.LowerBound() != lb || s.MinExistence() != min {
					t.Fatalf("%s: session bounds lb=%d min=%d, recomputed lb=%d min=%d", step, s.LowerBound(), s.MinExistence(), lb, min)
				}
			}
			check("new session")
			applied := 0
			for round := 0; round < 60; round++ {
				ds := make([]cdag.WeightDelta, 1+rng.Intn(4))
				for i := range ds {
					ds[i] = cdag.WeightDelta{Node: cdag.NodeID(rng.Intn(g.Len())), Weight: 1 + cdag.Weight(rng.Intn(40))}
				}
				if rng.Intn(3) == 0 {
					// Overlay the current state, so earlier deltas stay.
					ds = append(slices.Clone(s.Deltas()), ds...)
				}
				target := cdag.CanonicalDeltas(ds)
				// A refused patch must leave the bounds as they were.
				if st, err := s.PatchTo(target); err == nil && st.Changed > 0 {
					applied++
				}
				check(fmt.Sprintf("round %d patch %v", round, target))
				if rng.Intn(2) == 0 {
					if _, err := s.PatchTo(nil); err != nil {
						t.Fatalf("round %d: revert: %v", round, err)
					}
					check(fmt.Sprintf("round %d revert", round))
				}
			}
			if applied < 20 {
				t.Fatalf("only %d of 60 patches changed a weight", applied)
			}
		})
	}
}

// TestSessionPatchToRevertsToBase: PatchTo(nil) restores the base
// instance exactly — weights, bounds, delta state and answers.
func TestSessionPatchToRevertsToBase(t *testing.T) {
	inst := Instance{Family: FamilyKTree, K: 3, Height: 3, Cfg: equalCfg()}
	s, err := NewSession(inst)
	if err != nil {
		t.Fatal(err)
	}
	budgets := []cdag.Weight{s.MinExistence() - 1, s.MinExistence(), s.MinExistence() + 6}
	base, err := s.SweepCosts(context.Background(), guard.Limits{}, budgets, nil)
	if err != nil {
		t.Fatal(err)
	}
	node := s.Graph().Sources()[0]
	w := s.Graph().Weight(node)
	if _, err := s.PatchTo([]cdag.WeightDelta{{Node: node, Weight: w + 9}}); err != nil {
		t.Fatal(err)
	}
	st, err := s.PatchTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Changed != 1 {
		t.Fatalf("revert wrote %d weights, want 1", st.Changed)
	}
	if len(s.Deltas()) != 0 {
		t.Fatalf("after PatchTo(nil): Deltas() = %v, want empty", s.Deltas())
	}
	if got := s.Graph().Weight(node); got != w {
		t.Fatalf("after PatchTo(nil): node %d weight %d, want base %d", node, got, w)
	}
	again, err := s.SweepCosts(context.Background(), guard.Limits{}, budgets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, base) {
		t.Errorf("answers after revert differ from the original base answers")
	}
	// Re-asserting the current (base) state is a no-op.
	if st, err := s.PatchTo(nil); err != nil || st.Changed != 0 {
		t.Fatalf("idempotent revert: stats=%+v err=%v, want zero stats", st, err)
	}
}

// TestSessionPatchErrorLeavesSessionUsable: a rejected patch (bad node,
// bad weight, non-canonical target) changes nothing — the session keeps
// answering from its pre-patch state.
func TestSessionPatchErrorLeavesSessionUsable(t *testing.T) {
	inst := Instance{Family: FamilyKTree, K: 3, Height: 3, Cfg: equalCfg()}
	s, err := NewSession(inst)
	if err != nil {
		t.Fatal(err)
	}
	b := s.MinExistence() + 4
	want, err := s.CostCtx(context.Background(), guard.Limits{}, b)
	if err != nil {
		t.Fatal(err)
	}
	n := cdag.NodeID(s.Graph().Len())
	for _, bad := range [][]cdag.WeightDelta{
		{{Node: -1, Weight: 2}},
		{{Node: n, Weight: 2}},
		{{Node: 0, Weight: 0}},
		{{Node: 1, Weight: 3}, {Node: 1, Weight: 4}}, // not canonical
	} {
		if _, err := s.PatchTo(bad); err == nil {
			t.Fatalf("PatchTo(%v): want error", bad)
		}
		if len(s.Deltas()) != 0 {
			t.Fatalf("failed PatchTo(%v) left delta state %v", bad, s.Deltas())
		}
		got, err := s.CostCtx(context.Background(), guard.Limits{}, b)
		if err != nil || got != want {
			t.Fatalf("after failed PatchTo(%v): cost %d (err %v), want %d", bad, got, err, want)
		}
	}
}

// TestSessionPatchFaultInjection is the no-poison property of the full
// patch/sweep interleaving (ISSUE 6 satellite c): a panic injected
// mid-sweep between patches must surface on its item only, and every
// subsequent answer — at patched and at reverted weights — must match
// an independent cold solve. Run it under -race to also certify the
// fault path publishes no state unsynchronized.
func TestSessionPatchFaultInjection(t *testing.T) {
	inst := sweepInstance()
	s, err := NewSession(inst)
	if err != nil {
		t.Fatal(err)
	}
	budgets := sweepBudgets(s)
	node := s.Graph().Sources()[0]
	target := []cdag.WeightDelta{{Node: node, Weight: s.Graph().Weight(node) + 3}}

	// Warm the base memos, then patch and sweep with a fault firing in
	// the middle of the post-patch sweep.
	if _, err := s.SweepCosts(context.Background(), guard.Limits{}, budgets, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PatchTo(target); err != nil {
		t.Fatal(err)
	}
	const faultAt = 4
	restore := par.SetFaultHook(func(i int) {
		if i == faultAt {
			panic("injected patch-sweep fault")
		}
	})
	pts, err := s.SweepCosts(context.Background(), guard.Limits{}, budgets, nil)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	var pe *par.PanicError
	if pts[faultAt].Err == nil || !errors.As(pts[faultAt].Err, &pe) || pe.Index != faultAt {
		t.Fatalf("item %d: got %v, want *par.PanicError for that index", faultAt, pts[faultAt].Err)
	}

	// The faulted sweep must not have poisoned the patched state: a
	// clean re-sweep matches a cold session built at the patched
	// weights, item for item.
	patched := inst
	patched.Deltas = target
	cold, err := NewSession(patched)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := s.SweepCosts(context.Background(), guard.Limits{}, budgets, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.SweepCosts(context.Background(), guard.Limits{}, budgets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, want) {
		t.Errorf("post-fault patched answers differ from cold solves at patched weights")
	}

	// And reverting to base after the fault restores the base answers.
	if _, err := s.PatchTo(nil); err != nil {
		t.Fatal(err)
	}
	after, err := s.SweepCosts(context.Background(), guard.Limits{}, budgets, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := coldSweep(t, inst, budgets)
	if !reflect.DeepEqual(after, base) {
		t.Errorf("post-fault reverted answers differ from cold base solves")
	}
}

// TestInstanceKeysCoverDeltas: Key and ShapeKey change with the delta
// list, BaseShapeKey strips it, and a delta-free instance keeps the
// pre-delta serialization (cache continuity across the schema change).
func TestInstanceKeysCoverDeltas(t *testing.T) {
	base := Instance{Family: FamilyKTree, K: 3, Height: 3, Cfg: equalCfg()}
	patched := base
	patched.Deltas = []cdag.WeightDelta{{Node: 5, Weight: 9}}
	if base.ShapeKey() != base.BaseShapeKey() {
		t.Error("delta-free instance: ShapeKey != BaseShapeKey")
	}
	if patched.ShapeKey() == base.ShapeKey() {
		t.Error("deltas did not change ShapeKey")
	}
	if patched.Key(10) == base.Key(10) {
		t.Error("deltas did not change Key")
	}
	if patched.BaseShapeKey() != base.ShapeKey() {
		t.Error("BaseShapeKey of a patched instance must equal the base's ShapeKey")
	}
	other := patched
	other.Deltas = []cdag.WeightDelta{{Node: 5, Weight: 10}}
	if other.ShapeKey() == patched.ShapeKey() {
		t.Error("different delta weights share a ShapeKey")
	}
}

// TestInstanceDeltaValidation: only the incremental families accept
// deltas, and the delta list must be canonical and positive.
func TestInstanceDeltaValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   Instance
	}{
		{"mvm", Instance{Family: FamilyMVM, M: 4, N: 4, Cfg: equalCfg(),
			Deltas: []cdag.WeightDelta{{Node: 0, Weight: 2}}}},
		{"negative-node", Instance{Family: FamilyKTree, K: 3, Height: 2, Cfg: equalCfg(),
			Deltas: []cdag.WeightDelta{{Node: -1, Weight: 2}}}},
		{"zero-weight", Instance{Family: FamilyKTree, K: 3, Height: 2, Cfg: equalCfg(),
			Deltas: []cdag.WeightDelta{{Node: 0, Weight: 0}}}},
		{"not-canonical", Instance{Family: FamilyKTree, K: 3, Height: 2, Cfg: equalCfg(),
			Deltas: []cdag.WeightDelta{{Node: 3, Weight: 2}, {Node: 3, Weight: 4}}}},
	} {
		if err := tc.in.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.in.Deltas)
		}
	}
	// A DWT delta violating the Lemma 3.2 weight assumption passes the
	// cheap Validate but must fail at build, before solver state exists.
	in := Instance{Family: FamilyDWT, N: 8, D: 3, Cfg: equalCfg()}
	dg, err := dwt.Build(in.N, in.D, dwt.ConfigWeights(in.Cfg))
	if err != nil {
		t.Fatal(err)
	}
	coef := dg.Layers[1][1]
	bad := in
	bad.Deltas = []cdag.WeightDelta{{Node: coef, Weight: 1 << 40}}
	if err := bad.Validate(); err != nil {
		t.Fatalf("Validate must not evaluate family constraints: %v", err)
	}
	if _, err := NewSession(bad); err == nil {
		t.Error("NewSession accepted a DWT delta violating the weight assumption")
	}
}
