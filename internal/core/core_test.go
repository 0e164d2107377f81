package core

import (
	"strings"
	"testing"

	"wrbpg/internal/cdag"
)

// pair builds the smallest interesting CDAG: two inputs feeding one
// output, with weights (wa, wb, wc).
func pair(wa, wb, wc cdag.Weight) (*cdag.Graph, cdag.NodeID, cdag.NodeID, cdag.NodeID) {
	g := &cdag.Graph{}
	a := g.AddNode(wa, "a")
	b := g.AddNode(wb, "b")
	c := g.AddNode(wc, "c", a, b)
	return g, a, b, c
}

func TestMoveKindString(t *testing.T) {
	if M1.String() != "M1" || M2.String() != "M2" || M3.String() != "M3" || M4.String() != "M4" {
		t.Error("move kind names wrong")
	}
	if !strings.Contains(MoveKind(9).String(), "9") {
		t.Error("unknown kind should include the number")
	}
}

func TestLabelHelpers(t *testing.T) {
	cases := []struct {
		l         Label
		red, blue bool
		name      string
	}{
		{LabelNone, false, false, "none"},
		{LabelRed, true, false, "red"},
		{LabelBlue, false, true, "blue"},
		{LabelBoth, true, true, "both"},
	}
	for _, c := range cases {
		if c.l.HasRed() != c.red || c.l.HasBlue() != c.blue || c.l.String() != c.name {
			t.Errorf("label %v: red=%v blue=%v name=%q", c.l, c.l.HasRed(), c.l.HasBlue(), c.l.String())
		}
	}
}

func TestStartingCondition(t *testing.T) {
	g, a, b, c := pair(1, 1, 1)
	st := NewState(g, 10)
	if st.Label(a) != LabelBlue || st.Label(b) != LabelBlue {
		t.Error("sources must start blue")
	}
	if st.Label(c) != LabelNone {
		t.Error("non-sources must start empty")
	}
	if st.RedWeight() != 0 {
		t.Error("no red weight at start")
	}
	if st.Done() {
		t.Error("game cannot be done at start")
	}
}

func TestM1Rules(t *testing.T) {
	g, a, _, c := pair(2, 3, 4)
	st := NewState(g, 10)
	// M1 on a blue node succeeds and costs its weight.
	cost, err := st.Apply(Move{M1, a})
	if err != nil || cost != 2 {
		t.Fatalf("M1(a): cost=%d err=%v", cost, err)
	}
	if st.Label(a) != LabelBoth || st.RedWeight() != 2 {
		t.Error("M1 should yield Both and add red weight")
	}
	// M1 again: node already red.
	if _, err := st.Apply(Move{M1, a}); err == nil {
		t.Error("double M1 should fail")
	}
	// M1 on a node without a blue pebble.
	if _, err := st.Apply(Move{M1, c}); err == nil {
		t.Error("M1 without blue should fail")
	}
	// M1 violating the budget.
	st2 := NewState(g, 1)
	if _, err := st2.Apply(Move{M1, a}); err == nil {
		t.Error("M1 over budget should fail")
	}
	// Out-of-range node.
	if _, err := st.Apply(Move{M1, 99}); err == nil {
		t.Error("out-of-range node should fail")
	}
}

func TestM2Rules(t *testing.T) {
	g, a, b, c := pair(1, 1, 1)
	st := NewState(g, 10)
	must(t, st, Move{M1, a}, Move{M1, b}, Move{M3, c})
	// c is Red (no blue): M2 succeeds.
	cost, err := st.Apply(Move{M2, c})
	if err != nil || cost != 1 {
		t.Fatalf("M2(c): cost=%d err=%v", cost, err)
	}
	if st.Label(c) != LabelBoth {
		t.Error("M2 should yield Both")
	}
	// M2 again: already blue.
	if _, err := st.Apply(Move{M2, c}); err == nil {
		t.Error("M2 on a node with blue should fail")
	}
	// M2 on a node without red.
	st2 := NewState(g, 10)
	if _, err := st2.Apply(Move{M2, a}); err == nil {
		t.Error("M2 without red should fail")
	}
}

func TestM3Rules(t *testing.T) {
	g, a, b, c := pair(1, 1, 1)
	st := NewState(g, 10)
	// Parents not red yet.
	if _, err := st.Apply(Move{M3, c}); err == nil {
		t.Error("M3 without red parents should fail")
	}
	must(t, st, Move{M1, a})
	if _, err := st.Apply(Move{M3, c}); err == nil {
		t.Error("M3 with one red parent should fail")
	}
	must(t, st, Move{M1, b})
	cost, err := st.Apply(Move{M3, c})
	if err != nil || cost != 0 {
		t.Fatalf("M3(c): cost=%d err=%v", cost, err)
	}
	if st.Label(c) != LabelRed {
		t.Error("computed node should be Red")
	}
	// Recompute while red: illegal.
	if _, err := st.Apply(Move{M3, c}); err == nil {
		t.Error("M3 on a red node should fail")
	}
	// M3 on a source: sources are never computed.
	st2 := NewState(g, 10)
	if _, err := st2.Apply(Move{M3, a}); err == nil {
		t.Error("M3 on a source should fail")
	}
	// Budget violation: computing c with both parents held needs 3.
	st3 := NewState(g, 2)
	must(t, st3, Move{M1, a}, Move{M1, b})
	if _, err := st3.Apply(Move{M3, c}); err == nil {
		t.Error("M3 over budget should fail")
	}
}

func TestM3AfterSpillYieldsBoth(t *testing.T) {
	g, a, b, c := pair(1, 1, 1)
	st := NewState(g, 10)
	must(t, st,
		Move{M1, a}, Move{M1, b}, Move{M3, c}, Move{M2, c}, Move{M4, c},
	)
	// c is Blue; recomputing yields Both.
	if _, err := st.Apply(Move{M3, c}); err != nil {
		t.Fatal(err)
	}
	if st.Label(c) != LabelBoth {
		t.Errorf("recomputed node = %v, want Both", st.Label(c))
	}
}

func TestM4Rules(t *testing.T) {
	g, a, _, _ := pair(1, 1, 1)
	st := NewState(g, 10)
	if _, err := st.Apply(Move{M4, a}); err == nil {
		t.Error("M4 without red should fail")
	}
	must(t, st, Move{M1, a})
	cost, err := st.Apply(Move{M4, a})
	if err != nil || cost != 0 {
		t.Fatalf("M4: cost=%d err=%v", cost, err)
	}
	if st.Label(a) != LabelBlue {
		t.Error("M4 on Both should leave Blue (blue pebbles are never deleted)")
	}
	if st.RedWeight() != 0 {
		t.Error("red weight not released")
	}
}

func must(t *testing.T, st *State, moves ...Move) {
	t.Helper()
	for _, m := range moves {
		if _, err := st.Apply(m); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestDoneAndSets(t *testing.T) {
	g, a, b, c := pair(1, 1, 1)
	st := NewState(g, 10)
	must(t, st, Move{M1, a}, Move{M1, b}, Move{M3, c})
	if st.Done() {
		t.Error("sink has no blue yet")
	}
	must(t, st, Move{M2, c})
	if !st.Done() {
		t.Error("sink stored; game should be done")
	}
	reds := st.RedSet()
	if len(reds) != 3 {
		t.Errorf("RedSet = %v", reds)
	}
	blues := st.BlueSet()
	if len(blues) != 3 {
		t.Errorf("BlueSet = %v", blues)
	}
}

func TestClone(t *testing.T) {
	g, a, _, _ := pair(1, 1, 1)
	st := NewState(g, 10)
	must(t, st, Move{M1, a})
	c := st.Clone()
	must(t, st, Move{M4, a})
	if c.Label(a) != LabelBoth || c.RedWeight() != 1 {
		t.Error("clone shares state")
	}
}

func TestSimulateFullGame(t *testing.T) {
	g, a, b, c := pair(2, 3, 4)
	sched := Schedule{
		{M1, a}, {M1, b}, {M3, c}, {M2, c}, {M4, a}, {M4, b}, {M4, c},
	}
	stats, err := Simulate(g, 9, sched)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cost != 2+3+4 {
		t.Errorf("cost = %d, want 9", stats.Cost)
	}
	if stats.InputCost != 5 || stats.OutputCost != 4 {
		t.Errorf("split = %d/%d", stats.InputCost, stats.OutputCost)
	}
	if stats.PeakRedWeight != 9 {
		t.Errorf("peak = %d, want 9", stats.PeakRedWeight)
	}
	if stats.Computations != 1 || stats.Moves[M1] != 2 || stats.Moves[M4] != 3 {
		t.Errorf("move counts wrong: %+v", stats)
	}
}

func TestSimulateDetectsViolations(t *testing.T) {
	g, a, b, c := pair(2, 3, 4)
	// Budget 8 < 9 needed for M3.
	sched := Schedule{{M1, a}, {M1, b}, {M3, c}, {M2, c}}
	if _, err := Simulate(g, 8, sched); err == nil {
		t.Error("budget violation not caught")
	}
	re, ok := func() (e *RuleError, ok bool) {
		_, err := Simulate(g, 8, sched)
		e, ok = err.(*RuleError)
		return
	}()
	if !ok || re.Index != 2 {
		t.Errorf("expected RuleError at step 2, got %v", re)
	}
	// Unfinished game: stopping condition violated.
	if _, err := Simulate(g, 9, Schedule{{M1, a}}); err == nil {
		t.Error("missing sink store not caught")
	}
}

func TestRuleErrorMessage(t *testing.T) {
	g, a, _, _ := pair(1, 1, 1)
	st := NewState(g, 10)
	must(t, st, Move{M1, a})
	_, err := st.Apply(Move{M1, a})
	if err == nil || !strings.Contains(err.Error(), "M1") {
		t.Errorf("error = %v", err)
	}
}

func TestCostWithoutValidation(t *testing.T) {
	g, a, b, c := pair(2, 3, 4)
	sched := Schedule{{M1, a}, {M2, c}, {M1, b}}
	if got := Cost(g, sched); got != 9 {
		t.Errorf("Cost = %d, want 9", got)
	}
}

func TestLowerBoundAndExistence(t *testing.T) {
	g, _, _, _ := pair(2, 3, 4)
	if got := LowerBound(g); got != 9 {
		t.Errorf("LB = %d, want 9", got)
	}
	if MinExistenceBudget(g) != 9 {
		t.Errorf("existence = %d, want 9", MinExistenceBudget(g))
	}
	if !ScheduleExists(g, 9) || ScheduleExists(g, 8) {
		t.Error("ScheduleExists threshold wrong")
	}
}

func TestScheduleString(t *testing.T) {
	all := Schedule{{M1, 0}, {M2, 1}, {M4, 0}}
	if all.String() != "M1(0) M2(1) M4(0)" {
		t.Errorf("String = %q", all.String())
	}
}

func TestNewStateWithLabels(t *testing.T) {
	g, a, b, c := pair(1, 1, 1)
	labels := []Label{LabelRed, LabelBlue, LabelNone}
	st, err := NewStateWithLabels(g, 10, labels)
	if err != nil {
		t.Fatal(err)
	}
	if st.RedWeight() != 1 {
		t.Errorf("red weight = %d", st.RedWeight())
	}
	// Over-budget initial state is rejected.
	if _, err := NewStateWithLabels(g, 0, labels); err == nil {
		t.Error("over-budget initial state accepted")
	}
	// Wrong length.
	if _, err := NewStateWithLabels(g, 10, labels[:2]); err == nil {
		t.Error("short label vector accepted")
	}
	// A fragment can proceed from the custom state: load b, compute c.
	stats, err := SimulateFrom(st, Schedule{{M1, b}, {M3, c}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cost != 1 || st.Label(c) != LabelRed {
		t.Errorf("fragment stats %+v label %v", stats, st.Label(c))
	}
	_ = a
}

func TestSimulateFromReportsErrors(t *testing.T) {
	g, a, _, _ := pair(1, 1, 1)
	st := NewState(g, 10)
	if _, err := SimulateFrom(st, Schedule{{M4, a}}); err == nil {
		t.Error("illegal fragment move not caught")
	}
}
