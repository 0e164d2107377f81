package wire

import (
	"encoding/json"
	"testing"

	"wrbpg/internal/wcfg"
)

func TestWeightSpecConfig(t *testing.T) {
	if c, err := (WeightSpec{}).Config(); err != nil || c.Name != "Equal" {
		t.Fatalf("default spec: %v %v", c, err)
	}
	if c, err := (WeightSpec{Name: "da"}).Config(); err != nil || c.NodeWords != 2 {
		t.Fatalf("da spec: %v %v", c, err)
	}
	if c, err := (WeightSpec{WordBits: 8, InputWords: 1, NodeWords: 3}).Config(); err != nil || c.Node() != 24 {
		t.Fatalf("custom spec: %v %v", c, err)
	}
	bad := []WeightSpec{
		{Name: "halting"},
		{WordBits: -8, InputWords: 1, NodeWords: 1},
		{WordBits: 8, InputWords: 0, NodeWords: 1}, // partial custom spec
		{WordBits: 8, InputWords: 1, NodeWords: -1},
	}
	for i, ws := range bad {
		if _, err := ws.Config(); err == nil {
			t.Errorf("case %d: accepted invalid spec %+v", i, ws)
		}
	}
}

// TestScheduleRequestInstanceRoundTrip: the request type survives a
// JSON round trip and canonicalizes to a keyed instance.
func TestScheduleRequestInstanceRoundTrip(t *testing.T) {
	req := ScheduleRequest{Spec: Spec{Family: "mvm", M: 4, N: 6,
		Weights: WeightSpec{Name: "da"}}, BudgetBits: 512}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back ScheduleRequest
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	in1, err := req.Instance()
	if err != nil {
		t.Fatal(err)
	}
	in2, err := back.Instance()
	if err != nil {
		t.Fatal(err)
	}
	if in1.Key(req.BudgetBits) != in2.Key(req.BudgetBits) {
		t.Fatal("round-tripped request changed its cache key")
	}
	if in1.Cfg != wcfg.DoubleAccumulator(wcfg.DefaultWordBits) {
		t.Fatalf("weights not resolved: %+v", in1.Cfg)
	}
}

func TestCloneIsolation(t *testing.T) {
	r := &ScheduleResult{Workload: "x", MoveKinds: MoveKinds{M1: 1}, Cost: &CostMeta{SourceTier: TierSolve}}
	c := r.Clone()
	c.Cache = "hit"
	c.MoveKinds.M1 = 99
	c.Cost.SourceTier = TierCache
	if r.Cache != "" || r.MoveKinds.M1 != 1 || r.Cost.SourceTier != TierSolve {
		t.Fatal("Clone shares state with the original")
	}
}
