package wrbpg_test

// Whole-system integration: compile a schedule, serialize its
// manifest, reload it, verify it against a freshly built graph, and
// execute it with real arithmetic — the full deployment round trip a
// firmware build would perform.

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"wrbpg"
	"wrbpg/internal/core"
	"wrbpg/internal/energy"
	"wrbpg/internal/machine"
	"wrbpg/internal/memdesign"
	"wrbpg/internal/synth"
	"wrbpg/internal/wavelet"
)

func TestDeploymentRoundTrip(t *testing.T) {
	// 1. Compile.
	g, err := wrbpg.BuildDWT(64, 6, wrbpg.Equal(16))
	if err != nil {
		t.Fatal(err)
	}
	budget := wrbpg.Weight(8 * 16)
	sched, cost, err := wrbpg.ScheduleDWT(g, budget)
	if err != nil {
		t.Fatal(err)
	}
	// 2. Wrap in a manifest.
	m, err := core.NewManifest("DWT(64,6)/Equal", g.G, budget, sched)
	if err != nil {
		t.Fatal(err)
	}
	if m.CostBits != cost {
		t.Fatalf("manifest cost %d != scheduler cost %d", m.CostBits, cost)
	}
	// 3. Serialize and reload.
	var buf bytes.Buffer
	if err := core.WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// 4. Verify against a freshly built graph (a different process
	// would rebuild it from the same parameters).
	fresh, err := wrbpg.BuildDWT(64, 6, wrbpg.Equal(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Verify(fresh.G); err != nil {
		t.Fatal(err)
	}
	// 5. Execute the reloaded schedule on real data.
	rng := rand.New(rand.NewSource(81))
	signal := make([]float64, 64)
	for i := range signal {
		signal[i] = rng.NormFloat64()
	}
	prog, err := machine.FromDWT(fresh, signal)
	if err != nil {
		t.Fatal(err)
	}
	values, stats, err := machine.Run(prog, loaded.BudgetBits, loaded.Moves)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TrafficBits != loaded.CostBits {
		t.Fatalf("executed traffic %d != manifest cost %d", stats.TrafficBits, loaded.CostBits)
	}
	coeffs, finalAvg := machine.DWTOutputs(fresh, values)
	ref, err := wavelet.Transform(signal, 6)
	if err != nil {
		t.Fatal(err)
	}
	wantC, wantA := wavelet.Outputs(ref)
	for l := range wantC {
		for j := range wantC[l] {
			if math.Abs(coeffs[l][j]-wantC[l][j]) > 1e-9 {
				t.Fatalf("coeff mismatch at level %d", l+1)
			}
		}
	}
	for j := range wantA {
		if math.Abs(finalAvg[j]-wantA[j]) > 1e-9 {
			t.Fatal("final averages mismatch")
		}
	}
	// 6. Size and power the memory the schedule needs.
	spec := memdesign.NewSpec(loaded.PeakBits, 16)
	macro, err := synth.Synthesize(spec.Pow2Bits, 16, synth.TSMC65())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := energy.Estimate(stats.CoreStats(), len(loaded.Moves), macro, energy.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalPJ <= 0 || rep.AvgPowerMW <= 0 {
		t.Fatalf("degenerate energy report %+v", rep)
	}
}
