// Incremental design-space exploration with the re-solve engine: a
// hardware designer sizing the fast memory of a DWT front end keeps
// one warm solver session and *patches* it as the design changes,
// instead of re-solving every variant cold.
//
// The WRBPG dynamic programs are subtree-local, so a weight change at
// one node dirties only the memo cells whose subtree contains it —
// the dependency-tracked invalidation clears exactly those and keeps
// the rest warm. A single-channel precision change on a 64-input DWT
// re-solves in a small fraction of the cold time while answering
// bit-identically (the property tests in internal/solve and the
// *PatchResolve perf kernels in internal/bench pin both claims).
//
// The same engine backs `wrbpg schedule -json -patch FILE` and the
// wrbpgd endpoint POST /v1/schedule/patch (docs/SERVICE.md).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"wrbpg/internal/cdag"
	"wrbpg/internal/guard"
	"wrbpg/internal/solve"
	"wrbpg/internal/wcfg"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// A 64-sample, 6-level Haar DWT front end with 16-bit samples.
	inst := solve.Instance{Family: solve.FamilyDWT, N: 64, D: 6, Cfg: wcfg.Equal(16)}
	se, err := solve.NewSession(inst)
	if err != nil {
		log.Fatal(err)
	}
	min := se.MinExistence()
	budgets := []cdag.Weight{min, min + 4*16, min + 8*16, min + 16*16}

	// Cold baseline: the first sweep fills every memo cell.
	start := time.Now()
	base, err := se.SweepCosts(ctx, guard.Limits{}, budgets, nil)
	if err != nil {
		log.Fatal(err)
	}
	coldTime := time.Since(start)
	show := func(p solve.CostPoint) {
		if !p.Feasible {
			fmt.Printf("  budget %5d bits -> no schedule exists\n", p.Budget)
			return
		}
		fmt.Printf("  budget %5d bits -> weighted I/O %d bits\n", p.Budget, p.Cost)
	}
	fmt.Printf("%s  (existence bound %d bits)\n", se.Label(), min)
	fmt.Println("cold sweep:")
	for _, p := range base {
		show(p)
	}

	// Design change: one sensor channel moves to 24-bit precision —
	// a weight delta on its input node, nothing else.
	node := se.Graph().Sources()[3]
	target := []cdag.WeightDelta{{Node: node, Weight: 24}}
	start = time.Now()
	st, err := se.PatchTo(target)
	if err != nil {
		log.Fatal(err)
	}
	warm, err := se.SweepCosts(ctx, guard.Limits{}, budgets, nil)
	if err != nil {
		log.Fatal(err)
	}
	warmTime := time.Since(start)
	fmt.Printf("\npatch input node %d to 24 bits: %d weight written, "+
		"%d memo cells invalidated, %d kept warm\n",
		node, st.Changed, st.Invalidated, st.Reused)
	for _, p := range warm {
		show(p)
	}
	fmt.Printf("incremental re-solve %v vs %v cold\n",
		warmTime.Round(time.Microsecond), coldTime.Round(time.Microsecond))

	// Trust, then verify: a cold session built directly at the patched
	// weights must answer bit-identically.
	patched := inst
	patched.Deltas = target
	cold, err := solve.NewSession(patched)
	if err != nil {
		log.Fatal(err)
	}
	check, err := cold.SweepCosts(ctx, guard.Limits{}, budgets, nil)
	if err != nil {
		log.Fatal(err)
	}
	for i := range warm {
		if warm[i].Cost != check[i].Cost || warm[i].Feasible != check[i].Feasible {
			log.Fatalf("budget %d: incremental %d != cold %d", warm[i].Budget, warm[i].Cost, check[i].Cost)
		}
	}
	fmt.Println("verified: incremental answers are bit-identical to a cold re-solve")

	// PatchTo is declarative — an empty target reverts to the base
	// design, again touching only the dirtied cone.
	st, err = se.PatchTo(nil)
	if err != nil {
		log.Fatal(err)
	}
	back, err := se.SweepCosts(ctx, guard.Limits{}, budgets, nil)
	if err != nil {
		log.Fatal(err)
	}
	for i := range back {
		if back[i].Cost != base[i].Cost {
			log.Fatalf("revert: budget %d answers %d, base said %d", back[i].Budget, back[i].Cost, base[i].Cost)
		}
	}
	fmt.Printf("reverted to base (%d cells invalidated); answers match the first sweep\n", st.Invalidated)

	// The serving surface speaks the same deltas. Against a running
	// `wrbpgd`, the patched sweep above is one request:
	fmt.Println("\nover HTTP:")
	fmt.Printf("  curl -s localhost:8080/v1/schedule/patch -d '{\"family\":\"dwt\",\"n\":64,\"d\":6,"+
		"\"deltas\":[{\"node\":%d,\"weight_bits\":24}],\"budgets_bits\":[%d,%d]}'\n",
		node, budgets[0], budgets[1])
	fmt.Println("  (the response's base_key addresses the warm session in later patches)")
}
