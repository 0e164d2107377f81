package bench

import (
	"strings"
	"testing"

	"wrbpg/internal/core"
)

// TestScheduleCodecAllocs pins the schedule codec a peer fill runs on
// both ends: encoding a full mvm(16,32) move list allocates only its
// output buffer, and decoding the canonical form only the schedule,
// sized exactly.
func TestScheduleCodecAllocs(t *testing.T) {
	res, err := peerFillResult()
	if err != nil {
		t.Fatal(err)
	}
	s := res.Schedule
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() { s.MarshalJSON() }); a != 1 {
		t.Errorf("Schedule.MarshalJSON: %.1f allocs/op, want 1", a)
	}
	var back core.Schedule
	if a := testing.AllocsPerRun(20, func() { back.UnmarshalJSON(data) }); a != 1 {
		t.Errorf("Schedule.UnmarshalJSON: %.1f allocs/op, want 1", a)
	}
	if len(back) != len(s) || cap(back) != len(s) {
		t.Errorf("decoded len %d cap %d, want exactly %d", len(back), cap(back), len(s))
	}
}

// TestWarmKernelsZeroAlloc is the alloc-regression guard: every perf
// kernel whose name ends in "Warm" exercises a memo-hit or pooled
// steady-state path whose zero-allocation behavior is a documented
// contract (BENCH_*.json, docs/PERFORMANCE.md). The suite runs under
// `go test`, so `make check` fails if any warm path regresses to
// allocating — no one has to notice a drifting benchmark number.
func TestWarmKernelsZeroAlloc(t *testing.T) {
	for _, k := range perfKernels() {
		if !strings.HasSuffix(k.name, "Warm") {
			continue
		}
		k := k
		t.Run(k.name, func(t *testing.T) {
			body, err := k.setup()
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			// One extra call outside the measured region: setup already
			// warms its memo, this shields against a future kernel that
			// forgets to.
			if err := body(); err != nil {
				t.Fatalf("warm call: %v", err)
			}
			var runErr error
			allocs := testing.AllocsPerRun(100, func() {
				if err := body(); err != nil && runErr == nil {
					runErr = err
				}
			})
			if runErr != nil {
				t.Fatalf("kernel body: %v", runErr)
			}
			if allocs != 0 {
				t.Errorf("%s allocates %.1f allocs/op on the warm path, want 0", k.name, allocs)
			}
		})
	}
}
