package bench

import (
	"runtime/debug"
	"strings"
	"testing"

	"wrbpg/internal/core"
	"wrbpg/internal/serve/wire"
	"wrbpg/internal/solve"
)

// TestScheduleCodecAllocs pins the schedule codecs, for a full
// mvm(16,32) move list. The packed form, the one a peer fill runs on
// both ends, appends into a sized buffer without allocating, and its
// decoder allocates only the schedule, sized exactly. The JSON encoder
// allocates only its output buffer.
func TestScheduleCodecAllocs(t *testing.T) {
	res, err := peerFillResult()
	if err != nil {
		t.Fatal(err)
	}
	s := res.Schedule
	if a := testing.AllocsPerRun(20, func() { s.MarshalJSON() }); a != 1 {
		t.Errorf("Schedule.MarshalJSON: %.1f allocs/op, want 1", a)
	}

	packed, err := s.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, len(packed))
	if a := testing.AllocsPerRun(20, func() { s.AppendBinary(buf) }); a != 0 {
		t.Errorf("Schedule.AppendBinary into a sized buffer: %.1f allocs/op, want 0", a)
	}
	var back core.Schedule
	if a := testing.AllocsPerRun(20, func() { back.UnmarshalBinary(packed) }); a != 1 {
		t.Errorf("Schedule.UnmarshalBinary: %.1f allocs/op, want 1", a)
	}
	if len(back) != len(s) || cap(back) != len(s) {
		t.Errorf("packed decode len %d cap %d, want exactly %d", len(back), cap(back), len(s))
	}
}

// TestPeerFrameAllocs pins the lean peer hop's codec, for a dwt(64,6)
// cold answer without moves. The owner appends the frame into a sized
// buffer without allocating; the forwarder's decode allocates the
// envelope, the result, its cost block and the result's two strings
// that are not shared constants (the workload label and the cache
// key); and the fill request appends into a reused buffer, as the
// forwarder's pooled frame buffer, without allocating.
func TestPeerFrameAllocs(t *testing.T) {
	preq, res, st, err := leanPeerFill()
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendPeerFrame(nil, res, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, len(frame))
	if a := testing.AllocsPerRun(20, func() { wire.AppendPeerFrame(buf, res, st, nil) }); a != 0 {
		t.Errorf("AppendPeerFrame into a sized buffer: %.1f allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { wire.DecodePeerResponse(wire.PeerMediaType, frame, false) }); a > 5 {
		t.Errorf("DecodePeerResponse of a frame without moves: %.1f allocs/op, want at most 5", a)
	}
	reqBuf, err := wire.AppendPeerRequest(nil, preq)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() { wire.AppendPeerRequest(reqBuf[:0], preq) }); a != 0 {
		t.Errorf("AppendPeerRequest into a reused buffer: %.1f allocs/op, want 0", a)
	}
}

// TestBuildAllocsConstant pins graph construction at a constant number
// of allocations: Instance.Build of a family's larger shape allocates
// no more than its smaller one, so nothing is allocated per node, per
// edge or per layer.
func TestBuildAllocsConstant(t *testing.T) {
	// Collections off: the runtime's own post-collection work allocates
	// too, and a larger shape triggers more collections.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := Configs()[0]
	for _, pair := range [][2]solve.Instance{
		{{Family: solve.FamilyDWT, N: 64, D: 6}, {Family: solve.FamilyDWT, N: 1024, D: 7}},
		{{Family: solve.FamilyKTree, K: 2, Height: 8}, {Family: solve.FamilyKTree, K: 2, Height: 10}},
		{{Family: solve.FamilyMVM, M: 16, N: 32}, {Family: solve.FamilyMVM, M: 32, N: 64}},
	} {
		var allocs [2]float64
		for i := range pair {
			pair[i].Cfg = cfg
			in := pair[i]
			if _, _, err := in.Build(); err != nil {
				t.Fatal(err)
			}
			allocs[i] = testing.AllocsPerRun(5, func() { in.Build() })
		}
		if allocs[1] > allocs[0] {
			t.Errorf("%s: %.0f allocs/op, more than %s's %.0f", pair[1].Label(), allocs[1], pair[0].Label(), allocs[0])
		}
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
