package bench

import "testing"

// TestParallelSweepsMatchSequential: the parallel Figure 6 harness
// returns exactly the sequential rows.
func TestParallelSweepsMatchSequential(t *testing.T) {
	cfg := Configs()[0]
	seq, err := Fig6DWT(cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig6DWTParallel(cfg, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, seq[i], par[i])
		}
	}
	seqM, err := Fig6MVM(cfg, 12, 20)
	if err != nil {
		t.Fatal(err)
	}
	parM, err := Fig6MVMParallel(cfg, 12, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqM {
		if seqM[i] != parM[i] {
			t.Fatalf("MVM row %d differs", i)
		}
	}
}

// TestFig5ParallelMatchesSequential: the chunked/fanned budget sweeps
// of Figure 5 return exactly the sequential rows, for several worker
// counts (including more workers than budgets).
func TestFig5ParallelMatchesSequential(t *testing.T) {
	cfg := Configs()[0]
	seqD, err := Fig5DWT(cfg, 32, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	seqM, err := Fig5MVM(cfg, 12, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 3, 64} {
		parD, err := Fig5DWTParallel(cfg, 32, 5, nil, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(parD) != len(seqD) {
			t.Fatalf("workers=%d: DWT lengths differ: %d vs %d", w, len(parD), len(seqD))
		}
		for i := range seqD {
			if seqD[i] != parD[i] {
				t.Fatalf("workers=%d: DWT row %d differs: %+v vs %+v", w, i, seqD[i], parD[i])
			}
		}
		parM, err := Fig5MVMParallel(cfg, 12, 16, nil, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(parM) != len(seqM) {
			t.Fatalf("workers=%d: MVM lengths differ: %d vs %d", w, len(parM), len(seqM))
		}
		for i := range seqM {
			if seqM[i] != parM[i] {
				t.Fatalf("workers=%d: MVM row %d differs: %+v vs %+v", w, i, seqM[i], parM[i])
			}
		}
	}
}
