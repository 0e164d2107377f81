package guard

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestCountsSurviveReset: budget charges reset per query, but the
// observation counts must accumulate across Reset for the checker's
// lifetime — that is what lets a warm session flush deltas per query.
func TestCountsSurviveReset(t *testing.T) {
	ck := New(context.Background(), Limits{})
	defer ck.Release()
	ck.NoteHit()
	ck.NoteHit()
	ck.NoteSplit()
	if err := ck.AddMemo(3); err != nil {
		t.Fatal(err)
	}
	ck.Reset(context.Background(), Limits{MaxMemoEntries: 100})
	ck.NoteHit()
	if err := ck.AddStates(5); err != nil {
		t.Fatal(err)
	}
	got := ck.Counts()
	want := Counts{MemoHits: 3, MemoEntries: 3, States: 5, IntervalSplits: 1}
	if got != want {
		t.Fatalf("Counts after Reset = %+v, want %+v", got, want)
	}
}

// TestTakeCountsDelta: TakeCounts must return the delta since the last
// take and zero the accumulator, so successive flushes never
// double-count.
func TestTakeCountsDelta(t *testing.T) {
	ck := New(context.Background(), Limits{})
	defer ck.Release()
	ck.NoteHit()
	if got := ck.TakeCounts(); got.MemoHits != 1 {
		t.Fatalf("first take = %+v, want MemoHits 1", got)
	}
	if got := ck.TakeCounts(); got != (Counts{}) {
		t.Fatalf("second take = %+v, want zero", got)
	}
	ck.NoteSplit()
	if got := ck.TakeCounts(); got.IntervalSplits != 1 || got.MemoHits != 0 {
		t.Fatalf("third take = %+v, want only the new split", got)
	}
}

// TestNoteNilSafe: the observation hooks sit on the warmest solver
// paths and must be no-ops on a nil checker.
func TestNoteNilSafe(t *testing.T) {
	var ck *Checker
	ck.NoteHit()
	ck.NoteSplit()
}

// TestFamilyCountersRecord: Record flushes a delta into the registry,
// CountersFor caches per family, and a nil receiver is a no-op.
func TestFamilyCountersRecord(t *testing.T) {
	// A family name private to this test keeps the process-global
	// counters free of crosstalk with other tests; the checks read
	// deltas, so the test also passes when run again (go test -cpu 1,4).
	fc := CountersFor("testfam_record")
	if CountersFor("testfam_record") != fc {
		t.Fatal("CountersFor did not cache the family set")
	}
	queries, hits, splits, entries := fc.queries.Value(), fc.hits.Value(), fc.splits.Value(), fc.entries.Value()
	fc.Record(nil, Counts{MemoHits: 7, IntervalSplits: 2})
	fc.Record(nil, Counts{}) // all-warm flush: only the query counter moves
	if got := fc.queries.Value() - queries; got != 2 {
		t.Errorf("queries += %d, want 2", got)
	}
	if got := fc.hits.Value() - hits; got != 7 {
		t.Errorf("hits += %d, want 7", got)
	}
	if got := fc.splits.Value() - splits; got != 2 {
		t.Errorf("splits += %d, want 2", got)
	}
	if got := fc.entries.Value() - entries; got != 0 {
		t.Errorf("entries += %d, want 0", got)
	}
	var nilFC *FamilyCounters
	nilFC.Record(nil, Counts{MemoHits: 1}) // must not panic
}

// TestRecordFeedsContextSink: Record adds the delta to the sink of the
// context the flushed query ran under, and touches no sink for a nil
// context or one without a sink.
func TestRecordFeedsContextSink(t *testing.T) {
	fc := CountersFor("testfam_sink")
	sink := &CountsSink{}
	ctx := WithSink(context.Background(), sink)
	fc.Record(ctx, Counts{MemoHits: 3, States: 2})
	fc.Record(ctx, Counts{MemoEntries: 5})
	fc.Record(nil, Counts{MemoHits: 100})
	fc.Record(context.Background(), Counts{MemoHits: 100})
	if got, want := sink.Snapshot(), (Counts{MemoHits: 3, States: 2, MemoEntries: 5}); got != want {
		t.Errorf("sink holds %+v, want %+v", got, want)
	}
}

// TestAbortReason pins the classification vocabulary shared by
// wrbpg_guard_aborts_total and wrbpg_fallback_total.
func TestAbortReason(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{ErrCanceled, "canceled"},
		{context.Canceled, "canceled"},
		{fmt.Errorf("dwt: %w", ErrDeadline), "deadline"},
		{context.DeadlineExceeded, "deadline"},
		{fmt.Errorf("ktree: %w", ErrBudgetExceeded), "budget"},
		{errors.New("disk on fire"), "other"},
	}
	for _, c := range cases {
		if got := AbortReason(c.err); got != c.want {
			t.Errorf("AbortReason(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}
