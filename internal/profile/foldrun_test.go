package profile

import (
	"reflect"
	"testing"

	"dsspy/internal/trace"
)

// foldRuns folds b through FoldRun one thread run at a time, as the
// analyzer does.
func foldRuns(b *trace.ColumnBatch, ss *StreamStats, ct *StreamContention, seg *StreamSegmenter, sp *Span) {
	for k := 0; k < b.Len(); {
		k = FoldRun(b, k, b.ThreadRun(k, b.Len()), ss, ct, seg, 2, sp)
	}
}

// TestFoldRunOutOfOrder: a thread run whose Seqs fall — concurrent producers
// racing between sequence assignment and delivery — still lands on the
// per-event figures, the contention windows' Seq bounds included.
func TestFoldRunOutOfOrder(t *testing.T) {
	seqs := []uint64{5, 3, 9, 1, 7, 8, 2, 12, 11, 4, 6, 10}
	var b trace.ColumnBatch
	var wantSS StreamStats
	var wantCT StreamContention
	for i, s := range seqs {
		e := trace.Event{Seq: s, Instance: 1, Op: trace.OpRead, Index: i % 5, Size: 5, Thread: trace.ThreadID(1 + i/4%2)}
		b.Append(e)
		wantSS.Fold(e)
		wantCT.Fold(e)
	}
	var ss StreamStats
	var ct StreamContention
	var sp Span
	foldRuns(&b, &ss, &ct, NewStreamSegmenter(DefaultSegmentOptions()), &sp)
	if !reflect.DeepEqual(ss.Snapshot(), wantSS.Snapshot()) || ss.OutOfOrder() != wantSS.OutOfOrder() {
		t.Fatalf("stats: FoldRun %+v (%d out of order), Fold %+v (%d)", ss.Snapshot(), ss.OutOfOrder(), wantSS.Snapshot(), wantSS.OutOfOrder())
	}
	if !reflect.DeepEqual(ct, wantCT) {
		t.Fatalf("contention: FoldRun %+v, Fold %+v", ct.Snapshot(), wantCT.Snapshot())
	}
}

// TestFoldRunSingleThreadZeroAlloc: once its span log has grown, a pass over
// a single-threaded instance allocates nothing — the contention window is
// inline and a one-event close is a RunClose, not a built run.
func TestFoldRunSingleThreadZeroAlloc(t *testing.T) {
	var b trace.ColumnBatch
	for i := 0; i < 1024; i++ {
		op := trace.OpRead
		if i%3 == 2 {
			op = trace.OpWrite
		}
		b.Append(trace.Event{Seq: uint64(i + 1), Instance: 1, Op: op, Index: i * 7 % 97, Size: 97, Thread: 3})
	}
	var ss StreamStats
	var ct StreamContention
	var sp Span
	seg := NewStreamSegmenter(DefaultSegmentOptions())
	foldRuns(&b, &ss, &ct, seg, &sp)
	allocs := testing.AllocsPerRun(10, func() { foldRuns(&b, &ss, &ct, seg, &sp) })
	if allocs != 0 {
		t.Fatalf("single-thread pass allocates %.1f times per 1024 events, want 0", allocs)
	}
}

// TestContentionFoldBatchLongRun: a thread run longer than a pass's packed
// counts can hold folds in passes, to the per-event figures.
func TestContentionFoldBatchLongRun(t *testing.T) {
	var b trace.ColumnBatch
	var want StreamContention
	for i := 0; i < 80_000; i++ {
		op := trace.OpInsert
		if i%10 == 0 {
			op = trace.OpRead
		}
		e := trace.Event{Seq: uint64(i + 1), Instance: 1, Op: op, Index: i, Size: i + 1, Thread: 2}
		b.Append(e)
		want.Fold(e)
	}
	var got StreamContention
	got.FoldBatch(&b, 0, b.Len())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FoldBatch %+v, Fold %+v", got.Snapshot(), want.Snapshot())
	}
}
