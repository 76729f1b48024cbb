package pattern_test

// The paper records thread ids exactly so that "successive access events"
// are judged within one thread. These tests check that judgment where the
// reports make it — in the StreamAnalyzer's per-thread detectors — which is
// why they live in an external package: core imports pattern.

import (
	"reflect"
	"testing"

	"dsspy/internal/core"
	"dsspy/internal/dstruct"
	"dsspy/internal/pattern"
	"dsspy/internal/trace"
)

// interleaved folds every event of the one instance through a single
// detector, blind to threads.
func interleaved(events []trace.Event) *pattern.Summary {
	d := pattern.NewStreamDetector(pattern.DefaultConfig(), true)
	for _, e := range events {
		d.Feed(e)
	}
	d.Finish()
	return d.Summary()
}

func TestSummarizeThreadsSeparatesScans(t *testing.T) {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	id := s.Register(trace.KindList, "List[int]", "", 0)
	const n = 30
	// Two goroutines scanning concurrently in opposite directions:
	// strictly interleaved events form a zigzag.
	for i := 0; i < n; i++ {
		s.EmitAs(id, trace.OpRead, i, n, 1)
		s.EmitAs(id, trace.OpRead, n-1-i, n, 2)
	}
	events := rec.Events()

	// Thread-blind summary: the zigzag has adjacent steps only where the
	// two scans cross in the middle, so at best a couple of two-event
	// fragments appear — never a real scan.
	for _, pat := range interleaved(events).Patterns {
		if pat.Len() > 2 {
			t.Errorf("thread-blind summary found scan fragment %v", pat)
		}
	}
	// The analyzer's summary is thread-aware: one full scan per thread.
	rep := core.New().Analyze(s, events)
	if len(rep.Instances) != 1 {
		t.Fatalf("got %d instances, want 1", len(rep.Instances))
	}
	aware := rep.Instances[0].Summary
	if aware.SequentialReads != 2 {
		t.Errorf("thread-aware sequential reads = %d, want 2", aware.SequentialReads)
	}
	if aware.ByType[pattern.ReadForward] != 1 || aware.ByType[pattern.ReadBackward] != 1 {
		t.Errorf("Read-Forward = %d, Read-Backward = %d, want 1 each",
			aware.ByType[pattern.ReadForward], aware.ByType[pattern.ReadBackward])
	}
	if got := aware.DirectionalReadEvents(); got != 2*n {
		t.Errorf("events in read patterns = %d, want %d", got, 2*n)
	}
}

func TestSummarizeThreadsSingleThreadIdentical(t *testing.T) {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	l := dstruct.NewList[int](s)
	for i := 0; i < 50; i++ {
		l.Add(i)
	}
	events := rec.Events()
	rep := core.New().Analyze(s, events)
	if len(rep.Instances) != 1 {
		t.Fatalf("got %d instances, want 1", len(rep.Instances))
	}
	got, want := rep.Instances[0].Summary, interleaved(events)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("single-threaded summary differs from the interleaved one:\n analyzer: %+v\n     want: %+v", got, want)
	}
	if got.ByType[pattern.InsertBack] != 1 {
		t.Errorf("Insert-Back = %d, want 1", got.ByType[pattern.InsertBack])
	}
}
