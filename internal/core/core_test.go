package core

import (
	"strings"
	"testing"

	"dsspy/internal/dstruct"
	"dsspy/internal/trace"
	"dsspy/internal/usecase"
)

func TestRunPipelineEndToEnd(t *testing.T) {
	d := New()
	rep := d.Run(func(s *trace.Session) {
		// The Figure 3 workload on one list, plus an untouched list and an
		// untouched array that only inflate the search space.
		l := dstruct.NewListLabeled[int](s, "producer-consumer")
		dstruct.NewList[int](s)
		dstruct.NewArray[float64](s, 16)
		for c := 0; c < 12; c++ {
			for i := 0; i < 150; i++ {
				l.Add(i)
			}
			for i := 0; i < l.Len(); i++ {
				l.Get(i)
			}
			l.Clear()
		}
	})
	if len(rep.Instances) != 1 {
		t.Fatalf("profiles = %d, want 1 (only the active list raised events)", len(rep.Instances))
	}
	ucs := rep.UseCases()
	if len(ucs) != 2 {
		t.Fatalf("use cases = %v, want LI and FLR", ucs)
	}
	ks := rep.CountByKind()
	if ks[usecase.LongInsert] != 1 || ks[usecase.FrequentLongRead] != 1 {
		t.Errorf("CountByKind = %v", ks)
	}
	if got := len(rep.ParallelUseCases()); got != 2 {
		t.Errorf("parallel use cases = %d", got)
	}
	ss := rep.SearchSpace()
	if ss.Total != 3 {
		t.Errorf("search-space total = %d, want 3 (two lists + one array)", ss.Total)
	}
	if ss.Flagged != 1 {
		t.Errorf("flagged = %d, want 1", ss.Flagged)
	}
	wantRed := 1 - 1.0/3
	if got := ss.Reduction(); got < wantRed-1e-9 || got > wantRed+1e-9 {
		t.Errorf("reduction = %v, want %v", got, wantRed)
	}
	if rep.Regularities() != 1 {
		t.Errorf("regularities = %d, want 1", rep.Regularities())
	}
	insts := rep.InstancesWithUseCases()
	if len(insts) != 1 || insts[0].Label != "producer-consumer" {
		t.Errorf("instances with use cases = %v", insts)
	}
}

func TestReportWrite(t *testing.T) {
	d := New()
	rep := d.Run(func(s *trace.Session) {
		l := dstruct.NewListLabeled[int](s, "items")
		for i := 0; i < 200; i++ {
			l.Add(i)
		}
	})
	var sb strings.Builder
	if err := rep.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Use Case 1",
		"List[int]",
		"Long-Insert",
		"Parallelize the insert operation.",
		"Search space",
		"core_test.go",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReportWriteEmpty(t *testing.T) {
	d := New()
	rep := d.Run(func(s *trace.Session) {})
	var sb strings.Builder
	if err := rep.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "No use cases") {
		t.Errorf("empty report = %q", sb.String())
	}
}

func TestSearchSpaceCountsOnlyListsAndArrays(t *testing.T) {
	d := New()
	rep := d.Run(func(s *trace.Session) {
		dstruct.NewList[int](s)
		dstruct.NewArray[int](s, 4)
		dstruct.NewDictionary[string, int](s) // not part of the search space
		dstruct.NewStack[int](s)
		dstruct.NewQueue[int](s)
	})
	if ss := rep.SearchSpace(); ss.Total != 2 {
		t.Errorf("total = %d, want 2", ss.Total)
	}
}

func TestSearchSpaceEmpty(t *testing.T) {
	var ss SearchSpace
	if ss.Reduction() != 0 {
		t.Error("empty reduction nonzero")
	}
}

func TestNewWithZeroConfig(t *testing.T) {
	d := NewWith(Config{Thresholds: usecase.Default()})
	rep := d.Run(func(s *trace.Session) {
		l := dstruct.NewList[int](s)
		for i := 0; i < 150; i++ {
			l.Add(i)
		}
	})
	if len(rep.UseCases()) != 1 {
		t.Errorf("NewWith zeroed pattern config broke detection: %v", rep.UseCases())
	}
}

func TestMultithreadedAnalysis(t *testing.T) {
	// Two worker goroutines each performing full scans of a shared list,
	// plus one producer thread filling it: the thread-aware pipeline must
	// still see the sequential read patterns and flag contention.
	s := trace.NewSession()
	rec := trace.NewMemRecorder()
	s2 := trace.NewSessionWith(trace.Options{Recorder: rec})
	_ = s
	id := s2.Register(trace.KindList, "List[int]", "shared", 0)
	const n = 40
	for i := 0; i < n; i++ {
		s2.EmitAs(id, trace.OpInsert, i, i+1, 1)
	}
	// 12 interleaved scans from two threads (6 each).
	for scan := 0; scan < 6; scan++ {
		for i := 0; i < n; i++ {
			s2.EmitAs(id, trace.OpRead, i, n, 2)
			s2.EmitAs(id, trace.OpRead, i, n, 3)
		}
	}
	rep := New().Analyze(s2, columnsOf(rec.Events()))
	res := rep.Instances[0]
	if !res.Shared.Shared() || !res.Shared.Contended() {
		t.Errorf("shared access = %+v", res.Shared)
	}
	if res.Shared.Threads != 3 {
		t.Errorf("threads = %d", res.Shared.Threads)
	}
	ks := rep.CountByKind()
	if ks[usecase.FrequentLongRead] != 1 {
		t.Errorf("FLR not detected on interleaved scans: %v", rep.UseCases())
	}
	var sb strings.Builder
	if err := rep.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "synchronized container") {
		t.Error("report missing contention note")
	}
}

// columnsOf scatters events onto one column batch.
func columnsOf(events []trace.Event) *trace.ColumnBatch {
	b := &trace.ColumnBatch{}
	b.AppendEvents(events)
	return b
}

// TestReportRowProfileString: a report row's profile is stream-built, and
// its String gives the folded event count.
func TestReportRowProfileString(t *testing.T) {
	s := trace.NewSession()
	id := s.Register(trace.KindList, "List[int]", "rows", 0)
	var events []trace.Event
	for i := 0; i < 120; i++ {
		events = append(events, trace.Event{Seq: uint64(i + 1), Instance: id, Op: trace.OpInsert, Index: i, Size: i + 1})
	}
	run := New().Run(func(s *trace.Session) {
		id := s.Register(trace.KindList, "List[int]", "rows", 0)
		for i := 0; i < 120; i++ {
			s.Emit(id, trace.OpInsert, i, i+1)
		}
	})
	for _, rep := range []*Report{New().Analyze(s, columnsOf(events)), run} {
		if got, want := rep.Instances[0].Profile.String(), "Profile{List[int] rows, 120 events}"; got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestAnalyzeDirectEvents(t *testing.T) {
	s := trace.NewSession()
	id := s.Register(trace.KindList, "List[int]", "", 0)
	var events []trace.Event
	for i := 0; i < 120; i++ {
		events = append(events, trace.Event{
			Seq: uint64(i + 1), Instance: id, Op: trace.OpInsert, Index: i, Size: i + 1,
		})
	}
	rep := New().Analyze(s, columnsOf(events))
	if len(rep.Instances) != 1 || len(rep.UseCases()) != 1 {
		t.Fatalf("analyze = %d instances, %v use cases", len(rep.Instances), rep.UseCases())
	}
	if rep.UseCases()[0].Kind != usecase.LongInsert {
		t.Errorf("kind = %v", rep.UseCases()[0].Kind)
	}
	if pats := rep.Instances[0].Patterns(); len(pats) != 1 {
		t.Errorf("patterns = %v", pats)
	}
}
