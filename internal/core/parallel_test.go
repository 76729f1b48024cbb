package core

import (
	"bytes"
	"sync"
	"testing"

	"dsspy/internal/dstruct"
	"dsspy/internal/trace"
)

// parallelWorkload drives several goroutines through instrumented containers
// with distinct per-goroutine access idioms, so the trace mixes long
// inserts, scans and queue discipline across many instances.
func parallelWorkload(s *trace.Session) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := dstruct.NewList[int](s)
			for c := 0; c < 3; c++ {
				for i := 0; i < 200; i++ {
					l.Add(i)
				}
				for i := 0; i < l.Len(); i++ {
					l.Get(i)
				}
				l.Clear()
			}
			q := dstruct.NewList[int](s)
			for i := 0; i < 50; i++ {
				q.Add(i)
			}
			for q.Len() > 0 {
				q.RemoveAt(0)
			}
		}(g)
	}
	wg.Wait()
}

func renderReport(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnalyzeWorkerCountInvariant is the determinism guarantee: the rendered
// report (use cases, ordering, search-space figures, JSON export) must be
// byte-identical no matter how many analysis workers run.
func TestAnalyzeWorkerCountInvariant(t *testing.T) {
	mem := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: mem, CaptureSites: true})
	parallelWorkload(s)
	events := columnsOf(mem.Events())

	cfg := DefaultConfig()
	cfg.Workers = 1
	want := renderReport(t, NewWith(cfg).Analyze(s, events))

	for _, workers := range []int{0, 2, 8} {
		cfg.Workers = workers
		got := renderReport(t, NewWith(cfg).Analyze(s, events))
		if !bytes.Equal(want, got) {
			t.Fatalf("Workers=%d report differs from Workers=1:\n--- want ---\n%s\n--- got ---\n%s",
				workers, want, got)
		}
	}
}

// TestReportStatsPopulated checks the observability surface: fold counters,
// worker count and collector queue statistics all arrive on Report.Stats.
func TestReportStatsPopulated(t *testing.T) {
	rep := New().Run(func(s *trace.Session) {
		l := dstruct.NewList[int](s)
		for i := 0; i < 5000; i++ {
			l.Add(i)
		}
	})
	st := rep.Stats
	if st == nil {
		t.Fatal("Report.Stats is nil")
	}
	if st.Events != 5000 || st.Instances != 1 || st.Workers < 1 {
		t.Fatalf("stats = %d events, %d instances, %d workers", st.Events, st.Instances, st.Workers)
	}
	if st.Wall <= 0 {
		t.Fatal("stats wall time not measured")
	}
	if st.Streaming == nil || st.Streaming.Folded != 5000 || st.Streaming.Instances != 1 {
		t.Fatalf("streaming stats = %+v, want 5000 events folded into 1 reducer", st.Streaming)
	}
	if st.Collector == nil {
		t.Fatal("collector stats not attached")
	}
	if st.Collector.Events != 5000 {
		t.Fatalf("collector events = %d, want 5000", st.Collector.Events)
	}
	var sb bytes.Buffer
	if err := st.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() == 0 {
		t.Fatal("stats render empty")
	}
}
