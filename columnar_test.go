package dsspy_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"dsspy"
	"dsspy/internal/core"
	"dsspy/internal/corpus"
	"dsspy/internal/trace"
)

// The columnar differential suite: a v3 session log replayed as column
// batches (zero []Event inflation) must render byte-identical reports to the
// event-slice lane (Analyze, which folds through Feed), across every corpus
// workload and shard shape. These tests
// are the referee for the columnar engine — any divergence between
// FoldBatch's column walks and the per-event folds shows up here as a report
// diff.

// TestColumnarReplayDifferentialCorpus saves every dynamic-study program to a
// v3 session log, replays it through LoadSessionColumns + FeedColumns at
// several shard counts, and compares the rendered bytes against Analyze of
// the same events.
func TestColumnarReplayDifferentialCorpus(t *testing.T) {
	progs := append(corpus.PatternStudyPrograms(), corpus.UseCaseStudyPrograms()...)
	dir := t.TempDir()
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			mem := trace.NewMemRecorder()
			s := trace.NewSessionWith(trace.Options{Recorder: mem, CaptureSites: true})
			for _, b := range p.Mix.Behaviors(p.Name) {
				b(s)
			}
			events := mem.Events()
			batch := NewReportBytes(t, core.New().Analyze(s, events))

			path := filepath.Join(dir, p.Name+".dslog")
			if err := trace.SaveSessionLog(path, s, events); err != nil {
				t.Fatal(err)
			}
			rs, cols, err := trace.LoadSessionColumns(path)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, b := range cols {
				n += b.Len()
			}
			if n != len(events) {
				t.Fatalf("columnar load decoded %d events, want %d", n, len(events))
			}
			for _, shards := range []int{0, 1, 4} {
				sa := core.New().NewStreamAnalyzer(shards)
				sa.Attach(rs)
				for _, b := range cols {
					sa.FeedColumns(b)
				}
				streamed := NewReportBytes(t, sa.Close())
				if !bytes.Equal(batch, streamed) {
					t.Fatalf("%s (shards=%d): columnar replay differs from batch:\n--- batch ---\n%s\n--- columnar ---\n%s",
						p.Name, shards, batch, streamed)
				}
			}
		})
	}
}

// TestColumnarReplaySnapshotMidRun interleaves a snapshot between column
// batches: the snapshot must reflect exactly the folded prefix and must not
// disturb the final report.
func TestColumnarReplaySnapshotMidRun(t *testing.T) {
	mem := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: mem, CaptureSites: true})
	progs := corpus.PatternStudyPrograms()
	for _, b := range progs[0].Mix.Behaviors(progs[0].Name) {
		b(s)
	}
	events := mem.Events()

	path := filepath.Join(t.TempDir(), "snap.dslog")
	if err := trace.SaveSessionLog(path, s, events); err != nil {
		t.Fatal(err)
	}
	rs, cols, err := trace.LoadSessionColumns(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) == 0 {
		t.Fatal("no column batches loaded")
	}
	// Split the first run in two so the snapshot lands mid-batch.
	half := cols[0].Len() / 2
	if half == 0 {
		t.Fatalf("first batch too small: %d events", cols[0].Len())
	}

	sa := core.New().NewStreamAnalyzer(2)
	sa.Attach(rs)
	first := cols[0].Slice(0, half)
	sa.FeedColumns(&first)
	snap := sa.Snapshot()
	if snap.Stats.Events != half {
		t.Fatalf("snapshot saw %d events, fed %d", snap.Stats.Events, half)
	}
	rest := cols[0].Slice(half, cols[0].Len())
	sa.FeedColumns(&rest)
	for _, b := range cols[1:] {
		sa.FeedColumns(b)
	}
	final := NewReportBytes(t, sa.Close())
	batch := NewReportBytes(t, core.New().Analyze(s, events))
	if !bytes.Equal(batch, final) {
		t.Fatalf("final report after mid-batch snapshot differs from batch:\n--- batch ---\n%s\n--- columnar ---\n%s",
			batch, final)
	}
}

// TestColumnarRecoverDamagedLog chops the tail off a concurrent workload's v3
// log and replays the salvage through RecoverSessionColumns + FeedColumns:
// the report must match Analyze of the events the struct-based salvager
// recovers from the same file.
func TestColumnarRecoverDamagedLog(t *testing.T) {
	mem := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: mem, CaptureSites: true})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := dsspy.NewList[int](s)
			for c := 0; c < 3; c++ {
				for i := 0; i < 64; i++ {
					l.Add(i)
				}
				for i := 0; i < l.Len(); i++ {
					l.Get(i)
				}
				l.Clear()
			}
		}()
	}
	wg.Wait()

	path := filepath.Join(t.TempDir(), "crashed.dslog")
	if err := dsspy.SaveSession(path, s, mem.Events()); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, whole[:len(whole)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	rs, revs, rec, err := dsspy.RecoverSession(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Clean() {
		t.Fatalf("damaged log must yield an unclean diagnostic, got %v", rec)
	}
	batch := NewReportBytes(t, core.New().Analyze(rs, revs))

	cs, cols, crec, err := dsspy.RecoverSessionColumns(path)
	if err != nil {
		t.Fatal(err)
	}
	if crec.Events != rec.Events || crec.SkippedFrames != rec.SkippedFrames ||
		crec.Truncated != rec.Truncated || crec.Instances != rec.Instances {
		t.Fatalf("columnar salvage accounting diverged: %+v vs %+v", crec, rec)
	}
	n := 0
	for _, b := range cols {
		n += b.Len()
	}
	if n != len(revs) {
		t.Fatalf("columnar salvage recovered %d events, struct salvage %d", n, len(revs))
	}
	sa := core.New().NewStreamAnalyzer(0)
	sa.Attach(cs)
	for _, b := range cols {
		sa.FeedColumns(b)
	}
	streamed := NewReportBytes(t, sa.Close())
	if !bytes.Equal(batch, streamed) {
		t.Fatalf("columnar salvage replay differs from batch:\n--- batch ---\n%s\n--- columnar ---\n%s",
			batch, streamed)
	}
}

// TestColumnarLogRoundTrip covers the CLI's -log fast path: a streaming
// collector retains columns, MergedColumns is saved with SaveSessionColumns,
// and the log both byte-matches SaveSessionLog over the inflated events and
// replays to an identical report.
func TestColumnarLogRoundTrip(t *testing.T) {
	sa := core.New().NewStreamAnalyzer(4)
	scol := sa.Collector(512, trace.Block(), true)
	mem := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{
		Recorder:     trace.TeeRecorder{mem, scol},
		CaptureSites: true,
	})
	sa.Attach(s)
	progs := corpus.UseCaseStudyPrograms()
	for _, b := range progs[0].Mix.Behaviors(progs[0].Name) {
		b(s)
	}
	scol.Close()
	rep := sa.Close()

	cb := scol.MergedColumns()
	if cb == nil {
		t.Fatal("retaining streaming collector has no merged columns after Close")
	}
	if cb.Len() != mem.Len() {
		t.Fatalf("collector retained %d events, tee twin %d", cb.Len(), mem.Len())
	}

	dir := t.TempDir()
	colPath := filepath.Join(dir, "cols.dslog")
	evPath := filepath.Join(dir, "events.dslog")
	if err := trace.SaveSessionColumns(colPath, s, cb); err != nil {
		t.Fatal(err)
	}
	if err := trace.SaveSessionLog(evPath, s, cb.Events(nil)); err != nil {
		t.Fatal(err)
	}
	colBytes, err := os.ReadFile(colPath)
	if err != nil {
		t.Fatal(err)
	}
	evBytes, err := os.ReadFile(evPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(colBytes, evBytes) {
		t.Fatal("SaveSessionColumns and SaveSessionLog produced different log bytes for the same events")
	}

	rs, cols, err := dsspy.ReplaySessionColumns(colPath)
	if err != nil {
		t.Fatal(err)
	}
	ra := core.New().NewStreamAnalyzer(0)
	ra.Attach(rs)
	for _, b := range cols {
		ra.FeedColumns(b)
	}
	replayed := NewReportBytes(t, ra.Close())
	live := NewReportBytes(t, rep)
	if !bytes.Equal(live, replayed) {
		t.Fatalf("columnar log replay differs from the live streaming report:\n--- live ---\n%s\n--- replay ---\n%s",
			live, replayed)
	}
}

// columnarGateWorkload builds n events shaped like real producer output:
// batches of one instance at a time, constant thread, and phase-structured
// accesses (64-event forward traversals alternating insert/read/write — the
// shape the paper's workloads produce), so run segmentation sees realistic
// long runs rather than degenerate per-event churn.
func columnarGateWorkload(n int) *trace.ColumnBatch {
	cb := &trace.ColumnBatch{}
	cb.Grow(n)
	const span = 4096
	const phase = 64
	for i := 0; i < n; i++ {
		inst := trace.InstanceID((i/span)%8 + 1)
		pos := i % phase
		var op trace.Op
		switch (i / phase) % 4 {
		case 0:
			op = trace.OpInsert
		case 1:
			op = trace.OpRead
		case 2:
			op = trace.OpWrite
		default:
			op = trace.OpRead
		}
		cb.Append(trace.Event{
			Seq:      uint64(i + 1),
			Instance: inst,
			Op:       op,
			Index:    pos,
			Size:     phase,
			Thread:   1,
		})
	}
	return cb
}

func gateSession(tb testing.TB) *trace.Session {
	s := trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}})
	for i := 0; i < 8; i++ {
		s.Register(trace.KindList, "List[int]", fmt.Sprintf("gate-%d", i), 0)
	}
	return s
}

// TestColumnarFoldThroughputGate enforces the headline bar from the issue:
// folding column batches through the streaming analyzer must be at least 2×
// the throughput of feeding the same events as []Event. Enabled by
// DSSPY_COLUMNAR_GATE=1 (see `make bench-columnar`): wall-clock gates need a
// quiet machine.
func TestColumnarFoldThroughputGate(t *testing.T) {
	if os.Getenv("DSSPY_COLUMNAR_GATE") == "" {
		t.Skip("throughput gate needs a quiet machine; run via `make bench-columnar` (DSSPY_COLUMNAR_GATE=1)")
	}
	const n = 2 << 20
	cb := columnarGateWorkload(n)
	events := cb.Events(nil)

	timeOne := func(fold func(sa *core.StreamAnalyzer)) time.Duration {
		best := time.Duration(1<<62 - 1)
		for rep := 0; rep < 3; rep++ {
			sa := core.New().NewStreamAnalyzer(0)
			sa.Attach(gateSession(t))
			t0 := time.Now()
			fold(sa)
			if d := time.Since(t0); d < best {
				best = d
			}
			sa.Close()
		}
		return best
	}
	evTime := timeOne(func(sa *core.StreamAnalyzer) { sa.Feed(events...) })
	colTime := timeOne(func(sa *core.StreamAnalyzer) { sa.FeedColumns(cb) })

	ratio := float64(evTime) / float64(colTime)
	t.Logf("fold throughput: []Event %v, columns %v → %.2fx", evTime, colTime, ratio)
	if ratio < 2.0 {
		t.Fatalf("columnar fold is only %.2fx the []Event path; gate requires ≥2x", ratio)
	}
}

// TestColumnarReplayAllocGate enforces the allocation bar: replaying a v3 log
// through the columnar path must allocate at most 1/3 of the bytes per event
// that the inflating load-and-feed path allocates. Enabled by
// DSSPY_COLUMNAR_GATE=1.
func TestColumnarReplayAllocGate(t *testing.T) {
	if os.Getenv("DSSPY_COLUMNAR_GATE") == "" {
		t.Skip("allocation gate runs via `make bench-columnar` (DSSPY_COLUMNAR_GATE=1)")
	}
	const n = 1 << 20
	cb := columnarGateWorkload(n)
	path := filepath.Join(t.TempDir(), "gate.dslog")
	if err := trace.SaveSessionColumns(path, gateSession(t), cb); err != nil {
		t.Fatal(err)
	}

	allocBytes := func(run func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	evBytes := allocBytes(func() {
		s, events, err := trace.LoadSessionLog(path)
		if err != nil {
			t.Fatal(err)
		}
		sa := core.New().NewStreamAnalyzer(0)
		sa.Attach(s)
		sa.Feed(events...)
		sa.Close()
	})
	colBytes := allocBytes(func() {
		s, cols, err := trace.LoadSessionColumns(path)
		if err != nil {
			t.Fatal(err)
		}
		sa := core.New().NewStreamAnalyzer(0)
		sa.Attach(s)
		for _, b := range cols {
			sa.FeedColumns(b)
		}
		sa.Close()
	})

	evPer := float64(evBytes) / n
	colPer := float64(colBytes) / n
	t.Logf("replay allocations: []Event %.1f B/event, columns %.1f B/event (%.2fx less)",
		evPer, colPer, evPer/colPer)
	if colPer > evPer/3 {
		t.Fatalf("columnar replay allocates %.1f B/event; gate requires ≤1/3 of the []Event path's %.1f", colPer, evPer)
	}
}

// BenchmarkColumnarReplay measures the full v3-log-to-report columnar path.
func BenchmarkColumnarReplay(b *testing.B) {
	const n = 1 << 18
	cb := columnarGateWorkload(n)
	path := filepath.Join(b.TempDir(), "bench.dslog")
	if err := trace.SaveSessionColumns(path, gateSession(b), cb); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, cols, err := trace.LoadSessionColumns(path)
		if err != nil {
			b.Fatal(err)
		}
		sa := core.New().NewStreamAnalyzer(0)
		sa.Attach(s)
		for _, batch := range cols {
			sa.FeedColumns(batch)
		}
		sa.Close()
	}
}

// BenchmarkEventReplay is the inflating baseline for BenchmarkColumnarReplay.
func BenchmarkEventReplay(b *testing.B) {
	const n = 1 << 18
	cb := columnarGateWorkload(n)
	path := filepath.Join(b.TempDir(), "bench.dslog")
	if err := trace.SaveSessionColumns(path, gateSession(b), cb); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, events, err := trace.LoadSessionLog(path)
		if err != nil {
			b.Fatal(err)
		}
		sa := core.New().NewStreamAnalyzer(0)
		sa.Attach(s)
		sa.Feed(events...)
		sa.Close()
	}
}

// BenchmarkColumnarFold measures the reducer fold alone (no decode) over
// producer-shaped batches.
func BenchmarkColumnarFold(b *testing.B) {
	const n = 1 << 20
	cb := columnarGateWorkload(n)
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sa := core.New().NewStreamAnalyzer(0)
		sa.Attach(gateSession(b))
		sa.FeedColumns(cb)
		sa.Close()
	}
}

// BenchmarkEventFold is the []Event baseline for BenchmarkColumnarFold.
func BenchmarkEventFold(b *testing.B) {
	const n = 1 << 20
	cb := columnarGateWorkload(n)
	events := cb.Events(nil)
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sa := core.New().NewStreamAnalyzer(0)
		sa.Attach(gateSession(b))
		sa.Feed(events...)
		sa.Close()
	}
}
