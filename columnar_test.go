package dsspy_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
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
// workload and shard shape. Feed scatters onto column batches too, so these
// tests referee batch boundaries — decoder frames vs Feed's scratch chunks —
// and the golden reports pin the results; the reducers' column walks are
// checked against their per-event methods by the trace package's fold fuzz
// differential.

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
			saveEvents(t, path, s, events)
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
	saveEvents(t, path, s, events)
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
// the report must match Analyze (the Feed lane) of the same salvaged events.
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
	saveEvents(t, path, s, mem.Events())
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, whole[:len(whole)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	cs, cols, rec, err := dsspy.RecoverSessionColumns(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Clean() {
		t.Fatalf("damaged log must yield an unclean diagnostic, got %v", rec)
	}
	revs := inflateRuns(cols)
	if len(revs) != rec.Events {
		t.Fatalf("columnar salvage returned %d events, diagnostic says %d", len(revs), rec.Events)
	}
	batch := NewReportBytes(t, core.New().Analyze(cs, revs))
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

// TestColumnarLogRoundTrip covers the CLI's -log paths: a streaming collector
// retains columns, MergedColumns is saved with SaveSessionColumns, and the
// log both byte-matches the -collect path's save (the inflated events
// scattered once, then saved) and replays to an identical report.
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
	saveEvents(t, evPath, s, cb.Events(nil))
	colBytes, err := os.ReadFile(colPath)
	if err != nil {
		t.Fatal(err)
	}
	evBytes, err := os.ReadFile(evPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(colBytes, evBytes) {
		t.Fatal("saving merged columns and saving scattered events produced different log bytes")
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
// batches of one instance at a time and phase-structured accesses (64-event
// forward traversals alternating insert/read/write — the shape the paper's
// workloads produce), so run segmentation sees realistic long runs rather
// than degenerate per-event churn. threads = 1 writes everything from one
// thread; with more, each instance's phases go round-robin to that many
// threads, so every instance span is multi-threaded from its first event.
func columnarGateWorkload(n, threads int) *trace.ColumnBatch {
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
			Thread:   trace.ThreadID(1 + (i/phase)%threads),
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

// TestColumnarFoldThroughputGate bounds what the []Event ingress costs over
// the columnar fold it adapts: Feed scatters struct events onto scratch
// column batches and hands them to the same fold queues as FeedColumns, so
// on the same workload it must cost at most 1.5× FeedColumns — the scatter,
// never a second fold. FeedColumns may return before its batch is folded,
// so each side is timed through Close. The two are timed as foldGatePairs
// back-to-back pairs, alternating which runs first, and the gate reads the
// median of the per-pair ratios, so one noisy run cannot fail it. Enabled by
// DSSPY_COLUMNAR_GATE=1 (see `make bench-columnar`): wall-clock gates need a
// quiet machine.
func TestColumnarFoldThroughputGate(t *testing.T) {
	if os.Getenv("DSSPY_COLUMNAR_GATE") == "" {
		t.Skip("throughput gate needs a quiet machine; run via `make bench-columnar` (DSSPY_COLUMNAR_GATE=1)")
	}
	const n = 2 << 20
	const foldGatePairs = 11
	cb := columnarGateWorkload(n, 1)
	events := cb.Events(nil)

	timeOne := func(fold func(sa *core.StreamAnalyzer)) time.Duration {
		sa := core.New().NewStreamAnalyzer(0)
		sa.Attach(gateSession(t))
		t0 := time.Now()
		fold(sa)
		sa.Close()
		return time.Since(t0)
	}
	feed := func(sa *core.StreamAnalyzer) { sa.Feed(events...) }
	feedColumns := func(sa *core.StreamAnalyzer) { sa.FeedColumns(cb) }
	ratios := make([]float64, foldGatePairs)
	for i := range ratios {
		var evTime, colTime time.Duration
		if i%2 == 0 {
			evTime, colTime = timeOne(feed), timeOne(feedColumns)
		} else {
			colTime, evTime = timeOne(feedColumns), timeOne(feed)
		}
		ratios[i] = float64(evTime) / float64(colTime)
	}
	sort.Float64s(ratios)
	q1, median, q3 := ratios[foldGatePairs/4], ratios[foldGatePairs/2], ratios[3*foldGatePairs/4]
	t.Logf("Feed / FeedColumns over %d pairs: median %.2fx (q1 %.2fx, q3 %.2fx)", foldGatePairs, median, q1, q3)
	if median > 1.5 {
		t.Fatalf("Feed costs %.2fx FeedColumns (median of %d pairs); gate allows ≤1.5x", median, foldGatePairs)
	}
}

// saveEvents writes events as a session log: scattered once onto columns,
// then saved by SaveSessionColumns.
func saveEvents(t testing.TB, path string, s *trace.Session, events []trace.Event) {
	t.Helper()
	var cb trace.ColumnBatch
	cb.AppendEvents(events)
	if err := dsspy.SaveSessionColumns(path, s, &cb); err != nil {
		t.Fatal(err)
	}
}

// inflateRuns concatenates loaded column runs into one []Event.
func inflateRuns(cols []*trace.ColumnBatch) []trace.Event {
	var events []trace.Event
	for _, b := range cols {
		events = b.Events(events)
	}
	return events
}

// loadInflated is the inflating replay baseline: the columnar load, with
// every run inflated on its own and appended onto one []Event — the per-frame
// decode-and-append shape the retired []Event loader had.
func loadInflated(path string) (*trace.Session, []trace.Event, error) {
	s, cols, err := trace.LoadSessionColumns(path)
	if err != nil {
		return nil, nil, err
	}
	var events []trace.Event
	for _, b := range cols {
		events = append(events, b.Events(nil)...)
	}
	return s, events, nil
}

// TestColumnarReplayAllocGate enforces the allocation bar: replaying a v3 log
// through the columnar path must allocate at most 1/3 of the bytes per event
// that the inflating load-and-feed path (loadInflated + Feed) allocates.
// Enabled by DSSPY_COLUMNAR_GATE=1.
func TestColumnarReplayAllocGate(t *testing.T) {
	if os.Getenv("DSSPY_COLUMNAR_GATE") == "" {
		t.Skip("allocation gate runs via `make bench-columnar` (DSSPY_COLUMNAR_GATE=1)")
	}
	const n = 1 << 20
	cb := columnarGateWorkload(n, 1)
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
		s, events, err := loadInflated(path)
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
	cb := columnarGateWorkload(n, 1)
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

// BenchmarkEventReplay is the inflating baseline for BenchmarkColumnarReplay:
// load an inflated []Event (loadInflated) and fold it through Feed's scatter
// adapter.
func BenchmarkEventReplay(b *testing.B) {
	const n = 1 << 18
	cb := columnarGateWorkload(n, 1)
	path := filepath.Join(b.TempDir(), "bench.dslog")
	if err := trace.SaveSessionColumns(path, gateSession(b), cb); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, events, err := loadInflated(path)
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
// producer-shaped batches. threads=1 is the common single-thread instance;
// threads=2 makes every instance multi-threaded, so it prices the global
// detector the regularity check needs there.
func BenchmarkColumnarFold(b *testing.B) {
	const n = 1 << 20
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			cb := columnarGateWorkload(n, threads)
			b.SetBytes(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sa := core.New().NewStreamAnalyzer(0)
				sa.Attach(gateSession(b))
				sa.FeedColumns(cb)
				sa.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
		})
	}
}

// BenchmarkEventFold is the []Event baseline for BenchmarkColumnarFold: the
// same fold behind Feed's scatter onto a scratch batch.
func BenchmarkEventFold(b *testing.B) {
	const n = 1 << 20
	cb := columnarGateWorkload(n, 1)
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
