// Benchmark harness: one testing.B target per paper table and figure (run
// `go test -bench 'Table|Figure' -benchmem`), plus the ablation benches
// DESIGN.md calls out (recorder choice, thread-id capture, segmentation
// tolerance, parallel-search chunking, per-operation instrumentation
// overhead).
package dsspy_test

import (
	"io"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dsspy/internal/apps"
	"dsspy/internal/core"
	"dsspy/internal/dstruct"
	"dsspy/internal/experiments"
	"dsspy/internal/par"
	"dsspy/internal/pattern"
	"dsspy/internal/profile"
	"dsspy/internal/trace"
)

// --- One bench per table/figure -------------------------------------------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	opts := experiments.Options{Reps: 1}
	for i := 0; i < b.N; i++ {
		if err := experiments.Table4(io.Discard, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table5(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table6(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table7(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: recorder choice (§IV's asynchronous-collection design) -----

func benchRecorder(b *testing.B, mk func() (trace.Recorder, func())) {
	b.ReportAllocs()
	rec, done := mk()
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	id := s.Register(trace.KindList, "List[int]", "", 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Emit(id, trace.OpInsert, i, i+1)
	}
	b.StopTimer()
	done()
}

func BenchmarkRecorderNull(b *testing.B) {
	benchRecorder(b, func() (trace.Recorder, func()) {
		return trace.NullRecorder{}, func() {}
	})
}

func BenchmarkRecorderMem(b *testing.B) {
	benchRecorder(b, func() (trace.Recorder, func()) {
		return trace.NewMemRecorder(), func() {}
	})
}

func BenchmarkRecorderCounting(b *testing.B) {
	benchRecorder(b, func() (trace.Recorder, func()) {
		return trace.NewCountingRecorder(), func() {}
	})
}

func BenchmarkRecorderFile(b *testing.B) {
	path := b.TempDir() + "/events.dslog"
	fr, err := trace.CreateEventLog(path)
	if err != nil {
		b.Fatal(err)
	}
	benchRecorder(b, func() (trace.Recorder, func()) {
		return fr, func() { _ = fr.Close() }
	})
}

func BenchmarkRecorderSocket(b *testing.B) {
	srv, err := trace.ListenCollector("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	benchRecorder(b, func() (trace.Recorder, func()) {
		sock, err := trace.DialCollector("tcp", srv.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		return sock, func() { _ = sock.Close() }
	})
}

// --- Ablation: thread-id capture -------------------------------------------

func BenchmarkThreadIDOff(b *testing.B) {
	s := trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}})
	id := s.Register(trace.KindList, "List[int]", "", 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Emit(id, trace.OpRead, i, b.N)
	}
}

func BenchmarkThreadIDOn(b *testing.B) {
	s := trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}, CaptureThreads: true})
	id := s.Register(trace.KindList, "List[int]", "", 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Emit(id, trace.OpRead, i, b.N)
	}
}

func BenchmarkThreadIDExplicit(b *testing.B) {
	s := trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}})
	id := s.Register(trace.KindList, "List[int]", "", 0)
	tid := trace.ExplicitThreadID()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EmitAs(id, trace.OpRead, i, b.N, tid)
	}
}

// --- Ablation: run-segmentation tolerance ----------------------------------

// segmentationColumns is one array instance's mixed-stride scans as a
// column batch.
func segmentationColumns() *trace.ColumnBatch {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	a := dstruct.NewArray[int](s, 1<<12)
	for c := 0; c < 16; c++ {
		for i := 0; i < a.Len(); i += 1 + c%3 { // mixed strides
			a.Get(i)
		}
	}
	var cb trace.ColumnBatch
	cb.AppendEvents(rec.Events())
	return &cb
}

// benchSegmentation segments the whole batch with opts per iteration,
// counting the closed runs plus the flushed open one.
func benchSegmentation(b *testing.B, opts profile.SegmentOptions) {
	cb := segmentationColumns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs := 0
		g := profile.NewStreamSegmenter(opts)
		g.FeedRuns(cb, 0, cb.Len(), func(*profile.Run) { runs++ })
		if _, ok := g.Finish(); ok {
			runs++
		}
		if runs == 0 {
			b.Fatal("no runs")
		}
	}
}

func BenchmarkSegmentationStrict(b *testing.B) {
	benchSegmentation(b, profile.SegmentOptions{MaxStep: 1})
}

func BenchmarkSegmentationTolerant(b *testing.B) {
	benchSegmentation(b, profile.SegmentOptions{MaxStep: 4, AllowRepeat: true})
}

// --- Ablation: pattern detection and the full pipeline ----------------------

func BenchmarkPatternDetection(b *testing.B) {
	_, cb := experiments.Figure3Events()
	cfg := pattern.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := pattern.NewStreamDetector(cfg, true)
		d.FeedBatch(cb, 0, cb.Len(), func(pattern.Closed) {})
		d.Finish()
		if d.Summary().SequentialReads == 0 {
			b.Fatal("no patterns")
		}
	}
}

func BenchmarkAnalyzePipeline(b *testing.B) {
	s, events := experiments.Figure3Events()
	d := core.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := d.Analyze(s, events)
		if len(rep.UseCases()) != 2 {
			b.Fatalf("use cases = %d", len(rep.UseCases()))
		}
	}
}

// --- Ablation: parallel-search chunking -------------------------------------

func benchParSearch(b *testing.B, chunks int) {
	data := make([]int, 1<<20)
	data[len(data)-7] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := par.IndexOf(data, 1, chunks); got != len(data)-7 {
			b.Fatalf("found %d", got)
		}
	}
}

func BenchmarkParSearch1(b *testing.B)  { benchParSearch(b, 1) }
func BenchmarkParSearch2(b *testing.B)  { benchParSearch(b, 2) }
func BenchmarkParSearch4(b *testing.B)  { benchParSearch(b, 4) }
func BenchmarkParSearch16(b *testing.B) { benchParSearch(b, 16) }

func BenchmarkParMergeSort(b *testing.B) {
	src := make([]int, 1<<17)
	for i := range src {
		src[i] = int(uint32(i*2654435761) % 1000003)
	}
	buf := make([]int, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		par.MergeSort(buf, 0, func(a, b int) bool { return a < b })
	}
}

// --- Ablation: per-operation instrumentation overhead (Table IV's slowdown
// column decomposed) ----------------------------------------------------------

func BenchmarkOverheadListAddPlain(b *testing.B) {
	b.ReportAllocs()
	l := dstruct.NewPlainList[int]()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Add(i)
	}
}

func BenchmarkOverheadListAddInstrumented(b *testing.B) {
	b.ReportAllocs()
	s := trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}})
	l := dstruct.NewList[int](s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Add(i)
	}
}

func BenchmarkOverheadListAddRecorded(b *testing.B) {
	b.ReportAllocs()
	s := trace.NewSessionWith(trace.Options{Recorder: trace.NewMemRecorder()})
	l := dstruct.NewList[int](s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Add(i)
	}
}

func BenchmarkOverheadListGetPlain(b *testing.B) {
	l := dstruct.NewPlainList[int]()
	for i := 0; i < 1024; i++ {
		l.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l.Get(i&1023) != i&1023 {
			b.Fatal("bad read")
		}
	}
}

func BenchmarkOverheadListGetInstrumented(b *testing.B) {
	s := trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}})
	l := dstruct.NewList[int](s)
	for i := 0; i < 1024; i++ {
		l.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l.Get(i&1023) != i&1023 {
			b.Fatal("bad read")
		}
	}
}

// --- Sequential-optimization use cases quantified: the paper's three
// non-parallel recommendations (IDF, SI, WWR) each promise a cost saving;
// these benches measure it ---------------------------------------------------

// Insert/Delete-Front: an array reallocating+copying per operation vs the
// dynamic list the recommendation names.
func BenchmarkSeqOptArrayAsDeque(b *testing.B) {
	s := trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}})
	a := dstruct.NewArray[int](s, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.InsertAt(0, i)
		a.RemoveAt(0)
	}
}

func BenchmarkSeqOptListAsDeque(b *testing.B) {
	s := trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}})
	l := dstruct.NewList[int](s)
	for i := 0; i < 256; i++ {
		l.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert(0, i)
		l.RemoveAt(0)
	}
}

// Stack-Implementation: a hand-rolled stack on a list vs the dedicated
// stack container.
func BenchmarkSeqOptListAsStack(b *testing.B) {
	s := trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}})
	l := dstruct.NewList[int](s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Add(i)
		l.RemoveAt(l.Len() - 1)
	}
}

func BenchmarkSeqOptRealStack(b *testing.B) {
	s := trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}})
	st := dstruct.NewStack[int](s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Push(i)
		st.Pop()
	}
}

// Write-Without-Read: nulling every slot before abandonment vs letting the
// garbage collector do its job.
func BenchmarkSeqOptCleanupWrites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buf := make([]*int, 4096)
		for j := range buf {
			v := j
			buf[j] = &v
		}
		for j := range buf {
			buf[j] = nil // the WWR anti-pattern
		}
	}
}

func BenchmarkSeqOptNoCleanup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buf := make([]*int, 4096)
		for j := range buf {
			v := j
			buf[j] = &v
		}
		_ = buf // dropped; deallocation is the collector's job
	}
}

// --- Sharded collection and the streaming pipeline --------------------------
//
// An 8-producer, 1M-event workload: each goroutine owns one instrumented
// instance and emits insert/scan/clear phases, the trace shape the paper's
// multithreaded programs produce.

const (
	pipeBenchProducers   = 8
	pipeBenchPerProducer = 125_000 // ×8 producers = 1M events
)

func pipelineBenchWorkload(s *trace.Session, producers, perProducer int) {
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := s.Register(trace.KindList, "List[int]", "", 0)
			emitted, size := 0, 0
			for emitted < perProducer {
				for i := 0; i < 500 && emitted < perProducer; i++ {
					size++
					s.Emit(id, trace.OpInsert, size-1, size)
					emitted++
				}
				for i := 0; i < size && emitted < perProducer; i++ {
					s.Emit(id, trace.OpRead, i, size)
					emitted++
				}
				if emitted < perProducer {
					s.Emit(id, trace.OpClear, trace.NoIndex, 0)
					emitted++
					size = 0
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkCollect1MSharded(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		col := trace.NewShardedCollector(0)
		s := trace.NewSessionWith(trace.Options{Recorder: col})
		pipelineBenchWorkload(s, pipeBenchProducers, pipeBenchPerProducer)
		col.Close()
	}
}

// --- Overload policies ------------------------------------------------------

// benchOverload pits the overload policies against a saturated collector:
// eight producers hammer a single shard whose buffer holds only 64 events, so
// the drain goroutine cannot keep up and the policy decides what producers
// pay. Block preserves every event at the price of producer stalls;
// DropNewest and Sample bound producer latency and count what they shed. The
// block-ns/ev and dropped-frac metrics are the numbers EXPERIMENTS.md quotes.
func benchOverload(b *testing.B, policy trace.OverloadPolicy) {
	const (
		overloadProducers   = 8
		overloadPerProducer = 1 << 16
		overloadBuffer      = 64
	)
	b.ReportAllocs()
	var blockNS, dropped, recorded float64
	for i := 0; i < b.N; i++ {
		col := trace.NewShardedCollectorOpts(1, overloadBuffer, policy)
		var wg sync.WaitGroup
		for p := 0; p < overloadProducers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for j := 0; j < overloadPerProducer; j++ {
					col.Record(trace.Event{
						Seq:      uint64(p*overloadPerProducer + j + 1),
						Instance: 1,
						Op:       trace.OpRead,
						Index:    j,
						Size:     j,
						Thread:   trace.ThreadID(p),
					})
				}
			}(p)
		}
		wg.Wait()
		col.Close()
		st := col.Stats()
		if st.Events != overloadProducers*overloadPerProducer {
			b.Fatalf("recorded %d events, want %d", st.Events, overloadProducers*overloadPerProducer)
		}
		if delivered := uint64(col.MergedColumns().Len()); delivered+st.Dropped != st.Events {
			b.Fatalf("delivered %d + dropped %d != recorded %d", delivered, st.Dropped, st.Events)
		}
		blockNS += float64(st.BlockTime)
		dropped += float64(st.Dropped)
		recorded += float64(st.Events)
	}
	b.ReportMetric(blockNS/recorded, "block-ns/ev")
	b.ReportMetric(dropped/recorded, "dropped-frac")
}

func BenchmarkOverloadBlock(b *testing.B)      { benchOverload(b, trace.Block()) }
func BenchmarkOverloadDropNewest(b *testing.B) { benchOverload(b, trace.DropNewest()) }
func BenchmarkOverloadSample8(b *testing.B)    { benchOverload(b, trace.Sample(8)) }

// --- Streaming pipeline: time and bounded memory ----------------------------

// liveHeapMB forces a collection and returns the live heap in MiB, sampled
// right after the collector closes and before final analysis, where the
// streaming pipeline holds only per-instance reducers.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func benchPipelineStreamed(b *testing.B, producers, perProducer int) {
	d := core.New()
	b.ReportAllocs()
	var heap float64
	for i := 0; i < b.N; i++ {
		sa := d.NewStreamAnalyzer(0)
		col := sa.Collector(trace.DefaultAsyncBuffer, trace.Block(), false)
		s := trace.NewSessionWith(trace.Options{Recorder: col})
		sa.Attach(s)
		pipelineBenchWorkload(s, producers, perProducer)
		col.Close()
		heap += liveHeapMB()
		rep := sa.Close()
		if len(rep.Instances) != producers {
			b.Fatalf("instances = %d", len(rep.Instances))
		}
	}
	b.ReportMetric(heap/float64(b.N), "live-heap-MB")
}

// The streaming engine at 1M and 2M events: the live-heap-MB number must stay
// flat when the event count doubles.

func BenchmarkPipeline1MStreamed(b *testing.B) {
	benchPipelineStreamed(b, pipeBenchProducers, pipeBenchPerProducer)
}

func BenchmarkPipeline2MStreamed(b *testing.B) {
	benchPipelineStreamed(b, pipeBenchProducers, 2*pipeBenchPerProducer)
}

// --- Sole-producer hand-off: the Table IV hot path ---------------------------

// BenchmarkSoleProducerPipeline is the path every Table IV profile takes:
// BindDefault → 2-shard streaming collector → stream analyzer, on CPU
// Benchmarks (drain-bound: one instance carries most of its events) and
// Mandelbrot. Each op starts after two GCs — sync.Pool keeps a victim cache
// across one — so the column pool starts cold as it does in the apps-full
// benchmark, which collects before each profiled run and before each twin;
// the GCs and the allocation count sit outside the timer. Reports ns/event and B/event over producer, collector
// and fold, and fails if a report loses a parallel use case.
func BenchmarkSoleProducerPipeline(b *testing.B) {
	for _, name := range []string{"CPU Benchmarks", "Mandelbrot"} {
		app := apps.ByName(name)
		b.Run(strings.ReplaceAll(name, " ", ""), func(b *testing.B) {
			d := core.New()
			var events, allocs uint64
			var ms runtime.MemStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				b.StartTimer()
				sa := d.NewStreamAnalyzer(2)
				col := sa.Collector(trace.DefaultAsyncBuffer, trace.Block(), false)
				s := trace.NewSessionWith(trace.Options{Recorder: col, CaptureSites: true})
				sa.Attach(s)
				p := s.BindDefault()
				app.Instrumented(s)
				p.Close()
				col.Close()
				rep := sa.Close()
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				allocs += ms.TotalAlloc - before
				events += col.Stats().Events
				if uc := len(rep.ParallelUseCases()); uc != app.WantUseCases {
					b.Fatalf("%s: %d parallel use cases, want %d", name, uc, app.WantUseCases)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(allocs)/float64(events), "B/event")
		})
	}
}

// drainBatch is one shard batch as a collector's drain handed it to its sink.
type drainBatch struct {
	shard int
	cols  *trace.ColumnBatch
}

// drainBatches profiles app through a bound sole producer into a 2-shard
// streaming collector and returns the session and a copy of every batch the
// drains handed to their sink, in each shard's delivery order.
func drainBatches(app *apps.App) (*trace.Session, []drainBatch, uint64) {
	var mu sync.Mutex
	var out []drainBatch
	var events uint64
	col := trace.NewStreamingShardedCollector(2, trace.DefaultAsyncBuffer, trace.Block(), false,
		func(shard int, b *trace.ColumnBatch) {
			c := &trace.ColumnBatch{}
			c.AppendRange(b, 0, b.Len())
			mu.Lock()
			out = append(out, drainBatch{shard, c})
			events += uint64(b.Len())
			mu.Unlock()
		})
	s := trace.NewSessionWith(trace.Options{Recorder: col, CaptureSites: true})
	p := s.BindDefault()
	app.Instrumented(s)
	p.Close()
	col.Close()
	return s, out, events
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkDrainFold is the drain's fold alone: CPU Benchmarks' and
// Mandelbrot's shard batches, retained as a 2-shard collector's drains
// handed them over, folded through FeedShard on one goroutine. It reports
// wall and CPU ns/event; CPU time (getrusage) is the figure to compare,
// because on a 2-core host the apps-full run is bound by total CPU and wall
// time swings with the neighbours. Finalizing is outside the timer, and the
// last op's report must keep the app's parallel use cases.
func BenchmarkDrainFold(b *testing.B) {
	for _, name := range []string{"CPU Benchmarks", "Mandelbrot"} {
		app := apps.ByName(name)
		b.Run(strings.ReplaceAll(name, " ", ""), func(b *testing.B) {
			s, batches, events := drainBatches(app)
			d := core.New()
			var sa *core.StreamAnalyzer
			runtime.GC()
			b.ResetTimer()
			cpu0 := cpuTime(b)
			for i := 0; i < b.N; i++ {
				sa = d.NewStreamAnalyzer(2)
				for _, db := range batches {
					sa.FeedShard(db.shard, db.cols)
				}
			}
			cpu := cpuTime(b) - cpu0
			b.StopTimer()
			n := float64(events) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
			b.ReportMetric(float64(cpu.Nanoseconds())/n, "cpu-ns/event")
			sa.Attach(s)
			if uc := len(sa.Close().ParallelUseCases()); uc != app.WantUseCases {
				b.Fatalf("%s: %d parallel use cases, want %d", name, uc, app.WantUseCases)
			}
		})
	}
}

// --- App-level end-to-end benches (the Table IV rows as single targets) -----

func BenchmarkAppInstrumented(b *testing.B) {
	for _, app := range apps.Apps() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				col := trace.NewShardedCollector(1)
				s := trace.NewSessionWith(trace.Options{Recorder: col, CaptureSites: true})
				app.Instrumented(s)
				col.Close()
			}
		})
	}
}

func BenchmarkAppPlainTwin(b *testing.B) {
	for _, app := range apps.Apps() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				app.PlainTwin()
			}
		})
	}
}
