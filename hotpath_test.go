package dsspy_test

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dsspy"
	"dsspy/internal/core"
	"dsspy/internal/corpus"
	"dsspy/internal/trace"
)

// The hot-path differential suite: Bind()-batched emission must produce
// byte-identical reports to per-event Emit — across the full dynamic-study
// corpus, the streaming analyzer, salvaged-log replay, and 8 concurrent
// producers (the latter under -race via `make check`).

// replayBatched pushes a recorded event stream through a Producer bound to a
// fresh session whose recorder is rec: the batched twin of the run that
// produced the events. The caller closes rec's collector if it has one.
func replayBatched(events []trace.Event, rec trace.Recorder, batchSize int) {
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	p := s.BindSize(batchSize)
	for _, e := range events {
		p.Emit(e.Instance, e.Op, e.Index, e.Size)
	}
	p.Close()
}

// TestHotPathDifferentialCorpus covers all 39 dynamic-study workloads: the
// per-event baseline stream and its Bind-batched replay must be identical
// event by event (Seqs included — flush-time stamping reserves contiguous
// blocks, so a single producer reproduces 1..N exactly), and the rendered
// reports must match byte for byte across batch sizes and shard counts.
func TestHotPathDifferentialCorpus(t *testing.T) {
	progs := append(corpus.PatternStudyPrograms(), corpus.UseCaseStudyPrograms()...)
	if len(progs) != 39 {
		t.Fatalf("corpus has %d programs, the differential bar expects 39", len(progs))
	}
	shapes := []struct {
		batch  int
		shards int
	}{
		{1, 1},
		{trace.DefaultBatchSize, 4},
		{7, 8},
	}
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			mem := trace.NewMemRecorder()
			s := trace.NewSessionWith(trace.Options{Recorder: mem, CaptureSites: true})
			for _, b := range p.Mix.Behaviors(p.Name) {
				b(s)
			}
			events := mem.Events()
			want := NewReportBytes(t, core.New().Analyze(s, columnsOf(events)))

			for _, shape := range shapes {
				col := trace.NewShardedCollectorOpts(shape.shards, 1024, trace.Block())
				replayBatched(events, col, shape.batch)
				col.Close()
				merged := col.MergedColumns()
				got := merged.Events(nil)
				if len(got) != len(events) {
					t.Fatalf("batch=%d shards=%d: replay delivered %d events, want %d",
						shape.batch, shape.shards, len(got), len(events))
				}
				for i := range got {
					if got[i] != events[i] {
						t.Fatalf("batch=%d shards=%d: event %d = %+v, want %+v",
							shape.batch, shape.shards, i, got[i], events[i])
					}
				}
				rep := NewReportBytes(t, core.New().Analyze(s, merged))
				if !bytes.Equal(want, rep) {
					t.Fatalf("%s: batched report (batch=%d shards=%d) differs from per-event report",
						p.Name, shape.batch, shape.shards)
				}
			}
		})
	}
}

// TestHotPathDifferentialStream feeds the batched replay through the
// streaming analyzer's collector: incremental folding of producer batches
// must render the same bytes as Analyze of the per-event stream.
func TestHotPathDifferentialStream(t *testing.T) {
	progs := append(corpus.PatternStudyPrograms(), corpus.UseCaseStudyPrograms()...)
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			mem := trace.NewMemRecorder()
			s := trace.NewSessionWith(trace.Options{Recorder: mem, CaptureSites: true})
			for _, b := range p.Mix.Behaviors(p.Name) {
				b(s)
			}
			events := mem.Events()
			want := NewReportBytes(t, core.New().Analyze(s, columnsOf(events)))

			sa := core.New().NewStreamAnalyzer(2)
			scol := sa.Collector(512, trace.Block(), false)
			rs := trace.NewSessionWith(trace.Options{Recorder: scol})
			sa.Attach(s) // registry comes from the baseline session
			p2 := rs.Bind()
			for _, e := range events {
				p2.Emit(e.Instance, e.Op, e.Index, e.Size)
			}
			p2.Close()
			scol.Close()
			got := NewReportBytes(t, sa.Close())
			if !bytes.Equal(want, got) {
				t.Fatalf("%s: streamed report over batched producer differs from per-event analysis", p.Name)
			}
		})
	}
}

// TestHotPathRecoverReplay closes the loop with the v3 on-disk format: a
// batched run saved as a (columnar) session log, damaged at the tail, must
// salvage and re-analyze to the same bytes as the per-event baseline's log
// given the identical treatment.
func TestHotPathRecoverReplay(t *testing.T) {
	mem := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: mem, CaptureSites: true})
	for _, b := range (corpus.Mix{LI: 2, FS: 1, SAIDual: 1}).Behaviors("recover") {
		b(s)
	}
	events := mem.Events()

	batched := trace.NewMemRecorder()
	replayBatched(events, batched, trace.DefaultBatchSize)

	damaged := func(t *testing.T, evs []trace.Event, name string) []byte {
		path := filepath.Join(t.TempDir(), name)
		saveEvents(t, path, s, evs)
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, whole[:len(whole)-10], 0o644); err != nil {
			t.Fatal(err)
		}
		rs, cols, rec, err := dsspy.RecoverSessionColumns(path)
		if err != nil {
			t.Fatal(err)
		}
		revs := inflateRuns(cols)
		if rec == nil || rec.Clean() {
			t.Fatalf("damaged log must yield an unclean diagnostic, got %v", rec)
		}
		if len(revs) != len(evs) {
			t.Fatalf("tail damage lost event frames: salvaged %d of %d", len(revs), len(evs))
		}
		return NewReportBytes(t, core.New().Analyze(rs, columnsOf(revs)))
	}

	want := damaged(t, events, "perevent.dslog")
	got := damaged(t, batched.Events(), "batched.dslog")
	if !bytes.Equal(want, got) {
		t.Fatal("salvaged batched-run report differs from salvaged per-event report")
	}
}

// TestHotPathBatchedConcurrentProducers is the race half of the bar: one
// execution with 8 Bind()-batched goroutines is teed into a memory recorder
// and a sharded collector. Nothing may be lost, the Seq space must stay
// gap-free (flush-time block stamping leaves no holes), and the columnar
// analysis of the shards must match the sequential analysis of the tee twin
// byte for byte. Run under -race via `make check`.
func TestHotPathBatchedConcurrentProducers(t *testing.T) {
	mem := trace.NewMemRecorder()
	sharded := trace.NewShardedCollectorSize(4, 512)
	s := trace.NewSessionWith(trace.Options{
		Recorder:       trace.TeeRecorder{mem, sharded},
		CaptureSites:   true,
		CaptureThreads: true,
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := s.Bind()
			l := dsspy.NewList[int](s)
			for c := 0; c < 3; c++ {
				for i := 0; i < 100; i++ {
					p.Emit(trace.InstanceID(1), trace.OpRead, i%10, 10)
					l.Add(i) // per-event Emit and Bind interleave across goroutines
				}
				p.Flush()
			}
			p.Close()
		}(g)
	}
	wg.Wait()
	sharded.Close()

	merged := sharded.MergedColumns()
	if merged.Len() != mem.Len() {
		t.Fatalf("sharded collector holds %d events, tee twin holds %d", merged.Len(), mem.Len())
	}
	for i, seq := range merged.Seq {
		if seq != uint64(i+1) {
			t.Fatalf("merged stream has a gap at %d: seq %d", i, seq)
		}
	}

	cfg := core.DefaultConfig()
	cfg.Workers = 1
	seq := NewReportBytes(t, core.NewWith(cfg).Analyze(s, columnsOf(mem.Events())))
	par := NewReportBytes(t, core.New().Analyze(s, merged))
	if !bytes.Equal(seq, par) {
		t.Fatal("parallel report over batched producers differs from sequential tee-twin report")
	}
}
