package dsspy_test

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"dsspy"
	"dsspy/internal/apps"
	"dsspy/internal/core"
	"dsspy/internal/dstruct"
	"dsspy/internal/trace"
)

// shardedWorkload drives 8 goroutines through instrumented containers: each
// goroutine owns a list and a hand-rolled queue, and all of them scan one
// shared list under an external mutex (the containers themselves are
// unsynchronized, as in the paper). With thread capture on, the trace mixes
// per-goroutine phases with genuinely interleaved events on the shared
// instance.
func shardedWorkload(s *trace.Session) {
	shared := dstruct.NewListLabeled[int](s, "shared")
	for i := 0; i < 64; i++ {
		shared.Add(i)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := dstruct.NewList[int](s)
			for c := 0; c < 4; c++ {
				for i := 0; i < 100; i++ {
					own.Add(i)
				}
				for i := 0; i < own.Len(); i++ {
					own.Get(i)
				}
				own.Clear()
			}
			for scan := 0; scan < 4; scan++ {
				for i := 0; i < 64; i++ {
					mu.Lock()
					shared.Get(i)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
}

// TestShardedCollectorConcurrencyLossless is the concurrency coverage for
// the sharded pipeline: 8 goroutines of instrumented containers on a
// ShardedCollector must lose no event (the merged stream is a gap-free
// sequence), and folding the collector's merged columns must render the
// same report bytes as the sequential event-slice analysis of the identical
// stream. Run it under -race.
func TestShardedCollectorConcurrencyLossless(t *testing.T) {
	mem := trace.NewMemRecorder()
	sharded := trace.NewShardedCollectorSize(4, 512)
	s := trace.NewSessionWith(trace.Options{
		Recorder:       trace.TeeRecorder{mem, sharded},
		CaptureSites:   true,
		CaptureThreads: true,
	})
	shardedWorkload(s)
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
		t.Fatalf("columnar report differs from sequential:\n--- sequential ---\n%s\n--- columnar ---\n%s", seq, par)
	}
}

func NewReportBytes(t *testing.T, rep *core.Report) []byte {
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

// TestReplayRoundtripParallelPipeline saves a session collected by the
// sharded collector and re-analyzes the replay; the findings must match the
// original run exactly.
func TestReplayRoundtripParallelPipeline(t *testing.T) {
	col := dsspy.NewShardedCollector(4)
	s := trace.NewSessionWith(trace.Options{Recorder: col, CaptureSites: true})
	shardedWorkload(s)
	col.Close()
	orig := core.New().Analyze(s, col.MergedColumns())

	path := filepath.Join(t.TempDir(), "run.dslog")
	if err := dsspy.SaveSessionColumns(path, s, col.MergedColumns()); err != nil {
		t.Fatal(err)
	}
	rs, cols, err := dsspy.ReplaySessionColumns(path)
	if err != nil {
		t.Fatal(err)
	}
	all := &trace.ColumnBatch{}
	for _, b := range cols {
		all.AppendRange(b, 0, b.Len())
	}
	replayed := dsspy.NewAnalyzer().Analyze(rs, all)

	ou, ru := orig.UseCases(), replayed.UseCases()
	if len(ou) != len(ru) {
		t.Fatalf("replay found %d use cases, original %d", len(ru), len(ou))
	}
	for i := range ou {
		if ou[i].Kind != ru[i].Kind ||
			ou[i].Instance.ID != ru[i].Instance.ID ||
			ou[i].Evidence != ru[i].Evidence ||
			ou[i].Recommendation != ru[i].Recommendation {
			t.Fatalf("use case %d differs after replay:\noriginal: %+v\nreplayed: %+v", i, ou[i], ru[i])
		}
	}
}

// TestCorpusAppsWorkerInvariance verifies the acceptance bar on the real
// corpus: for every evaluation app, the rendered report (use cases,
// ordering, search-space figures, JSON) is byte-identical between Workers=1
// and Workers=8.
func TestCorpusAppsWorkerInvariance(t *testing.T) {
	for _, app := range apps.Apps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			mem := trace.NewMemRecorder()
			s := trace.NewSessionWith(trace.Options{Recorder: mem, CaptureSites: true})
			app.Instrumented(s)
			events := columnsOf(mem.Events())

			cfg := core.DefaultConfig()
			cfg.Workers = 1
			want := NewReportBytes(t, core.NewWith(cfg).Analyze(s, events))
			cfg.Workers = 8
			got := NewReportBytes(t, core.NewWith(cfg).Analyze(s, events))
			if !bytes.Equal(want, got) {
				t.Fatalf("%s: Workers=8 report differs from Workers=1", app.Name)
			}
		})
	}
}
