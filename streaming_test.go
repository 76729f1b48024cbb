package dsspy_test

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dsspy"
	"dsspy/internal/apps"
	"dsspy/internal/core"
	"dsspy/internal/corpus"
	"dsspy/internal/trace"
)

// The streaming differential suite: events reach the one analysis engine
// along several lanes — a live collector draining column batches into
// FeedShard (Run), a recorded []Event slice folded through Feed (feedEvents),
// and column batches from a log (FeedColumns). Every lane must render
// byte-identical reports (text + JSON) for every corpus workload, every
// evaluation app, concurrent producers, mid-run snapshots, and salvaged
// event logs.

// feedEvents folds events through StreamAnalyzer.Feed, the daemon's []Event
// ingest, and returns the report.
func feedEvents(s *trace.Session, events []trace.Event) *core.Report {
	sa := core.New().NewStreamAnalyzer(0)
	sa.Attach(s)
	sa.Feed(events...)
	return sa.Close()
}

// runBothLanes profiles a deterministic workload twice: once through Run's
// collector lane and once recorded in memory and folded through Feed.
func runBothLanes(t *testing.T, workload func(*trace.Session)) (collected, fed []byte) {
	t.Helper()
	collected = NewReportBytes(t, core.New().Run(workload))
	mem := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: mem, CaptureSites: true})
	workload(s)
	fed = NewReportBytes(t, feedEvents(s, mem.Events()))
	return collected, fed
}

// TestStreamingDifferentialCorpus runs every dynamic-study program through
// the collector lane and the event-slice lane and compares the rendered
// report bytes. The behaviors are deterministic and single-threaded, so
// running the workload twice yields the same event stream.
func TestStreamingDifferentialCorpus(t *testing.T) {
	progs := append(corpus.PatternStudyPrograms(), corpus.UseCaseStudyPrograms()...)
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			collected, fed := runBothLanes(t, func(s *trace.Session) {
				for _, b := range p.Mix.Behaviors(p.Name) {
					b(s)
				}
			})
			if !bytes.Equal(collected, fed) {
				t.Fatalf("%s: Feed report differs from Run:\n--- Run ---\n%s\n--- Feed ---\n%s",
					p.Name, collected, fed)
			}
		})
	}
}

// TestStreamingDifferentialApps covers the evaluation programs the same way.
func TestStreamingDifferentialApps(t *testing.T) {
	for _, app := range apps.Apps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			collected, fed := runBothLanes(t, app.Instrumented)
			if !bytes.Equal(collected, fed) {
				t.Fatalf("%s: Feed report differs from Run:\n--- Run ---\n%s\n--- Feed ---\n%s",
					app.Name, collected, fed)
			}
		})
	}
}

// TestStreamingConcurrentProducers is the race-mode differential: one
// execution of the 8-goroutine workload is teed into a memory recorder (for
// the event-slice lane) and the streaming analyzer's collector, so both
// sides see the identical stream, thread ids included. Run under -race via
// `make check`.
func TestStreamingConcurrentProducers(t *testing.T) {
	sa := core.New().NewStreamAnalyzer(4)
	scol := sa.Collector(512, trace.Block(), false)
	mem := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{
		Recorder:       trace.TeeRecorder{mem, scol},
		CaptureSites:   true,
		CaptureThreads: true,
	})
	sa.Attach(s)
	shardedWorkload(s)
	scol.Close()
	streamedRep := sa.Close()

	if got := streamedRep.Stats.Events; got != mem.Len() {
		t.Fatalf("streaming analyzer folded %d events, tee twin recorded %d", got, mem.Len())
	}
	if ooo := streamedRep.Stats.Streaming.OutOfOrder; ooo != 0 {
		t.Fatalf("serialized same-instance access must fold in order; got %d out-of-order events", ooo)
	}

	fed := NewReportBytes(t, feedEvents(s, mem.Events()))
	streamed := NewReportBytes(t, streamedRep)
	if !bytes.Equal(fed, streamed) {
		t.Fatalf("collector-lane report differs from Feed under 8 producers:\n--- Feed ---\n%s\n--- collector ---\n%s",
			fed, streamed)
	}
}

// TestStreamingSnapshotMidRun takes a snapshot halfway through the stream and
// asserts (a) the snapshot reflects exactly the folded prefix, and (b) taking
// it does not disturb the final report.
func TestStreamingSnapshotMidRun(t *testing.T) {
	mem := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: mem, CaptureSites: true})
	apps.Apps()[0].Instrumented(s)
	events := mem.Events()
	if len(events) < 4 {
		t.Fatalf("workload too small: %d events", len(events))
	}

	sa := core.New().NewStreamAnalyzer(2)
	sa.Attach(s)
	half := len(events) / 2
	sa.Feed(events[:half]...)

	snap := sa.Snapshot()
	if snap.Stats.Events != half {
		t.Fatalf("snapshot saw %d events, fed %d", snap.Stats.Events, half)
	}
	if snap.Stats.Streaming.Snapshots != 1 {
		t.Fatalf("snapshot counter = %d, want 1", snap.Stats.Streaming.Snapshots)
	}
	// The snapshot must itself be a well-formed report over the prefix.
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatalf("snapshot report does not render: %v", err)
	}

	sa.Feed(events[half:]...)
	final := NewReportBytes(t, sa.Close())
	whole := NewReportBytes(t, feedEvents(s, events))
	if !bytes.Equal(whole, final) {
		t.Fatalf("final report after mid-run snapshot differs from an undisturbed run:\n--- undisturbed ---\n%s\n--- snapshotted ---\n%s",
			whole, final)
	}
}

// TestStreamingRecoverDamagedLog replays a salvaged session log through the
// streaming analyzer: save a real workload's log, chop its tail (losing the
// registry and end marker), salvage it with RecoverSessionColumns, and
// assert that the salvaged events render the same report through Feed (as
// inflated events) and through FeedColumns (as column batches).
func TestStreamingRecoverDamagedLog(t *testing.T) {
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
		t.Fatalf("recovery errored: %v", err)
	}
	if rec == nil || rec.Clean() {
		t.Fatalf("damaged log must yield an unclean diagnostic, got %v", rec)
	}
	revs := inflateRuns(cols)
	if len(revs) == 0 {
		t.Fatal("salvage recovered no events; the fixture should keep its event frames")
	}

	fed := NewReportBytes(t, feedEvents(cs, revs))

	sa := core.New().NewStreamAnalyzer(0)
	sa.Attach(cs)
	for _, b := range cols {
		sa.FeedColumns(b)
	}
	columnar := NewReportBytes(t, sa.Close())
	if !bytes.Equal(fed, columnar) {
		t.Fatalf("columnar analysis of salvaged log differs from the event lane:\n--- events ---\n%s\n--- columns ---\n%s",
			fed, columnar)
	}
}
