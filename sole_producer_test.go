package dsspy_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dsspy/internal/apps"
	"dsspy/internal/core"
	"dsspy/internal/corpus"
	"dsspy/internal/sample"
	"dsspy/internal/trace"
)

// soleWorkloads are the single-goroutine programs a sole producer
// (BindDefault) serves: the seven Table IV apps, the corpus programs of the
// pattern and use-case studies, and the contention-study programs that mix
// container emission with simulated threads emitted through
// Session.EmitAs, which joins the sole producer's batch.
func soleWorkloads() map[string]func(*trace.Session) {
	w := map[string]func(*trace.Session){}
	for _, app := range apps.Apps() {
		w["app-"+app.Name] = app.Instrumented
	}
	mixed := slices.DeleteFunc(corpus.ContentionStudyPrograms(), func(p corpus.DynamicProgram) bool {
		return p.Name != "ingest-pipeline" && p.Name != "simulation-grid"
	})
	for _, progs := range [][]corpus.DynamicProgram{
		corpus.PatternStudyPrograms(), corpus.UseCaseStudyPrograms(), mixed,
	} {
		for _, p := range progs {
			p := p
			w["corpus-"+p.Name] = func(s *trace.Session) {
				for _, b := range p.Mix.Behaviors(p.Name) {
					b(s)
				}
			}
		}
	}
	return w
}

// soleRun profiles workload on a k-shard streaming collector that also
// retains its events, with the session's emission routed through a sole
// producer or, without one, delivered per event — what BindSize(1)
// degenerates to. It returns the rendered report and the Seq-ordered
// columns.
func soleRun(t *testing.T, k int, sole bool, workload func(*trace.Session)) ([]byte, *trace.ColumnBatch) {
	t.Helper()
	sa := core.New().NewStreamAnalyzer(k)
	col := sa.Collector(trace.DefaultAsyncBuffer, trace.Block(), true)
	s := trace.NewSessionWith(trace.Options{Recorder: col, CaptureSites: true})
	sa.Attach(s)
	if sole {
		p := s.BindDefault()
		workload(s)
		p.Close()
	} else {
		workload(s)
	}
	col.Close()
	var buf bytes.Buffer
	if err := sa.Close().Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), col.MergedColumns()
}

// TestSoleProducerReportsMatchPerEvent: with full-batch hand-off, every Table
// IV app and corpus program still yields the report and the Seq-ordered
// event columns of per-event delivery, byte for byte — on one shard, where
// batches only go over full, and on two and three, where cold shards are
// handed over at their deadline in between.
func TestSoleProducerReportsMatchPerEvent(t *testing.T) {
	for name, workload := range soleWorkloads() {
		for _, k := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, k), func(t *testing.T) {
				wantRep, wantCols := soleRun(t, k, false, workload)
				gotRep, gotCols := soleRun(t, k, true, workload)
				if wantCols.Len() == 0 || !reflect.DeepEqual(gotCols, wantCols) {
					t.Fatalf("sole producer delivered %d events, per-event %d, or their columns differ", gotCols.Len(), wantCols.Len())
				}
				if !bytes.Equal(gotRep, wantRep) {
					t.Fatalf("reports differ:\n--- sole producer\n%s\n--- per event\n%s", gotRep, wantRep)
				}
			})
		}
	}
}

// TestSoleProducerSampledConservation: under static 1:64 sampling, the mode
// apps-sampled runs, a sole producer's run conserves every event — observed
// == folded + aggregated + sampled out, for the run and for each instance.
func TestSoleProducerSampledConservation(t *testing.T) {
	for _, app := range apps.Apps() {
		ctrl := sample.NewController(sample.Config{Mode: sample.ModeStatic, StaticRate: 64})
		sa := core.New().NewStreamAnalyzer(2)
		sa.SetSampling(ctrl)
		col := sa.Collector(trace.DefaultAsyncBuffer, trace.Block(), false)
		s := trace.NewSessionWith(trace.Options{Recorder: col, Gate: ctrl, CaptureSites: true})
		sa.Attach(s)
		p := s.BindDefault()
		app.Instrumented(s)
		p.Close()
		col.Close()
		rep := sa.Close()
		st := rep.Stats.Sampling
		if st == nil {
			t.Fatalf("%s: sampled run has no sampling stats", app.Name)
		}
		if st.Observed == 0 || st.Observed != st.Folded+st.Aggregated+st.SampledOut {
			t.Fatalf("%s: observed %d != folded %d + aggregated %d + sampled out %d",
				app.Name, st.Observed, st.Folded, st.Aggregated, st.SampledOut)
		}
		for _, ir := range rep.Instances {
			if smp := ir.Sampling; smp != nil && !smp.Conserved() {
				t.Fatalf("%s: instance %d does not conserve its sampled events", app.Name, ir.Profile.Instance.ID)
			}
		}
	}
}

// TestSampledReportPins pins the reports of the seven Table IV apps under
// static 1:64 sampling, the mode apps-sampled runs, with a bound sole
// producer on one to three shards, whose reports are one and the same.
// TestSampleDifferentialCorpus bounds
// sampled agreement but not identity, so a change to the order in which a
// sampled fold sees its spans would otherwise go unseen. Regenerate after
// an intended change with
//
//	go test -run TestSampledReportPins -update .
func TestSampledReportPins(t *testing.T) {
	dir := filepath.Join("testdata", "sampled")
	for _, app := range apps.Apps() {
		for _, k := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", app.Name, k), func(t *testing.T) {
				ctrl := sample.NewController(sample.Config{Mode: sample.ModeStatic, StaticRate: 64})
				sa := core.New().NewStreamAnalyzer(k)
				sa.SetSampling(ctrl)
				col := sa.Collector(trace.DefaultAsyncBuffer, trace.Block(), false)
				s := trace.NewSessionWith(trace.Options{Recorder: col, Gate: ctrl, CaptureSites: true})
				sa.Attach(s)
				p := s.BindDefault()
				app.Instrumented(s)
				p.Close()
				col.Close()
				got := goldenBytes(t, sa.Close())
				path := filepath.Join(dir, strings.ReplaceAll(app.Name, " ", "_")+".golden")
				if *updateGolden && k == 1 {
					if err := os.MkdirAll(dir, 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to create it)", err)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("report differs from %s:\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
				}
			})
		}
	}
}
