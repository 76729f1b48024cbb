package dsspy_test

// Concurrency-aware analysis: differential coverage for the contention
// detectors (collector lane vs event-slice lane byte-identity over the
// multi-thread corpus and the Contend app), the advisor's contention-aware
// planning, semantic preservation of the recommendation-applied Contend
// workload, and the single-threaded overhead budget of the contention
// reducer.

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"time"

	"dsspy/internal/advisor"
	"dsspy/internal/apps"
	"dsspy/internal/core"
	"dsspy/internal/corpus"
	"dsspy/internal/profile"
	"dsspy/internal/trace"
)

// TestStreamingDifferentialContention extends the streaming differential
// suite to the multi-thread study programs: the contention reducers must
// render byte-identical reports on the collector lane and the event-slice
// lane. The behaviors emit simulated thread ids from one real goroutine, so
// the per-instance sequences are deterministic.
func TestStreamingDifferentialContention(t *testing.T) {
	for _, p := range corpus.ContentionStudyPrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			collected, fed := runBothLanes(t, func(s *trace.Session) {
				for _, b := range p.Mix.Behaviors(p.Name) {
					b(s)
				}
			})
			if !bytes.Equal(collected, fed) {
				t.Fatalf("%s: Analyze report differs from Run:\n--- Run ---\n%s\n--- Analyze ---\n%s",
					p.Name, collected, fed)
			}
		})
	}
}

// TestStreamingDifferentialContendApp covers the concurrency-study app the
// same way TestStreamingDifferentialApps covers the Table IV programs.
func TestStreamingDifferentialContendApp(t *testing.T) {
	app := apps.ByName("Contend")
	if app == nil {
		t.Fatal("Contend app not registered")
	}
	collected, fed := runBothLanes(t, app.Instrumented)
	if !bytes.Equal(collected, fed) {
		t.Fatal("Contend: Analyze report differs from Run")
	}
}

// TestContentionStudyExpectations: every contention study program detects
// exactly the use cases its mix promises, in both pipelines' shared view.
func TestContentionStudyExpectations(t *testing.T) {
	for _, p := range corpus.ContentionStudyPrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			rep := p.Run(core.New())
			got := make(map[string]int)
			for _, u := range rep.UseCases() {
				got[u.Kind.Short()]++
			}
			want := make(map[string]int)
			for k, n := range p.Mix.UseCases() {
				want[k.Short()] = n
			}
			for k, n := range want {
				if got[k] != n {
					t.Errorf("%s: %d, want %d (all: %v)", k, got[k], n, got)
				}
			}
			for k, n := range got {
				if want[k] == 0 {
					t.Errorf("unexpected use case %s x%d", k, n)
				}
			}
		})
	}
}

// TestContendAdvisorPlans: on the Contend app the advisor must emit the new
// concurrency plan kinds — and demote the classic Implement-Queue finding on
// the contended queue to keep-sequential with no speedup claim.
func TestContendAdvisorPlans(t *testing.T) {
	app := apps.ByName("Contend")
	rep := core.New().Run(app.Instrumented)
	plans := advisor.Advise(rep, 4)

	byKind := make(map[advisor.PlanKind][]advisor.Plan)
	for _, p := range plans {
		byKind[p.Kind] = append(byKind[p.Kind], p)
	}
	for _, k := range []advisor.PlanKind{
		advisor.PlanShardByKey, advisor.PlanMPSCQueue,
		advisor.PlanRWMutexWrap, advisor.PlanKeepSequential,
		advisor.PlanParallelize,
	} {
		if len(byKind[k]) == 0 {
			t.Errorf("no %s plan emitted; plans: %v", k, plans)
		}
	}

	// The contended job queue fires classic Implement-Queue AND MPSC-Queue;
	// the classic plan must be demoted, not promise a parallel speedup.
	for _, p := range byKind[advisor.PlanKeepSequential] {
		if got := p.Speedup(4); got != 1 {
			t.Errorf("keep-sequential plan claims %.2fx", got)
		}
		if !strings.Contains(p.Sketch, "par.MPSCRing") && !strings.Contains(p.Sketch, "par.ShardedMap") {
			t.Errorf("keep-sequential sketch does not point at a concurrency-safe container:\n%s", p.Sketch)
		}
	}

	// Contention-aware plans target the whole container: full region share,
	// and a real estimated win.
	for _, k := range []advisor.PlanKind{advisor.PlanShardByKey, advisor.PlanMPSCQueue, advisor.PlanRWMutexWrap} {
		for _, p := range byKind[k] {
			if p.Speedup(4) <= 1.5 {
				t.Errorf("%s plan estimates only %.2fx on 4 cores", k, p.Speedup(4))
			}
		}
	}

	// The phase-separated frame buffer parallelizes undiscounted: its
	// episodes are read-only, so no contention penalty applies.
	for _, p := range byKind[advisor.PlanParallelize] {
		if p.Contended != 0 {
			t.Errorf("parallelize plan on %s carries contention discount %.2f; read-only episodes must not discount",
				p.UseCase.Instance.Label, p.Contended)
		}
	}

	// Demoted plans rank last.
	if last := plans[len(plans)-1]; last.Kind != advisor.PlanKeepSequential {
		t.Errorf("last-ranked plan is %s, want keep-sequential", last.Kind)
	}
}

// TestContendSemanticsPreserved: following the recommendations must not
// change the program's result — the applied-parallel twin computes the same
// checksum as the sequential original for any worker count.
func TestContendSemanticsPreserved(t *testing.T) {
	app := apps.ByName("Contend")
	want := app.Plain()
	for _, w := range []int{1, 2, 4, 8} {
		if got := app.Parallel(w); got != want {
			t.Fatalf("Parallel(%d) = %#x, want %#x", w, got, want)
		}
	}
}

// TestContendQueueProbeSpeedup is the applied-recommendation measurement the
// issue gates on: replacing the contended slice-FIFO with the recommended
// par.MPSCRing must speed the queue hand-off region up by at least 1.5x.
// The win is algorithmic (O(n) front-removal shifts vs O(1) ring slots), so
// it holds even on a single-core host.
func TestContendQueueProbeSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate; skipped in -short")
	}
	app := apps.ByName("Contend")
	var probe *apps.Probe
	for i := range app.Probes {
		if app.Probes[i].UseCase == "MQ" {
			probe = &app.Probes[i]
		}
	}
	if probe == nil {
		t.Fatal("Contend has no MQ probe")
	}
	speedup := probe.Measure(4, 3)
	t.Logf("queue hand-off: %.2fx with the recommended MPSC ring", speedup)
	if speedup < 1.5 {
		t.Fatalf("recommended container yields %.2fx, want >= 1.5x", speedup)
	}
}

// TestContentionOverheadEndToEnd is the bench-contend budget: on a purely
// single-threaded workload, the contention reducer's fold cost must stay
// under 5% of the end-to-end analysis pipeline it rides in. Both sides are
// timed alike: contentionGatePairs back-to-back pairs, alternating which
// side runs first, each side the best of 3 within its pair, and the gate
// reads the median of the per-pair shares, so one noisy run cannot fail it.
func TestContentionOverheadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing gate; race instrumentation skews the ratio")
	}
	const n = 200_000
	const contentionGatePairs = 11
	workload := func(s *trace.Session) {
		id := s.Register(trace.KindList, "int", "overhead", 0)
		for i := 0; i < n; i++ {
			s.Emit(id, trace.OpInsert, i, i+1)
		}
	}

	// The events the reducer folds: recorded once, with the per-event
	// profile view attached by Analyze, then laid out as the column batch
	// the pipeline's drain goroutines fold.
	mem := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: mem})
	workload(s)
	events := core.New().Analyze(s, mem.Events()).Instances[0].Profile.Events
	if len(events) != n {
		t.Fatalf("captured %d events, want %d", len(events), n)
	}
	var cols trace.ColumnBatch
	cols.AppendEvents(events)

	bestOf3 := func(run func()) time.Duration {
		best := time.Duration(1<<62 - 1)
		for r := 0; r < 3; r++ {
			start := time.Now()
			run()
			best = min(best, time.Since(start))
		}
		return best
	}
	pipeline := func() { core.New().Run(workload) }
	fold := func() {
		var sc profile.StreamContention
		sc.FoldBatch(&cols, 0, cols.Len())
	}
	shares := make([]float64, contentionGatePairs)
	for i := range shares {
		var p, f time.Duration
		if i%2 == 0 {
			p, f = bestOf3(pipeline), bestOf3(fold)
		} else {
			f, p = bestOf3(fold), bestOf3(pipeline)
		}
		shares[i] = float64(f) / float64(p)
	}
	sort.Float64s(shares)
	q1, median, q3 := shares[contentionGatePairs/4], shares[contentionGatePairs/2], shares[3*contentionGatePairs/4]
	t.Logf("contention fold / pipeline over %d pairs: median %.2f%% (q1 %.2f%%, q3 %.2f%%) of end-to-end analysis",
		contentionGatePairs, 100*median, 100*q1, 100*q3)
	if median > 0.05 {
		t.Fatalf("contention reducer costs %.1f%% of the single-threaded pipeline (median of %d pairs), want < 5%%",
			100*median, contentionGatePairs)
	}
}
