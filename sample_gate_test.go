package dsspy_test

// The adaptive-sampling differential suite (`make bench-sample`): sampled
// runs must agree with full-fidelity runs on every dynamic-study workload —
// exactly where nothing was dropped, within a declared positive error bound
// where events were sampled out — with event conservation holding throughout.
// The companion slowdown gate (DSSPY_SAMPLE_GATE=1) bounds the price of the
// gated instrumented run against the plain twin, the PlainTwin methodology
// of Table IV.

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"dsspy/internal/apps"
	"dsspy/internal/core"
	"dsspy/internal/corpus"
	"dsspy/internal/sample"
	"dsspy/internal/trace"
)

// sampleCorpus is the full dynamic corpus: the 15 pattern-study and 24
// use-case-study programs plus the 5 contention-study programs.
func sampleCorpus() []corpus.DynamicProgram {
	progs := append(corpus.PatternStudyPrograms(), corpus.UseCaseStudyPrograms()...)
	return append(progs, corpus.ContentionStudyPrograms()...)
}

// runSampled executes the program's behaviors through the streaming
// analyzer, gated by ctrl (nil = full fidelity), and returns the report.
func runSampled(p corpus.DynamicProgram, ctrl *sample.Controller) *core.Report {
	d := core.New()
	sa := d.NewStreamAnalyzer(1)
	scol := sa.Collector(trace.DefaultAsyncBuffer, trace.Block(), false)
	opts := trace.Options{Recorder: scol}
	if ctrl != nil {
		opts.Gate = ctrl
		sa.SetSampling(ctrl)
	}
	s := trace.NewSessionWith(opts)
	sa.Attach(s)
	for _, b := range p.Mix.Behaviors(p.Name) {
		b(s)
	}
	scol.Close()
	return sa.Close()
}

// kindSet renders an instance's detected use-case kinds plus its regularity
// verdict as one comparable string.
func kindSet(ir *core.InstanceResult) string {
	kinds := make([]string, 0, len(ir.UseCases))
	for _, u := range ir.UseCases {
		kinds = append(kinds, u.Kind.String())
	}
	sort.Strings(kinds)
	if ir.Regular {
		kinds = append(kinds, "regular")
	}
	return fmt.Sprint(kinds)
}

// TestSampleDifferentialCorpus: for every workload and two sampling shapes
// (adaptive, static 1:4), every instance must either reproduce the
// full-fidelity detections exactly, or carry a positive error bound that
// declares the uncertainty — and the gate's conservation invariant
// (observed == folded + sampled out) must hold for every instance.
func TestSampleDifferentialCorpus(t *testing.T) {
	progs := sampleCorpus()
	if len(progs) != 44 {
		t.Fatalf("corpus has %d programs, the differential bar expects 44", len(progs))
	}
	shapes := []struct {
		name string
		cfg  sample.Config
	}{
		// Aggressive adaptive settings so backoff engages even on the
		// corpus' modest event counts.
		{"adaptive", sample.Config{Mode: sample.ModeAdaptive, Window: 64, StableWindows: 2, Burst: 8}},
		// Static 1:4 drops deterministically from the first period: every
		// lossy detection must declare its bound.
		{"static", sample.Config{Mode: sample.ModeStatic, StaticRate: 4, Burst: 8}},
	}
	lossy := 0
	var aggregated uint64
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			full := runSampled(p, nil)
			want := map[trace.InstanceID]string{}
			for _, ir := range full.Instances {
				want[ir.Profile.Instance.ID] = kindSet(ir)
			}
			for _, shape := range shapes {
				ctrl := sample.NewController(shape.cfg)
				rep := runSampled(p, ctrl)
				for _, is := range ctrl.Instances() {
					if !is.Conserved() {
						t.Fatalf("%s: conservation violated for instance %d: %+v", shape.name, is.ID, is)
					}
					aggregated += is.Aggregated
				}
				if len(rep.Instances) != len(full.Instances) {
					t.Fatalf("%s: sampled run found %d instances, full run %d",
						shape.name, len(rep.Instances), len(full.Instances))
				}
				for _, ir := range rep.Instances {
					id := ir.Profile.Instance.ID
					got := kindSet(ir)
					if got == want[id] {
						continue // exact agreement
					}
					// Divergence is only acceptable when the row admits
					// it lost events, with a positive bound.
					if ir.Sampling == nil || ir.Sampling.Bound <= 0 {
						t.Fatalf("%s: instance %d diverged without a bound: got %s, full fidelity %s",
							shape.name, id, got, want[id])
					}
				}
				for _, ir := range rep.Instances {
					if ir.Sampling != nil {
						lossy++
						if ir.Sampling.Bound <= 0 || ir.Sampling.Bound >= 1 {
							t.Fatalf("%s: instance %d bound %v outside (0, 1)",
								shape.name, ir.Profile.Instance.ID, ir.Sampling.Bound)
						}
					}
				}
			}
		})
	}
	// The static shape alone guarantees lossy rows; a zero count means the
	// bound plumbing silently fell off and the suite proved nothing.
	if lossy == 0 {
		t.Fatal("no workload produced a lossy instance; the differential bar is vacuous")
	}
	// Dropped container spans must settle through the lazy-aggregate plane
	// (handles fold, sync points flush, the controller's ObserveAggregate
	// accounts them): zero here means the aggregates fell out of the
	// conservation identity and the suite stopped exercising them.
	if aggregated == 0 {
		t.Fatal("no instance settled aggregated events; the lazy-aggregation plane is vacuous in this suite")
	}
}

// gatedRun executes one app's instrumented workload end to end through the
// CLI's -app configuration: streaming analyzer, sharded collector, and
// BindDefault so dstruct's per-event emission rides the producer's
// credit-cached gate path. cfg nil = ungated full fidelity.
func gatedRun(app *apps.App, cfg *sample.Config) time.Duration {
	var ctrl *sample.Controller
	if cfg != nil {
		ctrl = sample.NewController(*cfg)
	}
	d := core.New()
	sa := d.NewStreamAnalyzer(0)
	scol := sa.Collector(trace.DefaultAsyncBuffer, trace.Block(), false)
	opts := trace.Options{Recorder: scol}
	if ctrl != nil {
		opts.Gate = ctrl
		sa.SetSampling(ctrl)
	}
	s := trace.NewSessionWith(opts)
	sa.Attach(s)
	// Collect setup garbage before the span: the collector's shard buffers
	// are megabytes, and letting their GC-assist debt fall due inside the
	// workload charges harness setup to the measurement.
	runtime.GC()
	start := time.Now()
	p := s.BindDefault()
	app.Instrumented(s)
	p.Close()
	elapsed := time.Since(start)
	scol.Close()
	sa.Close()
	return elapsed
}

// twinRun times one plain-twin execution under the same GC hygiene as the
// instrumented spans.
func twinRun(app *apps.App) time.Duration {
	runtime.GC()
	start := time.Now()
	app.PlainTwin()
	return time.Since(start)
}

// floorRun times the instrumented workload under the drop-everything gate:
// the no-trace floor of the proxy layer (see dropAll).
func floorRun(app *apps.App) time.Duration {
	d := core.New()
	sa := d.NewStreamAnalyzer(0)
	scol := sa.Collector(trace.DefaultAsyncBuffer, trace.Block(), false)
	s := trace.NewSessionWith(trace.Options{Recorder: scol, Gate: dropAll{}})
	sa.Attach(s)
	runtime.GC()
	start := time.Now()
	p := s.BindDefault()
	app.Instrumented(s)
	p.Close()
	elapsed := time.Since(start)
	scol.Close()
	sa.Close()
	return elapsed
}

// dropAll is a Gate that drops every event with maximal credit: it measures
// the floor of the gated trace plane — the instrumented run with ALL tracing
// work (event construction, batching, delivery, analysis) removed, leaving
// only the dstruct proxy layer the instrumentation API itself imposes
// (interface calls, linked containers vs the twins' raw slices).
type dropAll struct{}

func (dropAll) Admit(trace.InstanceID, trace.ThreadID) bool           { return false }
func (dropAll) AdmitRun(trace.InstanceID, trace.ThreadID) (bool, int) { return false, 1 << 20 }
func (dropAll) Observe(trace.InstanceID, uint64, uint64)              {}

// warmedAdaptiveRun measures the adaptive controller in its always-on
// steady state: the workload runs twice untimed in the same session so the
// controller learns which registration shapes are stable (shape
// inheritance), then the third, timed run starts its instances already
// backed off.
func warmedAdaptiveRun(app *apps.App, cfg sample.Config) time.Duration {
	ctrl := sample.NewController(cfg)
	d := core.New()
	sa := d.NewStreamAnalyzer(0)
	scol := sa.Collector(trace.DefaultAsyncBuffer, trace.Block(), false)
	sa.SetSampling(ctrl)
	s := trace.NewSessionWith(trace.Options{Recorder: scol, Gate: ctrl})
	sa.Attach(s)
	for i := 0; i < 2; i++ {
		p := s.BindDefault()
		app.Instrumented(s)
		p.Close()
	}
	// Backoff closes through the drain goroutine; wait for the window count
	// to quiesce so the warmup's stability evidence is actually recorded.
	deadline := time.Now().Add(2 * time.Second)
	prev := ctrl.Totals().Windows
	for time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		if w := ctrl.Totals().Windows; w == prev {
			break
		} else {
			prev = w
		}
	}
	runtime.GC()
	start := time.Now()
	p := s.BindDefault()
	app.Instrumented(s)
	p.Close()
	elapsed := time.Since(start)
	scol.Close()
	sa.Close()
	return elapsed
}

// TestSampleSlowdownGate measures the price of always-on profiling in the
// sampled steady state on the Table IV apps. Three reference points per app,
// all against the plain twin (PlainTwin methodology, DESIGN.md §9):
//
//   - floor: a drop-everything gate. What remains is the dstruct proxy
//     layer itself — the inlined credit test and wrapper bodies that the
//     twins' raw slices don't pay. No trace-layer sampler can remove it;
//     with the handle fast path it measures well under 1.4× geo-mean on
//     this corpus (TestFloorGate enforces that bar directly).
//   - steady 1:64: the backed-off regime a stable hot instance converges
//     to (-sample=1:N with the default MaxRate).
//   - adaptive (warmed): -sample=adaptive after shape inheritance has seen
//     the workload's registration shapes stabilize, the always-on scenario.
//
// The enforced gate: the steady sampled run must cost < 1.5× the floor
// (geo-mean over the apps, median of gatePairs alternating pairs) — i.e.
// sampling must remove at least that much of the removable tracing
// overhead. The twin-relative ratios are logged for the
// EXPERIMENTS table (full fidelity measures ≈5.2× there).
// Timing-sensitive, so it only runs when DSSPY_SAMPLE_GATE=1
// (CI: `make bench-sample`).
func TestSampleSlowdownGate(t *testing.T) {
	if os.Getenv("DSSPY_SAMPLE_GATE") != "1" {
		t.Skip("set DSSPY_SAMPLE_GATE=1 to run the sampling slowdown gate")
	}
	steady := sample.Config{Mode: sample.ModeStatic, StaticRate: 64}
	adaptive := sample.Config{Mode: sample.ModeAdaptive, Window: 64, StableWindows: 2}
	var overFloor [][]float64 // 1:64/floor, [app][pair]
	for _, app := range apps.Apps() {
		app := app
		if app.PlainTwin == nil {
			continue
		}
		pairs := alternatingPairs(
			func() time.Duration { return twinRun(app) },
			func() time.Duration { return floorRun(app) },
			func() time.Duration { return gatedRun(app, &steady) },
			func() time.Duration { return warmedAdaptiveRun(app, adaptive) })
		var floor, gated, adapt, over []float64 // floor, 1:64 and adaptive over the twin; 1:64 over the floor
		for _, d := range pairs {
			floor = append(floor, float64(d[1])/float64(d[0]))
			gated = append(gated, float64(d[2])/float64(d[0]))
			adapt = append(adapt, float64(d[3])/float64(d[0]))
			over = append(over, float64(d[2])/float64(d[1]))
		}
		_, f, _ := quartiles(floor)
		_, g, _ := quartiles(gated)
		_, a, _ := quartiles(adapt)
		q1, o, q3 := quartiles(over)
		t.Logf("%-14s medians over %d pairs: floor %4.2fx twin | 1:64 %4.2fx twin, %4.2fx floor (q1 %4.2fx, q3 %4.2fx) | adaptive %4.2fx twin",
			app.Name, gatePairs, f, g, o, q1, q3, a)
		overFloor = append(overFloor, over)
	}
	if len(overFloor) == 0 {
		t.Fatal("no apps with a plain twin")
	}
	q1, geo, q3 := quartiles(pairGeoMeans(overFloor))
	t.Logf("geo-mean steady-state (1:64) cost over the no-trace floor, %d apps: median %.2fx (q1 %.2fx, q3 %.2fx) over %d pairs",
		len(overFloor), geo, q1, q3, gatePairs)
	if geo >= 1.5 {
		t.Fatalf("geo-mean sampled cost %.2fx the no-trace floor (median of %d pairs) breaches the 1.5x bar", geo, gatePairs)
	}
}
