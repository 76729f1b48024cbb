package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"dsspy/internal/apps"
	"dsspy/internal/core"
	"dsspy/internal/sample"
	"dsspy/internal/trace"
)

// apps-full and apps-sampled: the paper's experiment (Table IV). Each round
// profiles the seven evaluation programs in a seed-permuted order, the way
// `dsspy -app X -stream` does — call-site capture, a bound batched producer,
// a sharded collector draining into the streaming analyzer — and times each
// from workload start to rendered report. Each program's uninstrumented
// plain twin runs after it, so every profiled run has a same-moment
// baseline; runtime.GC() runs outside every timed span.
//
// apps-sampled runs the same rounds under always-on static 1:64 sampling:
// the dstruct Handle drop path and the sampling controller do most of the
// work there, the reducers little.

// staticSampling is apps-sampled's always-on steady state.
var staticSampling = sample.Config{Mode: sample.ModeStatic, StaticRate: 64}

type appsBench struct {
	sampled bool
	apps    []*apps.App
	refs    []appRef
	// last holds the reports of the last round, for the merge probe.
	last []*core.Report
}

// appRef is one program's full-fidelity reference.
type appRef struct {
	text []byte                      // rendered report
	sigs map[trace.InstanceID]string // per-instance finding signature
}

func newAppsBench(sampled bool) *appsBench {
	return &appsBench{sampled: sampled, apps: apps.Apps()}
}

// setup builds each program's full-fidelity reference report, checks it
// against Table IV, and warms the workload with one profiled round.
func (b *appsBench) setup() error {
	b.refs = make([]appRef, len(b.apps))
	for i, app := range b.apps {
		rep, text, _ := profileApp(app, false, nil, nil, 0)
		if ds := rep.SearchSpace().Total; ds != app.WantDataStructures {
			return fmt.Errorf("%s reference: %d list/array instances, Table IV has %d", app.Name, ds, app.WantDataStructures)
		}
		if uc := len(rep.ParallelUseCases()); uc != app.WantUseCases {
			return fmt.Errorf("%s reference: %d parallel use cases, Table IV has %d", app.Name, uc, app.WantUseCases)
		}
		b.refs[i] = appRef{text: text, sigs: signatures(rep)}
	}
	for i, app := range b.apps {
		rep, text, _ := profileApp(app, b.sampled, nil, nil, 0)
		if err := b.verify(i, rep, text); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		app.PlainTwin()
	}
	return nil
}

// profileApp profiles one program from workload start to rendered report.
// With a tracer it records the layer spans under a ledger.iteration root and
// times the collector's sink into fold.
func profileApp(app *apps.App, sampled bool, tr *tracer, fold *busyClock, parent int) (*core.Report, []byte, time.Duration) {
	start := time.Now()
	n := runtime.GOMAXPROCS(0)
	sa := core.New().NewStreamAnalyzer(n)
	var col *trace.ShardedCollector
	if fold == nil {
		col = sa.Collector(trace.DefaultAsyncBuffer, trace.Block(), false)
	} else {
		col = trace.NewStreamingShardedCollector(n, trace.DefaultAsyncBuffer, trace.Block(), false, timedSink(sa.FeedShard, fold))
	}
	opts := trace.Options{Recorder: col, CaptureSites: true}
	if sampled {
		ctrl := sample.NewController(staticSampling)
		opts.Gate = ctrl
		sa.SetSampling(ctrl)
	}
	s := trace.NewSessionWith(opts)
	sa.Attach(s)
	tr.timed("dstruct.workload", laneMain, parent, func() {
		p := s.BindDefault()
		app.Instrumented(s)
		p.Close()
	})
	tr.timed("trace.collector.close", laneMain, parent, col.Close)
	var rep *core.Report
	tr.timed("core.finalize", laneMain, parent, func() { rep = sa.Close() })
	var buf bytes.Buffer
	tr.timed("core.write", laneMain, parent, func() { rep.Write(&buf) })
	return rep, buf.Bytes(), time.Since(start)
}

// signatures maps each instance to its finding signature: the sorted set of
// use-case kinds plus the regularity verdict.
func signatures(rep *core.Report) map[trace.InstanceID]string {
	out := make(map[trace.InstanceID]string, len(rep.Instances))
	for _, ir := range rep.Instances {
		out[ir.Profile.Instance.ID] = signature(ir)
	}
	return out
}

func signature(ir *core.InstanceResult) string {
	kinds := make([]string, 0, len(ir.UseCases))
	for _, u := range ir.UseCases {
		kinds = append(kinds, u.Kind.String())
	}
	sort.Strings(kinds)
	return fmt.Sprintf("%s|regular=%t", strings.Join(kinds, ","), ir.Regular)
}

// verify is the referee for one profiled run. Full fidelity: the rendered
// report equals the reference byte for byte. Sampled: every row conserves
// observed == folded + aggregated + sampled_out, and every row whose
// findings diverge from the reference carries a bound in (0,1).
func (b *appsBench) verify(i int, rep *core.Report, text []byte) error {
	app, ref := b.apps[i], b.refs[i]
	if !b.sampled {
		if !bytes.Equal(text, ref.text) {
			return fmt.Errorf("%s: report differs from the reference", app.Name)
		}
		return nil
	}
	st := rep.Stats.Sampling
	if st == nil {
		return fmt.Errorf("%s: sampled run has no sampling stats", app.Name)
	}
	if st.Observed != st.Folded+st.Aggregated+st.SampledOut {
		return fmt.Errorf("%s: observed %d != folded %d + aggregated %d + sampled out %d",
			app.Name, st.Observed, st.Folded, st.Aggregated, st.SampledOut)
	}
	seen := make(map[trace.InstanceID]bool, len(rep.Instances))
	for _, ir := range rep.Instances {
		id := ir.Profile.Instance.ID
		seen[id] = true
		if smp := ir.Sampling; smp != nil && !smp.Conserved() {
			return fmt.Errorf("%s: instance %d does not conserve its sampled events", app.Name, id)
		}
		if signature(ir) == ref.sigs[id] {
			continue
		}
		if smp := ir.Sampling; smp == nil || smp.Bound <= 0 || smp.Bound >= 1 {
			return fmt.Errorf("%s: instance %d diverges from the reference without a bound in (0,1)", app.Name, id)
		}
	}
	for id := range ref.sigs {
		if !seen[id] {
			return fmt.Errorf("%s: instance %d missing from the sampled report", app.Name, id)
		}
	}
	return nil
}

// agreeing counts the rows of rep whose findings match the reference
// signatures.
func agreeing(want map[trace.InstanceID]string, rep *core.Report) int {
	n := 0
	for _, ir := range rep.Instances {
		if signature(ir) == want[ir.Profile.Instance.ID] {
			n++
		}
	}
	return n
}

func (b *appsBench) observed(rep *core.Report) uint64 {
	if b.sampled {
		return rep.Stats.Sampling.Observed
	}
	return uint64(rep.Stats.Events)
}

func (b *appsBench) measure(e *env) (*measurement, error) {
	m := &measurement{}
	rng := rand.New(rand.NewSource(e.cfg.seed))
	profiled := make([][]float64, len(b.apps))
	twins := make([][]float64, len(b.apps))
	var agree, total int
	var mem0, mem1 runtime.MemStats
	for round := 0; e.more(round, 2); round++ {
		tr := e.tracerFor(round)
		reports := make([]*core.Report, len(b.apps))
		for _, i := range rng.Perm(len(b.apps)) {
			app := b.apps[i]
			e.gc()
			runtime.ReadMemStats(&mem0)
			var fold *busyClock
			if tr != nil {
				fold = &busyClock{}
			}
			root := tr.reserve("ledger.iteration", laneMain, 0)
			start := time.Now()
			rep, text, d := profileApp(app, b.sampled, tr, fold, root)
			tr.finish(root, start, map[string]any{"app": app.Name})
			runtime.ReadMemStats(&mem1)
			e.ref.op(b.verify(i, rep, text))
			reports[i] = rep
			ev := b.observed(rep)
			if tr == nil {
				m.events += ev
				m.wall += d
				m.allocBytes += mem1.TotalAlloc - mem0.TotalAlloc
				m.latencies = append(m.latencies, d)
				profiled[i] = append(profiled[i], d.Seconds())
				agree += agreeing(b.refs[i].sigs, rep)
				total += len(b.refs[i].sigs)
			} else {
				m.tracedEvents += ev
				m.tracedWall += d
				m.fold.add(fold.busy(), int(fold.events.Load()))
				m.finalizeRows += len(rep.Instances)
				tr.add("core.fold", laneDrain, root, start, fold.busy(), map[string]any{"events": fold.events.Load()})
			}

			e.gc()
			twin := tr.timed("apps.twin", laneMain, 0, app.PlainTwin)
			if tr == nil {
				twins[i] = append(twins[i], twin.Seconds())
			}
			e.cal.maybe()
		}
		b.last = reports
	}
	var ratios []float64
	for i := range b.apps {
		if len(profiled[i]) == 0 {
			return nil, fmt.Errorf("no untraced round completed; raise -seconds")
		}
		ratios = append(ratios, median(profiled[i])/median(twins[i]))
	}
	m.slowdown = geoMean(ratios)
	m.agreement = float64(agree) / float64(total)
	return m, nil
}

func (b *appsBench) probeInputs() ([]probeInput, error) {
	var out []probeInput
	for _, app := range b.apps {
		out = append(out, captureApp(app))
	}
	return out, nil
}

// captureApp profiles one program at full fidelity with a retaining
// collector and returns its registry and Seq-ordered event columns.
func captureApp(app *apps.App) probeInput {
	col := trace.NewShardedCollectorOpts(runtime.GOMAXPROCS(0), trace.DefaultAsyncBuffer, trace.Block())
	s := trace.NewSessionWith(trace.Options{Recorder: col, CaptureSites: true})
	p := s.BindDefault()
	app.Instrumented(s)
	p.Close()
	col.Close()
	return probeInput{sess: s, cols: col.MergedColumns()}
}

func (b *appsBench) mergeInputs() []*core.Report {
	for i, rep := range b.last {
		rep.Origin = b.apps[i].Name
	}
	return b.last
}

func (b *appsBench) close() {}
