// Command bench is the dsspy benchmark: four closed-loop workloads over the
// profiler's public surfaces, each run checked against a referee, with
// host-normalised end-to-end metrics and, in traced runs, a per-layer ledger
// derived from spans the benchmark records around its calls into each layer.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload apps-full --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh set -runs 5 -seeds 1,2 -out base.json
//	bash bench/run.sh compare base.json head.json
//
// The last line of a run's standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// With -trace 0 it carries the end-to-end metrics, with -trace 1 the
// per-layer metrics, and the spans are written to
// .bench_build/trace-<workload>-<seed>.json. See bench/README.md for the
// metric dictionary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"dsspy/internal/core"
)

// Units of every metric the benchmark prints; BENCHMARK.json declares the
// same names and units (the smoke test checks the two agree).
var endToEndUnits = map[string]string{
	"setup_s":           "s",
	"events_per_s":      "events/s",
	"slowdown_geo":      "x",
	"report_ms_p50":     "ms",
	"report_ms_p90":     "ms",
	"alloc_b_per_event": "B",
	"live_heap_mb":      "MiB",
	"agreement_share":   "ratio",
}

// perLayer maps each per-layer metric to its unit and to the span name (or
// span-name prefix) a traced run records for that layer.
var perLayer = map[string]struct{ unit, layer string }{
	"host.calib_ms":                        {"ms", "host.calib"},
	"host.calib_iqr_share":                 {"ratio", "host.calib"},
	"host.raw_events_per_s":                {"events/s", "ledger.iteration"},
	"runtime.gc_cpu_share":                 {"ratio", "runtime.gc"},
	"trace_overhead":                       {"ratio", "ledger.iteration"},
	"ledger.residual_share":                {"ratio", "ledger.iteration"},
	"core.fold_ns_per_event":               {"ns", "core.fold"},
	"core.fold_busy_share":                 {"ratio", "core.fold"},
	"core.finalize_ms_p50":                 {"ms", "core.finalize"},
	"core.finalize_us_per_instance":        {"us", "core.finalize"},
	"core.write_ms":                        {"ms", "core.write"},
	"core.merge_us_per_row":                {"us", "core.merge"},
	"trace.producer.ns_per_event":          {"ns", "trace.producer"},
	"trace.collector.handoff_ns_per_event": {"ns", "trace.collector"},
	"trace.collector.block_share":          {"ratio", "trace.collector"},
	"trace.collector.queue_highwater":      {"count", "trace.collector"},
	"trace.codec.encode_ns_per_event":      {"ns", "trace.codec.encode"},
	"trace.codec.decode_ns_per_event":      {"ns", "trace.codec.decode"},
	"trace.codec.bytes_per_event":          {"B", "trace.codec.encode"},
	"trace.ipc.decode_ns_per_event":        {"ns", "trace.ipc"},
	"trace.handle.ns_per_drop":             {"ns", "trace.handle"},
	"dstruct.floor_ratio":                  {"x", "dstruct.floor"},
	"dstruct.ns_per_access":                {"ns", "dstruct.floor"},
	"sample.kept_share":                    {"ratio", "sample.static"},
	"sample.aggregated_share":              {"ratio", "sample.static"},
	"sample.bound_mean":                    {"ratio", "sample.static"},
	"profile.stats_ns_per_event":           {"ns", "profile.stats"},
	"profile.segmenter_ns_per_event":       {"ns", "profile.segmenter"},
	"profile.contention_ns_per_event":      {"ns", "profile.contention"},
	"pattern.detector_ns_per_event":        {"ns", "pattern.detector"},
	"usecase.stream_ns_per_event":          {"ns", "usecase.stream"},
}

// workloads lists the workload names in the order BENCHMARK.json declares
// them, each with its constructor.
var workloads = []struct {
	name string
	make func(cfg runConfig) workload
}{
	{"apps-full", func(runConfig) workload { return newAppsBench(false) }},
	{"apps-sampled", func(runConfig) workload { return newAppsBench(true) }},
	{"replay-corpus", func(cfg runConfig) workload { return newReplayBench(cfg) }},
	{"daemon-fleet", func(cfg runConfig) workload { return newDaemonBench(cfg) }},
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// short shrinks inputs about 20-fold for the smoke test.
	short bool
	// outDir receives session logs and trace files.
	outDir string
}

// workload is one benchmark workload. A run calls setup setupReps times
// (each call replaces the previous inputs), then measure once.
type workload interface {
	// setup builds the inputs and the reference reports from the seed,
	// checks the references, and warms caches.
	setup() error
	// measure runs the closed loop until e.deadline, checking every output.
	measure(e *env) (*measurement, error)
	// probeInputs returns the workload's own event streams for the
	// isolation probes of a traced run.
	probeInputs() ([]probeInput, error)
	// mergeInputs returns the last reports the workload produced, which
	// the merge probe folds into one fleet view.
	mergeInputs() []*core.Report
	// close releases listeners and files.
	close()
}

// env is what measure gets from the driver.
type env struct {
	cfg      runConfig
	cal      *calibrator
	tr       *tracer // nil in untraced runs
	deadline time.Time
	ref      *referee
}

// more reports whether a measured loop at iteration k goes on: until the
// deadline, and in any case for min iterations, so even a short run on a
// slow machine has traced and untraced iterations to report.
func (e *env) more(k, min int) bool {
	return k < min || time.Now().Before(e.deadline)
}

// tracerFor returns the tracer for iteration k: in a traced run every other
// iteration is traced, so the untraced ones price the tracing itself.
func (e *env) tracerFor(k int) *tracer {
	if e.tr != nil && k%2 == 1 {
		return e.tr
	}
	return nil
}

// gc runs a full collection outside every timed span.
func (e *env) gc() {
	start := time.Now()
	runtime.GC()
	e.tr.add("runtime.gc", laneMain, 0, start, time.Since(start), nil)
}

// measurement is what a workload's measured phase produced.
type measurement struct {
	// Untraced iterations.
	events     uint64        // events observed, sampled-out ones included
	wall       time.Duration // summed wall of the measured iterations
	allocBytes uint64        // bytes allocated by them
	latencies  durations     // time to each report the workload asked for
	slowdown   float64       // geo-mean profiled ÷ uninstrumented wall
	agreement  float64       // share of instances matching the reference

	// Traced iterations (traced runs only).
	tracedEvents uint64
	tracedWall   time.Duration
	fold         busyClock // fold-layer busy time inside them
	finalizeRows int       // instances finalized by the core.finalize spans
}

// referee counts attempted operations and the ones whose output failed
// verification.
type referee struct {
	attempted, failed int
	msgs              []string
}

func (r *referee) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.msgs) < 5 {
			r.msgs = append(r.msgs, err.Error())
		}
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "set":
			exitOn(runSet(os.Args[2:]))
			return
		case "compare":
			exitOn(runCompare(os.Args[2:]))
			return
		}
	}
	var cfg runConfig
	var traced int
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed (sets order, never composition)")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&traced, "trace", 0, "1 = traced run: per-layer metrics and a trace file")
	fs.BoolVar(&cfg.short, "short", false, "about 1/20 inputs (smoke test)")
	fs.StringVar(&cfg.outDir, "out", ".bench_build", "directory for session logs and trace files")
	fs.Parse(os.Args[1:])
	cfg.trace = traced == 1

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run executes one workload run and assembles its result. An error means
// the run could not be carried out; failed verifications are reported in
// the result instead.
func run(cfg runConfig) (*result, error) {
	var w workload
	for _, wl := range workloads {
		if wl.name == cfg.workload {
			w = wl.make(cfg)
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	defer w.close()
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating output directory: %w", err)
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	cal := newCalibrator(tr)
	for i := 0; i < 3; i++ {
		cal.run()
	}

	ref := &referee{}
	reps := setupReps
	if cfg.short {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		err := w.setup()
		setups = append(setups, time.Since(start).Seconds())
		cal.run()
		if err != nil {
			ref.op(fmt.Errorf("setup: %w", err))
			return finish(ref, nil), nil
		}
	}

	e := &env{cfg: cfg, cal: cal, tr: tr, ref: ref,
		deadline: time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))}
	gc0 := readGCCPU()
	m, err := w.measure(e)
	if err != nil {
		return nil, err
	}
	gcShare := readGCCPU().shareSince(gc0)
	releaseCalib()
	// Two cycles: the first moves sync.Pool caches to their victim lists,
	// the second frees them, so pooled buffers do not count as live.
	tr.timed("runtime.gc", laneMain, 0, func() {
		runtime.GC()
		runtime.GC()
	})
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if m.events == 0 || m.wall <= 0 {
		return nil, fmt.Errorf("measured phase observed no events; raise -seconds")
	}

	h := cal.factor()
	if s := spreadShare(cal.samples); s > 0.10 {
		fmt.Fprintf(os.Stderr, "bench: warning: host.calib_iqr_share %.3f > 0.10; host speed moved during the run\n", s)
	}
	rawEPS := float64(m.events) / m.wall.Seconds()
	out := make(map[string]float64)
	if !cfg.trace {
		out["setup_s"] = median(setups) / h
		out["events_per_s"] = rawEPS * h
		out["slowdown_geo"] = m.slowdown
		out["report_ms_p50"] = quantile(m.latencies.ms(), 0.5) / h
		out["report_ms_p90"] = quantile(m.latencies.ms(), 0.9) / h
		out["alloc_b_per_event"] = float64(m.allocBytes) / float64(m.events)
		out["live_heap_mb"] = float64(mem.HeapAlloc) / (1 << 20)
		out["agreement_share"] = m.agreement
	} else {
		out["host.calib_ms"] = median(cal.samples)
		out["host.calib_iqr_share"] = spreadShare(cal.samples)
		out["host.raw_events_per_s"] = rawEPS
		out["runtime.gc_cpu_share"] = gcShare
		if m.tracedWall > 0 {
			out["trace_overhead"] = float64(m.tracedEvents) / m.tracedWall.Seconds() / rawEPS
			out["core.fold_busy_share"] = float64(m.fold.busy()) / float64(m.tracedWall)
		}
		out["ledger.residual_share"] = tr.residualShare("ledger.iteration")
		out["core.fold_ns_per_event"] = m.fold.nsPerEvent()
		fin := tr.durationsOf("core.finalize")
		out["core.finalize_ms_p50"] = median(fin.ms())
		if m.finalizeRows > 0 {
			var sum time.Duration
			for _, d := range fin {
				sum += d
			}
			out["core.finalize_us_per_instance"] = float64(sum) / 1e3 / float64(m.finalizeRows)
		}
		out["core.write_ms"] = median(tr.durationsOf("core.write").ms())
		if err := runProbes(w, tr, out); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		if err := tr.writeChrome(path); err != nil {
			return nil, err
		}
	}
	return finish(ref, out), nil
}

// finish assembles the printed result: every metric with its unit.
func finish(ref *referee, values map[string]float64) *result {
	for _, msg := range ref.msgs {
		fmt.Fprintln(os.Stderr, "bench: verification failed:", msg)
	}
	res := &result{Correct: ref.failed == 0, Attempted: max(ref.attempted, 1), Failed: ref.failed,
		Metrics: make(map[string]metric, len(values))}
	if ref.attempted == 0 {
		res.Correct, res.Failed = false, 1
	}
	for name, v := range values {
		unit, ok := endToEndUnits[name]
		if !ok {
			unit = perLayer[name].unit
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	return res
}

// gcCPU is a reading of the runtime's cumulative CPU-time accounting.
type gcCPU struct{ gc, total float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcCPU{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// shareSince is the share of CPU time spent in the garbage collector since
// an earlier reading.
func (g gcCPU) shareSince(prev gcCPU) float64 {
	if g.total <= prev.total {
		return 0
	}
	return (g.gc - prev.gc) / (g.total - prev.total)
}
