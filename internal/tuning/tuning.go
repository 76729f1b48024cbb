// Package tuning implements the threshold-tuning step of §III.B: "We also
// used these 23 programs to tune the threshold values to yield the best
// detection quality." It evaluates a threshold assignment against the
// labeled use-case corpus (expected findings per program) and searches the
// threshold space by coordinate descent for the assignment with the best
// F1 score.
//
// Every candidate is scored by the engine that builds every report: each
// program's event stream is recorded once and cached as one column batch,
// and a candidate folds that batch through a fresh StreamAnalyzer configured
// with its thresholds. Segmentation and pattern detection therefore re-run
// per candidate: one candidate folds the programs' ~32k events in about
// 2.5 ms on a 2-vCPU Xeon (BenchmarkEvaluate), so dstune -search, 96
// candidates, runs in about a quarter of a second.
package tuning

import (
	"fmt"
	"sort"

	"dsspy/internal/core"
	"dsspy/internal/corpus"
	"dsspy/internal/trace"
	"dsspy/internal/usecase"
)

// Sample is one labeled program: its recorded event stream and the expected
// use-case counts.
type Sample struct {
	Program  string
	Expected map[usecase.Kind]int

	session *trace.Session
	events  trace.ColumnBatch
}

// BuildSamples runs every use-case-study program once under instrumentation
// and caches its session and event columns together with the descriptor's
// expected findings.
func BuildSamples() []Sample {
	var out []Sample
	for _, p := range corpus.UseCaseStudyPrograms() {
		rec := trace.NewMemRecorder()
		s := trace.NewSessionWith(trace.Options{Recorder: rec, CaptureSites: false})
		for _, b := range p.Mix.Behaviors(p.Name) {
			b(s)
		}
		sample := Sample{Program: p.Name, Expected: p.Mix.UseCases(), session: s}
		sample.events.AppendEvents(rec.Events())
		out = append(out, sample)
	}
	return out
}

// detect returns the sample's per-kind parallel-use-case counts under th.
func (s *Sample) detect(th usecase.Thresholds) map[usecase.Kind]int {
	cfg := core.DefaultConfig()
	cfg.Thresholds = th
	// One shard and one finalize worker: a program folds in about 0.1 ms,
	// less than fanning out costs (GOMAXPROCS workers measure ~1.4x slower
	// in BenchmarkEvaluate).
	cfg.Workers = 1
	a := core.NewWith(cfg).NewStreamAnalyzer(1)
	a.Attach(s.session)
	a.FeedColumns(&s.events)
	got := make(map[usecase.Kind]int)
	for _, u := range a.Close().ParallelUseCases() {
		got[u.Kind]++
	}
	return got
}

// Quality is a detection-quality measurement against the labels.
type Quality struct {
	TP, FP, FN int
}

// Precision returns TP / (TP + FP), 1 when nothing was detected.
func (q Quality) Precision() float64 {
	if q.TP+q.FP == 0 {
		return 1
	}
	return float64(q.TP) / float64(q.TP+q.FP)
}

// Recall returns TP / (TP + FN), 1 when nothing was expected.
func (q Quality) Recall() float64 {
	if q.TP+q.FN == 0 {
		return 1
	}
	return float64(q.TP) / float64(q.TP+q.FN)
}

// F1 is the harmonic mean of precision and recall.
func (q Quality) F1() float64 {
	p, r := q.Precision(), q.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func (q Quality) String() string {
	return fmt.Sprintf("TP=%d FP=%d FN=%d P=%.3f R=%.3f F1=%.3f",
		q.TP, q.FP, q.FN, q.Precision(), q.Recall(), q.F1())
}

// Evaluate measures detection quality of th over the samples: per program
// and kind, matched counts are true positives, excess detections false
// positives, missed expectations false negatives.
func Evaluate(samples []Sample, th usecase.Thresholds) Quality {
	var q Quality
	for i := range samples {
		got := samples[i].detect(th)
		for _, k := range usecase.ParallelKinds() {
			e, g := samples[i].Expected[k], got[k]
			m := e
			if g < m {
				m = g
			}
			q.TP += m
			q.FP += g - m
			q.FN += e - m
		}
	}
	return q
}

// Axis is one tunable threshold dimension with candidate values.
type Axis struct {
	Name string
	// Values are the candidates, ascending.
	Values []float64
	// Apply writes a candidate into the threshold struct.
	Apply func(*usecase.Thresholds, float64)
	// Read extracts the current value.
	Read func(usecase.Thresholds) float64
}

// DefaultAxes spans the paper's five stated thresholds around their
// published values.
func DefaultAxes() []Axis {
	return []Axis{
		{
			Name:   "LI.MinRunLen",
			Values: []float64{10, 25, 50, 100, 200, 400},
			Apply:  func(t *usecase.Thresholds, v float64) { t.LIMinRunLen = int(v); t.SAIMinRunLen = int(v) },
			Read:   func(t usecase.Thresholds) float64 { return float64(t.LIMinRunLen) },
		},
		{
			Name:   "LI.MinPhaseFraction",
			Values: []float64{0.05, 0.10, 0.20, 0.30, 0.50, 0.70},
			Apply:  func(t *usecase.Thresholds, v float64) { t.LIMinPhaseFraction = v; t.SAIMinPhaseFraction = v },
			Read:   func(t usecase.Thresholds) float64 { return t.LIMinPhaseFraction },
		},
		{
			Name:   "IQ.MinEndFraction",
			Values: []float64{0.30, 0.45, 0.60, 0.75, 0.90},
			Apply:  func(t *usecase.Thresholds, v float64) { t.IQMinEndFraction = v },
			Read:   func(t usecase.Thresholds) float64 { return t.IQMinEndFraction },
		},
		{
			Name:   "FS.MinSearchOps",
			Values: []float64{100, 250, 500, 1000, 2000},
			Apply:  func(t *usecase.Thresholds, v float64) { t.FSMinSearchOps = int(v) },
			Read:   func(t usecase.Thresholds) float64 { return float64(t.FSMinSearchOps) },
		},
		{
			Name:   "FLR.MinPatterns",
			Values: []float64{3, 5, 10, 20, 40},
			Apply:  func(t *usecase.Thresholds, v float64) { t.FLRMinPatterns = int(v) },
			Read:   func(t usecase.Thresholds) float64 { return float64(t.FLRMinPatterns) },
		},
		{
			Name:   "FLR.MinCoverage",
			Values: []float64{0.25, 0.50, 0.75, 0.90},
			Apply:  func(t *usecase.Thresholds, v float64) { t.FLRMinCoverage = v },
			Read:   func(t usecase.Thresholds) float64 { return t.FLRMinCoverage },
		},
	}
}

// SweepResult records one candidate evaluation along an axis.
type SweepResult struct {
	Axis    string
	Value   float64
	Quality Quality
}

// Tune performs coordinate descent from the start thresholds: each pass
// sweeps every axis, keeping the best value (ties keep the incumbent), and
// stops when a full pass makes no improvement or maxPasses is reached.
// It returns the tuned thresholds, their quality, and the full sweep trace.
func Tune(samples []Sample, start usecase.Thresholds, axes []Axis, maxPasses int) (usecase.Thresholds, Quality, []SweepResult) {
	if maxPasses < 1 {
		maxPasses = 2
	}
	cur := start
	curQ := Evaluate(samples, cur)
	var trace_ []SweepResult
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for _, ax := range axes {
			bestV := ax.Read(cur)
			bestQ := curQ
			for _, v := range ax.Values {
				cand := cur
				ax.Apply(&cand, v)
				q := Evaluate(samples, cand)
				trace_ = append(trace_, SweepResult{Axis: ax.Name, Value: v, Quality: q})
				if q.F1() > bestQ.F1() {
					bestV, bestQ = v, q
				}
			}
			if bestV != ax.Read(cur) {
				ax.Apply(&cur, bestV)
				curQ = bestQ
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cur, curQ, trace_
}

// QualityCurve evaluates one axis across its values with the other
// thresholds fixed — the per-threshold sensitivity view.
func QualityCurve(samples []Sample, base usecase.Thresholds, ax Axis) []SweepResult {
	out := make([]SweepResult, 0, len(ax.Values))
	for _, v := range ax.Values {
		cand := base
		ax.Apply(&cand, v)
		out = append(out, SweepResult{Axis: ax.Name, Value: v, Quality: Evaluate(samples, cand)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}
