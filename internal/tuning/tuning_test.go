package tuning

import (
	"testing"

	"dsspy/internal/usecase"
)

func samplesOnce(t *testing.T) []Sample {
	t.Helper()
	s := BuildSamples()
	if len(s) != 24 {
		t.Fatalf("samples = %d, want 24 study programs", len(s))
	}
	return s
}

func TestDefaultThresholdsArePerfectOnCorpus(t *testing.T) {
	samples := samplesOnce(t)
	q := Evaluate(samples, usecase.Default())
	if q.F1() != 1.0 {
		t.Errorf("default thresholds: %v, want F1 = 1.0", q)
	}
	if q.TP != 66 {
		t.Errorf("TP = %d, want 66 (the study's use cases)", q.TP)
	}
}

func TestLooseThresholdsOverdetect(t *testing.T) {
	samples := samplesOnce(t)
	th := usecase.Default()
	th.LIMinRunLen = 10
	th.LIMinPhaseFraction = 0.05
	q := Evaluate(samples, th)
	if q.FP == 0 {
		t.Error("loosened LI thresholds produced no false positives")
	}
	if q.Precision() >= 1.0 {
		t.Errorf("precision = %v", q.Precision())
	}
	if q.Recall() < 1.0 {
		t.Errorf("loosening must not lose recall: %v", q)
	}
}

func TestTightThresholdsUnderdetect(t *testing.T) {
	samples := samplesOnce(t)
	th := usecase.Default()
	th.FLRMinPatterns = 40
	q := Evaluate(samples, th)
	if q.FN == 0 {
		t.Error("tightened FLR threshold missed nothing")
	}
	if q.Recall() >= 1.0 {
		t.Errorf("recall = %v", q.Recall())
	}
}

func TestTuneRecoversFromBadStart(t *testing.T) {
	samples := samplesOnce(t)
	start := detunedStart()
	startQ := Evaluate(samples, start)
	if startQ.F1() >= 1.0 {
		t.Fatalf("bad start unexpectedly perfect: %v", startQ)
	}
	tuned, q, trace := Tune(samples, start, DefaultAxes(), 3)
	if q.F1() != 1.0 {
		t.Errorf("tuning reached %v, want F1 = 1.0", q)
	}
	if len(trace) == 0 {
		t.Error("no sweep trace")
	}
	// The tuned values must sit in the region that keeps the corpus
	// perfectly separated (the paper's published values are one such
	// point).
	if tuned.LIMinRunLen < 25 || tuned.LIMinRunLen > 400 {
		t.Errorf("tuned LIMinRunLen = %d", tuned.LIMinRunLen)
	}
	if tuned.FLRMinPatterns > 20 {
		t.Errorf("tuned FLRMinPatterns = %d", tuned.FLRMinPatterns)
	}
}

func TestQualityMetricsEdgeCases(t *testing.T) {
	var q Quality
	if q.Precision() != 1 || q.Recall() != 1 {
		t.Error("empty quality should have perfect precision/recall")
	}
	q = Quality{FP: 3}
	if q.Precision() != 0 {
		t.Errorf("precision = %v", q.Precision())
	}
	q = Quality{FN: 3}
	if q.Recall() != 0 || q.F1() != 0 {
		t.Errorf("recall = %v f1 = %v", q.Recall(), q.F1())
	}
	if (Quality{TP: 1}).String() == "" {
		t.Error("empty String")
	}
}

func TestQualityCurveMonotonicEnds(t *testing.T) {
	samples := samplesOnce(t)
	axes := DefaultAxes()
	var liAxis Axis
	for _, ax := range axes {
		if ax.Name == "LI.MinRunLen" {
			liAxis = ax
		}
	}
	curve := QualityCurve(samples, usecase.Default(), liAxis)
	if len(curve) != len(liAxis.Values) {
		t.Fatalf("curve = %d points", len(curve))
	}
	// Very low run-length over-detects (precision < 1); very high
	// under-detects (recall < 1); the published value of 100 is perfect.
	if curve[0].Quality.Precision() >= 1 {
		t.Errorf("low end precision = %v", curve[0].Quality)
	}
	last := curve[len(curve)-1]
	if last.Quality.Recall() >= 1 {
		t.Errorf("high end recall = %v", last.Quality)
	}
	for _, pt := range curve {
		if pt.Value == 100 && pt.Quality.F1() != 1 {
			t.Errorf("published value not perfect: %v", pt.Quality)
		}
	}
}

// BenchmarkEvaluate is the unit of dstune's cost: one candidate folds every
// study program's cached event columns through a fresh analyzer.
func BenchmarkEvaluate(b *testing.B) {
	samples := BuildSamples()
	events := 0
	for i := range samples {
		events += samples[i].events.Len()
	}
	th := usecase.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if q := Evaluate(samples, th); q.TP == 0 {
			b.Fatalf("no detections: %v", q)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}
