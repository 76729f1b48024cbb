package tuning

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"dsspy/internal/usecase"
)

// sweepsGolden pins every figure dstune prints: the quality of the paper's
// thresholds, each axis' sensitivity curve, and the full coordinate-descent
// trace from dstune's detuned start. It was written by the batch detection
// path the sweeps used before they folded through the StreamAnalyzer, so a
// match shows the tuned thresholds are tuned for the engine behind every
// report.
const sweepsGolden = "testdata/sweeps.golden"

// detunedStart is dstune -search's starting point: LI over-detects, FLR
// under-detects.
func detunedStart() usecase.Thresholds {
	th := usecase.Default()
	th.LIMinRunLen = 10
	th.SAIMinRunLen = 10
	th.FLRMinPatterns = 40
	return th
}

// renderSweeps prints the figures sweepsGolden pins, one per line.
func renderSweeps(samples []Sample) string {
	var b strings.Builder
	fmt.Fprintf(&b, "default %v\n", Evaluate(samples, usecase.Default()))
	for i := range samples {
		got := samples[i].detect(usecase.Default())
		fmt.Fprintf(&b, "program %s", samples[i].Program)
		for _, k := range usecase.ParallelKinds() {
			fmt.Fprintf(&b, " %s=%d/%d", k, got[k], samples[i].Expected[k])
		}
		b.WriteString("\n")
	}
	for _, ax := range DefaultAxes() {
		for _, pt := range QualityCurve(samples, usecase.Default(), ax) {
			fmt.Fprintf(&b, "curve %s %g %v\n", pt.Axis, pt.Value, pt.Quality)
		}
	}
	start := detunedStart()
	fmt.Fprintf(&b, "start %v\n", Evaluate(samples, start))
	tuned, q, steps := Tune(samples, start, DefaultAxes(), 3)
	for _, pt := range steps {
		fmt.Fprintf(&b, "step %s %g %v\n", pt.Axis, pt.Value, pt.Quality)
	}
	fmt.Fprintf(&b, "tuned %+v\n", tuned)
	fmt.Fprintf(&b, "tuned %v\n", q)
	return b.String()
}

func TestSweepsMatchGolden(t *testing.T) {
	want, err := os.ReadFile(sweepsGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := renderSweeps(samplesOnce(t))
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
