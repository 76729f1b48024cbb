package dsspy_test

// The floor gate (`make bench-floor`): the ISSUE's hard bars for the inlined
// admit fast path. Timing-sensitive, so it runs only when DSSPY_FLOOR_GATE=1.
//
//   - The no-trace floor — the Table IV apps instrumented under a
//     drop-everything gate — must cost at most 1.4× their plain twins,
//     geo-mean, in the median of gatePairs alternating pairs. The twins mirror the instrumented workloads operation for
//     operation on raw slices and maps (the PlainTwin methodology,
//     DESIGN.md §9), so the ratio isolates what the proxy layer itself
//     charges a sampled-out access: the inlined credit test plus the wrapper
//     call shells.
//   - The full-fidelity per-event Record path must not have regressed: its
//     sampled p50 stays under a generous absolute ceiling, so the fast-path
//     machinery cannot quietly tax the unsampled plane.

import (
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"dsspy/internal/apps"
	"dsspy/internal/core"
	"dsspy/internal/trace"
)

// floorGateBar is the enforced geo-mean ceiling for floor/twin.
const floorGateBar = 1.4

// recordP50Ceiling bounds the full-fidelity per-event Record p50. The
// measured figure is tens to a few hundred nanoseconds; the ceiling is set
// an order of magnitude above steady state so only a structural regression
// (a lock, an allocation, a fold on the hot path) can breach it on a noisy
// CI machine.
const recordP50Ceiling = 5 * time.Microsecond

// gatePairs is the pair count of the timing gates. A gate times its sides
// back to back gatePairs times, alternating which runs first, gates the
// median of the per-pair figures and logs their quartiles — the method of
// TestContentionOverheadBudget — so one noisy run can neither fail nor pass
// it.
const gatePairs = 11

// alternatingPairs times each side once per pair, forwards in even pairs
// and backwards in odd ones, and returns the times as out[pair][side].
func alternatingPairs(sides ...func() time.Duration) [][]time.Duration {
	out := make([][]time.Duration, gatePairs)
	for p := range out {
		out[p] = make([]time.Duration, len(sides))
		for k := range sides {
			i := k
			if p%2 == 1 {
				i = len(sides) - 1 - k
			}
			out[p][i] = sides[i]()
		}
	}
	return out
}

// quartiles returns the first quartile, the median and the third quartile
// of xs, indexed as TestContentionOverheadBudget indexes its pairs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/4], s[len(s)/2], s[3*len(s)/4]
}

// pairGeoMeans returns, for each pair, the geo-mean over apps of that
// pair's ratio: ratios[app][pair].
func pairGeoMeans(ratios [][]float64) []float64 {
	geo := make([]float64, gatePairs)
	for p := range geo {
		sum := 0.0
		for _, r := range ratios {
			sum += math.Log(r[p])
		}
		geo[p] = math.Exp(sum / float64(len(ratios)))
	}
	return geo
}

func TestFloorGate(t *testing.T) {
	if os.Getenv("DSSPY_FLOOR_GATE") != "1" {
		t.Skip("set DSSPY_FLOOR_GATE=1 to run the floor gate (make bench-floor)")
	}
	var ratios [][]float64 // floor/twin, [app][pair]
	for _, app := range apps.Apps() {
		app := app
		if app.PlainTwin == nil {
			continue
		}
		pairs := alternatingPairs(
			func() time.Duration { return twinRun(app) },
			func() time.Duration { return floorRun(app) })
		r := make([]float64, gatePairs)
		for p, d := range pairs {
			r[p] = float64(d[1]) / float64(d[0])
		}
		q1, med, q3 := quartiles(r)
		t.Logf("%-15s floor/twin median %4.2fx (q1 %4.2fx, q3 %4.2fx) over %d pairs", app.Name, med, q1, q3, gatePairs)
		ratios = append(ratios, r)
	}
	if len(ratios) == 0 {
		t.Fatal("no apps with a plain twin")
	}
	q1, geo, q3 := quartiles(pairGeoMeans(ratios))
	t.Logf("geo-mean no-trace floor cost over the plain twins, %d apps: median %.2fx (q1 %.2fx, q3 %.2fx) over %d pairs (bar %.1fx)",
		len(ratios), geo, q1, q3, gatePairs, floorGateBar)
	if geo > floorGateBar {
		t.Fatalf("floor geo-mean %.2fx the plain twins (median of %d pairs) breaches the %.1fx bar", geo, gatePairs, floorGateBar)
	}

	// Full-fidelity Record p50: drive the per-event plane (no producer
	// binding, no gate) through the timed recorder and bound the sampled
	// median Record cost.
	d := core.New()
	sa := d.NewStreamAnalyzer(0)
	scol := sa.Collector(trace.DefaultAsyncBuffer, trace.Block(), false)
	timed := trace.NewTimedRecorder(scol, 4)
	s := trace.NewSessionWith(trace.Options{Recorder: timed})
	sa.Attach(s)
	runtime.GC()
	for _, app := range apps.Apps() {
		if app.PlainTwin != nil {
			app.Instrumented(s)
			break
		}
	}
	scol.Close()
	sa.Close()
	h := timed.Hist()
	if h.Count == 0 {
		t.Fatal("timed recorder sampled no Record calls")
	}
	p50 := h.QuantileDuration(0.50)
	t.Logf("full-fidelity Record p50 %v over %d sampled calls (ceiling %v)", p50, h.Count, recordP50Ceiling)
	if p50 > recordP50Ceiling {
		t.Fatalf("full-fidelity Record p50 %v breaches the %v ceiling", p50, recordP50Ceiling)
	}
}
