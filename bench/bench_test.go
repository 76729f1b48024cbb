package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload of BENCHMARK.json in short mode, untraced
// and traced, and checks the contract: every declared metric is printed
// with its declared unit, no verification failed, and the trace file is
// Chrome trace JSON with at least one span per declared layer. It makes no
// timing assertions.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for _, m := range sp.EndToEnd {
		if endToEndUnits[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, benchmark unit %q", m.Name, m.Unit, endToEndUnits[m.Name])
		}
	}
	for _, m := range sp.PerLayer {
		if perLayer[m.Name].unit != m.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, benchmark unit %q", m.Name, m.Unit, perLayer[m.Name].unit)
		}
	}
	if len(sp.EndToEnd) != len(endToEndUnits) || len(sp.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d+%d metrics, the benchmark prints %d+%d",
			len(sp.EndToEnd), len(sp.PerLayer), len(endToEndUnits), len(perLayer))
	}

	dir := t.TempDir()
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w.Name, seed: 1, seconds: 0.5, trace: traced, short: true, outDir: dir}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t, %d of %d failed", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := make(map[string]string)
			if traced {
				for _, m := range sp.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range sp.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s not printed", w.Name, traced, name)
				case got.Unit != unit:
					t.Errorf("%s trace=%t: metric %s unit %q, want %q", w.Name, traced, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%t: metric %s = %v", w.Name, traced, name, got.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics printed, %d declared", w.Name, traced, len(res.Metrics), len(want))
			}
			if traced {
				checkTraceFile(t, filepath.Join(dir, "trace-"+w.Name+"-1.json"), sp)
			}
		}
	}
}

// checkTraceFile parses a trace file as Chrome trace-event JSON and checks
// that every declared layer has at least one span.
func checkTraceFile(t *testing.T, path string, sp *spec) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("%s: not Chrome trace JSON: %v", path, err)
	}
	names := make(map[string]bool)
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" || ev.Ts == nil || ev.Dur == nil {
			t.Fatalf("%s: malformed complete event %+v", path, ev)
		}
		names[ev.Name] = true
	}
	for _, m := range sp.PerLayer {
		layer := perLayer[m.Name].layer
		found := false
		for name := range names {
			if name == layer || strings.HasPrefix(name, layer+".") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: no span for layer %s (metric %s)", path, layer, m.Name)
		}
	}
}
