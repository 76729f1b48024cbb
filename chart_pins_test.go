package dsspy_test

// Renderer pins: the trace renderers' output, byte for byte, on fixed
// workloads. Small outputs are stored whole; the SVG and HTML documents
// (one element per event, megabytes on Gpdotnet) are stored as a SHA-256
// digest and length. Regenerate after an intended change with
//
//	go test -run 'TestChartPins|TestCLIChartPins' -update .

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsspy/internal/apps"
	"dsspy/internal/core"
	"dsspy/internal/experiments"
	"dsspy/internal/trace"
	"dsspy/internal/viz"
)

const pinDir = "testdata/render"

// checkPin compares got with the pin file name under testdata/render, or
// rewrites it with -update. A name ending in ".sha256" stores got's digest
// and length instead of got.
func checkPin(t *testing.T, name string, got []byte) {
	t.Helper()
	if strings.HasSuffix(name, ".sha256") {
		got = []byte(fmt.Sprintf("%x %d\n", sha256.Sum256(got), len(got)))
	}
	path := filepath.Join(pinDir, name)
	if *updateGolden {
		if err := os.MkdirAll(pinDir, 0o755); err != nil {
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
		t.Errorf("output differs from %s:\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}

// memRun runs workload on a session recording into memory, as
// examples/quickstart does, and returns the session and its events.
func memRun(workload func(*trace.Session)) (*trace.Session, *trace.ColumnBatch) {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec, CaptureSites: true})
	workload(s)
	return s, columnsOf(rec.Events())
}

// threadsRun is examples/threads' workload with its interleaving fixed: one
// thread fills a 64-element list, then two scanner threads each make eight
// full passes over it, taking turns every 16 reads.
func threadsRun() (*trace.Session, *trace.ColumnBatch) {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	id := s.Register(trace.KindList, "List[int]", "shared series", 0)
	for i := 0; i < 64; i++ {
		s.EmitAs(id, trace.OpInsert, i, i+1, 1)
	}
	for k := 0; k < 8*64; k += 16 {
		for th := trace.ThreadID(2); th <= 3; th++ {
			for i := k; i < k+16; i++ {
				s.EmitAs(id, trace.OpRead, i%64, 64, th)
			}
		}
	}
	return s, columnsOf(rec.Events())
}

func TestChartPins(t *testing.T) {
	var fig bytes.Buffer
	if err := experiments.Figure2(&fig); err != nil {
		t.Fatal(err)
	}
	checkPin(t, "figure2.txt", fig.Bytes())
	fig.Reset()
	if err := experiments.Figure3(&fig); err != nil {
		t.Fatal(err)
	}
	checkPin(t, "figure3.txt", fig.Bytes())

	for _, w := range []struct {
		name string
		run  func() (*trace.Session, *trace.ColumnBatch)
	}{
		{"demo-figure3", experiments.Figure3Events},
		{"app-Gpdotnet", func() (*trace.Session, *trace.ColumnBatch) { return memRun(apps.ByName("Gpdotnet").Instrumented) }},
	} {
		t.Run(w.name, func(t *testing.T) {
			s, events := w.run()
			rep := core.New().Analyze(s, events)
			var charts, svgs bytes.Buffer
			byInstance := viz.ByInstance(events)
			for _, ir := range rep.Instances {
				if len(ir.UseCases) == 0 {
					continue
				}
				inst := ir.Profile.Instance
				fmt.Fprintf(&charts, "== %s %q\n", inst.TypeName, inst.Label)
				charts.WriteString(viz.ASCIIChart(byInstance.Events(inst.ID), viz.DefaultChartOptions()))
				if err := viz.WriteSVG(&svgs, byInstance.Events(inst.ID), 1000, 320); err != nil {
					t.Fatal(err)
				}
			}
			checkPin(t, w.name+".charts.txt", charts.Bytes())
			checkPin(t, w.name+".svg.sha256", svgs.Bytes())
			var page bytes.Buffer
			if err := viz.WriteHTMLReport(&page, rep, events, viz.HTMLOptions{IncludeUnflagged: true}); err != nil {
				t.Fatal(err)
			}
			checkPin(t, w.name+".html.sha256", page.Bytes())
		})
	}

	s, events := threadsRun()
	rep := core.New().Analyze(s, events)
	checkPin(t, "threads.lanes.txt", []byte(viz.ThreadLanes(rep.Instances[0].Profile.Instance, events, viz.ChartOptions{MaxWidth: 80, MaxHeight: 8})))
}

// TestCLIChartPins pins what the dsspy command prints and writes for its
// trace renderers: -chart, -svg and -html on a live run, and -chart on a replayed
// log (testdata/render/figure3.dslog, written by dsspy -demo figure3 -log).
func TestCLIChartPins(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build in -short mode")
	}
	bin := buildTool(t, "./cmd/dsspy")
	for _, c := range []struct {
		name string
		args []string
	}{
		{"cli-demo-figure3", []string{"-demo", "figure3"}},
		{"cli-app-Gpdotnet", []string{"-app", "Gpdotnet"}},
	} {
		dir := t.TempDir()
		svg, page := filepath.Join(dir, "profile.svg"), filepath.Join(dir, "report.html")
		out := run(t, bin, append(c.args, "-chart", "-svg", svg, "-html", page)...)
		checkPin(t, c.name+".chart.txt", []byte(strings.ReplaceAll(out, dir, "<dir>")))
		for _, f := range []string{svg, page} {
			doc, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			checkPin(t, c.name+filepath.Ext(f)+".sha256", doc)
		}
	}
	checkPin(t, "cli-replay-figure3.chart.txt", []byte(run(t, bin, "-replay", filepath.Join(pinDir, "figure3.dslog"), "-chart")))
}
