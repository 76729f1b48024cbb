package dsspy_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Integration tests: build the command-line tools and run them end to end,
// asserting the headline artifacts appear in their output. Skipped with
// -short (each test compiles a binary).

func buildTool(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

func TestIntegrationDsspyCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build in -short mode")
	}
	bin := buildTool(t, "./cmd/dsspy")

	out := run(t, bin, "-list")
	for _, want := range []string{"Algorithmia", "Mandelbrot", "figure2"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q", want)
		}
	}

	dir := t.TempDir()
	logPath := filepath.Join(dir, "run.dslog")
	htmlPath := filepath.Join(dir, "report.html")
	jsonPath := filepath.Join(dir, "report.json")
	svgPath := filepath.Join(dir, "profile.svg")
	out = run(t, bin, "-demo", "figure3", "-chart", "-advise",
		"-log", logPath, "-html", htmlPath, "-json", jsonPath, "-svg", svgPath)
	for _, want := range []string{
		"Long-Insert", "Frequent-Long-Read",
		"Transformation plans", "Amdahl estimate",
		"session log written",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("demo output missing %q", want)
		}
	}
	for _, p := range []string{logPath, htmlPath, jsonPath, svgPath} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("artifact %s missing or empty (%v)", p, err)
		}
	}

	// Replay the saved session: same findings, no workload run.
	out = run(t, bin, "-replay", logPath)
	if !strings.Contains(out, "replaying") || !strings.Contains(out, "Long-Insert") {
		t.Errorf("replay output wrong:\n%s", out)
	}

	// Charts work on every run: a trace renderer makes the collector (or
	// the replay) keep the events the chart draws, live snapshots or not.
	const chartHeader = `Profile of List[int] "producer/scanner" (3612 events):`
	for _, args := range [][]string{
		{"-demo", "figure3", "-live", "50ms", "-chart"},
		{"-replay", logPath, "-chart"},
	} {
		out = run(t, bin, args...)
		i := strings.Index(out, chartHeader)
		if i < 0 {
			t.Errorf("%v: no chart header in output:\n%s", args, out)
			continue
		}
		if chart := strings.TrimSpace(out[i+len(chartHeader):]); strings.Count(chart, "\n") < 5 {
			t.Errorf("%v: chart body missing after header:\n%s", args, out)
		}
	}
}

func TestIntegrationDsstudy(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build in -short mode")
	}
	bin := buildTool(t, "./cmd/dsstudy")
	out := run(t, bin, "-findings")
	for _, want := range []string{"65.05%", "3.94"} {
		if !strings.Contains(out, want) {
			t.Errorf("findings missing %q:\n%s", want, out)
		}
	}
}

func TestIntegrationDsbenchSelected(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build in -short mode")
	}
	bin := buildTool(t, "./cmd/dsbench")
	out := run(t, bin, "-only", "table2")
	if !strings.Contains(out, "81") || !strings.Contains(out, "41") {
		t.Errorf("table2 totals missing:\n%s", out)
	}
	out = run(t, bin, "-only", "fig2")
	if !strings.Contains(out, "I×10 R×10") {
		t.Errorf("fig2 timeline missing:\n%s", out)
	}
}

func TestIntegrationDsscan(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build in -short mode")
	}
	bin := buildTool(t, "./cmd/dsscan")
	out := run(t, bin, "-top", "3", "./internal/apps")
	for _, want := range []string{"dsspy", "slice(make)", "Total"} {
		if !strings.Contains(out, want) {
			t.Errorf("dsscan output missing %q:\n%s", want, out)
		}
	}
}

func TestIntegrationExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("binary builds in -short mode")
	}
	cases := map[string][]string{
		"./examples/quickstart":  {"Long-Insert", "Frequent-Long-Read", "Per-instance summary"},
		"./examples/queuedetect": {"Implement-Queue", "Stack-Implementation", "lossless"},
		"./examples/ipc":         {"collector listening", "Implement-Queue"},
		"./examples/threads":     {"Frequent-Long-Read", "3 threads", "thread 1"},
	}
	for pkg, wants := range cases {
		pkg, wants := pkg, wants
		t.Run(filepath.Base(pkg), func(t *testing.T) {
			t.Parallel()
			bin := buildTool(t, pkg)
			var out string
			if filepath.Base(pkg) == "mandelbrot" {
				out = run(t, bin, filepath.Join(t.TempDir(), "out.pgm"))
			} else {
				out = run(t, bin)
			}
			for _, want := range wants {
				if !strings.Contains(out, want) {
					t.Errorf("%s output missing %q", pkg, want)
				}
			}
		})
	}
}
