package dsspy_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsspy/internal/apps"
	"dsspy/internal/core"
	"dsspy/internal/corpus"
	"dsspy/internal/experiments"
	"dsspy/internal/trace"
)

// The golden-report suite pins the rendered findings of every deterministic
// workload: the 44 corpus programs of the pattern, use-case and contention
// studies, the seven Table IV apps, Contend, and the Figure 2/3 demos. Each
// file holds the Table V text report followed by the JSON export, with the
// call-site file reduced to its basename so the bytes do not depend on the
// checkout path. Regenerate after an intended change with
//
//	go test -run TestGoldenReports -update .
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current engine")

type goldenCase struct {
	name string
	run  func() *core.Report
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	studies := []struct {
		prefix string
		progs  []corpus.DynamicProgram
	}{
		{"pattern", corpus.PatternStudyPrograms()},
		{"usecase", corpus.UseCaseStudyPrograms()},
		{"contention", corpus.ContentionStudyPrograms()},
	}
	for _, st := range studies {
		for _, p := range st.progs {
			p := p
			cases = append(cases, goldenCase{st.prefix + "-" + p.Name, func() *core.Report { return p.Run(core.New()) }})
		}
	}
	for _, app := range apps.All() {
		app := app
		cases = append(cases, goldenCase{"app-" + app.Name, func() *core.Report { return core.New().Run(app.Instrumented) }})
	}
	for name, events := range map[string]func() (*trace.Session, *trace.ColumnBatch){
		"figure2": experiments.Figure2Events,
		"figure3": experiments.Figure3Events,
	} {
		events := events
		cases = append(cases, goldenCase{"demo-" + name, func() *core.Report { return core.New().Analyze(events()) }})
	}
	return cases
}

// goldenBytes renders a report the way the golden files store it.
func goldenBytes(t *testing.T, rep *core.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	jr := rep.ToJSON()
	for i := range jr.Instances {
		if f := jr.Instances[i].File; f != "" {
			jr.Instances[i].File = filepath.Base(f)
		}
	}
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(jr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenReports(t *testing.T) {
	cases := goldenCases()
	if len(cases) != 44+8+2 {
		t.Fatalf("golden suite has %d cases, want 54", len(cases))
	}
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := goldenBytes(t, tc.run())
			path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_")+".golden")
			if *updateGolden {
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
				t.Fatalf("report differs from %s:\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
			}
		})
	}
}
