package core_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dsspy/internal/core"
)

// The version-1 checkpoint fixture: a daemon checkpoint of one tenant ("t0")
// with two closed windows over a nine-behavior corpus mix (classic,
// contended and irregular instances), written by the version-1 codec, with
// the text and JSON export that codec's loader rendered from it.
const (
	v1Checkpoint = "testdata/checkpoint-v1.json"
	v1Text       = "testdata/checkpoint-v1.txt"
	v1Export     = "testdata/checkpoint-v1.export.json"
)

// renderText is a report's Write output.
func renderText(t testing.TB, rep *core.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// renderJSON is a report's WriteJSON output.
func renderJSON(t testing.TB, rep *core.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkExactPatternLists fails when a row's pattern list has growth slack.
func checkExactPatternLists(t *testing.T, rep *core.Report, at string) {
	t.Helper()
	for _, ir := range rep.Instances {
		if pats := ir.Patterns(); cap(pats) != len(pats) {
			t.Fatalf("%s: instance %d keeps %d patterns in a list of capacity %d",
				at, ir.Profile.Instance.ID, len(pats), cap(pats))
		}
	}
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLoadReportV1Checkpoint: a version-1 checkpoint still loads, renders the
// text and JSON export the version-1 loader rendered, byte for byte, and
// re-saves as a version-2 snapshot that loads back to the same renderings.
// A daemon restored from it serves the same tenant view.
func TestLoadReportV1Checkpoint(t *testing.T) {
	rep, err := core.LoadReportFile(v1Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	wantText, wantJSON := readFile(t, v1Text), readFile(t, v1Export)
	if got := renderText(t, rep); !bytes.Equal(got, wantText) {
		t.Fatalf("v1 checkpoint text differs:\n--- got\n%s\n--- want\n%s", got, wantText)
	}
	if got := renderJSON(t, rep); !bytes.Equal(got, wantJSON) {
		t.Fatalf("v1 checkpoint JSON export differs:\n--- got\n%s\n--- want\n%s", got, wantJSON)
	}
	if rep.Origin != "t0" || len(rep.Instances) == 0 {
		t.Fatalf("v1 checkpoint loaded as origin %q with %d rows", rep.Origin, len(rep.Instances))
	}
	checkExactPatternLists(t, rep, "v1 load")

	var buf bytes.Buffer
	if err := core.SaveReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var hdr struct{ Version int }
	if err := json.Unmarshal(buf.Bytes(), &hdr); err != nil || hdr.Version != 2 {
		t.Fatalf("SaveReport wrote version %d (%v), want 2", hdr.Version, err)
	}
	back, err := core.LoadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderText(t, back), wantText) || !bytes.Equal(renderJSON(t, back), wantJSON) {
		t.Fatal("v1 checkpoint re-saved as v2 renders differently")
	}
	checkExactPatternLists(t, back, "v2 load")

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint-t0.json"), readFile(t, v1Checkpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	dm := core.New().NewDaemon(core.DaemonConfig{CheckpointDir: dir})
	if n, err := dm.Restore(); err != nil || n != 1 {
		t.Fatalf("Restore = %d, %v; want 1 tenant", n, err)
	}
	if got := renderText(t, dm.TenantReport("t0")); !bytes.Equal(got, wantText) {
		t.Fatalf("daemon restored from the v1 checkpoint renders differently:\n%s", got)
	}
}

// TestLoadReportRejectsUnknownVersion: a snapshot of a version the codec does
// not know is refused, not guessed at.
func TestLoadReportRejectsUnknownVersion(t *testing.T) {
	for _, v := range []string{`{"version":0}`, `{"version":3}`, `{}`} {
		if _, err := core.LoadReport(bytes.NewReader([]byte(v))); err == nil {
			t.Errorf("LoadReport(%s) accepted an unknown version", v)
		}
	}
}

// FuzzLoadReport feeds arbitrary bytes to the snapshot loader, seeded with
// the version-1 fixture and a version-2 snapshot of it. Loading must never
// panic, and a snapshot it accepts must render, re-save and re-load to the
// same Write text.
func FuzzLoadReport(f *testing.F) {
	v1 := readFile(f, v1Checkpoint)
	f.Add(v1)
	rep, err := core.LoadReport(bytes.NewReader(v1))
	if err != nil {
		f.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := core.SaveReport(&v2, rep); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add([]byte(`{"version":2,"registered":[],"instances":[{"instance":{"ID":1},"events":3,"summary":{"Patterns":[{"Start":0,"End":2,"Cover":1,"Type":1}]}}]}`))
	f.Add([]byte(`{"version":1,"instances":[{"summary":{"Patterns":[{"Type":2,"Run":{"Start":4,"End":1}}]}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := core.LoadReport(bytes.NewReader(data))
		if err != nil {
			return
		}
		text := renderText(t, rep)
		var buf bytes.Buffer
		if err := core.SaveReport(&buf, rep); err != nil {
			t.Fatalf("re-saving an accepted snapshot: %v", err)
		}
		back, err := core.LoadReport(&buf)
		if err != nil {
			t.Fatalf("re-loading a re-saved snapshot: %v", err)
		}
		if got := renderText(t, back); !bytes.Equal(got, text) {
			t.Fatalf("re-saved snapshot renders differently:\n--- first\n%s\n--- again\n%s", text, got)
		}
	})
}
