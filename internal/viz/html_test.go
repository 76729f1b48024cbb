package viz

import (
	"strings"
	"testing"

	"dsspy/internal/core"
	"dsspy/internal/dstruct"
	"dsspy/internal/trace"
)

// reportForHTML records a workload in memory and analyzes it, returning the
// report and the run's events the charts draw.
func reportForHTML() (*core.Report, *trace.ColumnBatch) {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec, CaptureSites: true})
	l := dstruct.NewListLabeled[int](s, "work items")
	for c := 0; c < 12; c++ {
		for i := 0; i < 150; i++ {
			l.Add(i)
		}
		for i := 0; i < l.Len(); i++ {
			l.Get(i)
		}
		l.Clear()
	}
	quiet := dstruct.NewListLabeled[int](s, "quiet <list>")
	quiet.Add(1)
	b := columns(rec.Events())
	return core.New().Analyze(s, b), b
}

func TestWriteHTMLReport(t *testing.T) {
	var sb strings.Builder
	rep, b := reportForHTML()
	if err := WriteHTMLReport(&sb, rep, b, HTMLOptions{Title: "demo <run>"}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"demo &lt;run&gt;", // title escaped
		"Long-Insert",
		"Frequent-Long-Read",
		"Parallelize the insert operation.",
		"Search-space reduction",
		"<svg",
		"class=\"flagged\"",
		"downsampled", // 3612 events > default cap? cap is 2000: yes
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// The unflagged instance is omitted by default.
	if strings.Contains(out, "quiet") {
		t.Error("unflagged instance rendered without IncludeUnflagged")
	}
}

func TestWriteHTMLReportIncludeUnflagged(t *testing.T) {
	var sb strings.Builder
	rep, b := reportForHTML()
	err := WriteHTMLReport(&sb, rep, b, HTMLOptions{IncludeUnflagged: true})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "quiet &lt;list&gt;") {
		t.Error("unflagged instance missing or label unescaped")
	}
	if !strings.Contains(out, "DSspy report") {
		t.Error("default title missing")
	}
}

func TestWriteHTMLReportContention(t *testing.T) {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	id := s.Register(trace.KindList, "List[int]", "shared", 0)
	for i := 0; i < 120; i++ {
		s.EmitAs(id, trace.OpInsert, i, i+1, 1)
	}
	for i := 0; i < 50; i++ {
		s.EmitAs(id, trace.OpRead, i, 120, 2)
	}
	b := columns(rec.Events())
	rep := core.New().Analyze(s, b)
	var sb strings.Builder
	if err := WriteHTMLReport(&sb, rep, b, HTMLOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Concurrent use") {
		t.Error("contention note missing")
	}
}
