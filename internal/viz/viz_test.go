package viz

import (
	"strings"
	"testing"

	"dsspy/internal/dstruct"
	"dsspy/internal/trace"
)

// columns scatters events onto one column batch.
func columns(events []trace.Event) *trace.ColumnBatch {
	b := &trace.ColumnBatch{}
	b.AppendEvents(events)
	return b
}

func figure2Events() *trace.ColumnBatch {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	l := dstruct.NewListCap[int](s, 10)
	for i := 0; i < 10; i++ {
		l.Add(i)
	}
	for i := 9; i >= 0; i-- {
		l.Get(i)
	}
	return columns(rec.Events())
}

func TestGlyphsDistinct(t *testing.T) {
	ops := []trace.Op{
		trace.OpRead, trace.OpWrite, trace.OpInsert, trace.OpDelete,
		trace.OpSearch, trace.OpClear, trace.OpCopy, trace.OpReverse,
		trace.OpSort, trace.OpForAll, trace.OpResize,
	}
	seen := make(map[byte]trace.Op)
	for _, op := range ops {
		g := Glyph(op)
		if prev, dup := seen[g]; dup {
			t.Errorf("glyph %c shared by %s and %s", g, prev, op)
		}
		seen[g] = op
	}
	if Glyph(trace.OpNone) != '?' {
		t.Error("unknown op glyph")
	}
}

func TestASCIIChartFigure2(t *testing.T) {
	out := ASCIIChart(figure2Events(), DefaultChartOptions())
	if !strings.Contains(out, "I") || !strings.Contains(out, "R") {
		t.Errorf("chart lacks insert/read markers:\n%s", out)
	}
	if !strings.Contains(out, ".") {
		t.Errorf("chart lacks size backdrop:\n%s", out)
	}
	// 20 events, 10 positions: no downsampling, 20 columns.
	if !strings.Contains(out, "x: 20 events (1 col = 1)") {
		t.Errorf("header wrong:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	// The top data row is position 9; its insert marker must be in the
	// second half (event 10 is Add(9)... event index 9).
	var topRow string
	for _, l := range lines {
		if strings.HasPrefix(l, "   9 |") {
			topRow = l
		}
	}
	if topRow == "" {
		t.Fatalf("no row for position 9:\n%s", out)
	}
	cells := topRow[len("   9 |"):]
	if cells[9] != 'I' || cells[10] != 'R' {
		t.Errorf("expected I at col 9 and R at col 10 of top row, got %q", cells)
	}
}

func TestASCIIChartDownsamples(t *testing.T) {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	l := dstruct.NewList[int](s)
	for i := 0; i < 5000; i++ {
		l.Add(i)
	}
	out := ASCIIChart(columns(rec.Events()), ChartOptions{MaxWidth: 50, MaxHeight: 10})
	lines := strings.Split(out, "\n")
	for _, l := range lines {
		if l == Legend {
			continue
		}
		if len(l) > 80 {
			t.Fatalf("line too long (%d): %q", len(l), l[:40])
		}
	}
	if !strings.Contains(out, "x: 5000 events") {
		t.Errorf("header missing event count:\n%s", lines[0])
	}
}

func TestASCIIChartWholeStructureOps(t *testing.T) {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	l := dstruct.NewList[int](s)
	l.Add(1)
	l.Add(2)
	l.Sort(func(a, b int) bool { return a < b })
	l.Clear()
	out := ASCIIChart(columns(rec.Events()), DefaultChartOptions())
	if !strings.Contains(out, "O") {
		t.Errorf("sort marker missing:\n%s", out)
	}
	if !strings.Contains(out, "C") {
		t.Errorf("clear marker missing:\n%s", out)
	}
}

func TestASCIIChartEmpty(t *testing.T) {
	if got := ASCIIChart(&trace.ColumnBatch{}, DefaultChartOptions()); !strings.Contains(got, "empty") {
		t.Errorf("empty chart = %q", got)
	}
	// Zero options use defaults.
	if got := ASCIIChart(figure2Events(), ChartOptions{}); got == "" {
		t.Error("zero options render empty")
	}
}

func TestWriteSVG(t *testing.T) {
	var sb strings.Builder
	if err := WriteSVG(&sb, figure2Events(), 800, 300); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"<svg", "</svg>", "circle", "#dddddd", "#2ca02c", "#1f77b4"} {
		if !strings.Contains(out, want) {
			t.Errorf("svg missing %q", want)
		}
	}
	if strings.Count(out, "<circle") != 20 {
		t.Errorf("marker count = %d, want 20", strings.Count(out, "<circle"))
	}
}

func TestWriteSVGDefaultsAndEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WriteSVG(&sb, &trace.ColumnBatch{}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<svg") {
		t.Error("empty svg missing root")
	}
}

func TestThreadLanes(t *testing.T) {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	id := s.Register(trace.KindList, "List[int]", "shared", 0)
	const n = 12
	for i := 0; i < n; i++ {
		s.EmitAs(id, trace.OpRead, i, n, 1)
		s.EmitAs(id, trace.OpRead, n-1-i, n, 2)
	}
	inst, _ := s.Instance(id)
	out := ThreadLanes(inst, columns(rec.Events()), DefaultChartOptions())
	for _, want := range []string{"2 threads", "thread 1 (12 events)", "thread 2 (12 events)"} {
		if !strings.Contains(out, want) {
			t.Errorf("lanes missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, Legend); got != 1 {
		t.Errorf("legend appears %d times, want 1", got)
	}
}

func TestThreadLanesSingleThreadFallsBack(t *testing.T) {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	id := s.Register(trace.KindList, "List[int]", "", 0)
	for i := 0; i < 5; i++ {
		s.Emit(id, trace.OpRead, i, 5)
	}
	inst, _ := s.Instance(id)
	out := ThreadLanes(inst, columns(rec.Events()), DefaultChartOptions())
	if strings.Contains(out, "threads accessed") {
		t.Error("single-threaded profile rendered as lanes")
	}
}

// TestByInstance: splitting a run's batch by instance keeps exactly each
// instance's events, in order, across interleaved runs of instances, and an
// instance without events gets an empty batch.
func TestByInstance(t *testing.T) {
	var events []trace.Event
	for i := 0; i < 30; i++ {
		id := trace.InstanceID(1 + i/4%3)
		events = append(events, trace.Event{Seq: uint64(i + 1), Instance: id, Op: trace.OpRead, Index: i, Size: 30})
	}
	byInstance := ByInstance(columns(events))
	if len(byInstance) != 3 {
		t.Fatalf("split into %d instances, want 3", len(byInstance))
	}
	for id := trace.InstanceID(0); id <= 3; id++ {
		got := byInstance.Events(id)
		k := 0
		for _, e := range events {
			if e.Instance != id {
				continue
			}
			if k >= got.Len() || got.At(k) != e {
				t.Fatalf("instance %d: event %d missing or out of order", id, k)
			}
			k++
		}
		if got.Len() != k {
			t.Fatalf("instance %d: %d events selected, want %d", id, got.Len(), k)
		}
	}
}

func TestOpTimeline(t *testing.T) {
	if got := OpTimeline(&trace.ColumnBatch{}); got != "(empty)" {
		t.Errorf("empty timeline = %q", got)
	}
	got := OpTimeline(figure2Events())
	if got != "I×10 R×10" {
		t.Errorf("timeline = %q, want I×10 R×10", got)
	}
}
