package experiments

import (
	"fmt"
	"io"

	"dsspy/internal/core"
	"dsspy/internal/dstruct"
	"dsspy/internal/trace"
	"dsspy/internal/viz"
)

// Figure2Events produces the exact §II.B snippet's event stream:
//
//	List<int> list = new List<int>(10);
//	for (int i=0; i<10; i++) list.Add(i);
//	for (int i=9; i>=0; i--) Debug.Write(list[i]);
func Figure2Events() (*trace.Session, *trace.ColumnBatch) {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec, CaptureSites: true})
	list := dstruct.NewListCap[int](s, 10)
	for i := 0; i < 10; i++ {
		list.Add(i)
	}
	for i := 9; i >= 0; i-- {
		_ = list.Get(i)
	}
	return s, recorded(rec)
}

// Figure2 renders the runtime profile of the snippet: ten insertions into a
// fixed-capacity list whose size stays 10, then ten backward reads.
func Figure2(w io.Writer) error {
	s, events := Figure2Events()
	if _, err := fmt.Fprintln(w, "Figure 2 — runtime profile of the fill-then-read-backward list"); err != nil {
		return err
	}
	if _, err := io.WriteString(w, viz.ASCIIChart(events, viz.DefaultChartOptions())); err != nil {
		return err
	}
	rep := core.New().Analyze(s, events)
	pats := rep.Instances[0].Patterns()
	if _, err := fmt.Fprintf(w, "Timeline: %s\nDetected patterns: ", viz.OpTimeline(events)); err != nil {
		return err
	}
	for i, p := range pats {
		sep := ""
		if i > 0 {
			sep = ", "
		}
		if _, err := fmt.Fprintf(w, "%s%s", sep, p); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "\nPaper reference: Add operations do not grow the fixed-size list; two access phases are visible.\n\n")
	return err
}

// Figure3Events produces the §III.A profile: repeated append-scan-clear
// cycles on one list.
func Figure3Events() (*trace.Session, *trace.ColumnBatch) {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec, CaptureSites: true})
	l := dstruct.NewListLabeled[int](s, "producer/scanner")
	const cycles, n = 12, 150
	for c := 0; c < cycles; c++ {
		for i := 0; i < n; i++ {
			l.Add(i)
		}
		for i := 0; i < l.Len(); i++ {
			_ = l.Get(i)
		}
		l.Clear()
	}
	return s, recorded(rec)
}

// Figure3 renders the Insert-Back/Read-Forward cycle profile and the two
// use cases it yields.
func Figure3(w io.Writer) error {
	s, events := Figure3Events()
	if _, err := fmt.Fprintln(w, "Figure 3 — index-sequential inserts and reads (12 produce/scan/clear cycles)"); err != nil {
		return err
	}
	if _, err := io.WriteString(w, viz.ASCIIChart(events, viz.DefaultChartOptions())); err != nil {
		return err
	}
	rep := core.New().Analyze(s, events)
	res := rep.Instances[0]
	ib, rf := 0, 0
	for _, p := range res.Patterns() {
		switch p.Type.String() {
		case "Insert-Back":
			ib++
		case "Read-Forward":
			rf++
		}
	}
	if _, err := fmt.Fprintf(w, "Detected: %d Insert-Back and %d Read-Forward patterns.\nUse cases:\n", ib, rf); err != nil {
		return err
	}
	for _, u := range res.UseCases {
		if _, err := fmt.Fprintf(w, "  - %s: %s\n", u.Kind, u.Evidence); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "Paper reference: this profile leads to the two use cases Long-Insert and Frequent-Long-Read.\n\n")
	return err
}

// recorded scatters rec's events, in sequence order, onto one column batch.
func recorded(rec *trace.MemRecorder) *trace.ColumnBatch {
	b := &trace.ColumnBatch{}
	b.AppendEvents(rec.Events())
	return b
}
