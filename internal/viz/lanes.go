package viz

import (
	"fmt"
	"slices"
	"strings"

	"dsspy/internal/trace"
)

// ThreadLanes renders instance inst's events, the Seq-ordered batch b, as
// one ASCII chart per thread, stacked — the view that makes interleaved
// per-thread patterns visible where the merged chart shows only a zigzag.
// Single-threaded instances fall back to the plain chart.
func ThreadLanes(inst trace.Instance, b *trace.ColumnBatch, opts ChartOptions) string {
	lanes := split(b, b.ThreadRun, func(i int) trace.ThreadID { return b.Thread[i] })
	if len(lanes) <= 1 {
		return ASCIIChart(b, opts)
	}
	threads := make([]trace.ThreadID, 0, len(lanes))
	for th := range lanes {
		threads = append(threads, th)
	}
	slices.Sort(threads)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d threads accessed %s %s:\n",
		len(threads), inst.TypeName, inst.Label)
	for _, th := range threads {
		fmt.Fprintf(&sb, "--- thread %d (%d events) ---\n", th, lanes[th].Len())
		chart := ASCIIChart(lanes[th], opts)
		// Drop the per-lane legend; one shared legend closes the stack.
		chart = strings.TrimSuffix(chart, Legend+"\n")
		sb.WriteString(chart)
	}
	sb.WriteString(Legend)
	sb.WriteByte('\n')
	return sb.String()
}
