package viz

import (
	"fmt"
	"html"
	"io"
	"strings"

	"dsspy/internal/core"
	"dsspy/internal/trace"
)

// HTML report: DSspy "visualizes the runtime profiles" and "presents the
// access profiles, the use cases and the recommended actions to the
// engineer" (§IV). WriteHTMLReport emits a single self-contained HTML file:
// one section per instance with its findings, evidence, recommended action,
// and an inline SVG of the runtime profile drawn from the run's events.

// HTMLOptions tunes report rendering.
type HTMLOptions struct {
	// Title heads the document; default "DSspy report".
	Title string
	// MaxEventsPerChart caps the SVG size; longer profiles are downsampled
	// by even sampling. Default 2000.
	MaxEventsPerChart int
	// IncludeUnflagged also renders instances without use cases.
	IncludeUnflagged bool
}

// WriteHTMLReport renders the analysis report as one HTML document, drawing
// each instance's profile from run, the run's events in sequence order.
func WriteHTMLReport(w io.Writer, rep *core.Report, run *trace.ColumnBatch, opts HTMLOptions) error {
	if opts.Title == "" {
		opts.Title = "DSspy report"
	}
	if opts.MaxEventsPerChart <= 0 {
		opts.MaxEventsPerChart = 2000
	}
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n")
	fmt.Fprintf(&b, "<title>%s</title>\n", html.EscapeString(opts.Title))
	b.WriteString(`<style>
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 70rem; color: #222; }
h1 { border-bottom: 2px solid #444; padding-bottom: .3rem; }
section { border: 1px solid #ccc; border-radius: 6px; padding: 1rem; margin: 1rem 0; }
section.flagged { border-color: #b44; }
.meta { color: #666; font-size: .9rem; }
.usecase { background: #fff6f0; border-left: 4px solid #d62; padding: .5rem .8rem; margin: .5rem 0; }
.usecase b { color: #a31; }
.rec { font-style: italic; }
.summary { background: #f4f7ff; border-left: 4px solid #26d; padding: .5rem .8rem; }
svg { border: 1px solid #eee; background: white; max-width: 100%; height: auto; }
code { background: #f2f2f2; padding: 0 .2rem; }
</style></head><body>
`)
	fmt.Fprintf(&b, "<h1>%s</h1>\n", html.EscapeString(opts.Title))
	byInstance := ByInstance(run)

	ss := rep.SearchSpace()
	fmt.Fprintf(&b,
		`<div class="summary">%d data-structure instances registered (%d lists/arrays), %d profiled, %d use case(s) on %d instance(s). Search-space reduction: <b>%.2f%%</b>.</div>`+"\n",
		len(rep.Registered), ss.Total, len(rep.Instances), ss.Referred, ss.Flagged, 100*ss.Reduction())

	for _, ir := range rep.Instances {
		flagged := len(ir.UseCases) > 0
		if !flagged && !opts.IncludeUnflagged {
			continue
		}
		cls := ""
		if flagged {
			cls = ` class="flagged"`
		}
		inst := ir.Profile.Instance
		fmt.Fprintf(&b, "<section%s>\n<h2>%s %s</h2>\n",
			cls, html.EscapeString(inst.TypeName), html.EscapeString(inst.Label))
		fmt.Fprintf(&b, `<div class="meta">instantiated at <code>%s</code> — %d events, %d patterns, %d thread(s)</div>`+"\n",
			html.EscapeString(inst.Site.String()), ir.Profile.Len(), len(ir.Patterns()), ir.Shared.Threads)
		if ir.Shared.Contended() {
			fmt.Fprintf(&b, `<div class="usecase"><b>Concurrent use:</b> %d threads including %d writer(s) — use a synchronized container when parallelizing.</div>`+"\n",
				ir.Shared.Threads, ir.Shared.WritingThreads)
		}
		for _, u := range ir.UseCases {
			fmt.Fprintf(&b,
				`<div class="usecase"><b>%s</b> — %s<br><span class="rec">Recommended action: %s</span></div>`+"\n",
				html.EscapeString(u.Kind.String()), html.EscapeString(u.Evidence), html.EscapeString(u.Recommendation))
		}
		events := byInstance.Events(inst.ID)
		if n := events.Len(); n > opts.MaxEventsPerChart {
			step := (n + opts.MaxEventsPerChart - 1) / opts.MaxEventsPerChart
			sampled := &trace.ColumnBatch{}
			for i := 0; i < n; i += step {
				sampled.AppendRange(events, i, i+1)
			}
			fmt.Fprintf(&b, `<div class="meta">profile downsampled: every %d-th of %d events</div>`+"\n",
				step, n)
			events = sampled
		}
		if err := WriteSVG(&b, events, 1000, 260); err != nil {
			return err
		}
		b.WriteString("</section>\n")
	}
	b.WriteString("</body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}
