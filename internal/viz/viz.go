// Package viz renders runtime profiles the way the paper's figures do:
// access events on a chronological x-axis with their target position on the
// y-axis, in front of a grey backdrop showing the structure's size at each
// access (Figures 2 and 3). Two backends exist: an ASCII chart for
// terminals and an SVG writer for reports. Both draw one instance's events,
// a Seq-ordered column batch that ByInstance splits from the run's.
package viz

import (
	"fmt"
	"io"
	"strings"

	"dsspy/internal/trace"
)

// Glyph returns the single-letter marker for an access type in ASCII charts.
func Glyph(op trace.Op) byte {
	switch op {
	case trace.OpRead:
		return 'R'
	case trace.OpWrite:
		return 'W'
	case trace.OpInsert:
		return 'I'
	case trace.OpDelete:
		return 'D'
	case trace.OpSearch:
		return 'S'
	case trace.OpClear:
		return 'C'
	case trace.OpCopy:
		return 'Y'
	case trace.OpReverse:
		return 'V'
	case trace.OpSort:
		return 'O'
	case trace.OpForAll:
		return 'A'
	case trace.OpResize:
		return 'Z'
	default:
		return '?'
	}
}

// Legend describes the glyphs used by the ASCII chart.
const Legend = "R=Read W=Write I=Insert D=Delete S=Search C=Clear O=Sort V=Reverse Y=Copy A=ForAll Z=Resize · = size backdrop"

// ChartOptions tunes ASCII rendering.
type ChartOptions struct {
	// MaxWidth is the maximum number of event columns; longer profiles are
	// downsampled by taking every k-th event. Default 120.
	MaxWidth int
	// MaxHeight is the maximum number of index rows; taller structures are
	// scaled. Default 20.
	MaxHeight int
}

// DefaultChartOptions fits a normal terminal.
func DefaultChartOptions() ChartOptions { return ChartOptions{MaxWidth: 120, MaxHeight: 20} }

// Instances is a run's events split by instance: each instance's events in
// order, the one-instance batch the charts draw.
type Instances map[trace.InstanceID]*trace.ColumnBatch

// ByInstance splits the Seq-ordered batch b by instance in one pass.
func ByInstance(b *trace.ColumnBatch) Instances {
	return split(b, b.InstanceRun, func(i int) trace.InstanceID { return b.Instance[i] })
}

// Events returns instance id's events, empty when it raised none.
func (in Instances) Events(id trace.InstanceID) *trace.ColumnBatch {
	if b := in[id]; b != nil {
		return b
	}
	return &trace.ColumnBatch{}
}

// split groups the runs of b by key, copying each run with AppendRange;
// next is b.InstanceRun or b.ThreadRun, and key reads the run's first event.
func split[K comparable](b *trace.ColumnBatch, next func(i, limit int) int, key func(i int) K) map[K]*trace.ColumnBatch {
	out := make(map[K]*trace.ColumnBatch)
	for i, n := 0, b.Len(); i < n; {
		j := next(i, n)
		g := out[key(i)]
		if g == nil {
			g = &trace.ColumnBatch{}
			out[key(i)] = g
		}
		g.AppendRange(b, i, j)
		i = j
	}
	return out
}

// ASCIIChart renders one instance's events as a character grid.
func ASCIIChart(b *trace.ColumnBatch, opts ChartOptions) string {
	if opts.MaxWidth <= 0 {
		opts.MaxWidth = 120
	}
	if opts.MaxHeight <= 0 {
		opts.MaxHeight = 20
	}
	n := b.Len()
	if n == 0 {
		return "(empty profile)\n"
	}

	// Downsample columns.
	step := 1
	if n > opts.MaxWidth {
		step = (n + opts.MaxWidth - 1) / opts.MaxWidth
	}
	var cols []trace.Event
	for i := 0; i < n; i += step {
		cols = append(cols, b.At(i))
	}

	// Vertical scale: map position/size onto rows.
	maxY := 1
	for _, e := range cols {
		if e.Index+1 > maxY {
			maxY = e.Index + 1
		}
		if e.Size > maxY {
			maxY = e.Size
		}
	}
	scale := 1
	if maxY > opts.MaxHeight {
		scale = (maxY + opts.MaxHeight - 1) / opts.MaxHeight
	}
	rows := (maxY + scale - 1) / scale

	var sb strings.Builder
	fmt.Fprintf(&sb, "y: position 0..%d (1 row = %d)  x: %d events (1 col = %d)\n",
		maxY-1, scale, n, step)
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = make([]byte, len(cols))
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	for c, e := range cols {
		sizeRows := (e.Size + scale - 1) / scale
		for r := 0; r < sizeRows && r < rows; r++ {
			grid[r][c] = '.'
		}
		if e.Index >= 0 {
			r := e.Index / scale
			if r < rows {
				grid[r][c] = Glyph(e.Op)
			}
		} else {
			// Whole-structure op: mark the full height.
			g := Glyph(e.Op)
			for r := 0; r < sizeRows && r < rows; r++ {
				grid[r][c] = g
			}
			if sizeRows == 0 && rows > 0 {
				grid[0][c] = g
			}
		}
	}
	// Top row is the highest position.
	for r := rows - 1; r >= 0; r-- {
		fmt.Fprintf(&sb, "%4d |", r*scale)
		sb.Write(grid[r])
		sb.WriteByte('\n')
	}
	sb.WriteString("     +")
	sb.WriteString(strings.Repeat("-", len(cols)))
	sb.WriteByte('\n')
	sb.WriteString(Legend)
	sb.WriteByte('\n')
	return sb.String()
}

// svgColor returns the paper's color coding: reads green, writes red,
// inserts blue, size backdrop grey, everything else violet.
func svgColor(op trace.Op) string {
	switch {
	case op == trace.OpInsert:
		return "#1f77b4"
	case op == trace.OpDelete:
		return "#ff7f0e"
	case op.IsRead():
		return "#2ca02c"
	case op.IsWrite():
		return "#d62728"
	default:
		return "#9467bd"
	}
}

// WriteSVG renders one instance's events as an SVG document: grey size bars
// in the background, one colored marker per access event.
func WriteSVG(w io.Writer, b *trace.ColumnBatch, width, height int) error {
	if width <= 0 {
		width = 900
	}
	if height <= 0 {
		height = 300
	}
	const margin = 30
	maxY := 1
	for i := range b.Len() {
		maxY = max(maxY, b.Index[i]+1, b.Size[i])
	}
	n := max(b.Len(), 1)
	xw := float64(width-2*margin) / float64(n)
	yh := float64(height-2*margin) / float64(maxY)

	if _, err := fmt.Fprintf(w,
		`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height); err != nil {
		return err
	}
	write := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format+"\n", args...)
		return err
	}
	if err := write(`<rect width="%d" height="%d" fill="white"/>`, width, height); err != nil {
		return err
	}
	// Size backdrop.
	for i, size := range b.Size {
		if size <= 0 {
			continue
		}
		h := float64(size) * yh
		if err := write(`<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="#dddddd"/>`,
			float64(margin)+float64(i)*xw, float64(height-margin)-h, xw, h); err != nil {
			return err
		}
	}
	// Event markers.
	for i := range b.Len() {
		e := b.At(i)
		y := 0
		if e.Index >= 0 {
			y = e.Index
		}
		cy := float64(height-margin) - (float64(y)+0.5)*yh
		if err := write(`<circle cx="%.2f" cy="%.2f" r="%.2f" fill="%s"><title>#%d %s idx=%d size=%d</title></circle>`,
			float64(margin)+(float64(i)+0.5)*xw, cy, maxFloat(1, xw*0.4), svgColor(e.Op),
			e.Seq, e.Op, e.Index, e.Size); err != nil {
			return err
		}
	}
	// Axes.
	if err := write(`<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`,
		margin, height-margin, width-margin, height-margin); err != nil {
		return err
	}
	if err := write(`<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`,
		margin, margin, margin, height-margin); err != nil {
		return err
	}
	if err := write(`<text x="%d" y="%d" font-size="12">events (chronological) →</text>`,
		width/2-60, height-8); err != nil {
		return err
	}
	if err := write(`<text x="4" y="%d" font-size="12" transform="rotate(-90 12 %d)">position</text>`,
		height/2, height/2); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, `</svg>`)
	return err
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// OpTimeline compresses one instance's events into a run-length op string,
// e.g. "I×150 R×150 C×1", a compact textual companion to the charts.
func OpTimeline(b *trace.ColumnBatch) string {
	if b.Len() == 0 {
		return "(empty)"
	}
	var sb strings.Builder
	for i := 0; i < b.Len(); {
		j := i + 1
		for j < b.Len() && b.Op[j] == b.Op[i] {
			j++
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%c×%d", Glyph(b.Op[i]), j-i)
		i = j
	}
	return sb.String()
}
