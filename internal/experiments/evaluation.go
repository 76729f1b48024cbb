package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dsspy/internal/apps"
	"dsspy/internal/core"
	"dsspy/internal/report"
	"dsspy/internal/trace"
	"dsspy/internal/usecase"
)

// Options tunes the measured experiments.
type Options struct {
	// Workers is the parallelism for recommendation-applied code;
	// 0 means GOMAXPROCS.
	Workers int
	// Reps is the number of timing repetitions (best-of). 0 means 3.
	Reps int
	// SpeedupThreshold classifies a probe as a true positive. 0 means 1.05.
	SpeedupThreshold float64
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) reps() int {
	if o.Reps > 0 {
		return o.Reps
	}
	return 3
}

func (o Options) threshold() float64 {
	if o.SpeedupThreshold > 0 {
		return o.SpeedupThreshold
	}
	return 1.05
}

// Table4Row is one evaluation program's measured outcome.
type Table4Row struct {
	Name           string
	PaperLOC       int
	RuntimeSec     float64 // plain full-size run
	ProfilingSec   float64 // instrumented run (same size as PlainTwin)
	Slowdown       float64 // instrumented / plain twin
	DataStructures int
	UseCases       int
	TruePositives  int
	Reduction      float64
	Speedup        float64 // plain / parallel, full size
	PaperSlowdown  float64
	PaperReduction float64
	PaperSpeedup   float64
	PaperUseCases  int
	PaperTP        int
	PaperDS        int
}

func bestOf(reps int, fn func()) time.Duration {
	best := time.Duration(1<<62 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// RunTable4 measures the full evaluation for every app: slowdown, search
// space, precision probes, and end-to-end speedup.
func RunTable4(opts Options) []Table4Row {
	d := core.New()
	var rows []Table4Row
	for _, app := range apps.Apps() {
		// Detection pass.
		rep := d.Run(app.Instrumented)
		ucs := rep.ParallelUseCases()

		// Slowdown: instrumented vs plain twin at the same input size.
		twin := bestOf(opts.reps(), app.PlainTwin)
		instr := bestOf(opts.reps(), func() {
			col := trace.NewShardedCollectorOpts(1, trace.DefaultAsyncBuffer, trace.Block())
			s := trace.NewSessionWith(trace.Options{Recorder: col, CaptureSites: true})
			app.Instrumented(s)
			col.Close()
		})
		slowdown := 0.0
		if twin > 0 {
			slowdown = float64(instr) / float64(twin)
		}

		// End-to-end speedup: plain vs parallel at paper input size.
		plain := bestOf(opts.reps(), func() { app.Plain() })
		parallel := bestOf(opts.reps(), func() { app.Parallel(opts.workers()) })
		speedup := 0.0
		if parallel > 0 {
			speedup = float64(plain) / float64(parallel)
		}

		// Precision: follow each recommended action in isolation. With a
		// single hardware thread no region can genuinely speed up, so the
		// classification is marked unavailable (-1) rather than reporting
		// timer noise as true or false positives.
		tp := -1
		if opts.workers() > 1 {
			tp = 0
			for _, probe := range app.Probes {
				if probe.Measure(opts.workers(), opts.reps()) >= opts.threshold() {
					tp++
				}
			}
		}

		ds := rep.SearchSpace().Total
		reduction := 0.0
		if ds > 0 {
			reduction = 1 - float64(len(ucs))/float64(ds)
		}
		rows = append(rows, Table4Row{
			Name:           app.Name,
			PaperLOC:       app.PaperLOC,
			RuntimeSec:     plain.Seconds(),
			ProfilingSec:   instr.Seconds(),
			Slowdown:       slowdown,
			DataStructures: ds,
			UseCases:       len(ucs),
			TruePositives:  tp,
			Reduction:      reduction,
			Speedup:        speedup,
			PaperSlowdown:  app.PaperSlowdown,
			PaperReduction: app.PaperReduction,
			PaperSpeedup:   app.PaperSpeedup,
			PaperUseCases:  app.WantUseCases,
			PaperTP:        app.WantTruePositives,
			PaperDS:        app.WantDataStructures,
		})
	}
	return rows
}

// Table4 prints the evaluation alongside the paper's reference values.
func Table4(w io.Writer, opts Options) error {
	rows := RunTable4(opts)
	tb := report.NewTable(
		"Name", "LOC", "Runtime[s]", "Profiling[s]", "Slowdown (paper)",
		"DS", "Use Cases (paper)", "Reduction (paper)", "Speedup (paper)",
	).AlignRight(1, 2, 3, 4, 5, 6, 7, 8)
	tb.Title = "Table IV — evaluation of DSspy: slowdown, search-space reduction, precision, speedup"
	var sumDS, sumUC, sumTP int
	var sumSlow, sumSpeed float64
	for _, r := range rows {
		tb.AddRow(
			r.Name,
			r.PaperLOC,
			fmt.Sprintf("%.3f", r.RuntimeSec),
			fmt.Sprintf("%.3f", r.ProfilingSec),
			fmt.Sprintf("%s (%s)", report.F2(r.Slowdown), report.F2(r.PaperSlowdown)),
			r.DataStructures,
			fmt.Sprintf("%s of %d (%d of %d)", tpString(r.TruePositives), r.UseCases, r.PaperTP, r.PaperUseCases),
			fmt.Sprintf("%s (%s)", report.Pct(r.Reduction), report.Pct(r.PaperReduction)),
			fmt.Sprintf("%s (%s)", report.F2(r.Speedup), report.F2(r.PaperSpeedup)),
		)
		sumDS += r.DataStructures
		sumUC += r.UseCases
		if r.TruePositives >= 0 {
			sumTP += r.TruePositives
		} else {
			sumTP = -1
		}
		sumSlow += r.Slowdown
		sumSpeed += r.Speedup
	}
	tb.AddSeparator()
	n := float64(len(rows))
	totalRed := 1 - float64(sumUC)/float64(sumDS)
	tb.AddRow("Total", "", "", "",
		fmt.Sprintf("%s (47.13)", report.F2(sumSlow/n)),
		sumDS,
		fmt.Sprintf("%s of %d (16 of 24)", tpString(sumTP), sumUC),
		fmt.Sprintf("%s (76.92%%)", report.Pct(totalRed)),
		fmt.Sprintf("%s (2.13)", report.F2(sumSpeed/n)),
	)
	if _, err := tb.WriteTo(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"Workers: %d (paper: 8-core AMD FX 8120). On single-core hosts every speedup degenerates to ~1.0;\nthe shape claims (who is parallelizable, who is not) are carried by the probe classification gates in the tests.\n\n",
		opts.workers())
	return err
}

// tpString renders a true-positive count, with -1 meaning "not measurable
// on this host" (single hardware thread).
func tpString(tp int) string {
	if tp < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%d", tp)
}

// Table5 prints the DSspy report for GPdotNET in the paper's Table V layout.
func Table5(w io.Writer) error {
	d := core.New()
	app := apps.ByName("Gpdotnet")
	rep := d.Run(app.Instrumented)
	ucs := rep.ParallelUseCases()
	// Table V orders the findings terminal set first, then population, then
	// selection; instance registration order matches.
	sort.SliceStable(ucs, func(i, j int) bool {
		if ucs[i].Instance.ID != ucs[j].Instance.ID {
			return ucs[i].Instance.ID < ucs[j].Instance.ID
		}
		return ucs[i].Kind > ucs[j].Kind // FLR before LI, like Table V
	})
	if _, err := fmt.Fprintln(w, "Table V — DSspy use cases for GPdotNET"); err != nil {
		return err
	}
	for i, u := range ucs {
		site := u.Instance.Site
		if _, err := fmt.Fprintf(w,
			"Use Case %d\n  Function:       %s\n  Position:       %s:%d\n  Data structure: %s (%q)\n  Use Case:       %s\n\n",
			i+1, site.Function, filepath.Base(site.File), site.Line,
			u.Instance.TypeName, u.Instance.Label, u.Kind,
		); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "Paper reference: 5 use cases — FLR on the terminal-set array, FLR+LI on the population list (.ctor), FLR+LI on the selection array.\n\n")
	return err
}

// Table6Row is one sequential-fraction measurement.
type Table6Row struct {
	Name          string
	SeqMS         float64
	ParMS         float64
	SeqFraction   float64
	PaperFraction float64
}

// RunTable6 measures sequential vs parallelizable runtime fractions.
func RunTable6() []Table6Row {
	refs := map[string]float64{
		"CPU Benchmarks":  0.9429,
		"Gpdotnet":        0.0389,
		"Mandelbrot":      0.0909,
		"WordWheelSolver": 0.2821,
	}
	var rows []Table6Row
	for _, name := range []string{"CPU Benchmarks", "Gpdotnet", "Mandelbrot", "WordWheelSolver"} {
		app := apps.ByName(name)
		seq, par := app.Regions()
		total := seq + par
		frac := 0.0
		if total > 0 {
			frac = float64(seq) / float64(total)
		}
		rows = append(rows, Table6Row{
			Name:          name,
			SeqMS:         float64(seq.Microseconds()) / 1000,
			ParMS:         float64(par.Microseconds()) / 1000,
			SeqFraction:   frac,
			PaperFraction: refs[name],
		})
	}
	return rows
}

// Table6 prints the sequential/parallelizable runtime comparison.
func Table6(w io.Writer) error {
	rows := RunTable6()
	tb := report.NewTable("Name", "Sequential [ms]", "Parallelizable [ms]", "Sequential Fraction (paper)").
		AlignRight(1, 2, 3)
	tb.Title = "Table VI — sequential and parallelizable runtime fractions"
	for _, r := range rows {
		tb.AddRow(r.Name, report.F2(r.SeqMS), report.F2(r.ParMS),
			fmt.Sprintf("%s (%s)", report.Pct(r.SeqFraction), report.Pct(r.PaperFraction)))
	}
	if _, err := tb.WriteTo(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "Paper reference: the low CPU-Benchmarks speedup (1.20) is explained by its dominant sequential fraction.\n\n")
	return err
}

// Table7 prints the related-work capability matrix (Table VII) — a
// qualitative table reproduced verbatim.
func Table7(w io.Writer) error {
	cols := []string{
		"Parallel Libraries", "Programming Assistance", "Software Visualization",
		"Data Layout Optimization", "Memory Access Analysis",
		"Data Structure Optimization", "Automatic Parallelization", "This work",
	}
	rows := []struct {
		name  string
		marks []string
	}{
		{"Chronological order of data", []string{"+", "-", "+", "o", "+", "-", "-", "o"}},
		{"Collection of data accesses", []string{"-", "-", "o", "+", "-", "-", "-", "+"}},
		{"Detection of parallel potential", []string{"-", "-", "-", "-", "-", "+", "+", "+"}},
		{"Deduction of use cases", []string{"-", "-", "-", "-", "-", "-", "-", "+"}},
	}
	tb := report.NewTable(append([]string{"Capability"}, cols...)...)
	tb.Title = "Table VII — comparison of related work (as published)"
	for _, r := range rows {
		cells := make([]any, 0, len(r.marks)+1)
		cells = append(cells, r.name)
		for _, m := range r.marks {
			cells = append(cells, m)
		}
		tb.AddRow(cells...)
	}
	_, err := tb.WriteTo(w)
	return err
}

// PrecisionSummary recomputes the headline precision figure: true positives
// over detected use cases.
func PrecisionSummary(rows []Table4Row) (tp, total int, precision float64) {
	for _, r := range rows {
		tp += r.TruePositives
		total += r.UseCases
	}
	if total > 0 {
		precision = float64(tp) / float64(total)
	}
	return tp, total, precision
}

// KindBreakdown tallies detected use cases per kind across the evaluation.
func KindBreakdown() map[usecase.Kind]int {
	d := core.New()
	out := map[usecase.Kind]int{}
	for _, app := range apps.Apps() {
		rep := d.Run(app.Instrumented)
		for k, n := range rep.CountByKind() {
			out[k] += n
		}
	}
	return out
}
