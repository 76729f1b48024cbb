// Package core is the DSspy orchestrator: it wires the Figure 4 pipeline —
// instrumentation (dstruct), execution and collection (trace), profile
// statistics (profile), pattern detection (pattern) and use-case generation
// (usecase) — and produces the report an engineer reads: locations, reasons,
// recommended actions.
//
// There is one analysis engine, the StreamAnalyzer: every report is built by
// folding events into per-instance reducers (FeedShard from a collector's
// drain goroutines, FeedColumns from columnar replay, Feed from event slices)
// and finalizing them at Close. Run and Analyze are drivers over it. The
// paper's post-mortem profile → pattern → use-case stages survive as those
// reducers; a per-event Profile is an on-demand view (Report.AttachEvents)
// for the renderers that draw the trace.
package core

import (
	"bytes"
	"io"
	"path/filepath"
	"sort"
	"strconv"

	"dsspy/internal/metrics"
	"dsspy/internal/obs"
	"dsspy/internal/par"
	"dsspy/internal/pattern"
	"dsspy/internal/profile"
	"dsspy/internal/sample"
	"dsspy/internal/trace"
	"dsspy/internal/usecase"
)

// Config bundles the tunables of the whole pipeline.
type Config struct {
	Thresholds usecase.Thresholds
	Pattern    pattern.Config
	Regularity pattern.RegularityConfig
	// Workers bounds the fan-out of per-instance finalization (flushing
	// the open runs, use-case detection, regularity, shared access) at
	// Snapshot and Close. 0 means GOMAXPROCS; 1 finalizes sequentially.
	// The report is byte-identical for every value: results are written by
	// instance order, never by completion order.
	Workers int
	// Tracer, when set, records self-profiling spans for the analysis
	// (snapshot, finalize). Nil disables tracing; it never influences the
	// findings.
	Tracer *obs.Tracer
}

// DefaultConfig returns the paper's thresholds and strict pattern matching.
func DefaultConfig() Config {
	return Config{
		Thresholds: usecase.Default(),
		Pattern:    pattern.DefaultConfig(),
		Regularity: pattern.DefaultRegularityConfig(),
	}
}

// DSspy is the analyzer.
type DSspy struct {
	cfg Config
}

// New returns a DSspy with the default configuration.
func New() *DSspy { return &DSspy{cfg: DefaultConfig()} }

// NewWith returns a DSspy with an explicit configuration.
func NewWith(cfg Config) *DSspy {
	if cfg.Pattern.MinLen == 0 {
		cfg.Pattern = pattern.DefaultConfig()
	}
	return &DSspy{cfg: cfg}
}

// InstanceResult is the analysis outcome for one data-structure instance.
type InstanceResult struct {
	// Origin names the report shard the result came from — a process, run,
	// or daemon window. Empty for single-run reports; MergeReports keys
	// instance identity on (Origin, Profile.Instance.ID).
	Origin   string
	Profile  *profile.Profile
	Summary  *pattern.Summary
	UseCases []usecase.UseCase
	Regular  bool
	// Shared summarizes concurrent use of the instance: patterns are
	// detected per thread (two goroutines interleaving scans are two
	// patterns, not a zigzag), and Contended flags concurrent use with at
	// least one writer.
	Shared profile.SharedAccess
	// Contention is the cross-thread summary — episodes, reader/writer
	// phases, and the bounded happens-before sketch — for instances touched
	// by more than one thread; nil for single-threaded instances, which
	// never pay for cross-thread state.
	Contention *profile.Contention
	// Sampling records adaptive-sampling provenance for rows whose event
	// stream was lossy: realized rate, conservation counters, sketch
	// estimates, and the detection error bound (mirrored onto UseCases
	// and Summary). Nil for full-fidelity rows — including rows inside a
	// sampled run that never backed off — so their bytes are unchanged.
	Sampling *sample.InstanceSampling
}

// Patterns returns the detected access patterns.
func (r *InstanceResult) Patterns() []pattern.Pattern { return r.Summary.Patterns }

// Report is the outcome of one analysis run.
type Report struct {
	// Origin names the producing process/run/window in merged fleet views;
	// empty for a plain single-run report.
	Origin    string
	Instances []*InstanceResult
	// Registered is the full instance registry, including instances that
	// never raised an event; the search-space figures are computed against
	// the lists and arrays in it, exactly as the evaluation counted
	// "number of instantiations of both data structures".
	Registered []trace.Instance
	// RegisteredFrom, set only in merged fleet reports, names the origin of
	// each Registered entry (a slice parallel to Registered). It keeps
	// re-merging associative: without it, two same-ID instances from
	// different processes would collapse into one registry row.
	RegisteredFrom []string
	// Stats instruments the analysis pipeline itself: events folded,
	// reducer state, wall time, and (when the events came from an
	// in-process collector) the collection-side queue statistics. It never
	// influences the findings.
	Stats *metrics.PipelineStats
}

// workers resolves Config.Workers: 0 means GOMAXPROCS.
func (d *DSspy) workers() int {
	if d.cfg.Workers > 0 {
		return d.cfg.Workers
	}
	return par.DefaultParallelism()
}

// Analyze folds a recorded event stream through the streaming analyzer and
// returns its report with per-event profiles attached (AttachEvents), for
// callers that hold the events anyway: replayed logs, memory recorders, the
// figure renderers. Events must be in sequence order, as every trace source
// returns them; the report does not depend on Config.Workers.
func (d *DSspy) Analyze(s *trace.Session, events []trace.Event) *Report {
	a := d.NewStreamAnalyzer(0)
	a.Attach(s)
	a.Feed(events...)
	rep := a.Close()
	rep.AttachEvents(s, events)
	return rep
}

// contentionStats aggregates the per-instance cross-thread summaries for the
// -stats plane; nil when the run was entirely single-threaded.
func contentionStats(results []*InstanceResult) *metrics.ContentionStats {
	cs := &metrics.ContentionStats{}
	for _, ir := range results {
		ct := ir.Contention
		if ct == nil {
			continue
		}
		cs.MultiThreadInstances++
		if ct.Contended() {
			cs.ContendedInstances++
		}
		cs.Episodes += ct.Episodes
		cs.EpisodeEvents += ct.EpisodeEvents
		cs.OverflowEvents += ct.OverflowEvents
	}
	if cs.MultiThreadInstances == 0 {
		return nil
	}
	return cs
}

// Run is the one-call convenience driver: the workload runs against a
// session whose sharded collector drains straight into the streaming
// analyzer's reducers, so the report is built while the workload executes
// and no event store is retained.
func (d *DSspy) Run(workload func(*trace.Session)) *Report {
	a := d.NewStreamAnalyzer(0)
	col := a.Collector(trace.DefaultAsyncBuffer, trace.Block(), false)
	s := trace.NewSessionWith(trace.Options{Recorder: col, CaptureSites: true})
	a.Attach(s)
	workload(s)
	col.Close()
	rep := a.Close()
	cs := col.Stats()
	rep.Stats.Collector = &cs
	return rep
}

// AttachEvents swaps each instance's event-free streamed profile for the
// per-event view profile.Build derives from events, matched by instance id,
// so renderers that draw the trace (charts, SVG, HTML, Figures 2 and 3) can
// read Profile.Events. The folded statistics carry over unchanged (the
// contention summary stays on InstanceResult.Contention); instances without
// events in the slice keep their profile.
func (r *Report) AttachEvents(s *trace.Session, events []trace.Event) {
	byID := make(map[trace.InstanceID]*profile.Profile)
	for _, p := range profile.Build(s, events) {
		byID[p.Instance.ID] = p
	}
	for i, ir := range r.Instances {
		p := byID[ir.Profile.Instance.ID]
		if p == nil {
			continue
		}
		p.PrimeStats(ir.Profile.Stats())
		// A copy: the row may be shared with the report a merge took it from.
		cp := *ir
		cp.Profile = p
		r.Instances[i] = &cp
	}
}

// UseCases returns every detected use case across instances, in instance
// order.
func (r *Report) UseCases() []usecase.UseCase {
	var out []usecase.UseCase
	for _, ir := range r.Instances {
		out = append(out, ir.UseCases...)
	}
	return out
}

// ParallelUseCases returns the use cases with parallel potential.
func (r *Report) ParallelUseCases() []usecase.UseCase {
	var out []usecase.UseCase
	for _, u := range r.UseCases() {
		if u.Kind.Parallel() {
			out = append(out, u)
		}
	}
	return out
}

// CountByKind tallies use cases per kind.
func (r *Report) CountByKind() map[usecase.Kind]int {
	m := make(map[usecase.Kind]int)
	for _, u := range r.UseCases() {
		m[u.Kind]++
	}
	return m
}

// Regularities returns the number of instances whose profiles contain
// recurring regularities (the Table II figure).
func (r *Report) Regularities() int {
	n := 0
	for _, ir := range r.Instances {
		if ir.Regular {
			n++
		}
	}
	return n
}

// SearchSpace summarizes the evaluation's central quantity: how many list
// and array instances exist, how many the use cases reference, and the
// resulting reduction (Table IV).
type SearchSpace struct {
	Total    int // list + array instances in the registry
	Flagged  int // instances referenced by at least one use case
	Referred int // total use cases
}

// Reduction returns 1 - Flagged/Total, the paper's search-space reduction.
func (ss SearchSpace) Reduction() float64 {
	if ss.Total == 0 {
		return 0
	}
	return 1 - float64(ss.Flagged)/float64(ss.Total)
}

// SearchSpace computes the search-space statistics.
func (r *Report) SearchSpace() SearchSpace {
	ss := SearchSpace{}
	for _, inst := range r.Registered {
		if inst.Kind == trace.KindList || inst.Kind == trace.KindArray {
			ss.Total++
		}
	}
	flagged := make(map[trace.InstanceID]bool)
	for _, ir := range r.Instances {
		for k := range ir.UseCases {
			u := &ir.UseCases[k]
			ss.Referred++
			switch u.Instance.Kind {
			case trace.KindList, trace.KindArray, trace.KindLinkedList, trace.KindSortedList:
				// Only linear instances are part of the paper's list/array
				// search space; contention findings on dictionaries don't
				// shrink (or inflate) it.
				flagged[u.Instance.ID] = true
			}
		}
	}
	ss.Flagged = len(flagged)
	return ss
}

// FilterMinConfidence drops every use-case detection whose confidence
// (1 - sampling error bound) is below min, returning the number removed.
// Full-fidelity detections have confidence 1 and always survive. The CLI's
// -min-confidence flag applies this before rendering.
func (r *Report) FilterMinConfidence(min float64) int {
	if min <= 0 {
		return 0
	}
	dropped := 0
	for i, ir := range r.Instances {
		// A fresh slice on a copy of the row: the row and its use cases may
		// be shared with the report a merge or a snapshot took them from.
		kept := ir.UseCases[:0:0]
		for _, u := range ir.UseCases {
			if u.Confidence() >= min {
				kept = append(kept, u)
			} else {
				dropped++
			}
		}
		cp := *ir
		cp.UseCases = kept
		r.Instances[i] = &cp
	}
	return dropped
}

// InstancesWithUseCases returns the distinct instances the engineer still
// has to look at, ordered by id.
func (r *Report) InstancesWithUseCases() []trace.Instance {
	seen := make(map[trace.InstanceID]trace.Instance)
	for _, u := range r.UseCases() {
		seen[u.Instance.ID] = u.Instance
	}
	out := make([]trace.Instance, 0, len(seen))
	for _, inst := range seen {
		out = append(out, inst)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Write renders the report in the paper's Table V layout: one block per use
// case with the class/method, position, data structure and use-case name,
// followed by the recommended action. textLen sizes the text without
// rendering it; the text is then rendered once into one buffer of exactly
// that size and handed to w in a single Write call. A bytes.Buffer
// destination is grown to that size and rendered into in place, so the text
// is allocated once.
func (r *Report) Write(w io.Writer) error {
	ss := r.SearchSpace()
	size := r.textLen(ss)
	var text []byte
	if buf, ok := w.(*bytes.Buffer); ok {
		buf.Grow(size)
		text = buf.AvailableBuffer()
	} else {
		text = make([]byte, 0, size)
	}
	text = r.appendText(text, ss)
	_, err := w.Write(text)
	return err
}

// appendText appends the report's text to b: the use-case blocks, the
// contention notes and the search-space line.
func (r *Report) appendText(b []byte, ss SearchSpace) []byte {
	n := 0
	for _, ir := range r.Instances {
		for k := range ir.UseCases {
			n++
			b = appendUseCase(b, n, &ir.UseCases[k])
		}
	}
	if n == 0 {
		return append(b, noUseCases...)
	}
	for _, ir := range r.Instances {
		if ir.Shared.Contended() {
			b = appendContention(b, ir)
		}
	}
	return appendSearchSpace(b, ss)
}

// textLen is the length of the text appendText renders, walked the same way
// without rendering: string lengths and digit counts, with the rarer
// confidence lines, contention notes and labels that need escaping
// formatted into a stack scratch. render_test.go holds it to Write's
// output.
func (r *Report) textLen(ss SearchSpace) int {
	size, n := 0, 0
	for _, ir := range r.Instances {
		for k := range ir.UseCases {
			n++
			size += useCaseLen(n, &ir.UseCases[k])
		}
	}
	if n == 0 {
		return len(noUseCases)
	}
	var scratch [512]byte
	for _, ir := range r.Instances {
		if ir.Shared.Contended() {
			size += len(appendContention(scratch[:0], ir))
		}
	}
	return size + len(appendSearchSpace(scratch[:0], ss))
}

const noUseCases = "No use cases detected.\n"

// The fixed parts of a use-case block, shared by the renderer and
// useCaseLen.
const (
	ucHead      = "Use Case "
	ucFunction  = "\n  Function:       "
	ucPosition  = "\n  Position:       "
	ucData      = "\n  Data structure: "
	ucKind      = "\n  Use Case:       "
	ucEvidence  = "\n  Evidence:       "
	ucRecommend = "\n  Recommendation: "
)

// useCaseLen is the length of appendUseCase(nil, i, u).
func useCaseLen(i int, u *usecase.UseCase) int {
	site := &u.Instance.Site
	size := len(ucHead) + intLen(i) +
		len(ucFunction) + len(orUnknown(site.Function)) +
		len(ucPosition) + len(filepath.Base(orUnknown(site.File))) + 1 + intLen(site.Line) +
		len(ucData) + instanceNameLen(u.Instance.TypeName, u.Instance.Label) +
		len(ucKind) + len(u.Kind.String()) +
		len(ucEvidence) + len(u.Evidence) +
		len(ucRecommend) + len(u.Recommendation) + 2
	if u.Bound > 0 {
		var scratch [64]byte
		size += len(appendConfidence(scratch[:0], u))
	}
	return size
}

// appendUseCase renders use case number i as one Table V block.
func appendUseCase(b []byte, i int, u *usecase.UseCase) []byte {
	site := &u.Instance.Site
	b = append(b, ucHead...)
	b = appendInt(b, i)
	b = append(b, ucFunction...)
	b = append(b, orUnknown(site.Function)...)
	b = append(b, ucPosition...)
	b = append(b, filepath.Base(orUnknown(site.File))...)
	b = append(b, ':')
	b = appendInt(b, site.Line)
	b = append(b, ucData...)
	b = appendInstanceName(b, u.Instance.TypeName, u.Instance.Label)
	b = append(b, ucKind...)
	b = append(b, u.Kind.String()...)
	b = append(b, ucEvidence...)
	b = append(b, u.Evidence...)
	b = append(b, ucRecommend...)
	b = append(b, u.Recommendation...)
	b = append(b, '\n')
	// Only lossy streams print a confidence line: a full-fidelity detection
	// is exact, and its block stays byte-identical.
	if u.Bound > 0 {
		b = appendConfidence(b, u)
	}
	return append(b, '\n')
}

// appendConfidence renders the confidence line of a sampled detection.
func appendConfidence(b []byte, u *usecase.UseCase) []byte {
	b = append(b, "  Confidence:     "...)
	b = strconv.AppendFloat(b, 100*u.Confidence(), 'f', 1, 64)
	b = append(b, "% (sampling error bound "...)
	b = strconv.AppendFloat(b, u.Bound, 'f', 4, 64)
	return append(b, ")\n"...)
}

// appendContention renders the note on a contended instance, plus its
// contention figures when the cross-thread summary saw a writer episode.
func appendContention(b []byte, ir *InstanceResult) []byte {
	b = append(b, "Note: "...)
	b = appendInstanceName(b, ir.Profile.Instance.TypeName, ir.Profile.Instance.Label)
	b = append(b, " is accessed by "...)
	b = appendInt(b, ir.Shared.Threads)
	b = append(b, " threads including "...)
	b = appendInt(b, ir.Shared.WritingThreads)
	b = append(b, " writer(s); any parallelization must use a synchronized container.\n"...)
	ct := ir.Contention
	if !ct.Contended() {
		return b
	}
	b = append(b, "  Contention: "...)
	b = appendInt(b, ct.Episodes)
	b = append(b, " episode(s) cover "...)
	b = appendInt(b, ct.EpisodeEvents)
	b = append(b, " of "...)
	b = appendInt(b, ct.Total)
	b = append(b, " events (longest "...)
	b = appendInt(b, ct.MaxEpisode)
	b = append(b, ", "...)
	b = appendInt(b, ct.WriterEpisodes)
	b = append(b, " with writes); "...)
	b = appendInt(b, ct.ReadPhases)
	b = append(b, " read / "...)
	b = appendInt(b, ct.WritePhases)
	b = append(b, " write phase(s); "...)
	b = appendInt(b, ct.ConcurrentPairs)
	b = append(b, " of "...)
	b = appendInt(b, ct.ConcurrentPairs+ct.OrderedPairs)
	return append(b, " thread pair(s) potentially concurrent.\n"...)
}

// appendSearchSpace renders the closing search-space line.
func appendSearchSpace(b []byte, ss SearchSpace) []byte {
	b = append(b, "Search space: "...)
	b = appendInt(b, ss.Flagged)
	b = append(b, " of "...)
	b = appendInt(b, ss.Total)
	b = append(b, " list/array instances remain (reduction "...)
	b = strconv.AppendFloat(b, 100*ss.Reduction(), 'f', 2, 64)
	return append(b, "%).\n"...)
}

func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// intLen is the length of appendInt(nil, v).
func intLen(v int) int {
	n := 1
	if v < 0 {
		n++
	}
	for v >= 10 || v <= -10 {
		v /= 10
		n++
	}
	return n
}

// appendInstanceName renders a data structure as its type name followed,
// when it has a label, by the label quoted Go-style in parentheses.
func appendInstanceName(b []byte, typeName, label string) []byte {
	b = append(b, typeName...)
	if label == "" {
		return b
	}
	b = append(b, " ("...)
	b = appendQuoted(b, label)
	return append(b, ')')
}

// instanceNameLen is the length of appendInstanceName(nil, typeName, label).
func instanceNameLen(typeName, label string) int {
	if label == "" {
		return len(typeName)
	}
	if !plainLabel(label) {
		var scratch [64]byte
		return len(typeName) + 3 + len(strconv.AppendQuote(scratch[:0], label))
	}
	return len(typeName) + 3 + len(label) + 2
}

// appendQuoted is strconv.AppendQuote with a fast path for the usual label:
// printable ASCII with nothing to escape quotes as itself.
func appendQuoted(b []byte, s string) []byte {
	if !plainLabel(s) {
		return strconv.AppendQuote(b, s)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// plainLabel reports whether s is printable ASCII with nothing to escape, so
// it quotes as itself.
func plainLabel(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

func orUnknown(s string) string {
	if s == "" {
		return "<unknown>"
	}
	return s
}
