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
	"fmt"
	"io"
	"path/filepath"
	"sort"

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
// read Profile.Events. The folded statistics and contention summary carry
// over unchanged; instances without events in the slice keep their profile.
func (r *Report) AttachEvents(s *trace.Session, events []trace.Event) {
	byID := make(map[trace.InstanceID]*profile.Profile)
	for _, p := range profile.Build(s, events) {
		byID[p.Instance.ID] = p
	}
	for _, ir := range r.Instances {
		p := byID[ir.Profile.Instance.ID]
		if p == nil {
			continue
		}
		p.PrimeStats(ir.Profile.Stats())
		if ir.Contention != nil {
			p.PrimeContention(ir.Contention)
		}
		ir.Profile = p
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
	for _, u := range r.UseCases() {
		ss.Referred++
		switch u.Instance.Kind {
		case trace.KindList, trace.KindArray, trace.KindLinkedList, trace.KindSortedList:
			// Only linear instances are part of the paper's list/array
			// search space; contention findings on dictionaries don't
			// shrink (or inflate) it.
			flagged[u.Instance.ID] = true
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
	for _, ir := range r.Instances {
		kept := ir.UseCases[:0]
		for _, u := range ir.UseCases {
			if u.Confidence() >= min {
				kept = append(kept, u)
			} else {
				dropped++
			}
		}
		ir.UseCases = kept
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
// followed by the recommended action.
func (r *Report) Write(w io.Writer) error {
	ucs := r.UseCases()
	if len(ucs) == 0 {
		_, err := fmt.Fprintln(w, "No use cases detected.")
		return err
	}
	for i, u := range ucs {
		site := u.Instance.Site
		if _, err := fmt.Fprintf(w,
			"Use Case %d\n  Function:       %s\n  Position:       %s:%d\n  Data structure: %s%s\n  Use Case:       %s\n  Evidence:       %s\n  Recommendation: %s\n",
			i+1,
			orUnknown(site.Function),
			filepath.Base(orUnknown(site.File)), site.Line,
			u.Instance.TypeName, labelSuffix(u.Instance.Label),
			u.Kind,
			u.Evidence,
			u.Recommendation,
		); err != nil {
			return err
		}
		// Only lossy streams print a confidence line: a full-fidelity
		// detection is exact, and its block stays byte-identical.
		if u.Bound > 0 {
			if _, err := fmt.Fprintf(w,
				"  Confidence:     %.1f%% (sampling error bound %.4f)\n",
				100*u.Confidence(), u.Bound); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, ir := range r.Instances {
		if ir.Shared.Contended() {
			if _, err := fmt.Fprintf(w,
				"Note: %s%s is accessed by %d threads including %d writer(s); any parallelization must use a synchronized container.\n",
				ir.Profile.Instance.TypeName, labelSuffix(ir.Profile.Instance.Label),
				ir.Shared.Threads, ir.Shared.WritingThreads); err != nil {
				return err
			}
			if ct := ir.Contention; ct.Contended() {
				if _, err := fmt.Fprintf(w,
					"  Contention: %d episode(s) cover %d of %d events (longest %d, %d with writes); %d read / %d write phase(s); %d of %d thread pair(s) potentially concurrent.\n",
					ct.Episodes, ct.EpisodeEvents, ct.Total, ct.MaxEpisode, ct.WriterEpisodes,
					ct.ReadPhases, ct.WritePhases,
					ct.ConcurrentPairs, ct.ConcurrentPairs+ct.OrderedPairs); err != nil {
					return err
				}
			}
		}
	}
	ss := r.SearchSpace()
	_, err := fmt.Fprintf(w, "Search space: %d of %d list/array instances remain (reduction %.2f%%).\n",
		ss.Flagged, ss.Total, 100*ss.Reduction())
	return err
}

func orUnknown(s string) string {
	if s == "" {
		return "<unknown>"
	}
	return s
}

func labelSuffix(label string) string {
	if label == "" {
		return ""
	}
	return fmt.Sprintf(" (%q)", label)
}
