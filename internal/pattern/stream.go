// StreamDetector: pattern detection as an online reducer. It drives a
// profile.StreamSegmenter over the event stream, classifies each run the
// moment it closes, and folds the classification into a Summary — so the only
// state between events is the open run plus O(patterns) aggregates. It is the
// only implementation of the paper's classification semantics: the analyzer
// runs one per thread of every instance, plus one over the interleaved stream
// for the regularity check.
//
// The analyzer drives a detector through FoldRun and Segment, which log the
// runs the segmenter closes in a profile.Span, and classifies each logged
// run of MinLen or more events once, into a Pattern record: the record, not
// the run, is what a keeping detector's pattern list retains and what the
// use-case reducer folds. A shorter run is never classified. The value
// forms — Feed, FeedBatch and Finish — are adapters over the same fold that
// return every closed run built in full.
package pattern

import (
	"dsspy/internal/profile"
	"dsspy/internal/trace"
)

// Closed is what the value-form adapters (Feed, FeedBatch, Finish) return
// when a run closes: a copy of the run plus its classification (None when
// the run is below MinLen or matches no type).
type Closed struct {
	Run  profile.Run
	Type Type
}

// StreamDetector incrementally detects patterns over a single ordered event
// stream (one instance, one thread — the analyzer keeps one per thread and
// merges their summaries in thread-id order).
type StreamDetector struct {
	cfg  Config
	seg  *profile.StreamSegmenter
	sum  Summary
	keep bool
}

// NewStreamDetector returns a detector with the given configuration. When
// keepPatterns is set the Summary retains the full pattern list (the report
// renders per-pattern rows); otherwise only aggregates are kept, which is
// what the regularity check needs.
func NewStreamDetector(cfg Config, keepPatterns bool) *StreamDetector {
	if cfg.MinLen < 2 {
		cfg.MinLen = 2
	}
	return &StreamDetector{
		cfg:  cfg,
		seg:  profile.NewStreamSegmenter(cfg.Segment),
		keep: keepPatterns,
	}
}

// Feed folds one event; when the event closes a run, the run and its
// classification are returned.
func (d *StreamDetector) Feed(e trace.Event) (Closed, bool) {
	r, ok := d.seg.Feed(e)
	if !ok {
		return Closed{}, false
	}
	return Closed{Run: r, Type: d.Fold(&r).Type}, true
}

// FeedBatch folds events [i, j) of a column batch, passing every closed run
// and its classification to emit by value.
func (d *StreamDetector) FeedBatch(b *trace.ColumnBatch, i, j int, emit func(Closed)) {
	d.seg.FeedRuns(b, i, j, func(r *profile.Run) { emit(Closed{Run: *r, Type: d.Fold(r).Type}) })
}

// FoldRun folds a prefix of one thread's run [k, e) of an instance's span
// through profile.FoldRun — the instance's stats and contention reducers
// and this detector's segmenter in one pass — classifies the runs the pass
// closed, and returns the end of the prefix and pats with the patterns
// found appended. sp receives what the pass leaves for the use-case layer.
func (d *StreamDetector) FoldRun(b *trace.ColumnBatch, k, e int, ss *profile.StreamStats, ct *profile.StreamContention, sp *profile.Span, pats []Pattern) (int, []Pattern) {
	k = profile.FoldRun(b, k, e, ss, ct, d.seg, d.cfg.MinLen, sp)
	for i := range sp.Runs {
		if p := d.Fold(&sp.Runs[i]); p.Type != None {
			pats = append(pats, p)
		}
	}
	return k, pats
}

// Segment folds a prefix of events [i, j) of a column batch through the
// detector's segmenter alone, classifies the runs it closed, and returns
// the end of the prefix. sp receives the closes, as FoldRun's pass leaves
// them.
func (d *StreamDetector) Segment(b *trace.ColumnBatch, i, j int, sp *profile.Span) int {
	i = d.seg.Segment(b, i, j, d.cfg.MinLen, sp)
	for k := range sp.Runs {
		d.Fold(&sp.Runs[k])
	}
	return i
}

// Fold classifies one closed run and folds it into the summary: the single
// implementation behind FoldRun, Segment and the value adapters. The record
// is listed only when the detector keeps its pattern list.
func (d *StreamDetector) Fold(r *profile.Run) Pattern {
	p := d.tally(r)
	if p.Type != None && d.keep {
		d.sum.Patterns = append(d.sum.Patterns, p)
	}
	return p
}

// tally classifies one closed run, records it when it is a pattern and folds
// the record's aggregates into the summary without listing it.
func (d *StreamDetector) tally(r *profile.Run) Pattern {
	if r.Len() < d.cfg.MinLen {
		return Pattern{}
	}
	t := Classify(r)
	if t == None {
		return Pattern{}
	}
	p := New(t, r)
	d.sum.add(&p)
	return p
}

// Finish flushes the still-open run, if any, classifying and folding it. The
// detector stays usable afterwards (the next Feed starts a fresh run).
func (d *StreamDetector) Finish() (Closed, bool) {
	r, ok := d.seg.Finish()
	if !ok {
		return Closed{}, false
	}
	return Closed{Run: r, Type: d.Fold(&r).Type}, true
}

// FinishMerged flushes every detector's open run, in the order given, lending
// each flushed run and its pattern record to emit, and returns the merged
// summary: Summary.Merge over the finished detectors' summaries in that
// order. The pattern list is built once, at its exact length, and the
// flushed runs go into it rather than into the detectors' own lists; a lone
// detector's list with nothing to add and no spare capacity is used as it
// is. So a detector's list is only ever read here, which is what lets a
// clone share it with the live detector (CloneAs). Afterwards each
// detector's summary counts its flushed run but does not list it.
func FinishMerged(dets []*StreamDetector, emit func(*profile.Run, Pattern)) *Summary {
	// tails[i] is detector i's flushed pattern; Type None when it had none.
	var tailBuf [4]Pattern
	tails := tailBuf[:0]
	sum := &Summary{}
	n := 0
	for _, d := range dets {
		var tail Pattern
		if r, ok := d.seg.Finish(); ok {
			p := d.tally(&r)
			emit(&r, p)
			if p.Type != None && d.keep {
				tail = p
				n++
			}
		}
		tails = append(tails, tail)
		n += len(d.sum.Patterns)
		sum.mergeCounts(&d.sum)
	}
	switch {
	case n == 0:
	case len(dets) == 1 && tails[0].Type == None && cap(dets[0].sum.Patterns) == n:
		// One list with nothing to add and no spare capacity — a clone's —
		// is taken as it is: sharing it pins nothing.
		sum.Patterns = dets[0].sum.Patterns
	default:
		sum.Patterns = make([]Pattern, 0, n)
		for i, d := range dets {
			sum.Patterns = append(sum.Patterns, d.sum.Patterns...)
			if tails[i].Type != None {
				sum.Patterns = append(sum.Patterns, tails[i])
			}
		}
	}
	return sum
}

// Open reports whether a run is currently held open.
func (d *StreamDetector) Open() bool { return d.seg.Open() }

// Summary returns the aggregates over everything folded so far. The returned
// value is a copy; the detector may keep folding.
func (d *StreamDetector) Summary() *Summary {
	s := d.sum
	return &s
}

// Clone returns an independent copy, used by snapshot-at-any-time readers.
func (d *StreamDetector) Clone() *StreamDetector { return d.CloneAs(d.keep) }

// CloneAs returns an independent copy that keeps its pattern list from now
// on only if keepPatterns is set; without it the copy starts with none. A
// non-keeping copy of a detector is exactly the detector a caller would hold
// had it fed the same events with keepPatterns unset.
//
// A keeping copy shares the pattern list instead of copying it: patterns
// are never rewritten once listed, and the copy's slice is cut at its
// length, so an append on either side never writes where the other reads.
func (d *StreamDetector) CloneAs(keepPatterns bool) *StreamDetector {
	out := &StreamDetector{cfg: d.cfg, seg: d.seg.Clone(), sum: d.sum, keep: keepPatterns}
	out.sum.Patterns = nil
	if keepPatterns {
		n := len(d.sum.Patterns)
		out.sum.Patterns = d.sum.Patterns[:n:n]
	}
	return out
}

// compoundOps are the whole-structure operations whose heavy recurrence
// counts as a regularity even without positional patterns.
var compoundOps = [...]trace.Op{
	trace.OpSearch, trace.OpSort, trace.OpForAll, trace.OpCopy, trace.OpResize,
}

// RegularityFrom decides regularity from already-computed aggregates: the
// interleaved stream's pattern summary and the instance statistics.
func RegularityFrom(sum *Summary, st *profile.Stats, rcfg RegularityConfig) bool {
	if rcfg.MinRepeats > 0 {
		for _, n := range sum.ByType {
			if n >= rcfg.MinRepeats {
				return true
			}
		}
	}
	if rcfg.MinLongRun > 0 && sum.LongestPattern >= rcfg.MinLongRun {
		return true
	}
	if rcfg.MinCompoundOps > 0 {
		for _, op := range compoundOps {
			if st.Count(op) >= rcfg.MinCompoundOps {
				return true
			}
		}
	}
	return false
}
