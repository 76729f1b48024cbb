// Online reducers: the per-instance analysis state as fold operations over
// single events, so one pass over the stream — during execution, not after it
// — produces the figures a pass over a retained trace would. StreamStats
// folds events into Stats; StreamSegmenter is the run segmentation of
// runs.go re-expressed as a state machine that emits each maximal run the
// moment the next event closes it, holding only the open run. The analyzer
// folds column batches through the FoldBatch/FeedRuns kernels; the per-event
// forms (Fold, Feed) are the reference the columnar fuzz differential holds
// them to.
package profile

import "dsspy/internal/trace"

// StreamStats incrementally computes a profile's Stats. Fold each event as it
// arrives; Snapshot at any time yields exactly the Stats a batch pass over
// the same events would produce. State is O(1) plus one small set per
// distinct thread id.
//
// Every figure except FinalSize is order-insensitive; FinalSize tracks the
// event with the highest sequence number, so folding a slightly reordered
// stream (concurrent producers racing between sequence assignment and
// delivery) still lands on the batch answer.
type StreamStats struct {
	st      Stats
	threads threadSet
	writers threadSet
	readers threadSet
	lastSeq uint64
}

// Fold adds one event.
func (ss *StreamStats) Fold(e trace.Event) {
	st := &ss.st
	if st.Total == 0 {
		st.MaxIndex = -1
	}
	st.Total++
	if int(e.Op) < len(st.ByOp) {
		st.ByOp[e.Op]++
	}
	if e.Op.IsRead() {
		st.ReadLike++
	}
	if e.Op.IsWrite() {
		st.WriteLike++
		ss.writers.add(e.Thread)
	} else {
		ss.readers.add(e.Thread)
	}
	if e.Size > st.MaxSize {
		st.MaxSize = e.Size
	}
	if e.Seq >= ss.lastSeq {
		ss.lastSeq = e.Seq
		st.FinalSize = e.Size
	}
	ss.threads.add(e.Thread)
	if e.Index >= 0 {
		st.IndexedOps++
		if e.Index > st.MaxIndex {
			st.MaxIndex = e.Index
		}
		if e.Index <= endTolerance {
			st.FrontHits++
		}
		// The back end moves with the structure: an access is a back hit if
		// it lands at the last occupied position at that moment.
		if e.Size > 0 && e.Index >= e.Size-1-endTolerance {
			st.BackHits++
		} else if e.Op == trace.OpInsert && e.Index == max(0, e.Size-1) {
			st.BackHits++
		}
	}
}

// FoldBatch folds events [i, j) of a column batch — exactly Fold applied per
// event, but walking the columns in one tight loop so a batch arriving from
// the columnar drain or a v3 replay never inflates to Event structs. The
// fuzz differential (FuzzColumnarFoldDifferential) holds the two forms equal.
func (ss *StreamStats) FoldBatch(b *trace.ColumnBatch, i, j int) {
	st := &ss.st
	seqs := b.Seq[i:j]
	ops := b.Op[i:j]
	threads := b.Thread[i:j]
	idxs := b.Index[i:j]
	sizes := b.Size[i:j]
	for k := range seqs {
		if st.Total == 0 {
			st.MaxIndex = -1
		}
		op, idx, size := ops[k], idxs[k], sizes[k]
		st.Total++
		if int(op) < len(st.ByOp) {
			st.ByOp[op]++
		}
		if op.IsRead() {
			st.ReadLike++
		}
		if op.IsWrite() {
			st.WriteLike++
			ss.writers.add(threads[k])
		} else {
			ss.readers.add(threads[k])
		}
		if size > st.MaxSize {
			st.MaxSize = size
		}
		if s := seqs[k]; s >= ss.lastSeq {
			ss.lastSeq = s
			st.FinalSize = size
		}
		ss.threads.add(threads[k])
		if idx >= 0 {
			st.IndexedOps++
			if idx > st.MaxIndex {
				st.MaxIndex = idx
			}
			if idx <= endTolerance {
				st.FrontHits++
			}
			// The back end moves with the structure: an access is a back hit
			// if it lands at the last occupied position at that moment.
			if size > 0 && idx >= size-1-endTolerance {
				st.BackHits++
			} else if op == trace.OpInsert && idx == max(0, size-1) {
				st.BackHits++
			}
		}
	}
}

// Events returns the number of events folded so far.
func (ss *StreamStats) Events() int { return ss.st.Total }

// Snapshot returns the aggregate figures over everything folded so far.
func (ss *StreamStats) Snapshot() *Stats {
	st := ss.st
	if st.Total == 0 {
		st.MaxIndex = -1
	}
	st.Threads = len(ss.threads)
	st.WriterIDs = len(ss.writers)
	st.ReaderIDs = len(ss.readers)
	return &st
}

// Clone returns an independent copy, used by snapshot-at-any-time readers.
func (ss *StreamStats) Clone() *StreamStats {
	out := &StreamStats{st: ss.st, lastSeq: ss.lastSeq}
	out.threads = append(threadSet(nil), ss.threads...)
	out.writers = append(threadSet(nil), ss.writers...)
	out.readers = append(threadSet(nil), ss.readers...)
	return out
}

// StreamSegmenter is run segmentation as a state machine: Feed returns the
// run an event closes (if any), Finish flushes the still-open run. Start/End
// are ordinals in feed order.
//
// Events with the same access type merge into one run as long as their
// positions keep a consistent direction (within MaxStep). Whole-structure
// operations (Clear, Sort, ...) each form a run of their own kind, merged
// when repeated back-to-back. Insert and Delete runs additionally track
// whether every event hit the front or the back, because those streams have
// constant positions rather than directions.
//
// The machine only ever reads the previous event's index, so that is all it
// keeps of it: Feed and the columnar FeedRuns share one state and may be
// mixed freely.
type StreamSegmenter struct {
	opts    SegmentOptions
	open    bool
	run     Run
	prevIdx int // Index of the last event folded
	next    int // ordinal assigned to the next event
}

// NewStreamSegmenter returns a segmenter with the given options.
func NewStreamSegmenter(opts SegmentOptions) *StreamSegmenter {
	if opts.MaxStep < 1 {
		opts.MaxStep = 1
	}
	return &StreamSegmenter{opts: opts}
}

// Feed folds one event. When the event cannot extend the open run, that run
// is returned closed and the event starts a new one.
func (g *StreamSegmenter) Feed(e trace.Event) (closed Run, ok bool) {
	g.step(e.Op, e.Index, e.Size, func(r *Run) { closed, ok = *r, true })
	return closed, ok
}

// FeedRuns folds events [i, j) of a column batch, lending every run a fold
// closes to emit. It is the native columnar form of Feed, walking the
// Op/Index/Size columns instead of gathering Event structs.
//
// Borrow contract: the *Run is the segmenter's own open-run slot, valid only
// during the callback — the next event overwrites it. A callee that keeps
// the run must copy it. The fuzz differential (FuzzColumnarFoldDifferential)
// holds FeedRuns and Feed equal.
func (g *StreamSegmenter) FeedRuns(b *trace.ColumnBatch, i, j int, emit func(*Run)) {
	ops, idxs, sizes := b.Op[i:j], b.Index[i:j], b.Size[i:j]
	for k := range ops {
		g.step(ops[k], idxs[k], sizes[k], emit)
	}
}

// FeedBatch is FeedRuns for callers that want each closed run by value.
func (g *StreamSegmenter) FeedBatch(b *trace.ColumnBatch, i, j int, emit func(Run)) {
	g.FeedRuns(b, i, j, func(r *Run) { emit(*r) })
}

// step folds one event given as scalars: the single implementation of the
// state machine behind Feed and FeedRuns.
func (g *StreamSegmenter) step(op trace.Op, idx, size int, emit func(*Run)) {
	r := &g.run
	if g.open && extendsRun(r, g.opts, g.prevIdx, op, idx, size) {
		absorbRun(r, g.prevIdx, idx, size)
		r.End = g.next
	} else {
		if g.open {
			emit(r)
		}
		startRunAt(r, op, idx, size, g.next)
		g.open = true
	}
	g.prevIdx = idx
	g.next++
}

// isBack reports whether an access targets the current back end of the
// structure. For deletions the size has already shrunk, so the old back is
// at the new size.
func isBack(op trace.Op, idx, size int) bool {
	if op == trace.OpDelete {
		return idx >= size
	}
	return size > 0 && idx >= size-1
}

// startRunAt begins, in place, a run whose first event has ordinal i. It
// clears the slot and sets fields one by one: assigning a composite literal
// would build the 80-byte run on the stack and copy it per closed run.
func startRunAt(r *Run, op trace.Op, idx, size, i int) {
	*r = Run{}
	r.Op = op
	r.Start, r.End = i, i
	r.FirstIndex, r.LastIndex, r.MinIndex, r.MaxIndex = idx, idx, idx, idx
	r.MaxSeenSize = size
	if idx >= 0 {
		r.AllFront = idx == 0
		r.AllBack = isBack(op, idx, size)
		r.StrictlyUp = true
		r.StrictlyDown = true
	}
}

// extendsRun reports whether an access (preceded by one at prevIdx) can
// continue the run.
func extendsRun(r *Run, opts SegmentOptions, prevIdx int, op trace.Op, idx, size int) bool {
	if op != r.Op {
		return false
	}
	// Whole-structure operations merge unconditionally.
	if idx < 0 || prevIdx < 0 {
		return idx < 0 && prevIdx < 0
	}
	// Insert/Delete streams extend while they stay consistent with at least
	// one end or strict direction, so a front-deletion phase and a following
	// back-deletion phase become two runs, each classifiable.
	if op == trace.OpInsert || op == trace.OpDelete {
		return (r.AllFront && idx == 0) ||
			(r.AllBack && isBack(op, idx, size)) ||
			(r.StrictlyUp && idx == prevIdx+1) ||
			(r.StrictlyDown && idx == prevIdx-1)
	}
	dir := stepDirection(idx-prevIdx, opts)
	if dir == DirNone {
		return false
	}
	switch r.Direction {
	case DirNone:
		return true // second event fixes the direction
	case DirStationary:
		return dir == DirStationary
	default:
		return dir == r.Direction || (dir == DirStationary && opts.AllowRepeat)
	}
}

// absorbRun folds an access (preceded by one at prevIdx) into the run.
func absorbRun(r *Run, prevIdx, idx, size int) {
	if idx >= 0 {
		if r.Direction == DirNone && prevIdx >= 0 {
			switch {
			case idx > prevIdx:
				r.Direction = DirForward
			case idx < prevIdx:
				r.Direction = DirBackward
			default:
				r.Direction = DirStationary
			}
		}
		r.LastIndex = idx
		if idx < r.MinIndex {
			r.MinIndex = idx
		}
		if idx > r.MaxIndex {
			r.MaxIndex = idx
		}
		r.AllFront = r.AllFront && idx == 0
		r.AllBack = r.AllBack && isBack(r.Op, idx, size)
		if prevIdx >= 0 {
			r.StrictlyUp = r.StrictlyUp && idx == prevIdx+1
			r.StrictlyDown = r.StrictlyDown && idx == prevIdx-1
		}
	}
	if size > r.MaxSeenSize {
		r.MaxSeenSize = size
	}
}

// Finish closes and returns the open run, if any. The segmenter is reset and
// can keep folding afterwards (the next event starts a fresh run).
func (g *StreamSegmenter) Finish() (Run, bool) {
	if !g.open {
		return Run{}, false
	}
	g.open = false
	return g.run, true
}

// Open reports whether a run is currently open (state held, not yet emitted).
func (g *StreamSegmenter) Open() bool { return g.open }

// Clone returns an independent copy of the segmenter state.
func (g *StreamSegmenter) Clone() *StreamSegmenter {
	out := *g
	return &out
}

// NewStreamed returns an event-free profile standing in for n streamed
// events: the stream pipeline retains aggregate state instead of the trace,
// so Len and Stats answer from the folded figures while Events stays nil.
func NewStreamed(inst trace.Instance, n int, st *Stats) *Profile {
	return &Profile{Instance: inst, streamed: n, stats: st}
}

// PrimeStats installs precomputed aggregate figures so later Stats calls do
// not refold the events. The caller asserts st was computed over exactly
// p.Events.
func (p *Profile) PrimeStats(st *Stats) { p.stats = st }
