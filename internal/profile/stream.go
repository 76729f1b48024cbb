// Online reducers: the per-instance analysis state as fold operations over
// single events, so one pass over the stream — during execution, not after it
// — produces the figures a pass over a retained trace would. StreamStats
// folds events into Stats; StreamSegmenter is the run segmentation of
// runs.go re-expressed as a state machine that emits each maximal run the
// moment the next event closes it, holding only the open run. The analyzer
// folds each thread run of a column batch through FoldRun, one pass for
// stats, contention and segmenter together; the per-event forms (Fold,
// Feed) are the reference the columnar fuzz differential holds it to.
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
	lastSeq uint64 // highest Seq folded
	ooo     uint64 // events folded below lastSeq
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
	} else {
		ss.ooo++
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

// FoldBatch folds events [i, j) of a column batch through Fold, one event at
// a time: the reference form, timed alone. The analyzer folds stats in
// FoldRun's pass.
func (ss *StreamStats) FoldBatch(b *trace.ColumnBatch, i, j int) {
	for k := i; k < j; k++ {
		ss.Fold(b.At(k))
	}
}

// OutOfOrder returns the number of events folded with a Seq below one folded
// before them.
func (ss *StreamStats) OutOfOrder() uint64 { return ss.ooo }

// maxSpan bounds the events one FoldRun or Segment call folds, so a Span's
// close log stays small and its packed op counts cannot overflow.
const maxSpan = 4096

// opCounts packs what one event of each op adds to a span's op counts, 16
// bits each: read-like, write-like, insert and delete events. Ops outside
// the defined range add nothing. writeCounts masks the write-like field.
var opCounts = func() (t [256]uint64) {
	for i := range t {
		op := trace.Op(i)
		if op.IsRead() {
			t[i] |= 1
		}
		if op.IsWrite() {
			t[i] |= 1 << 16
		}
		switch op {
		case trace.OpInsert:
			t[i] |= 1 << 32
		case trace.OpDelete:
			t[i] |= 1 << 48
		}
	}
	return t
}()

const writeCounts = 0xffff << 16

// Span is what one FoldRun or Segment pass leaves for the layers above
// profile, which the pass cannot call into: the end counts the use-case
// reducer folds, and the runs the segmenter closed, in close order. Each
// pass resets it, so one Span serves any number of passes.
type Span struct {
	Ends EndCounts
	// Closes holds the op and length of every run the pass closed.
	Closes []RunClose
	// Runs holds a copy of each closed run of at least the pass's minLen
	// events — the runs the pattern detector classifies. A shorter run,
	// a one-event run above all, is only a RunClose: it was never built.
	Runs []Run
}

func (sp *Span) reset() {
	sp.Ends = EndCounts{}
	sp.Closes = sp.Closes[:0]
	sp.Runs = sp.Runs[:0]
}

// closed logs the run seg just closed, n events of op; seg.run holds it
// when n > 1.
func (sp *Span) closed(seg *StreamSegmenter, op trace.Op, n, minLen int) {
	sp.Closes = append(sp.Closes, RunClose{Op: op, Len: n})
	if n >= minLen {
		sp.Runs = append(sp.Runs, seg.run)
	}
}

// RunClose is a closed run as the use-case run stream reads it.
type RunClose struct {
	Op  trace.Op
	Len int
}

// EndCounts counts a span's indexed Insert, Delete and Read events by the
// end of the structure they hit, exactly: the figures the use-case queue
// and stack detectors fold.
type EndCounts struct {
	InsFront, InsBack, InsEmpty int // InsBack: back, not front; InsEmpty: front, size ≤ 1
	DelFront, DelBack, DelEmpty int // DelBack: back, not front; DelEmpty: front, size 0
	ReadFront, ReadBack         int // ReadBack: back, not front
}

// FoldRun folds a prefix of events [k, e) of a column batch — one thread's
// run within one instance's span, every event on thread b.Thread[k] — into
// the instance's stats and contention reducers and the thread's segmenter,
// in one pass over the columns, and returns the end of the prefix: at most
// maxSpan events. sp receives the pass's end counts and the runs it closed;
// runs of minLen (at least 2) or more events are copied whole. The result
// is exactly that of the reducers' per-event forms over the same events,
// which the columnar fuzz differential checks.
//
// What the events of a thread run share is taken once per run: the thread
// sets, the contention window, the thread-switch test. The window's and the
// stats' op-class figures come from per-run op counts.
func FoldRun(b *trace.ColumnBatch, k, e int, ss *StreamStats, ct *StreamContention, seg *StreamSegmenter, minLen int, sp *Span) int {
	e = min(e, k+maxSpan)
	minLen = max(minLen, 2)
	sp.reset()
	seqs, ops, idxs, sizes := b.Seq[k:e], b.Op[k:e], b.Index[k:e], b.Size[k:e]
	thr := b.Thread[k]
	st := &ss.st
	if st.Total == 0 {
		st.MaxIndex = -1
	}
	ct.enter(thr, ops[0].IsWrite())

	// The figures the loop updates per event live in locals, stored back
	// once after it.
	var ends EndCounts
	var counts uint64
	ooo, lastSeq, finalSize, maxSize := ss.ooo, ss.lastSeq, st.FinalSize, st.MaxSize
	indexed, maxIndex, frontHits, backHits := st.IndexedOps, st.MaxIndex, st.FrontHits, st.BackHits
	for x, op := range ops {
		idx, size := idxs[x], sizes[x]
		c := opCounts[op]
		counts += c
		if int(op) < len(st.ByOp) {
			st.ByOp[op]++
		}
		maxSize = max(maxSize, size)
		if s := seqs[x]; s >= lastSeq {
			lastSeq, finalSize = s, size
		} else {
			ooo++
		}
		if idx >= 0 {
			indexed++
			maxIndex = max(maxIndex, idx)
			if idx <= endTolerance {
				frontHits++
			}
			if size > 0 && idx >= size-1-endTolerance {
				backHits++
			} else if op == trace.OpInsert && idx == max(0, size-1) {
				backHits++
			}
			front := idx == 0
			switch op {
			case trace.OpInsert:
				if front {
					ends.InsFront++
					if size <= 1 {
						ends.InsEmpty++
					}
				} else if size > 0 && idx >= size-1 {
					ends.InsBack++
				}
			case trace.OpDelete:
				if front {
					ends.DelFront++
					if size == 0 {
						ends.DelEmpty++
					}
				} else if idx >= size {
					ends.DelBack++
				}
			case trace.OpRead:
				if front {
					ends.ReadFront++
				} else if size > 0 && idx >= size-1 {
					ends.ReadBack++
				}
			}
		}

		ct.runStep(c&writeCounts != 0)

		if seg.one && op != seg.op1 {
			sp.Closes = append(sp.Closes, RunClose{Op: seg.restart(op, idx, size), Len: 1})
		} else if seg.extendsStep(op, idx) {
			seg.extend(idx, size)
		} else if cop, n := seg.step(op, idx, size); n > 0 {
			sp.closed(seg, cop, n, minLen)
		}
	}
	sp.Ends = ends
	st.FinalSize, st.MaxSize = finalSize, maxSize
	st.IndexedOps, st.MaxIndex, st.FrontHits, st.BackHits = indexed, maxIndex, frontHits, backHits

	m := len(ops)
	reads, writes := int(counts&0xffff), int(counts>>16&0xffff)
	ss.lastSeq = lastSeq
	st.Total += m
	st.ReadLike += reads
	st.WriteLike += writes
	ss.threads.add(thr)
	if writes > 0 {
		ss.writers.add(thr)
	}
	if writes < m {
		ss.readers.add(thr)
	}
	// Without an out-of-order event the run's Seqs never fall, so its first
	// and last events bound it.
	lo, hi := seqs[0], seqs[m-1]
	if ooo != ss.ooo {
		for _, s := range seqs {
			lo, hi = min(lo, s), max(hi, s)
		}
		ss.ooo = ooo
	}
	ct.leave(thr, m, lo, hi, counts)
	return e
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
// keeps of it. An open run of one event is held as scalars — its op and
// size, with prevIdx and next-1 — and the 80-byte Run is built only when a
// second event extends it: most runs of an interleaved access stream close
// after one event, and such a close costs a few stores. Every form — Feed,
// FeedRuns, FoldRun, Segment — shares one state and may be mixed freely.
type StreamSegmenter struct {
	opts  SegmentOptions
	open  bool
	one   bool // the open run is one event, held as op1 and size1; run is unbuilt
	op1   trace.Op
	size1 int
	// run is the open run once built. After it closes it stays here, for
	// the closer to read, until a later run's second event rebuilds it.
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

// step folds one event given as scalars — the single implementation of the
// state machine — and returns the op and length of the run the event
// closed, length 0 if none. A closed run of two or more events is left in
// g.run. FoldRun tests for the commonest close, a one-event run ended by an
// event of another op, and takes it inline (restart).
func (g *StreamSegmenter) step(op trace.Op, idx, size int) (trace.Op, int) {
	var cop trace.Op
	n := 0
	switch {
	case g.one:
		if op == g.op1 && extendsOne(g.opts, op, g.prevIdx, g.size1, idx, size) {
			g.build()
			g.extend(idx, size)
			return 0, 0
		}
		cop, n = g.op1, 1
	case g.open:
		if extendsRun(&g.run, g.opts, g.prevIdx, op, idx, size) {
			g.extend(idx, size)
			return 0, 0
		}
		cop, n = g.run.Op, g.run.Len()
	}
	g.open, g.one, g.op1, g.size1 = true, true, op, size
	g.prevIdx = idx
	g.next++
	return cop, n
}

// restart closes the held one-event run, returning its op, and holds the
// event in its place: step's path for a one-event run and an event of
// another op, cheap enough to inline.
func (g *StreamSegmenter) restart(op trace.Op, idx, size int) trace.Op {
	cop := g.op1
	g.op1, g.size1, g.prevIdx = op, size, idx
	g.next++
	return cop
}

// extendsStep reports whether an event continues the built open run by one
// position in the run's direction: the commonest extension, which FoldRun
// tests inline before step. It implies extendsRun.
func (g *StreamSegmenter) extendsStep(op trace.Op, idx int) bool {
	r := &g.run
	return g.open && !g.one && op == r.Op && op != trace.OpInsert && op != trace.OpDelete && g.prevIdx >= 0 &&
		(r.Direction == DirForward && idx == g.prevIdx+1 || r.Direction == DirBackward && idx == g.prevIdx-1 && idx >= 0)
}

// build turns the held one-event run into a Run.
func (g *StreamSegmenter) build() {
	startRunAt(&g.run, g.op1, g.prevIdx, g.size1, g.next-1)
	g.one = false
}

// extend absorbs an event into the built open run.
func (g *StreamSegmenter) extend(idx, size int) {
	absorbRun(&g.run, g.prevIdx, idx, size)
	g.run.End = g.next
	g.prevIdx = idx
	g.next++
}

// Feed folds one event. When the event cannot extend the open run, that run
// is returned closed and the event starts a new one.
func (g *StreamSegmenter) Feed(e trace.Event) (closed Run, ok bool) {
	if r := g.stepBuilt(e.Op, e.Index, e.Size, &closed); r != nil {
		return *r, true
	}
	return Run{}, false
}

// stepBuilt is step for the value forms: it returns the run the event
// closed, built in full — in scratch for a one-event run, else g.run — or
// nil.
func (g *StreamSegmenter) stepBuilt(op trace.Op, idx, size int, scratch *Run) *Run {
	op1, idx1, size1, start1 := g.op1, g.prevIdx, g.size1, g.next-1
	switch _, n := g.step(op, idx, size); n {
	case 0:
		return nil
	case 1:
		startRunAt(scratch, op1, idx1, size1, start1)
		return scratch
	}
	return &g.run
}

// FeedRuns folds events [i, j) of a column batch, lending every run a fold
// closes to emit, built in full.
//
// Borrow contract: the *Run is the segmenter's own slot, valid only during
// the callback — a later event overwrites it. A callee that keeps the run
// must copy it. The fuzz differential (FuzzColumnarFoldDifferential) holds
// FeedRuns and Feed equal.
func (g *StreamSegmenter) FeedRuns(b *trace.ColumnBatch, i, j int, emit func(*Run)) {
	var scratch Run
	ops, idxs, sizes := b.Op[i:j], b.Index[i:j], b.Size[i:j]
	for k := range ops {
		if r := g.stepBuilt(ops[k], idxs[k], sizes[k], &scratch); r != nil {
			emit(r)
		}
	}
}

// FeedBatch is FeedRuns for callers that want each closed run by value.
func (g *StreamSegmenter) FeedBatch(b *trace.ColumnBatch, i, j int, emit func(Run)) {
	g.FeedRuns(b, i, j, func(r *Run) { emit(*r) })
}

// Segment folds a prefix of events [i, j) of a column batch through the
// segmenter alone, logging every run it closes to sp as FoldRun does, and
// returns the end of the prefix: at most maxSpan events.
func (g *StreamSegmenter) Segment(b *trace.ColumnBatch, i, j, minLen int, sp *Span) int {
	j = min(j, i+maxSpan)
	minLen = max(minLen, 2)
	sp.reset()
	ops, idxs, sizes := b.Op[i:j], b.Index[i:j], b.Size[i:j]
	for k, op := range ops {
		if cop, n := g.step(op, idxs[k], sizes[k]); n > 0 {
			sp.closed(g, cop, n, minLen)
		}
	}
	return j
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

// extendsOne is extendsRun for a run of one event of op, at prevIdx on a
// structure of size1 — the run startRunAt would build from it.
func extendsOne(opts SegmentOptions, op trace.Op, prevIdx, size1, idx, size int) bool {
	if idx < 0 || prevIdx < 0 {
		return idx < 0 && prevIdx < 0
	}
	if op == trace.OpInsert || op == trace.OpDelete {
		return (prevIdx == 0 && idx == 0) ||
			(isBack(op, prevIdx, size1) && isBack(op, idx, size)) ||
			idx == prevIdx+1 || idx == prevIdx-1
	}
	return stepDirection(idx-prevIdx, opts) != DirNone
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
	if g.one {
		g.build()
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

// NewStreamed returns the profile of n streamed events: the stream pipeline
// retains aggregate state instead of the trace, so Len and Stats answer from
// the folded figures.
func NewStreamed(inst trace.Instance, n int, st *Stats) *Profile {
	return &Profile{Instance: inst, n: n, stats: st}
}
