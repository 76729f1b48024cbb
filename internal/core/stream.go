package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"time"

	"dsspy/internal/metrics"
	"dsspy/internal/obs"
	"dsspy/internal/par"
	"dsspy/internal/pattern"
	"dsspy/internal/profile"
	"dsspy/internal/sample"
	"dsspy/internal/trace"
	"dsspy/internal/usecase"
)

// Streaming analysis: the per-instance reducers of profile, pattern and
// usecase wired into the collector's drain path, so the full report is
// computed during execution in O(instances) memory instead of post-mortem
// over a retained O(events) trace. This is the only analysis engine: Run
// drives it from a live collector, Analyze and replay from column batches,
// and the daemon from event slices.
//
// Ordering contract: a shard's drain goroutine delivers each producer
// goroutine's events in program order, so per-thread figures are always
// exact. Session.Emit assigns the sequence number and hands the event to the
// collector synchronously, a Session.Bind producer stamps and hands over its
// flushes in program order, and each shard has one channel, so whatever one
// goroutine sends — single events and flushes mixed — reaches the sink in
// Seq order. The global per-instance interleaving equals sequence order
// whenever same-instance access is serialized — which the unsynchronized
// containers require anyway — and violations are counted in
// StreamingStats.OutOfOrder rather than silently misfolded.

// instanceStream is the complete analysis state of one instance: stats
// reducer, per-thread pattern detectors, the global detector the regularity
// check reads, the default-options run stream the use-case layer consumes,
// and the use-case reducer itself. It is confined to one shard; no locks.
//
// Every event is segmented once per view that needs it, and a one-thread
// instance needs one: its only thread's stream is the interleaved stream, so
// the sole per-thread detector stands in for the global one until a second
// thread arrives (feedBatch, promote).
type instanceStream struct {
	id trace.InstanceID

	n int // events folded

	stats profile.StreamStats
	// ct folds the cross-thread contention figures (episodes, phases, the
	// happens-before window sketch). Scalar state plus one inline window:
	// single-threaded instances never allocate for it.
	ct profile.StreamContention
	// perThread holds one pattern detector per thread — the paper judges
	// successive accesses within one thread. Its closed runs feed the
	// use-case patterns; while global is nil, the one entry's closed runs
	// are also the use-case run stream (unless runSeg produces it).
	perThread map[trace.ThreadID]*pattern.StreamDetector
	// lastThr and lastDet cache the latest perThread lookup (detector).
	lastThr trace.ThreadID
	lastDet *pattern.StreamDetector
	// global segments the interleaved per-instance stream with the
	// configured options — what the regularity check summarizes. It is nil
	// while the instance has seen one thread; the first span bringing a
	// second thread promotes it (promote); regularitySummary reads whichever
	// detector stands for the interleaved stream.
	global *pattern.StreamDetector
	// runSeg produces the default-options run stream for the use-case layer.
	// It is nil when the configured segmentation already is default-options;
	// then the interleaved detector's closed runs are reused instead of
	// segmenting twice.
	runSeg *profile.StreamSegmenter
	uc     *usecase.Stream
	// smp, when the analyzer has a sampling controller, closes the
	// adaptive-sampling feedback loop for this instance (sampling.go).
	smp *sampleState
	// agg merges the lazy aggregates (trace.AggRecord) flushed for this
	// instance: sampled-out accesses that arrived summarized instead of
	// vanishing blindly. They feed the sampling row and its bound, never
	// the reducers — detectors keep a consistent kept-only event universe.
	agg trace.AggRecord
	// last is the row the latest snapshot built for this instance, over its
	// first lastN events. The next snapshot reuses it instead of cloning and
	// finalizing again while the instance has folded nothing since and is
	// still registered the same (reusable).
	last  *InstanceResult
	lastN int

	// The instance's range [groupAt, groupEnd) in a shard batch being
	// grouped by instance (groupFold); groupEnd is 0 between batches.
	groupAt, groupEnd int
}

func newInstanceStream(d *DSspy, id trace.InstanceID) *instanceStream {
	st := &instanceStream{
		id:        id,
		perThread: make(map[trace.ThreadID]*pattern.StreamDetector, 1),
		uc:        usecase.NewStream(d.cfg.Thresholds),
	}
	seg := d.cfg.Pattern.Segment
	if seg.MaxStep < 1 {
		seg.MaxStep = 1 // NewStreamSegmenter clamps the same way
	}
	if seg != profile.DefaultSegmentOptions() {
		st.runSeg = profile.NewStreamSegmenter(profile.DefaultSegmentOptions())
	}
	return st
}

// foldScratch is what a shard's fold reuses batch after batch: the span log
// of each pass, the patterns it found, and the instance run ends of a
// FeedShard batch (feedShard).
type foldScratch struct {
	span profile.Span
	pats []pattern.Pattern
	ends []int
}

// groupScratch is what grouping a batch by instance needs (groupFold).
type groupScratch struct {
	// grouped is the batch grouped by instance. It has no Instance column:
	// each instance's range is known to the fold.
	grouped trace.ColumnBatch
	order   []*instanceStream // the grouped batch's instances, in first-seen order
	runs    []*instanceStream // each instance run's reducer, in batch order
}

// groupPool recycles groupFold's scratch across shards and analyzers, so an
// analyzer that lives for one short run, as each app run of the Table IV
// harness does, does not allocate and clear a fresh copy per shard.
var groupPool = sync.Pool{New: func() any { return new(groupScratch) }}

// feedBatch folds events [i, j) of a column batch — one instance's span —
// through every reducer, walking the columns once per thread run: each run
// is one pattern.StreamDetector.FoldRun pass, which folds the stats and
// contention reducers and the thread's segmenter together, and the use-case
// reducer folds what the pass leaves in the span log — end counts, runs
// closed, patterns classified — without walking the columns itself. This is
// the only fold: FeedShard, FeedColumns and Feed (after scattering struct
// events onto columns) all land here. It folds identically to the reducers'
// per-event methods — every reducer is either order-insensitive or consumes
// its sub-stream (per-thread runs, global runs) in the same order either
// way — which the fuzz differential verifies.
func (st *instanceStream) feedBatch(d *DSspy, b *trace.ColumnBatch, i, j int, fs *foldScratch) {
	st.n += j - i

	// Promotion is decided for the whole span before any detector folds it,
	// so the global detector starts from the state just before the span.
	// The span keeps the instance single-threaded when its first thread run
	// is all of it and that thread is the one, if any, seen before.
	k, e := i, b.ThreadRun(i, j)
	det := st.detector(b.Thread[i])
	if st.global == nil && (e < j || det == nil && len(st.perThread) > 0) {
		st.promote(d)
	}
	// While the instance is single-threaded and segmented with the default
	// options, its thread's runs are also the use-case run stream.
	soloRuns := st.global == nil && st.runSeg == nil
	sp := &fs.span
	for {
		if det == nil {
			det = pattern.NewStreamDetector(d.cfg.Pattern, true)
			st.perThread[b.Thread[k]] = det
			st.lastThr, st.lastDet = b.Thread[k], det
		}
		for k < e {
			k, fs.pats = det.FoldRun(b, k, e, &st.stats, &st.ct, sp, fs.pats[:0])
			for _, p := range fs.pats {
				st.uc.Pattern(p)
			}
			st.uc.Ends(&sp.Ends)
			if soloRuns {
				st.uc.Runs(sp.Closes)
			}
		}
		if e == j {
			break
		}
		e = b.ThreadRun(k, j)
		det = st.detector(b.Thread[k])
	}

	if st.global != nil {
		for k := i; k < j; {
			k = st.global.Segment(b, k, j, sp)
			if st.runSeg == nil {
				st.uc.Runs(sp.Closes)
			}
		}
	}
	if st.runSeg != nil {
		for k := i; k < j; {
			k = st.runSeg.Segment(b, k, j, math.MaxInt, sp)
			st.uc.Runs(sp.Closes)
		}
	}

	if sp := st.smp; sp != nil {
		for _, idx := range b.Index[i:j] {
			sp.sketch.Fold(idx)
		}
		sp.tick(st, d)
	}
}

// detector returns thread thr's pattern detector, nil if it has none yet.
func (st *instanceStream) detector(thr trace.ThreadID) *pattern.StreamDetector {
	if st.lastDet != nil && st.lastThr == thr {
		return st.lastDet
	}
	det := st.perThread[thr]
	if det != nil {
		st.lastThr, st.lastDet = thr, det
	}
	return det
}

// promote starts the global detector when a second thread arrives. Until
// then the sole per-thread detector has segmented the interleaved stream
// itself — same events, same options, same ordinals — so a copy of it
// without the pattern list is exactly the state a global detector would
// hold. An instance whose first span is already multi-threaded starts from a
// fresh detector.
func (st *instanceStream) promote(d *DSspy) {
	for _, det := range st.perThread { // at most one entry
		st.global = det.CloneAs(false)
		return
	}
	st.global = pattern.NewStreamDetector(d.cfg.Pattern, false)
}

// regularitySummary is the summary of the interleaved per-instance stream,
// which the regularity check reads: global's, or that of the sole per-thread
// detector standing in for it.
func (st *instanceStream) regularitySummary() *pattern.Summary {
	det := st.global
	if det == nil {
		for _, solo := range st.perThread { // at most one entry
			det = solo
		}
	}
	if det == nil {
		return &pattern.Summary{}
	}
	return det.Summary()
}

// openRuns counts the runs currently held open across all segmenters. A
// one-thread instance holds one: its per-thread run is the global one.
func (st *instanceStream) openRuns() int {
	n := 0
	for _, det := range st.perThread {
		if det.Open() {
			n++
		}
	}
	if st.global != nil && st.global.Open() {
		n++
	}
	if st.runSeg != nil && st.runSeg.Open() {
		n++
	}
	return n
}

// clone returns an independent copy; Snapshot finalizes clones so the live
// reducers keep folding. The per-thread pattern lists are shared, not copied
// (StreamDetector.CloneAs): finalize only reads them.
func (st *instanceStream) clone() *instanceStream {
	out := &instanceStream{
		id:        st.id,
		n:         st.n,
		stats:     *st.stats.Clone(),
		ct:        *st.ct.Clone(),
		perThread: make(map[trace.ThreadID]*pattern.StreamDetector, len(st.perThread)),
		uc:        st.uc.Clone(),
		agg:       st.agg,
	}
	for tid, det := range st.perThread {
		out.perThread[tid] = det.Clone()
	}
	if st.global != nil {
		out.global = st.global.Clone()
	}
	if st.runSeg != nil {
		out.runSeg = st.runSeg.Clone()
	}
	if st.smp != nil {
		out.smp = st.smp.clone()
	}
	return out
}

// finalize flushes the open runs and applies the detectors, producing the
// instance's report row, named from the registry copy registered.
func (st *instanceStream) finalize(d *DSspy, registered []trace.Instance) *InstanceResult {
	// Flush per-thread detectors in ascending thread-id order and merge their
	// summaries, so the pattern list does not depend on map order.
	var tidBuf [4]trace.ThreadID
	tids := tidBuf[:0]
	for tid := range st.perThread {
		tids = append(tids, tid)
	}
	slices.Sort(tids)
	var detBuf [4]*pattern.StreamDetector
	dets := detBuf[:0]
	for _, tid := range tids {
		dets = append(dets, st.perThread[tid])
	}
	soloRuns := st.global == nil && st.runSeg == nil
	sum := pattern.FinishMerged(dets, func(r *profile.Run, p pattern.Pattern) {
		if p.Type != pattern.None {
			st.uc.Pattern(p)
		}
		if soloRuns {
			st.uc.Run(r.Op, r.Len())
		}
	})

	if st.global != nil {
		if c, ok := st.global.Finish(); ok && st.runSeg == nil {
			st.uc.Run(c.Run.Op, c.Run.Len())
		}
	}
	if st.runSeg != nil {
		if r, ok := st.runSeg.Finish(); ok {
			st.uc.Run(r.Op, r.Len())
		}
	}

	stats := st.stats.Snapshot()
	// The cross-thread summary exists only for instances more than one
	// thread touched.
	var ct *profile.Contention
	if stats.Threads > 1 {
		ct = st.ct.Snapshot()
	}
	inst := instanceAt(registered, st.id)
	p := profile.NewStreamed(inst, st.n, stats)
	res := &InstanceResult{
		Profile:    p,
		Summary:    sum,
		UseCases:   st.uc.Finish(inst, stats, ct),
		Regular:    pattern.RegularityFrom(st.regularitySummary(), stats, d.cfg.Regularity),
		Shared:     profile.SharedAccessOf(p),
		Contention: ct,
	}
	if st.smp != nil {
		st.smp.stamp(res, st.id, &st.agg)
	}
	return res
}

// streamShard owns the instance reducers of one collector shard. Events are
// partitioned by instance id, so one instance lives in exactly one shard and
// the mutex is only contended by snapshot readers — never by another shard's
// drain goroutine or fold worker.
type streamShard struct {
	a  *StreamAnalyzer
	mu sync.Mutex
	// slots holds the shard's reducers by slot, InstanceID / shards: a
	// session assigns ids densely from 1, so each shard's slots are dense
	// too. far holds, sorted by id, the reducers of ids whose slot lies past
	// slotLimit when they arrive, so that a corrupt or hostile log's huge
	// ids, which its registry does not hold, cannot make the shard allocate
	// by id.
	slots   []*instanceStream
	far     []*instanceStream
	streams int // reducers in slots and far
	folded  uint64
	// scratch is the fold's, used under mu.
	scratch foldScratch

	// The shard's fold queue, guarded by StreamAnalyzer.qmu: the batches
	// FeedColumns and Feed handed over, in hand-over order, from queue[next]
	// on. One worker goroutine (foldQueue) runs while it is non-empty; done
	// counts the batches it has folded.
	queue   []*trace.ColumnBatch
	next    int
	working bool
	done    uint64
}

// slotSlack bounds, with slotLimit, the slots a shard allocates.
const slotSlack = 1024

// slotLimit is the bound on the shard's slots: past the slot of the attached
// session's last registered id, or past twice the shard's reducers plus
// slotSlack when that is more. Every registered id's slot lies under it, even
// when the analyzer sees only a few of the instances — a daemon window after
// the first folds a tenant's newest ids, which may be far above 1 — while an
// id beyond the registry, and so past the bound, goes to far.
func (sh *streamShard) slotLimit() int {
	limit := 2*sh.streams + slotSlack
	if s := sh.a.session; s != nil {
		limit = max(limit, s.NumInstances()/len(sh.a.shards)+1)
	}
	return limit
}

// each calls f on every reducer of the shard.
func (sh *streamShard) each(f func(st *instanceStream)) {
	for _, st := range sh.slots {
		if st != nil {
			f(st)
		}
	}
	for _, st := range sh.far {
		f(st)
	}
}

// stream returns instance id's reducer, whose slot is slot, creating it when
// the instance is new. The fold loops inline its first step, slotted.
func (sh *streamShard) stream(id trace.InstanceID, slot int) *instanceStream {
	if st := sh.slotted(id, slot); st != nil {
		return st
	}
	return sh.streamSlow(id, slot)
}

// slotted returns the reducer in slot if it is instance id's, else nil.
func (sh *streamShard) slotted(id trace.InstanceID, slot int) *instanceStream {
	if slot < len(sh.slots) {
		if st := sh.slots[slot]; st != nil && st.id == id {
			return st
		}
	}
	return nil
}

// streamSlow is stream for an instance not in its slot: in far, or new. A
// slot holding another instance's reducer — only a caller that fed a shard
// instances of another shard can cause that — sends the instance to far.
func (sh *streamShard) streamSlow(id trace.InstanceID, slot int) *instanceStream {
	a := sh.a
	at, found := slices.BinarySearchFunc(sh.far, id, func(st *instanceStream, id trace.InstanceID) int {
		return cmp.Compare(st.id, id)
	})
	if found {
		return sh.far[at]
	}
	st := newInstanceStream(a.d, id)
	if a.ctrl != nil {
		st.smp = newSampleState(a.ctrl, a.session)
	}
	switch {
	case slot < len(sh.slots) && sh.slots[slot] == nil:
		sh.slots[slot] = st
	case slot >= len(sh.slots) && slot < sh.slotLimit():
		sh.slots = slices.Grow(sh.slots, slot+1-len(sh.slots))[:slot+1]
		sh.slots[slot] = st
	default:
		sh.far = slices.Insert(sh.far, at, st)
	}
	sh.streams++
	return st
}

// StreamAnalyzer computes reports incrementally from a live event stream. It
// plugs into the sharded collector's drain path (Collector / FeedShard), or
// consumes replayed and daemon streams via FeedColumns or Feed, which hand
// their batches to one fold worker goroutine per shard and return before the
// fold, so the caller decodes or scatters the next batch while the shards
// fold this one. Snapshot returns a consistent report at any time; Close
// flushes everything and returns the final report.
//
// Callers draining through a collector must close the collector first, so
// every delivered event has been folded before Close builds the report.
type StreamAnalyzer struct {
	d       *DSspy
	session *trace.Session
	shards  []*streamShard
	start   time.Time
	// ctrl, when set via SetSampling, is the adaptive sampling controller
	// gating the session; the analyzer closes its feedback loop
	// (sampling.go) and stamps finalized rows with bounds.
	ctrl *sample.Controller
	// slotMul is ⌈2⁶⁴/len(shards)⌉, 0 for one shard: slotOf divides by it.
	slotMul uint64

	// qmu guards handed, pieces and every shard's fold queue; qdone is
	// signalled each time a fold worker finishes a batch. Every handed-over
	// batch joins every shard's queue, so handed is each queue's total too.
	qmu    sync.Mutex
	qdone  sync.Cond
	handed uint64
	// pieces are Feed's scratch batches not yet back in feedPool, oldest
	// first, each with its hand-over number: the pieces in flight.
	pieces []feedPiece

	snapMu    sync.Mutex
	snapshots int
	snapNS    int64

	closeOnce sync.Once
	final     *Report
}

// NewStreamAnalyzer returns an analyzer with n shards (0 means GOMAXPROCS).
// When attached to a collector via Collector, the shard counts match by
// construction; FeedShard indices must stay below n.
func (d *DSspy) NewStreamAnalyzer(n int) *StreamAnalyzer {
	if n <= 0 {
		n = par.DefaultParallelism()
	}
	a := &StreamAnalyzer{d: d, shards: make([]*streamShard, n), start: time.Now()}
	if n > 1 {
		a.slotMul = math.MaxUint64/uint64(n) + 1
	}
	a.qdone.L = &a.qmu
	for i := range a.shards {
		a.shards[i] = &streamShard{a: a}
	}
	return a
}

// slotOf returns id's shard and its slot there: id % shards and id / shards,
// without a division — a multiply-high by ⌈2⁶⁴/shards⌉ is the exact
// quotient of every 32-bit id (Lemire, Kaser and Kurz, "Faster remainder by
// direct computation", 2019).
func (a *StreamAnalyzer) slotOf(id trace.InstanceID) (shard, slot int) {
	if a.slotMul == 0 {
		return 0, int(id)
	}
	q, _ := bits.Mul64(a.slotMul, uint64(id))
	return int(id) - int(q)*len(a.shards), int(q)
}

// Attach sets the session whose instance registry names the report's
// profiles and search space, and registers the analyzer as the session's
// aggregate sink so lazy per-instance aggregates (handle/producer fast
// paths) land in the instance reducers' sampling state.
func (a *StreamAnalyzer) Attach(s *trace.Session) {
	a.session = s
	if s != nil {
		s.SetAggregateSink(a)
	}
}

// FoldAggregate implements trace.AggregateSink: flushed per-instance
// aggregates are merged into the instance's stream state under its shard
// lock. Aggregates widen the sampling record and its bound only — they are
// deliberately not folded into the pattern/use-case reducers, which would
// otherwise mix summarized mass into thresholds tuned for exact events.
func (a *StreamAnalyzer) FoldAggregate(rec trace.AggRecord) {
	if rec.N == 0 {
		return
	}
	shard, slot := a.slotOf(rec.Instance)
	sh := a.shards[shard]
	sh.mu.Lock()
	sh.stream(rec.Instance, slot).agg.Merge(rec)
	sh.mu.Unlock()
}

// SetSampling wires the adaptive sampling controller that gates the attached
// session. Call before feeding (nil is a no-op and leaves analysis exact).
func (a *StreamAnalyzer) SetSampling(c *sample.Controller) { a.ctrl = c }

// Collector returns a sharded collector whose drain goroutines feed this
// analyzer. retainEvents keeps the per-shard event stores populated (for -log
// style post-mortem access) — pass false for bounded memory.
func (a *StreamAnalyzer) Collector(buf int, policy trace.OverloadPolicy, retainEvents bool) *trace.ShardedCollector {
	return trace.NewStreamingShardedCollector(len(a.shards), buf, policy, retainEvents, a.FeedShard)
}

// FeedShard folds one column batch belonging to the given shard. It is the
// trace.ShardSink the collector drains into: calls for one shard are
// serialized by the drain goroutine, calls for different shards run
// concurrently without sharing state. The batch is split into instance runs
// (cheap on the Instance column, and producer batches are usually one run),
// so a reducer is looked up once per run, not once per event; a batch of
// short runs is grouped by instance first (groupFold).
func (a *StreamAnalyzer) FeedShard(shard int, batch *trace.ColumnBatch) {
	a.feedShardCols(shard, batch, false)
}

// groupRunLen is the mean instance run length below which a FeedShard
// batch is grouped by instance before it is folded: with shorter runs the
// fold's per-visit work — the reducer lookup, the promotion check, a pass's
// set-up and close — costs more than copying the events once
// (EXPERIMENTS.md, "One pass per thread run", prices both).
const groupRunLen = 4

// feedShardCols folds a column batch into one shard: the whole batch, or,
// when own is set, only the instance runs whose instances map to the shard
// (a fold worker's share of a batch every shard's queue holds).
//
// Only a FeedShard batch at full fidelity may be grouped (feedShard).
// Grouping changes the order in which instances fold, never the order of one
// instance's events; a sampling controller sees the instances' windows in
// fold order, so a sampled fold keeps the batch's order. A fold worker's
// batch is the caller's whole batch — a replayed log may hand over all of it
// at once — of which the shard folds its own share as it walks it, so no
// scratch grows with the batch.
func (a *StreamAnalyzer) feedShardCols(shard int, b *trace.ColumnBatch, own bool) {
	sh := a.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !own && a.ctrl == nil {
		a.feedShard(sh, b)
		return
	}
	for i, n := 0, b.Len(); i < n; {
		j := b.InstanceRun(i, n)
		if home, slot := a.slotOf(b.Instance[i]); !own || home == shard {
			a.foldSpan(sh, b, i, j, slot)
		}
		i = j
	}
}

// feedShard folds a FeedShard batch at full fidelity: grouped by instance
// when its instance runs average under groupRunLen events, else in batch
// order. The run ends it lists grow with the collector's batches only.
func (a *StreamAnalyzer) feedShard(sh *streamShard, b *trace.ColumnBatch) {
	fs := &sh.scratch
	fs.ends = instanceRunEnds(b, fs.ends[:0])
	if len(fs.ends)*groupRunLen > b.Len() {
		a.groupFold(sh, b)
		return
	}
	i := 0
	for _, j := range fs.ends {
		_, slot := a.slotOf(b.Instance[i])
		a.foldSpan(sh, b, i, j, slot)
		i = j
	}
}

// foldSpan folds events [i, j) of b, one instance run, whose instance's slot
// is slot.
func (a *StreamAnalyzer) foldSpan(sh *streamShard, b *trace.ColumnBatch, i, j, slot int) {
	id := b.Instance[i]
	st := sh.slotted(id, slot)
	if st == nil {
		st = sh.streamSlow(id, slot)
	}
	st.feedBatch(a.d, b, i, j, &sh.scratch)
	sh.folded += uint64(j - i)
}

// instanceRunEnds appends to ends the end of each of b's runs of equal
// Instance values.
func instanceRunEnds(b *trace.ColumnBatch, ends []int) []int {
	for i, n := 0, b.Len(); i < n; {
		i = b.InstanceRun(i, n)
		ends = append(ends, i)
	}
	return ends
}

// groupFold folds a shard batch grouped by instance: a stable counting
// partition copies each instance's events, in batch order, into one range
// of a pooled scratch batch, and each instance then folds its range in one
// visit. Every instance folds exactly the events, in exactly the order, the
// batch gives it, so the reducers end where an ungrouped fold leaves them.
// The batch's instance runs are listed in the shard's scratch.
func (a *StreamAnalyzer) groupFold(sh *streamShard, b *trace.ColumnBatch) {
	gs := groupPool.Get().(*groupScratch)
	n := b.Len()
	// Count each instance's events in groupEnd, then turn the counts into
	// ranges, then fill the ranges.
	i := 0
	for _, j := range sh.scratch.ends {
		id := b.Instance[i]
		_, slot := a.slotOf(id)
		st := sh.slotted(id, slot)
		if st == nil {
			st = sh.streamSlow(id, slot)
		}
		if st.groupEnd == 0 {
			gs.order = append(gs.order, st)
		}
		st.groupEnd += j - i
		gs.runs = append(gs.runs, st)
		i = j
	}
	at := 0
	for _, st := range gs.order {
		st.groupAt, st.groupEnd, at = at, at, at+st.groupEnd
	}
	g := &gs.grouped
	g.Seq = slices.Grow(g.Seq[:0], n)[:n]
	g.Op = slices.Grow(g.Op[:0], n)[:n]
	g.Thread = slices.Grow(g.Thread[:0], n)[:n]
	g.Index = slices.Grow(g.Index[:0], n)[:n]
	g.Size = slices.Grow(g.Size[:0], n)[:n]
	i = 0
	for r, st := range gs.runs {
		j := sh.scratch.ends[r]
		o := st.groupEnd
		for x := i; x < j; x++ {
			g.Seq[o] = b.Seq[x]
			g.Op[o] = b.Op[x]
			g.Thread[o] = b.Thread[x]
			g.Index[o] = b.Index[x]
			g.Size[o] = b.Size[x]
			o++
		}
		st.groupEnd = o
		i = j
	}
	for _, st := range gs.order {
		st.feedBatch(a.d, g, st.groupAt, st.groupEnd, &sh.scratch)
		sh.folded += uint64(st.groupEnd - st.groupAt)
		st.groupEnd = 0
	}
	// The pool must not keep this analyzer's reducers alive.
	clear(gs.order)
	clear(gs.runs)
	gs.order, gs.runs = gs.order[:0], gs.runs[:0]
	groupPool.Put(gs)
}

// FeedColumns folds a column batch from any source (columnar replay of v3
// logs, salvaged streams) without inflating events. It hands the batch to
// every shard's fold queue and may return before the batch is folded: each
// shard's worker folds that shard's instance runs, batch after batch in
// hand-over order, so every instance folds its events in the order given and
// the shards fold in parallel. The caller must not mutate the batch until
// the next Snapshot or Close, which wait for every batch handed over before
// them. Events must arrive in per-thread program order; sequence-sorted
// replay runs satisfy that.
func (a *StreamAnalyzer) FeedColumns(b *trace.ColumnBatch) {
	if b.Len() > 0 {
		a.qmu.Lock()
		a.handOffLocked(b)
		a.qmu.Unlock()
	}
}

// handOffLocked appends b to every shard's fold queue, starts the worker of
// each shard whose queue was empty, and returns b's hand-over number. qmu is
// held.
func (a *StreamAnalyzer) handOffLocked(b *trace.ColumnBatch) uint64 {
	a.handed++
	for shard, sh := range a.shards {
		sh.queue = append(sh.queue, b)
		if !sh.working {
			sh.working = true
			go a.foldQueue(shard)
		}
	}
	return a.handed
}

// foldQueue is a shard's fold worker: it folds the shard's share of each
// queued batch in hand-over order and exits once the queue is empty, so no
// worker outlives the batches it was started for.
func (a *StreamAnalyzer) foldQueue(shard int) {
	sh := a.shards[shard]
	a.qmu.Lock()
	for sh.next < len(sh.queue) {
		b := sh.queue[sh.next]
		sh.queue[sh.next] = nil
		sh.next++
		a.qmu.Unlock()
		a.feedShardCols(shard, b, true)
		a.qmu.Lock()
		sh.done++
		a.qdone.Broadcast()
	}
	sh.queue, sh.next = sh.queue[:0], 0
	sh.working = false
	a.qmu.Unlock()
}

// foldedLocked reports whether every shard has folded the batch with
// hand-over number hand. Queues fold in hand-over order, so a shard whose
// done count has reached hand has folded it and every batch before it. qmu
// is held.
func (a *StreamAnalyzer) foldedLocked(hand uint64) bool {
	for _, sh := range a.shards {
		if sh.done < hand {
			return false
		}
	}
	return true
}

// settle waits until every batch handed over before the call is folded, and
// returns Feed's pieces among them to feedPool. It is safe against
// concurrent feeders: batches handed over while it waits are not waited for.
func (a *StreamAnalyzer) settle() {
	a.qmu.Lock()
	hand := a.handed
	for !a.foldedLocked(hand) {
		a.qdone.Wait()
	}
	a.recycleLocked(len(a.pieces))
	a.qmu.Unlock()
}

// feedChunk bounds each scratch batch Feed scatters onto, so a long event
// slice (a replayed log) is handed over in cache-sized pieces and the fold
// workers start on the first piece while the rest are scattered.
const feedChunk = 4096

// feedPiecesPerShard caps Feed's pieces in flight — taken from feedPool and
// not yet folded by every shard — at feedPiecesPerShard per analyzer shard.
// Instances map to shards by id, and a piece is often one instance's run (a
// producer flush is), so a piece's fold work may all land on one shard. With
// 8n such pieces queued on n shards, the chance that a given shard finds
// none of its own work among them is (1−1/n)^(8n) ≤ e^−8 < 0.1%: while the
// feeder keeps ahead, no fold worker idles for want of queued work. The cap
// also bounds what a Feed that has returned leaves unfolded — at most
// 8n·feedChunk events — and the memory the pieces pin.
const feedPiecesPerShard = 8

// feedPool recycles Feed's scratch batches across calls and analyzers, so a
// scatter writes into warm memory instead of fresh pages. A piece is the
// analyzer's from Get until every shard has folded it (recycleLocked); only
// then does it go back.
var feedPool = sync.Pool{New: func() any { return new(trace.ColumnBatch) }}

// feedPiece is one of Feed's scratch batches in flight and its hand-over
// number.
type feedPiece struct {
	b    *trace.ColumnBatch
	hand uint64
}

// Feed folds struct events from any source. It scatters them onto pooled
// scratch column batches, a feedChunk piece at a time, hands each piece over
// as FeedColumns does as soon as it is filled, and returns without waiting
// for the fold. The pieces hold a copy of the events, so the caller may
// reuse its slice as soon as Feed returns; each piece goes back to feedPool
// once every shard has folded it. While feedPiecesPerShard pieces per shard
// are in flight, Feed waits for the oldest before it scatters the next.
// Snapshot and Close wait for every piece handed over before them. Events
// must arrive in per-thread program order; sequence-sorted replay streams
// satisfy that.
func (a *StreamAnalyzer) Feed(events ...trace.Event) {
	limit := feedPiecesPerShard * len(a.shards)
	for len(events) > 0 {
		n := min(len(events), feedChunk)
		b := feedPool.Get().(*trace.ColumnBatch)
		b.Reset()
		b.AppendEvents(events[:n])
		events = events[n:]
		a.qmu.Lock()
		a.pieces = append(a.pieces, feedPiece{b, a.handOffLocked(b)})
		// Leave room for the next piece, so no more than limit are ever
		// taken from the pool at once.
		a.recycleLocked(limit - 1)
		a.qmu.Unlock()
	}
}

// recycleLocked returns Feed's pieces that every shard has folded to
// feedPool, oldest first, waiting for the oldest while more than keep are in
// flight. qmu is held. Each piece leaves pieces as it goes back, before any
// wait: the wait releases qmu, and another Feed or a settle may recycle then.
func (a *StreamAnalyzer) recycleLocked(keep int) {
	for len(a.pieces) > 0 {
		p := a.pieces[0]
		if !a.foldedLocked(p.hand) {
			if len(a.pieces) <= keep {
				return
			}
			a.qdone.Wait()
			continue
		}
		feedPool.Put(p.b)
		a.pieces = slices.Delete(a.pieces, 0, 1)
	}
}

// Snapshot builds a consistent report over everything fed so far without
// disturbing the live reducers: it waits for the batches handed over before
// the call to be folded, clones per-shard state under the shard lock, then
// finalizes the clones outside it. An instance that has folded nothing since
// the previous snapshot gets that snapshot's row again; the report's rows
// are shallow copies, so a caller may replace their fields.
func (a *StreamAnalyzer) Snapshot() *Report {
	rep := a.capture().build()
	owned := make([]InstanceResult, len(rep.Instances))
	for i, ir := range rep.Instances {
		owned[i] = *ir
		rep.Instances[i] = &owned[i]
	}
	return rep
}

// rowSource is where one row of a report comes from: a stream to finalize
// (a clone, or at Close the live stream), or a row an earlier snapshot built
// and the instance has not changed since. The figures are the live stream's
// when the source was taken.
type rowSource struct {
	st       *instanceStream // finalized into row when row is nil
	row      *InstanceResult
	live     *instanceStream
	shard    int
	n        int
	openRuns int
	ooo      uint64
}

func sourceOf(live *instanceStream, shard int) rowSource {
	return rowSource{live: live, shard: shard, n: live.n, openRuns: live.openRuns(), ooo: live.stats.OutOfOrder()}
}

// snapshotState is a consistent copy of an analyzer's state: the row
// sources of every instance and a copy of the session registry. Building
// the report from it touches the live analyzer only to keep the rows it
// built, under the shard locks, so a caller that feeds under a lock of its
// own (the daemon's tenant lock) captures under that lock and builds after
// releasing it.
type snapshotState struct {
	a          *StreamAnalyzer
	sources    []rowSource
	registered []trace.Instance
	t0         time.Time
	span       obs.Span
}

// capture waits for the batches handed over before the call to be folded,
// copies the registry, and takes every instance's row source under its
// shard lock: the row of the previous snapshot when it is reusable, a clone
// of the stream otherwise.
func (a *StreamAnalyzer) capture() *snapshotState {
	a.settle()
	ss := &snapshotState{a: a, t0: time.Now(), span: a.d.cfg.Tracer.Begin("snapshot", "stream")}
	ss.registered = a.registry()
	for i, sh := range a.shards {
		sh.mu.Lock()
		ss.sources = slices.Grow(ss.sources, sh.streams)
		sh.each(func(st *instanceStream) {
			src := sourceOf(st, i)
			if a.reusable(st, ss.registered) {
				src.row = st.last
			} else {
				src.st = st.clone()
			}
			ss.sources = append(ss.sources, src)
		})
		sh.mu.Unlock()
	}
	return ss
}

// reusable reports whether st's last snapshot row still stands: the
// instance has folded nothing since and its registry entry is unchanged.
// Under a sampling controller a row also reads the controller's state,
// which moves without the instance folding, so rows are never reused there.
func (a *StreamAnalyzer) reusable(st *instanceStream, registered []trace.Instance) bool {
	return st.last != nil && st.lastN == st.n && a.ctrl == nil &&
		st.last.Profile.Instance == instanceAt(registered, st.id)
}

// build finalizes the captured clones into the snapshot report and keeps
// each row it built on its live stream for the next snapshot.
func (ss *snapshotState) build() *Report {
	a := ss.a
	rep := a.buildReport(ss.sources, ss.registered)
	for _, src := range ss.sources {
		if src.st == nil {
			continue
		}
		sh := a.shards[src.shard]
		sh.mu.Lock()
		src.live.last, src.live.lastN = src.row, src.n
		sh.mu.Unlock()
	}
	ss.span.End("instances", fmt.Sprint(len(ss.sources)))
	a.snapMu.Lock()
	a.snapshots++
	a.snapNS += int64(time.Since(ss.t0))
	rep.Stats.Streaming.Snapshots = a.snapshots
	rep.Stats.Streaming.SnapshotTime = time.Duration(a.snapNS)
	a.snapMu.Unlock()
	return rep
}

// registry copies the attached session's instance registry; nil when no
// session is attached.
func (a *StreamAnalyzer) registry() []trace.Instance {
	if a.session == nil {
		return nil
	}
	return a.session.Instances()
}

// instanceAt names instance id from a registry copy (trace.Session.Instances
// holds instance N at index N-1).
func instanceAt(registered []trace.Instance, id trace.InstanceID) trace.Instance {
	if id > 0 && int(id) <= len(registered) {
		return registered[id-1]
	}
	return trace.Instance{ID: id, TypeName: "<unregistered>"}
}

// Close waits for every handed-over batch to be folded, flushes all reducers
// and returns the final report. Idempotent; the first call finalizes the live
// state (no clone), later calls return the same report.
func (a *StreamAnalyzer) Close() *Report {
	a.closeOnce.Do(func() {
		// Settle the containers' fast-path handles first: unreported kept
		// counts reach the gate and pending aggregates reach FoldAggregate
		// before the rows are finalized. Callers have quiesced the workload
		// by now (same contract as closing the collector first).
		if a.session != nil {
			a.session.FlushHandles()
		}
		a.settle()
		sp := a.d.cfg.Tracer.Begin("finalize", "stream")
		var sources []rowSource
		for i, sh := range a.shards {
			sh.mu.Lock()
			sh.each(func(st *instanceStream) {
				src := sourceOf(st, i)
				src.st = st
				sources = append(sources, src)
			})
			sh.mu.Unlock()
		}
		a.final = a.buildReport(sources, a.registry())
		sp.End("instances", fmt.Sprint(len(sources)))
	})
	return a.final
}

// buildReport builds a Report from row sources ordered by instance id,
// naming rows from registered and fanning the finalization of the streams
// across the worker pool.
func (a *StreamAnalyzer) buildReport(sources []rowSource, registered []trace.Instance) *Report {
	slices.SortFunc(sources, func(x, y rowSource) int { return cmp.Compare(x.live.id, y.live.id) })

	folded, openRuns := 0, 0
	var ooo uint64
	for _, src := range sources {
		folded += src.n
		openRuns += src.openRuns
		ooo += src.ooo
	}

	results := make([]*InstanceResult, len(sources))
	par.For(len(sources), a.d.workers(), func(i int) {
		src := &sources[i]
		if src.row == nil {
			src.row = src.st.finalize(a.d, registered)
		}
		results[i] = src.row
	})

	rep := &Report{
		Instances:  results,
		Registered: registered,
		Stats: &metrics.PipelineStats{
			Events:    folded,
			Instances: len(sources),
			Workers:   len(a.shards),
			Wall:      time.Since(a.start),
			Streaming: &metrics.StreamingStats{
				Shards:     len(a.shards),
				Folded:     uint64(folded),
				Instances:  len(sources),
				OpenRuns:   openRuns,
				OutOfOrder: ooo,
			},
			Contention: contentionStats(results),
		},
	}
	if a.ctrl != nil {
		rep.Stats.Sampling = samplingStats(a.ctrl, results)
	}
	return rep
}

// WriteMetrics exports the analyzer's live progress — events folded and
// instance reducers per shard, snapshot accounting — for /metrics scrapes
// during a run. Shard locks are held only long enough to read two counters.
func (a *StreamAnalyzer) WriteMetrics(w *obs.PromWriter) {
	for i, sh := range a.shards {
		sh.mu.Lock()
		folded, instances := sh.folded, sh.streams
		sh.mu.Unlock()
		shard := strconv.Itoa(i)
		w.Counter("dsspy_stream_folded_total",
			"Events folded into streaming reducers.", float64(folded), "shard", shard)
		w.Gauge("dsspy_stream_instances",
			"Live per-instance reducers.", float64(instances), "shard", shard)
	}
	var multi, contended int
	var episodes, epEvents uint64
	for _, sh := range a.shards {
		sh.mu.Lock()
		sh.each(func(st *instanceStream) {
			if !st.ct.MultiThread() {
				return
			}
			multi++
			ep, ev, c := st.ct.Live()
			episodes += uint64(ep)
			epEvents += uint64(ev)
			if c {
				contended++
			}
		})
		sh.mu.Unlock()
	}
	w.Gauge("dsspy_contention_instances",
		"Instances touched by more than one thread.", float64(multi))
	w.Gauge("dsspy_contention_contended_instances",
		"Multi-thread instances with at least one writer episode.", float64(contended))
	w.Counter("dsspy_contention_episodes_total",
		"Contention episodes observed (open episodes included).", float64(episodes))
	w.Counter("dsspy_contention_episode_events_total",
		"Events inside contention episodes.", float64(epEvents))
	a.snapMu.Lock()
	snaps, snapNS := a.snapshots, a.snapNS
	a.snapMu.Unlock()
	w.Counter("dsspy_stream_snapshots_total", "Snapshot reports served.", float64(snaps))
	w.Counter("dsspy_stream_snapshot_seconds_total",
		"Cumulative wall time spent building snapshots.", float64(snapNS)/1e9)
	if a.ctrl != nil {
		// The controller exports the dsspy_sample_* counters itself; the
		// sketches live with the reducers, so their error estimate is
		// exported here.
		for i, sh := range a.shards {
			sh.mu.Lock()
			var maxErr float64
			sh.each(func(st *instanceStream) {
				if st.smp != nil {
					if e := st.smp.sketch.RelErr(); e > maxErr {
						maxErr = e
					}
				}
			})
			sh.mu.Unlock()
			w.Gauge("dsspy_sample_sketch_error",
				"Largest index-sketch relative error estimate in the shard.",
				maxErr, "shard", strconv.Itoa(i))
		}
	}
}
