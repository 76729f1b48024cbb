package core

import (
	"fmt"
	"sort"
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
// drives it from a live collector, Analyze from an event slice, and replay
// from column batches.
//
// Ordering contract: a shard's drain goroutine delivers each producer
// goroutine's events in program order, so per-thread figures are always
// exact. That holds on both collector lanes: Session.Emit assigns the
// sequence number and hands the event to the collector synchronously, and a
// Session.Bind producer flushes its batches in program order onto the batch
// lane (whole batches arrive at the sink intact, since both lanes feed the
// same drain goroutine). The global per-instance interleaving equals
// sequence order whenever same-instance access is serialized — which the
// unsynchronized containers require anyway — and violations are counted in
// StreamingStats.OutOfOrder rather than silently misfolded. A producer that
// mixes Emit and Bind on the same instance mid-run gets an unspecified
// interleaving between the two lanes; stay on one per goroutine.

// instanceStream is the complete analysis state of one instance: stats
// reducer, per-thread pattern detectors, the global detector the regularity
// check reads, the default-options run stream the use-case layer consumes,
// and the use-case reducer itself. It is confined to one shard; no locks.
type instanceStream struct {
	id trace.InstanceID

	n       int    // events folded
	prevSeq uint64 // highest Seq seen, for out-of-order accounting
	ooo     uint64

	stats profile.StreamStats
	// ct folds the cross-thread contention figures (episodes, phases, the
	// happens-before window sketch). Scalar state plus one inline window:
	// single-threaded instances never allocate for it.
	ct        profile.StreamContention
	perThread map[trace.ThreadID]*pattern.StreamDetector
	// global segments the interleaved per-instance stream with the
	// configured options — what the regularity check summarizes.
	global *pattern.StreamDetector
	// runSeg produces the default-options run stream for the use-case layer.
	// It is nil when the configured segmentation already is default-options;
	// then global's closed runs are reused instead of segmenting twice.
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
}

func newInstanceStream(d *DSspy, id trace.InstanceID) *instanceStream {
	st := &instanceStream{
		id:        id,
		perThread: make(map[trace.ThreadID]*pattern.StreamDetector, 1),
		global:    pattern.NewStreamDetector(d.cfg.Pattern, false),
		uc:        usecase.NewStream(d.cfg.Thresholds),
	}
	seg := d.cfg.Pattern.Segment
	if seg.MaxStep < 1 {
		seg.MaxStep = 1 // RunsWith clamps the same way
	}
	if seg != profile.DefaultSegmentOptions() {
		st.runSeg = profile.NewStreamSegmenter(profile.DefaultSegmentOptions())
	}
	return st
}

// feedBatch folds events [i, j) of a column batch — one instance's span —
// through every reducer, walking columns instead of Event structs. This is
// the streaming hot path; feed is the per-event compatibility driver, and
// both fold identically: every reducer is either order-insensitive or
// consumes its sub-stream (per-thread runs, global runs) in the same order
// either way, which the fuzz differential verifies.
func (st *instanceStream) feedBatch(d *DSspy, b *trace.ColumnBatch, i, j int) {
	st.n += j - i
	for _, s := range b.Seq[i:j] {
		if s < st.prevSeq {
			st.ooo++
		} else {
			st.prevSeq = s
		}
	}
	st.stats.FoldBatch(b, i, j)
	st.ct.FoldBatch(b, i, j)
	st.uc.FoldBatch(b, i, j)

	for k := i; k < j; {
		e := b.ThreadRun(k, j)
		det := st.perThread[b.Thread[k]]
		if det == nil {
			det = pattern.NewStreamDetector(d.cfg.Pattern, true)
			st.perThread[b.Thread[k]] = det
		}
		det.FeedBatch(b, k, e, func(c pattern.Closed) {
			if c.Type != pattern.None {
				st.uc.Pattern(pattern.Pattern{Type: c.Type, Run: c.Run})
			}
		})
		k = e
	}

	st.global.FeedBatch(b, i, j, func(c pattern.Closed) {
		if st.runSeg == nil {
			st.uc.Run(c.Run)
		}
	})
	if st.runSeg != nil {
		st.runSeg.FeedBatch(b, i, j, func(r profile.Run) { st.uc.Run(r) })
	}

	if sp := st.smp; sp != nil {
		for _, idx := range b.Index[i:j] {
			sp.sketch.Fold(idx)
		}
		sp.tick(st, d)
	}
}

// feed folds one event through every reducer.
func (st *instanceStream) feed(d *DSspy, e trace.Event) {
	st.n++
	if e.Seq < st.prevSeq {
		st.ooo++
	} else {
		st.prevSeq = e.Seq
	}
	st.stats.Fold(e)
	st.ct.Fold(e)
	st.uc.Event(e)

	det := st.perThread[e.Thread]
	if det == nil {
		det = pattern.NewStreamDetector(d.cfg.Pattern, true)
		st.perThread[e.Thread] = det
	}
	if c, ok := det.Feed(e); ok && c.Type != pattern.None {
		st.uc.Pattern(pattern.Pattern{Type: c.Type, Run: c.Run})
	}

	if c, ok := st.global.Feed(e); ok && st.runSeg == nil {
		st.uc.Run(c.Run)
	}
	if st.runSeg != nil {
		if r, ok := st.runSeg.Feed(e); ok {
			st.uc.Run(r)
		}
	}

	if sp := st.smp; sp != nil {
		sp.sketch.Fold(e.Index)
		sp.tick(st, d)
	}
}

// openRuns counts the runs currently held open across all segmenters.
func (st *instanceStream) openRuns() int {
	n := 0
	for _, det := range st.perThread {
		if det.Open() {
			n++
		}
	}
	if st.global.Open() {
		n++
	}
	if st.runSeg != nil && st.runSeg.Open() {
		n++
	}
	return n
}

// clone returns an independent copy; Snapshot finalizes clones so the live
// reducers keep folding.
func (st *instanceStream) clone() *instanceStream {
	out := &instanceStream{
		id:        st.id,
		n:         st.n,
		prevSeq:   st.prevSeq,
		ooo:       st.ooo,
		stats:     *st.stats.Clone(),
		ct:        *st.ct.Clone(),
		perThread: make(map[trace.ThreadID]*pattern.StreamDetector, len(st.perThread)),
		global:    st.global.Clone(),
		uc:        st.uc.Clone(),
		agg:       st.agg,
	}
	for tid, det := range st.perThread {
		out.perThread[tid] = det.Clone()
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
// instance's report row.
func (st *instanceStream) finalize(d *DSspy, s *trace.Session) *InstanceResult {
	// Flush per-thread detectors in ascending thread-id order and merge their
	// summaries — exactly SummarizeThreads' merge order.
	tids := make([]trace.ThreadID, 0, len(st.perThread))
	for tid := range st.perThread {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	sum := &pattern.Summary{}
	for _, tid := range tids {
		det := st.perThread[tid]
		if c, ok := det.Finish(); ok && c.Type != pattern.None {
			st.uc.Pattern(pattern.Pattern{Type: c.Type, Run: c.Run})
		}
		sum.Merge(det.Summary())
	}

	if c, ok := st.global.Finish(); ok && st.runSeg == nil {
		st.uc.Run(c.Run)
	}
	if st.runSeg != nil {
		if r, ok := st.runSeg.Finish(); ok {
			st.uc.Run(r)
		}
	}

	stats := st.stats.Snapshot()
	// The cross-thread summary exists only for instances more than one
	// thread touched.
	var ct *profile.Contention
	if stats.Threads > 1 {
		ct = st.ct.Snapshot()
	}
	var inst trace.Instance
	ok := false
	if s != nil {
		inst, ok = s.Instance(st.id)
	}
	if !ok {
		inst = trace.Instance{ID: st.id, TypeName: "<unregistered>"}
	}
	p := profile.NewStreamed(inst, st.n, stats)
	if ct != nil {
		p.PrimeContention(ct)
	}
	res := &InstanceResult{
		Profile:    p,
		Summary:    sum,
		UseCases:   st.uc.Finish(inst, stats, ct),
		Regular:    pattern.RegularityFrom(st.global.Summary(), stats, d.cfg.Regularity),
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
// drain goroutine.
type streamShard struct {
	mu     sync.Mutex
	byInst map[trace.InstanceID]*instanceStream
	folded uint64
}

// StreamAnalyzer computes reports incrementally from a live event stream. It
// plugs into the sharded collector's drain path (Collector / FeedShard), or
// consumes replayed streams via Feed. Snapshot returns a consistent report at
// any time; Close flushes everything and returns the final report.
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
	for i := range a.shards {
		a.shards[i] = &streamShard{byInst: make(map[trace.InstanceID]*instanceStream)}
	}
	return a
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
	shard := int(rec.Instance) % len(a.shards)
	sh := a.shards[shard]
	sh.mu.Lock()
	st := sh.byInst[rec.Instance]
	if st == nil {
		st = newInstanceStream(a.d, rec.Instance)
		if a.ctrl != nil {
			st.smp = newSampleState(a.ctrl, a.session)
		}
		sh.byInst[rec.Instance] = st
	}
	st.agg.Merge(rec)
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
// so the reducer map is consulted once per run, not once per event.
func (a *StreamAnalyzer) FeedShard(shard int, batch *trace.ColumnBatch) {
	a.feedShardCols(shard, batch, 0, batch.Len())
}

func (a *StreamAnalyzer) feedShardCols(shard int, b *trace.ColumnBatch, lo, hi int) {
	sh := a.shards[shard]
	sh.mu.Lock()
	for i := lo; i < hi; {
		j := b.InstanceRun(i, hi)
		id := b.Instance[i]
		st := sh.byInst[id]
		if st == nil {
			st = newInstanceStream(a.d, id)
			if a.ctrl != nil {
				st.smp = newSampleState(a.ctrl, a.session)
			}
			sh.byInst[id] = st
		}
		st.feedBatch(a.d, b, i, j)
		i = j
	}
	sh.folded += uint64(hi - lo)
	sh.mu.Unlock()
}

// FeedColumns folds a column batch from any source (columnar replay of v3
// logs, salvaged streams), routing each instance's span to its shard without
// inflating events. Events must arrive in per-thread program order;
// sequence-sorted replay runs satisfy that.
func (a *StreamAnalyzer) FeedColumns(b *trace.ColumnBatch) {
	n := b.Len()
	for i := 0; i < n; {
		shard := int(b.Instance[i]) % len(a.shards)
		j := i + 1
		for j < n && int(b.Instance[j])%len(a.shards) == shard {
			j++
		}
		a.feedShardCols(shard, b, i, j)
		i = j
	}
}

// Feed folds struct events from any source, routing each to its instance's
// shard — the per-event compatibility driver over the same reducers the
// columnar path folds into. Events must arrive in per-thread program order;
// sequence-sorted replay streams satisfy that.
func (a *StreamAnalyzer) Feed(events ...trace.Event) {
	for i := 0; i < len(events); {
		// Group the run of consecutive events sharing a shard so the lock is
		// taken once per run, not once per event.
		shard := int(events[i].Instance) % len(a.shards)
		j := i + 1
		for j < len(events) && int(events[j].Instance)%len(a.shards) == shard {
			j++
		}
		a.feedEvents(shard, events[i:j])
		i = j
	}
}

// feedEvents folds a struct batch event-at-a-time — the compatibility
// driver behind Feed, kept so pre-v3 logs and ad-hoc event slices exercise
// the identical reducer state transitions the columnar path takes.
func (a *StreamAnalyzer) feedEvents(shard int, batch []trace.Event) {
	sh := a.shards[shard]
	sh.mu.Lock()
	for _, e := range batch {
		st := sh.byInst[e.Instance]
		if st == nil {
			st = newInstanceStream(a.d, e.Instance)
			if a.ctrl != nil {
				st.smp = newSampleState(a.ctrl, a.session)
			}
			sh.byInst[e.Instance] = st
		}
		st.feed(a.d, e)
	}
	sh.folded += uint64(len(batch))
	sh.mu.Unlock()
}

// Snapshot builds a consistent report over everything folded so far without
// disturbing the live reducers: per-shard state is cloned under the shard
// lock, then the clones are finalized outside it.
func (a *StreamAnalyzer) Snapshot() *Report {
	t0 := time.Now()
	sp := a.d.cfg.Tracer.Begin("snapshot", "stream")
	var streams []*instanceStream
	for _, sh := range a.shards {
		sh.mu.Lock()
		for _, st := range sh.byInst {
			streams = append(streams, st.clone())
		}
		sh.mu.Unlock()
	}
	rep := a.buildReport(streams)
	sp.End("instances", fmt.Sprint(len(streams)))
	a.snapMu.Lock()
	a.snapshots++
	a.snapNS += int64(time.Since(t0))
	rep.Stats.Streaming.Snapshots = a.snapshots
	rep.Stats.Streaming.SnapshotTime = time.Duration(a.snapNS)
	a.snapMu.Unlock()
	return rep
}

// Close flushes all reducers and returns the final report. Idempotent; the
// first call finalizes the live state (no clone), later calls return the same
// report.
func (a *StreamAnalyzer) Close() *Report {
	a.closeOnce.Do(func() {
		// Settle the containers' fast-path handles first: unreported kept
		// counts reach the gate and pending aggregates reach FoldAggregate
		// before the rows are finalized. Callers have quiesced the workload
		// by now (same contract as closing the collector first).
		if a.session != nil {
			a.session.FlushHandles()
		}
		sp := a.d.cfg.Tracer.Begin("finalize", "stream")
		var streams []*instanceStream
		for _, sh := range a.shards {
			sh.mu.Lock()
			for _, st := range sh.byInst {
				streams = append(streams, st)
			}
			sh.mu.Unlock()
		}
		a.final = a.buildReport(streams)
		sp.End("instances", fmt.Sprint(len(streams)))
	})
	return a.final
}

// buildReport finalizes the given instance streams into a Report ordered by
// instance id, fanning per-instance finalization across the worker pool.
func (a *StreamAnalyzer) buildReport(streams []*instanceStream) *Report {
	sort.Slice(streams, func(i, j int) bool { return streams[i].id < streams[j].id })

	folded, openRuns := 0, 0
	var ooo uint64
	for _, st := range streams {
		folded += st.n
		openRuns += st.openRuns()
		ooo += st.ooo
	}

	results := make([]*InstanceResult, len(streams))
	par.For(len(streams), a.d.workers(), func(i int) {
		results[i] = streams[i].finalize(a.d, a.session)
	})

	var registered []trace.Instance
	if a.session != nil {
		registered = a.session.Instances()
	}
	rep := &Report{
		Instances:  results,
		Registered: registered,
		Stats: &metrics.PipelineStats{
			Events:    folded,
			Instances: len(streams),
			Workers:   len(a.shards),
			Wall:      time.Since(a.start),
			Streaming: &metrics.StreamingStats{
				Shards:     len(a.shards),
				Folded:     uint64(folded),
				Instances:  len(streams),
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
		folded, instances := sh.folded, len(sh.byInst)
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
		for _, st := range sh.byInst {
			if !st.ct.MultiThread() {
				continue
			}
			multi++
			ep, ev, c := st.ct.Live()
			episodes += uint64(ep)
			epEvents += uint64(ev)
			if c {
				contended++
			}
		}
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
			for _, st := range sh.byInst {
				if st.smp != nil {
					if e := st.smp.sketch.RelErr(); e > maxErr {
						maxErr = e
					}
				}
			}
			sh.mu.Unlock()
			w.Gauge("dsspy_sample_sketch_error",
				"Largest index-sketch relative error estimate in the shard.",
				maxErr, "shard", strconv.Itoa(i))
		}
	}
}
