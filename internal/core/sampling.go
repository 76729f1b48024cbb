package core

import (
	"dsspy/internal/metrics"
	"dsspy/internal/pattern"
	"dsspy/internal/profile"
	"dsspy/internal/sample"
	"dsspy/internal/trace"
)

// Adaptive-sampling glue between the streaming analyzer and the controller
// (internal/sample, DESIGN.md §15). The controller gates events at the trace
// layer; this side closes the loop: it fingerprints each instance's
// classification every controller window, reports agreement/flips and
// opening contention episodes back, folds the kept events' indexes into the
// per-instance sketches, and stamps finalized rows with their sampling
// record and detection bounds.

// sampleState is the per-instance sampling companion of an instanceStream.
// It lives on the shard drain goroutine (clones share the controller but
// never tick it, so a Snapshot cannot advance the state machine).
type sampleState struct {
	ctrl *sample.Controller
	sess *trace.Session
	// next is the folded-event count at which the next classification
	// window closes.
	next int
	// episodes is the last contention-episode count reported, so only
	// newly opened episodes trigger re-promotion.
	episodes int
	// sketch summarizes index-access and adjacency state of the kept
	// stream — the compact stand-in for the exact streams a backed-off
	// instance no longer materializes.
	sketch sample.IndexSketch
}

func newSampleState(ctrl *sample.Controller, sess *trace.Session) *sampleState {
	return &sampleState{ctrl: ctrl, sess: sess, next: ctrl.WindowSize()}
}

// clone shares the controller/session and copies the sketch (value types
// throughout). The clone is finalize-only: tick is never called on it.
func (sp *sampleState) clone() *sampleState {
	cp := *sp
	return &cp
}

// tick runs after each fold into st: it reports newly opened contention
// episodes and closes any classification windows the fold completed. Called
// on the shard drain goroutine, serialized per instance.
func (sp *sampleState) tick(st *instanceStream, d *DSspy) {
	if st.ct.MultiThread() {
		if ep, _, _ := st.ct.Live(); ep > sp.episodes {
			sp.episodes = ep
			sp.ctrl.NoteContention(st.id)
		}
	}
	for st.n >= sp.next {
		sp.ctrl.ObserveWindow(st.id, sp.fingerprint(st, d))
		sp.next += sp.ctrl.WindowSize()
	}
}

// fingerprint condenses the instance's current classification into one
// comparable word: the use-case kind mask, the regularity verdict, the
// contended bit, and the thread count. Two windows with equal fingerprints
// agree; a change is a flip. Stability is what matters here, not evidence —
// the detectors' boolean checks over the folded aggregates are O(1).
func (sp *sampleState) fingerprint(st *instanceStream, d *DSspy) uint64 {
	stats := st.stats.Snapshot()
	var ct *profile.Contention
	contended := false
	if stats.Threads > 1 {
		ct = st.ct.Snapshot()
		_, _, contended = st.ct.Live()
	}
	var inst trace.Instance
	if sp.sess != nil {
		inst, _ = sp.sess.Instance(st.id)
	}
	fp := uint64(st.uc.KindsMask(inst, stats, ct))
	if pattern.RegularityFrom(st.regularitySummary(), stats, d.cfg.Regularity) {
		fp |= 1 << 16
	}
	if contended {
		fp |= 1 << 17
	}
	thr := stats.Threads
	if thr > 63 {
		thr = 63
	}
	fp |= uint64(thr) << 18
	return fp
}

// stamp attaches the sampling record to a finalized row and widens its
// detection bounds. agg is the merged aggregate the stream accumulated for
// the instance (zero-N when none). Rows whose stream lost nothing stay
// untouched — their report bytes are identical to an ungated run's.
func (sp *sampleState) stamp(res *InstanceResult, id trace.InstanceID, agg *trace.AggRecord) {
	is, ok := sp.ctrl.Status(id)
	if !ok || (is.Dropped == 0 && is.Aggregated == 0) {
		return
	}
	s := &sample.InstanceSampling{
		State:        is.State.String(),
		Rate:         is.Rate,
		Observed:     is.Observed,
		Folded:       is.Kept,
		Aggregated:   is.Aggregated,
		SampledOut:   is.Dropped,
		Windows:      is.Windows,
		Agree:        is.Agree,
		RePromotions: is.RePromotions,
		Bound:        is.Bound,
	}
	if agg != nil && agg.N > 0 {
		s.AggDirection = agg.Direction()
	}
	if est := sp.sketch.Indexes.Estimate(); est > 0 {
		s.DistinctIndexes = est
		s.DistinctTransitions = sp.sketch.Transitions.Estimate()
		s.SketchErr = sp.sketch.RelErr()
		if idx, share, ok := sp.sketch.HotShare(); ok {
			s.HotIndex, s.HotShare = idx, share
		}
	}
	res.Sampling = s
	widenBounds(res, s.Bound)
}

// widenBounds raises the row's detection bounds to at least b. Bounds only
// ever widen — merge and daemon degradation reuse this.
func widenBounds(res *InstanceResult, b float64) {
	if b <= 0 {
		return
	}
	for i := range res.UseCases {
		if res.UseCases[i].Bound < b {
			res.UseCases[i].Bound = b
		}
	}
	if res.Summary != nil && res.Summary.Bound < b {
		res.Summary.Bound = b
	}
}

// samplingStats assembles the -stats / PipelineStats block from the
// controller and the finalized rows (for names and sketch errors).
func samplingStats(ctrl *sample.Controller, results []*InstanceResult) *metrics.SamplingStats {
	t := ctrl.Totals()
	ss := &metrics.SamplingStats{
		Mode:         ctrl.Config().Mode.String(),
		Instances:    t.Instances,
		BackedOff:    t.BackedOff,
		Observed:     t.Observed,
		Folded:       t.Kept,
		Aggregated:   t.Aggregated,
		SampledOut:   t.Dropped,
		Windows:      t.Windows,
		Flips:        t.Flips,
		RePromotions: t.RePromotions,
		MaxBound:     t.MaxBound,
	}
	ss.ByReason.Flip = t.ByReason.Flip
	ss.ByReason.NewThread = t.ByReason.NewThread
	ss.ByReason.Contention = t.ByReason.Contention
	for _, ir := range results {
		if ir.Sampling == nil {
			continue
		}
		inst := ir.Profile.Instance
		name := inst.TypeName
		if inst.Label != "" {
			name += " " + inst.Label
		}
		ss.PerInstance = append(ss.PerInstance, metrics.InstanceSampling{
			Name:         name,
			State:        ir.Sampling.State,
			Rate:         ir.Sampling.Rate,
			Realized:     ir.Sampling.RealizedRate(),
			Observed:     ir.Sampling.Observed,
			Folded:       ir.Sampling.Folded,
			Aggregated:   ir.Sampling.Aggregated,
			SampledOut:   ir.Sampling.SampledOut,
			RePromotions: ir.Sampling.RePromotions,
			Bound:        ir.Sampling.Bound,
			SketchErr:    ir.Sampling.SketchErr,
		})
	}
	return ss
}
