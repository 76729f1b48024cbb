// Package metrics instruments DSspy's own pipeline. The paper reports an
// average profiling slowdown of 47.13× and leaves the analysis cost opaque;
// a profiler that recommends parallelization should be able to account for
// its own time. OverheadStats reproduces the paper's §V slowdown metric per
// run, and PipelineStats is the report-facing snapshot that `dsspy -stats`
// prints — the streaming analyzer's fold counters next to the collector's
// per-shard queue statistics, the contention and sampling accounting, and
// the self-overhead figures.
package metrics

import (
	"fmt"
	"io"
	"time"

	"dsspy/internal/trace"
)

// PipelineStats is the observability outcome of one analysis run, surfaced
// through core.Report.Stats.
type PipelineStats struct {
	Events    int           // events analyzed
	Instances int           // instances profiled
	Workers   int           // analysis worker-pool size used
	Wall      time.Duration // end-to-end analysis wall time

	// Collector holds the collection-side counters when the events came
	// from an in-process collector; nil for replayed or externally
	// collected streams.
	Collector *trace.CollectorStats

	// Streaming holds the incremental-analysis counters; nil only in
	// reports rebuilt from snapshots or merges.
	Streaming *StreamingStats

	// Contention aggregates the per-instance cross-thread summaries; nil
	// when the run was entirely single-threaded.
	Contention *ContentionStats

	// Overhead holds the self-overhead accounting — sampled Record cost and
	// the estimated/measured profiling slowdown — when the run's driver
	// timed the workload; nil for replayed streams.
	Overhead *OverheadStats

	// Sampling holds the adaptive-sampling counters when the run was gated
	// by a sampling controller (-sample); nil for full-fidelity runs.
	Sampling *SamplingStats
}

// OverheadStats reproduces the paper's §V overhead metric for one run: how
// much the profiler perturbed the workload it measured. The Record cost is
// sampled (1-in-N) so measuring the overhead does not itself become the
// overhead; the estimate extrapolates the sampled mean over all events,
// and the measured slowdown divides the instrumented wall time by an
// uninstrumented twin run when one exists.
type OverheadStats struct {
	WorkloadWall time.Duration // instrumented workload wall time
	PlainWall    time.Duration // uninstrumented twin wall time; 0 = not measured
	Events       int64         // events recorded during the workload
	Sampled      int64         // Record calls actually timed
	SampleEvery  int           // sampling rate (1-in-N)

	RecordMean time.Duration // mean sampled Record hand-off cost
	RecordP50  time.Duration
	RecordP99  time.Duration

	// EstimatedOverhead extrapolates RecordMean over every event: the
	// producer-side time spent inside the profiler, including block time on
	// full buffers (sampled Records that blocked include it).
	EstimatedOverhead time.Duration
}

// MinStableSamples is the minimum number of timed Record samples the
// estimated-slowdown extrapolation needs. Below it, the sampled mean/p50 of
// a 1-in-SampleEvery clock are a handful of arbitrary events — on a small
// workload the extrapolation printed confident-looking noise.
const MinStableSamples = 8

// EstimatedSlowdownUnstable is the EstimatedSlowdown sentinel for runs with
// fewer than MinStableSamples timed Records: no estimate, not "no overhead".
const EstimatedSlowdownUnstable = -1

// Stable reports whether enough Record calls were timed for the slowdown
// extrapolation to mean anything.
func (ov *OverheadStats) Stable() bool { return ov.Sampled >= MinStableSamples }

// EstimatedSlowdown returns the slowdown factor implied by the sampled
// Record cost: wall / (wall − estimated overhead). 1 means unmeasurable or
// no overhead; 0 means the estimate saturated (the extrapolated overhead
// swallowed the whole wall even under the robust fallback below);
// EstimatedSlowdownUnstable (-1) means too few samples for any estimate.
func (ov *OverheadStats) EstimatedSlowdown() float64 {
	if ov.WorkloadWall <= 0 || ov.EstimatedOverhead <= 0 {
		return 1
	}
	if !ov.Stable() {
		return EstimatedSlowdownUnstable
	}
	base := ov.WorkloadWall - ov.EstimatedOverhead
	if base <= 0 {
		// Sampled Records that blocked on a full buffer fold producer wait
		// time into the mean, so the mean extrapolation can exceed the wall
		// it is subtracted from. Re-estimate from the outlier-robust p50.
		base = ov.WorkloadWall - time.Duration(ov.Events)*ov.RecordP50
	}
	if base <= 0 {
		return 0
	}
	return float64(ov.WorkloadWall) / float64(base)
}

// MeasuredSlowdown returns instrumented / uninstrumented wall time — the
// paper's Table IV "Profiling" over "Runtime" — or 0 when no twin ran.
func (ov *OverheadStats) MeasuredSlowdown() float64 {
	if ov.PlainWall <= 0 {
		return 0
	}
	return float64(ov.WorkloadWall) / float64(ov.PlainWall)
}

// Write renders the overhead accounting in the layout `dsspy -stats` prints.
func (ov *OverheadStats) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Overhead: workload wall %s, %d events, record cost p50 %s p99 %s mean %s (sampled 1-in-%d, %d samples)\n",
		ov.WorkloadWall.Round(time.Microsecond), ov.Events,
		ov.RecordP50, ov.RecordP99, ov.RecordMean,
		ov.SampleEvery, ov.Sampled); err != nil {
		return err
	}
	switch sd := ov.EstimatedSlowdown(); {
	case sd == EstimatedSlowdownUnstable:
		if _, err := fmt.Fprintf(w, "  estimated slowdown n/a (%d timed sample(s) at 1-in-%d — workload too small for a stable estimate)\n",
			ov.Sampled, ov.SampleEvery); err != nil {
			return err
		}
	case sd > 0:
		if _, err := fmt.Fprintf(w, "  estimated producer overhead %s, estimated slowdown %.2f×\n",
			ov.EstimatedOverhead.Round(time.Microsecond), sd); err != nil {
			return err
		}
	default:
		if _, err := fmt.Fprintf(w, "  estimated producer overhead %s (≥ wall: sampled Records blocked; estimate saturated)\n",
			ov.EstimatedOverhead.Round(time.Microsecond)); err != nil {
			return err
		}
	}
	if ov.PlainWall > 0 {
		if _, err := fmt.Fprintf(w, "  uninstrumented twin %s, measured slowdown %.2f× (paper avg: 47.13×)\n",
			ov.PlainWall.Round(time.Microsecond), ov.MeasuredSlowdown()); err != nil {
			return err
		}
	}
	return nil
}

// StreamingStats instruments the streaming analysis path: how much of the
// stream has been folded, how much reducer state is live, and what snapshots
// cost. The streaming analyzer fills it at Snapshot/Close.
type StreamingStats struct {
	Shards    int    // analyzer shards (== collector shards when attached)
	Folded    uint64 // events folded into reducers so far
	Instances int    // live per-instance reducers
	// OpenRuns counts the runs currently held open across all segmenters:
	// one per thread of each instance, plus one for the instance's global
	// (interleaved) stream once a second thread has touched it — a
	// one-thread instance's run is its global run — plus one for the
	// default-options run stream when the configured segmentation differs.
	OpenRuns   int
	OutOfOrder uint64 // events that arrived with a lower Seq than a prior
	// event of the same instance; nonzero means unsynchronized concurrent
	// access to one instance, and order-sensitive figures may differ from a
	// post-mortem sort
	Snapshots    int           // Snapshot calls served so far
	SnapshotTime time.Duration // cumulative wall time spent building snapshots
}

// Write renders the streaming counters in the layout `dsspy -stats` prints.
func (ss *StreamingStats) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Streaming: %d shard(s), %d events folded, %d instance reducer(s), %d open run(s)\n",
		ss.Shards, ss.Folded, ss.Instances, ss.OpenRuns); err != nil {
		return err
	}
	if ss.OutOfOrder > 0 {
		if _, err := fmt.Fprintf(w, "  out-of-order events: %d (unsynchronized concurrent access to an instance)\n",
			ss.OutOfOrder); err != nil {
			return err
		}
	}
	if ss.Snapshots > 0 {
		if _, err := fmt.Fprintf(w, "  snapshots: %d, total cost %s\n",
			ss.Snapshots, ss.SnapshotTime.Round(time.Microsecond)); err != nil {
			return err
		}
	}
	return nil
}

// ContentionStats summarizes the cross-thread analysis of one run: how many
// instances saw multi-thread access, how many of those were genuinely
// contended (interleaved access with writes), and the episode volume behind
// the judgment.
type ContentionStats struct {
	MultiThreadInstances int // instances touched by >1 thread
	ContendedInstances   int // instances with at least one writer episode
	Episodes             int // contention episodes across all instances
	EpisodeEvents        int // events inside contention episodes
	OverflowEvents       int // events beyond the per-instance thread-window cap
}

// Write renders the contention counters in the layout `dsspy -stats` prints.
func (cs *ContentionStats) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Contention: %d multi-thread instance(s), %d contended, %d episode(s) covering %d event(s)\n",
		cs.MultiThreadInstances, cs.ContendedInstances, cs.Episodes, cs.EpisodeEvents); err != nil {
		return err
	}
	if cs.OverflowEvents > 0 {
		if _, err := fmt.Fprintf(w, "  thread-window overflow: %d event(s) beyond the per-instance cap\n",
			cs.OverflowEvents); err != nil {
			return err
		}
	}
	return nil
}

// SamplingStats summarizes the adaptive sampling controller's run: how many
// instances backed off, the conservation totals (Observed must equal
// Folded + Aggregated + SampledOut), re-promotion traffic, and the
// per-instance realized rates `dsspy -stats` prints.
type SamplingStats struct {
	Mode         string // "adaptive" or "static"
	Instances    int    // instances the controller tracked
	BackedOff    int    // instances at a backed-off rate when read
	Observed     uint64 // events seen by the gate
	Folded       uint64 // events admitted into analysis
	Aggregated   uint64 // sampled-out events settled as compact aggregates
	SampledOut   uint64 // events dropped blind before materialization
	Windows      uint64 // classification windows observed
	Flips        uint64 // fingerprint flips
	RePromotions uint64 // returns to full rate
	ByReason     struct{ Flip, NewThread, Contention uint64 }
	MaxBound     float64 // largest per-instance detection error bound
	// PerInstance lists the rows whose stream was lossy.
	PerInstance []InstanceSampling
}

// InstanceSampling is one sampled instance's row in the -stats block.
type InstanceSampling struct {
	Name         string
	State        string
	Rate         int
	Realized     float64 // observed:folded ratio actually achieved
	Observed     uint64
	Folded       uint64
	Aggregated   uint64
	SampledOut   uint64
	RePromotions uint64
	Bound        float64
	SketchErr    float64
}

// Conserved reports the controller-wide conservation identity.
func (ss *SamplingStats) Conserved() bool {
	return ss.Observed == ss.Folded+ss.Aggregated+ss.SampledOut
}

// Write renders the sampling counters in the layout `dsspy -stats` prints.
func (ss *SamplingStats) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Sampling: mode %s, %d instance(s) (%d backed off), observed %d = folded %d + aggregated %d + sampled out %d, %d window(s), %d flip(s), %d re-promotion(s) (flip %d, new-thread %d, contention %d)\n",
		ss.Mode, ss.Instances, ss.BackedOff,
		ss.Observed, ss.Folded, ss.Aggregated, ss.SampledOut,
		ss.Windows, ss.Flips, ss.RePromotions,
		ss.ByReason.Flip, ss.ByReason.NewThread, ss.ByReason.Contention); err != nil {
		return err
	}
	for _, is := range ss.PerInstance {
		if _, err := fmt.Fprintf(w, "  %-24s %-8s rate 1:%-4d realized %.1f:1  observed %d = %d + %d + %d  re-promotions %d  bound %.4f  sketch err %.3f\n",
			is.Name, is.State, is.Rate, is.Realized,
			is.Observed, is.Folded, is.Aggregated, is.SampledOut,
			is.RePromotions, is.Bound, is.SketchErr); err != nil {
			return err
		}
	}
	return nil
}

// Write renders the stats in the layout `dsspy -stats` prints.
func (ps *PipelineStats) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Pipeline: %d events, %d instances, %d worker(s), wall %s\n",
		ps.Events, ps.Instances, ps.Workers, ps.Wall.Round(time.Microsecond)); err != nil {
		return err
	}
	if ps.Streaming != nil {
		if err := ps.Streaming.Write(w); err != nil {
			return err
		}
	}
	if ps.Contention != nil {
		if err := ps.Contention.Write(w); err != nil {
			return err
		}
	}
	if ps.Sampling != nil {
		if err := ps.Sampling.Write(w); err != nil {
			return err
		}
	}
	if ps.Overhead != nil {
		if err := ps.Overhead.Write(w); err != nil {
			return err
		}
	}
	if ps.Collector != nil {
		return ps.Collector.Write(w)
	}
	return nil
}
