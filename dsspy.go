// Package dsspy is a dynamic profiler that locates parallelization potential
// in the runtime profiles of object-oriented data structures, a Go
// implementation of the system described in "Locating Parallelization
// Potential in Object-Oriented Data Structures" (Molitorisz, Karcher,
// Bieleš, Tichy — IEEE IPDPS 2014).
//
// The workflow mirrors the paper's Figure 4:
//
//  1. Build your workload against the instrumented containers (List, Array,
//     Dictionary, Stack, Queue, ...) instead of raw slices and maps — in Go
//     this proxy layer replaces the paper's Roslyn source rewriting.
//  2. Run the workload through a Session; every interface method emits one
//     access event into a recorder.
//  3. Analyze: the collector folds every event into per-instance reducers
//     while the workload runs — profile statistics → access patterns → use
//     cases — and the report at the end carries each use case's evidence
//     and recommended action.
//
// Minimal usage:
//
//	rep := dsspy.Run(func(s *dsspy.Session) {
//	    l := dsspy.NewList[int](s)
//	    for i := 0; i < 1000; i++ {
//	        l.Add(i)
//	    }
//	})
//	rep.Write(os.Stdout)
//
// The subpackages under internal implement the pipeline; this package is the
// stable public surface.
package dsspy

import (
	"dsspy/internal/core"
	"dsspy/internal/dstruct"
	"dsspy/internal/metrics"
	"dsspy/internal/obs"
	"dsspy/internal/profile"
	"dsspy/internal/sample"
	"dsspy/internal/trace"
	"dsspy/internal/usecase"
)

// Session owns event sequencing, the instance registry and the recorder for
// one profiling run.
type Session = trace.Session

// Event is one access event (timestamp, access type, position, size,
// thread id, instance binding).
type Event = trace.Event

// Recorder consumes access events.
type Recorder = trace.Recorder

// BatchRecorder is the optional []Event bulk interface: recorders that
// accept whole batches in one call. All collectors in this package
// implement it.
type BatchRecorder = trace.BatchRecorder

// Producer is a goroutine-local batched emission handle obtained from
// Session.Bind: the goroutine id is captured once and events accumulate in
// pooled column batches, so the per-event hot-path cost (id capture,
// atomic sequencing, collector handoff) is amortized by the batch size.
// Reports are byte-identical to per-event Emit. A Producer must stay on the
// goroutine that created it; call Close (or Flush) before synchronizing
// with readers of the recorder. The session's sole producer
// (Session.BindDefault) hands each shard's batch over at 1024 events
// instead of flushing every DefaultBatchSize.
type Producer = trace.Producer

// DefaultBatchSize is the events-per-flush capacity of a Bind producer's
// batch: the unit in which its events interleave with other goroutines'.
const DefaultBatchSize = trace.DefaultBatchSize

// BatchStats summarizes producer-batching effectiveness (flush count, events
// batched, fill and flush-latency distributions); see Session.BatchStats.
type BatchStats = trace.BatchStats

// ShardedCollector partitions events by instance across several buffers and
// drain goroutines, removing the single-channel bottleneck under
// multi-goroutine workloads.
type ShardedCollector = trace.ShardedCollector

// CollectorStats reports per-shard queue statistics and producer block time.
type CollectorStats = trace.CollectorStats

// ColumnBatch is a struct-of-arrays event batch: the in-memory form events
// travel in between the v3 wire decoder, the collector shards, and the
// streaming reducers, without being inflated into Event structs.
type ColumnBatch = trace.ColumnBatch

// PipelineStats instruments the analysis pipeline itself; see Report.Stats.
type PipelineStats = metrics.PipelineStats

// OverheadStats is the paper-§V self-overhead accounting: sampled Record
// cost, estimated producer overhead, and the instrumented-vs-uninstrumented
// slowdown when a plain twin was timed. Surfaced through Report.Stats.Overhead.
type OverheadStats = metrics.OverheadStats

// Histogram is the lock-free log-bucketed latency histogram the
// observability plane is built on (~6% relative quantile error).
type Histogram = obs.Histogram

// HistSnapshot is an immutable histogram snapshot with quantile queries.
type HistSnapshot = obs.HistSnapshot

// Tracer records pipeline spans into a bounded ring and exports them as
// Chrome trace-event JSON (Perfetto-loadable); wire it via Config.Tracer.
type Tracer = obs.Tracer

// NewTracer returns a tracer whose ring holds up to n spans.
func NewTracer(n int) *Tracer { return obs.NewTracer(n) }

// TimedRecorder wraps any Recorder and measures the cost of every n-th
// Record call, feeding the self-overhead estimate without perturbing the
// hot path.
type TimedRecorder = trace.TimedRecorder

// NewTimedRecorder wraps rec, timing one in every `every` Record calls
// (0 uses the default 1-in-64).
func NewTimedRecorder(rec Recorder, every int) *TimedRecorder {
	return trace.NewTimedRecorder(rec, every)
}

// NewShardedCollector starts a collector with n shards; 0 means GOMAXPROCS
// and 1 is the paper's single-channel asynchronous collector.
func NewShardedCollector(n int) *ShardedCollector { return trace.NewShardedCollector(n) }

// OverloadPolicy decides what happens when a producer finds the collector's
// buffer full: Block (lossless), DropNewest, or Sample. Every undelivered
// event is counted — delivered + dropped == recorded always holds.
type OverloadPolicy = trace.OverloadPolicy

// Block returns the lossless default overload policy.
func Block() OverloadPolicy { return trace.Block() }

// DropNewest returns the bounded-latency overload policy: full buffers drop
// (and count) the event instead of blocking the producer.
func DropNewest() OverloadPolicy { return trace.DropNewest() }

// Sample returns the degraded-fidelity policy: one in n overflow events is
// delivered, the rest are dropped and counted.
func Sample(n int) OverloadPolicy { return trace.Sample(n) }

// ParseOverloadPolicy parses "block", "drop", or "sample:N" (the -overload
// flag syntax).
func ParseOverloadPolicy(s string) (OverloadPolicy, error) { return trace.ParseOverloadPolicy(s) }

// NewShardedCollectorOpts starts a sharded collector with an explicit buffer
// size and overload policy.
func NewShardedCollectorOpts(n, buf int, policy OverloadPolicy) *ShardedCollector {
	return trace.NewShardedCollectorOpts(n, buf, policy)
}

// ResilientRecorder ships events to an out-of-process collector and survives
// its absence: bounded-backoff reconnection, a crash-safe disk spill replayed
// on reconnect, and full delivery accounting (recorded == delivered +
// dropped + on disk + buffered).
type ResilientRecorder = trace.ResilientRecorder

// ResilientOptions configures a ResilientRecorder.
type ResilientOptions = trace.ResilientOptions

// ResilientStats is the delivery accounting of a resilient recorder.
type ResilientStats = trace.ResilientStats

// NewResilientRecorder connects to a collector, falling back to
// reconnect-with-backoff and disk spill when it is unreachable.
func NewResilientRecorder(opts ResilientOptions) (*ResilientRecorder, error) {
	return trace.NewResilientRecorder(opts)
}

// Recovery describes what a salvaging load decoded and what it gave up.
type Recovery = trace.Recovery

// Report is the analysis outcome: per-instance profiles, patterns and use
// cases.
type Report = core.Report

// UseCase is one detected use case with its recommended action.
type UseCase = usecase.UseCase

// Thresholds carries the use-case threshold values (§III.B).
type Thresholds = usecase.Thresholds

// Config bundles all pipeline tunables.
type Config = core.Config

// Analyzer is the DSspy pipeline.
type Analyzer = core.DSspy

// NewSession returns a session with an in-memory recorder and call-site
// capture, ready for instrumented containers.
func NewSession() *Session { return trace.NewSession() }

// NewAnalyzer returns an analyzer with the paper's default thresholds.
func NewAnalyzer() *Analyzer { return core.New() }

// NewAnalyzerWith returns an analyzer with an explicit configuration.
func NewAnalyzerWith(cfg Config) *Analyzer { return core.NewWith(cfg) }

// DefaultConfig returns the paper's thresholds and strict pattern matching.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultThresholds returns the §III.B threshold values.
func DefaultThresholds() Thresholds { return usecase.Default() }

// Run profiles the workload with default configuration — the one-call entry
// point. The collector drains into the streaming analyzer while the workload
// runs, so no event store is retained.
func Run(workload func(*Session)) *Report {
	return core.New().Run(workload)
}

// StreamAnalyzer is the analysis engine: it computes reports incrementally
// while events arrive, in O(instances) memory. No event store is retained,
// Snapshot returns a consistent report at any point of the run, and Close
// returns the final one. Run and Analyzer.Analyze are drivers over it.
type StreamAnalyzer = core.StreamAnalyzer

// NewStreamAnalyzer returns a streaming analyzer with default configuration
// and n shards (0 means GOMAXPROCS).
func NewStreamAnalyzer(n int) *StreamAnalyzer { return core.New().NewStreamAnalyzer(n) }

// StreamingStats instruments the streaming analysis path (events folded, open
// runs, snapshot cost); surfaced through Report.Stats.Streaming.
type StreamingStats = metrics.StreamingStats

// ContentionStats aggregates the per-instance cross-thread summaries
// (multi-thread instances, contended instances, episode volume); surfaced
// through Report.Stats.Contention.
type ContentionStats = metrics.ContentionStats

// Contention is the per-instance cross-thread summary: contention episodes,
// reader/writer phase structure, and the bounded happens-before sketch over
// per-thread access windows. Surfaced through core.InstanceResult.Contention
// for instances touched by more than one thread.
type Contention = profile.Contention

// Gate is the trace-layer sampling hook: a Session with a gate consults it
// per event (or per credit run, via a Producer) before the event is ever
// materialized. SampleController implements it.
type Gate = trace.Gate

// SampleConfig configures per-instance adaptive sampling (mode, window and
// hysteresis parameters, burst length, rate ceiling).
type SampleConfig = sample.Config

// SampleController is the per-instance adaptive sampling controller: it keeps
// cold and undecided instances at full fidelity and backs off hot ones once
// their classification has been stable for consecutive windows, re-promoting
// instantly on a classification flip, a new thread, or a contention episode.
// Install it as the session's Gate and attach it to a StreamAnalyzer with
// SetSampling.
type SampleController = sample.Controller

// InstanceSampling is the per-instance sampling record a lossy run attaches
// to its report rows: realized rate, conservation accounting
// (observed == folded + sampled out), sketch summaries and the confidence
// bound every detection on the instance inherits.
type InstanceSampling = sample.InstanceSampling

// SamplingStats aggregates the controller's accounting for Report.Stats.
type SamplingStats = metrics.SamplingStats

// NewSampleController builds a sampling controller. The zero SampleConfig
// means full fidelity; parse "adaptive" or "1:N" with ParseSampleConfig.
func NewSampleController(cfg SampleConfig) *SampleController { return sample.NewController(cfg) }

// ParseSampleConfig parses a -sample style mode string: "full", "adaptive",
// or "1:N" for a static burst rate.
func ParseSampleConfig(s string) (SampleConfig, error) { return sample.ParseConfig(s) }

// Instrumented containers (the proxy layer). Each constructor registers the
// instance with the session; every interface method emits one access event.

// NewList returns an empty instrumented list.
func NewList[T comparable](s *Session) *dstruct.List[T] { return dstruct.NewList[T](s) }

// NewListCap returns an instrumented list with preallocated capacity.
func NewListCap[T comparable](s *Session, capacity int) *dstruct.List[T] {
	return dstruct.NewListCap[T](s, capacity)
}

// NewListLabeled returns an instrumented list with a semantic label for
// reports.
func NewListLabeled[T comparable](s *Session, label string) *dstruct.List[T] {
	return dstruct.NewListLabeled[T](s, label)
}

// NewArray returns an instrumented fixed-size array.
func NewArray[T comparable](s *Session, length int) *dstruct.Array[T] {
	return dstruct.NewArray[T](s, length)
}

// NewArrayLabeled returns a labeled instrumented array.
func NewArrayLabeled[T comparable](s *Session, length int, label string) *dstruct.Array[T] {
	return dstruct.NewArrayLabeled[T](s, length, label)
}

// NewDictionary returns an instrumented hash map.
func NewDictionary[K comparable, V any](s *Session) *dstruct.Dictionary[K, V] {
	return dstruct.NewDictionary[K, V](s)
}

// NewStack returns an instrumented LIFO container.
func NewStack[T comparable](s *Session) *dstruct.Stack[T] { return dstruct.NewStack[T](s) }

// NewQueue returns an instrumented FIFO container.
func NewQueue[T comparable](s *Session) *dstruct.Queue[T] { return dstruct.NewQueue[T](s) }

// NewHashSet returns an instrumented set.
func NewHashSet[T comparable](s *Session) *dstruct.HashSet[T] { return dstruct.NewHashSet[T](s) }

// NewLinkedList returns an instrumented doubly linked list.
func NewLinkedList[T comparable](s *Session) *dstruct.LinkedList[T] {
	return dstruct.NewLinkedList[T](s)
}

// Ordered constrains SortedList and SortedSet keys.
type Ordered = dstruct.Ordered

// NewSortedList returns an instrumented key-ordered list.
func NewSortedList[K Ordered, V any](s *Session) *dstruct.SortedList[K, V] {
	return dstruct.NewSortedList[K, V](s)
}

// NewSortedSet returns an instrumented ordered set.
func NewSortedSet[T Ordered](s *Session) *dstruct.SortedSet[T] {
	return dstruct.NewSortedSet[T](s)
}

// NewArrayList returns an instrumented untyped list.
func NewArrayList(s *Session) *dstruct.ArrayList { return dstruct.NewArrayList(s) }

// ReplaySessionColumns loads a session log saved by SaveSessionColumns (or
// `dsspy -log`) as Seq-ordered column batches for streaming re-analysis: feed
// each batch to a StreamAnalyzer via FeedColumns. On a v3 log the events go
// from disk to the reducers without ever being inflated into Event structs.
func ReplaySessionColumns(path string) (*Session, []*ColumnBatch, error) {
	return trace.LoadSessionColumns(path)
}

// RecoverSessionColumns salvages a damaged or truncated session log: every
// frame before the first structural damage is decoded, checksum-failed frames
// are skipped, and the Recovery diagnostic reports exactly what was lost. Use
// it when ReplaySessionColumns refuses a log from a crashed run.
func RecoverSessionColumns(path string) (*Session, []*ColumnBatch, *Recovery, error) {
	return trace.RecoverSessionColumns(path)
}

// SaveSessionColumns writes a self-contained session log (registry + events)
// straight from a column batch (e.g. ShardedCollector.MergedColumns) without
// inflating events. Scatter an []Event once with ColumnBatch.AppendEvents.
func SaveSessionColumns(path string, s *Session, cols *ColumnBatch) error {
	return trace.SaveSessionColumns(path, s, cols)
}
