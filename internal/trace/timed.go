package trace

import (
	"sync/atomic"
	"time"

	"dsspy/internal/obs"
)

// DefaultTimedSampleEvery is the Record-timing sampling rate: one in this
// many Record calls is clocked. Timing every call would make the overhead
// measurement itself the overhead; at 1-in-64 the two time.Now calls are
// amortized to well under a nanosecond per event.
const DefaultTimedSampleEvery = 64

// TimedRecorder wraps a Recorder and measures, on a sampled subset of calls,
// how long the wrapped Record takes — the producer-side cost of profiling,
// including any block time on full buffers. It is the instrument behind the
// paper's §V overhead accounting: the sampled distribution extrapolated over
// all events estimates how much the profiler perturbed the workload.
//
// The unsampled fast path is one atomic add on top of the wrapped Record.
// Safe for concurrent use.
type TimedRecorder struct {
	rec   Recorder
	every uint64
	n     atomic.Uint64
	hist  obs.Histogram
}

// NewTimedRecorder wraps rec, timing one in every sampled calls
// (every <= 0 uses DefaultTimedSampleEvery, every == 1 times all calls).
func NewTimedRecorder(rec Recorder, every int) *TimedRecorder {
	if every <= 0 {
		every = DefaultTimedSampleEvery
	}
	t := &TimedRecorder{rec: rec, every: uint64(every)}
	t.hist.Init()
	return t
}

// Record forwards to the wrapped recorder, clocking the call when the
// sample counter fires.
func (t *TimedRecorder) Record(e Event) {
	if t.n.Add(1)%t.every != 0 {
		t.rec.Record(e)
		return
	}
	start := time.Now()
	t.rec.Record(e)
	t.hist.Observe(time.Since(start))
}

// RecordBatch forwards the batch through the wrapped recorder's bulk path,
// clocking the whole delivery and observing the amortized per-event cost
// whenever the sample counter fires inside the batch. Per-event costs from
// Record and amortized costs from RecordBatch land in the same histogram, so
// the §V overhead estimate stays an events-weighted per-event figure.
func (t *TimedRecorder) RecordBatch(batch []Event) {
	n := uint64(len(batch))
	if n == 0 {
		return
	}
	c := t.n.Add(n)
	if c/t.every == (c-n)/t.every {
		RecordAll(t.rec, batch)
		return
	}
	start := time.Now()
	RecordAll(t.rec, batch)
	t.hist.Observe(time.Since(start) / time.Duration(n))
}

// ColumnShards forwards the wrapped recorder's column form, so producers
// writing through a TimedRecorder hand their columns over without a copy;
// 0 when the wrapped recorder has none.
func (t *TimedRecorder) ColumnShards() int { return columnShards(t.rec) }

// RecordColumns forwards one producer column batch, clocked like
// RecordBatch: the whole hand-off is timed when the sample counter fires
// inside the batch, and its amortized per-event cost lands in the same
// histogram. The batch passes to the wrapped recorder.
func (t *TimedRecorder) RecordColumns(shard int, b *ColumnBatch) {
	n := uint64(b.Len())
	c := t.n.Add(n)
	if c/t.every == (c-n)/t.every {
		recordColumns(t.rec, shard, b)
		return
	}
	start := time.Now()
	recordColumns(t.rec, shard, b)
	t.hist.Observe(time.Since(start) / time.Duration(n))
}

// Count returns the number of events seen (per-event Record calls plus the
// events inside batched deliveries).
func (t *TimedRecorder) Count() uint64 { return t.n.Load() }

// Sampled returns the number of calls actually timed.
func (t *TimedRecorder) Sampled() uint64 { return t.hist.Count() }

// SampleEvery returns the sampling rate (1-in-N).
func (t *TimedRecorder) SampleEvery() int { return int(t.every) }

// Hist returns the sampled Record-latency distribution.
func (t *TimedRecorder) Hist() obs.HistSnapshot { return t.hist.Snapshot() }

// WriteMetrics exports the sampled Record cost as a Prometheus histogram
// plus the raw call counter.
func (t *TimedRecorder) WriteMetrics(w *obs.PromWriter) {
	w.Counter("dsspy_record_calls_total",
		"Record calls through the timed recorder.", float64(t.Count()))
	w.Histogram("dsspy_record_seconds",
		"Sampled producer-side Record latency.", t.hist.Snapshot(), 1e9)
}
