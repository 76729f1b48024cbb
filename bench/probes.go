package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"dsspy/internal/apps"
	"dsspy/internal/core"
	"dsspy/internal/pattern"
	"dsspy/internal/profile"
	"dsspy/internal/sample"
	"dsspy/internal/trace"
	"dsspy/internal/usecase"
)

// Isolation probes: after a traced run's measured phase, each layer the
// workload's own path may not reach is priced alone, on the workload's own
// event streams where the layer consumes events (producer, collector, codec,
// IPC, each reducer, the sampler) and on the Table IV programs where it
// consumes program accesses (dstruct floor, Handle drop path). Every probe
// records one span named after its layer.

// probeInput is one of the workload's event streams: the registry and the
// Seq-ordered columns.
type probeInput struct {
	sess *trace.Session
	cols *trace.ColumnBatch
}

func runProbes(w workload, tr *tracer, out map[string]float64) error {
	inputs, err := w.probeInputs()
	if err != nil {
		return fmt.Errorf("probe inputs: %w", err)
	}
	events := 0
	for _, in := range inputs {
		events += in.cols.Len()
	}
	if events == 0 {
		return errors.New("probe inputs hold no events")
	}
	probeProducer(tr, inputs, events, out)
	probeCollector(tr, inputs, events, out)
	if err := probeCodec(tr, inputs, events, out); err != nil {
		return err
	}
	if err := probeIPC(tr, inputs, events, out); err != nil {
		return err
	}
	probeReducers(tr, inputs, events, out)
	probeSampling(tr, inputs, out)
	probeHandle(tr, out)
	probeFloor(tr, out)
	probeMerge(tr, w.mergeInputs(), out)
	return nil
}

// emitAll replays the columns through batched producers, one per thread.
func emitAll(s *trace.Session, cols *trace.ColumnBatch) {
	producers := make(map[trace.ThreadID]*trace.Producer)
	for i := 0; i < cols.Len(); i++ {
		p := producers[cols.Thread[i]]
		if p == nil {
			p = s.BindAs(cols.Thread[i])
			producers[cols.Thread[i]] = p
		}
		p.Emit(cols.Instance[i], cols.Op[i], cols.Index[i], cols.Size[i])
	}
	for _, p := range producers {
		p.Close()
	}
}

// probeProducer prices the producer alone: batching, sequence stamping and
// recorder dispatch into a recorder that discards.
func probeProducer(tr *tracer, inputs []probeInput, events int, out map[string]float64) {
	d := tr.timed("trace.producer", laneProbe, 0, func() {
		for _, in := range inputs {
			emitAll(trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}}), in.cols)
		}
	})
	out["trace.producer.ns_per_event"] = float64(d) / float64(events)
}

// probeCollector drives the online path without dstruct: producers hand
// batches to a sharded collector draining into the streaming analyzer. The
// hand-off is timed at the recorder seam; block time and queue depth come
// from the collector's own stats.
func probeCollector(tr *tracer, inputs []probeInput, events int, out map[string]float64) {
	var handoff busyClock
	var block, wall time.Duration
	highwater := 0
	for _, in := range inputs {
		n := runtime.GOMAXPROCS(0)
		sa := core.New().NewStreamAnalyzer(n)
		col := trace.NewStreamingShardedCollector(n, trace.DefaultAsyncBuffer, trace.Block(), false, sa.FeedShard)
		s := trace.NewSessionWith(trace.Options{Recorder: timedRecorder{col, &handoff}})
		sa.Attach(s)
		wall += tr.timed("trace.collector", laneProbe, 0, func() {
			emitAll(s, in.cols)
			col.Close()
		})
		sa.Close()
		st := col.Stats()
		block += st.BlockTime
		for _, hw := range st.ShardHighWater {
			highwater = max(highwater, hw)
		}
	}
	out["trace.collector.handoff_ns_per_event"] = handoff.nsPerEvent()
	out["trace.collector.block_share"] = float64(block) / float64(wall)
	out["trace.collector.queue_highwater"] = float64(highwater)
}

// probeCodec encodes the columns as v3 frames and decodes them back.
func probeCodec(tr *tracer, inputs []probeInput, events int, out map[string]float64) error {
	encoded := make([][]byte, len(inputs))
	var err error
	enc := tr.timed("trace.codec.encode", laneProbe, 0, func() {
		for i, in := range inputs {
			var buf bytes.Buffer
			var sw *trace.StreamWriter
			if sw, err = trace.NewStreamWriter(&buf); err != nil {
				return
			}
			if err = sw.WriteColumns(in.cols); err != nil {
				return
			}
			if err = sw.Close(); err != nil {
				return
			}
			encoded[i] = buf.Bytes()
		}
	})
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	decoded := 0
	dec := tr.timed("trace.codec.decode", laneProbe, 0, func() {
		var b trace.ColumnBatch
		for _, data := range encoded {
			var sr *trace.StreamReader
			if sr, err = trace.NewStreamReader(bytes.NewReader(data)); err != nil {
				return
			}
			for {
				b.Reset()
				n, rerr := sr.ReadColumns(&b)
				if rerr == io.EOF {
					break
				}
				if rerr != nil {
					err = rerr
					return
				}
				decoded += n
			}
		}
	})
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	if decoded != events {
		return fmt.Errorf("codec probe: decoded %d events, encoded %d", decoded, events)
	}
	size := 0
	for _, data := range encoded {
		size += len(data)
	}
	out["trace.codec.encode_ns_per_event"] = float64(enc) / float64(events)
	out["trace.codec.decode_ns_per_event"] = float64(dec) / float64(events)
	out["trace.codec.bytes_per_event"] = float64(size) / float64(events)
	return nil
}

// probeIPC sends each stream over loopback to a collector server whose sink
// discards: framing, decode and tenancy with no analysis behind them.
func probeIPC(tr *tracer, inputs []probeInput, events int, out map[string]float64) error {
	srv, err := listen(nullTenantSink{})
	if err != nil {
		return err
	}
	defer srv.cs.Close()
	var wall time.Duration
	for _, in := range inputs {
		stream, err := encodeStream("probe", 0, in.sess, in.cols)
		if err != nil {
			return err
		}
		var d time.Duration
		tr.timed("trace.ipc", laneProbe, 0, func() { d, err = srv.send(stream) })
		if err != nil {
			return err
		}
		wall += d
	}
	for _, ts := range srv.cs.TenantStats() {
		if ts.Delivered != uint64(events) {
			return fmt.Errorf("ipc probe: delivered %d events, sent %d", ts.Delivered, events)
		}
	}
	out["trace.ipc.decode_ns_per_event"] = float64(wall) / float64(events)
	return nil
}

// probeReducers feeds each reducer every instance's column span in
// isolation, the way the streaming analyzer's per-instance state does.
func probeReducers(tr *tracer, inputs []probeInput, events int, out map[string]float64) {
	var spans []*trace.ColumnBatch
	for _, in := range inputs {
		spans = append(spans, perInstance(in.cols)...)
	}
	cfg := core.DefaultConfig()
	reducers := []struct {
		metric, layer string
		fold          func(b *trace.ColumnBatch)
	}{
		{"profile.stats_ns_per_event", "profile.stats", func(b *trace.ColumnBatch) {
			var r profile.StreamStats
			r.FoldBatch(b, 0, b.Len())
		}},
		{"profile.segmenter_ns_per_event", "profile.segmenter", func(b *trace.ColumnBatch) {
			profile.NewStreamSegmenter(profile.DefaultSegmentOptions()).FeedBatch(b, 0, b.Len(), func(profile.Run) {})
		}},
		{"profile.contention_ns_per_event", "profile.contention", func(b *trace.ColumnBatch) {
			var r profile.StreamContention
			r.FoldBatch(b, 0, b.Len())
		}},
		{"pattern.detector_ns_per_event", "pattern.detector", func(b *trace.ColumnBatch) {
			pattern.NewStreamDetector(cfg.Pattern, true).FeedBatch(b, 0, b.Len(), func(pattern.Closed) {})
		}},
		{"usecase.stream_ns_per_event", "usecase.stream", func(b *trace.ColumnBatch) {
			usecase.NewStream(cfg.Thresholds).FoldBatch(b, 0, b.Len())
		}},
	}
	for _, r := range reducers {
		d := tr.timed(r.layer, laneProbe, 0, func() {
			for _, b := range spans {
				r.fold(b)
			}
		})
		out[r.metric] = float64(d) / float64(events)
	}
}

// perInstance splits Seq-ordered columns into one batch per instance.
func perInstance(cols *trace.ColumnBatch) []*trace.ColumnBatch {
	byID := make(map[trace.InstanceID]*trace.ColumnBatch)
	var order []*trace.ColumnBatch
	for i := 0; i < cols.Len(); {
		j := cols.InstanceRun(i, cols.Len())
		b := byID[cols.Instance[i]]
		if b == nil {
			b = &trace.ColumnBatch{}
			byID[cols.Instance[i]] = b
			order = append(order, b)
		}
		b.AppendRange(cols, i, j)
		i = j
	}
	return order
}

// probeSampling runs the workload's streams through apps-sampled's static
// 1:64 gate into the streaming analyzer, and reads what survived.
func probeSampling(tr *tracer, inputs []probeInput, out map[string]float64) {
	var observed, folded, aggregated uint64
	var bounds []float64
	tr.timed("sample.static", laneProbe, 0, func() {
		for _, in := range inputs {
			ctrl := sample.NewController(staticSampling)
			sa := core.New().NewStreamAnalyzer(runtime.GOMAXPROCS(0))
			col := sa.Collector(trace.DefaultAsyncBuffer, trace.Block(), false)
			sa.SetSampling(ctrl)
			s := trace.NewSessionWith(trace.Options{Recorder: col, Gate: ctrl})
			for _, inst := range in.sess.Instances() {
				s.RestoreInstance(inst)
			}
			sa.Attach(s)
			emitAll(s, in.cols)
			col.Close()
			rep := sa.Close()
			st := rep.Stats.Sampling
			observed += st.Observed
			folded += st.Folded
			aggregated += st.Aggregated
			for _, ir := range rep.Instances {
				if ir.Sampling != nil {
					bounds = append(bounds, ir.Sampling.Bound)
				}
			}
		}
	})
	out["sample.kept_share"] = float64(folded) / float64(observed)
	out["sample.aggregated_share"] = float64(aggregated) / float64(observed)
	mean := 0.0
	for _, b := range bounds {
		mean += b / float64(len(bounds))
	}
	out["sample.bound_mean"] = mean
}

// dropAll is a gate that samples every access out with maximal credit, and
// counts the accesses it settled: the no-trace floor of the proxy layer.
type dropAll struct{ seen atomic.Uint64 }

func (g *dropAll) Admit(trace.InstanceID, trace.ThreadID) bool {
	g.seen.Add(1)
	return false
}

func (g *dropAll) AdmitRun(trace.InstanceID, trace.ThreadID) (bool, int) { return false, 1 << 20 }

func (g *dropAll) Observe(_ trace.InstanceID, kept, dropped uint64) { g.seen.Add(kept + dropped) }

// probeHandle prices the container fast path: the inlined Drop test and
// decrement, with the slow path at every detail sub-span boundary.
func probeHandle(tr *tracer, out map[string]float64) {
	const n = 1 << 24
	s := trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}, Gate: &dropAll{}})
	id := s.Register(trace.KindList, "List[int]", "probe", 0)
	var h trace.Handle
	s.InitHandle(&h, id)
	d := tr.timed("trace.handle", laneProbe, 0, func() {
		for i := 0; i < n; i++ {
			if !h.Drop(trace.OpRead, i) {
				h.Emit(trace.OpRead, i, n)
			}
		}
	})
	s.FlushHandles()
	out["trace.handle.ns_per_drop"] = float64(d) / n
}

// probeFloor runs the Table IV programs under the drop-everything gate and
// their plain twins: what the proxy layer alone charges an access.
func probeFloor(tr *tracer, out map[string]float64) {
	const reps = 5
	var ratios []float64
	var extra time.Duration
	var accesses uint64
	tr.timed("dstruct.floor", laneProbe, 0, func() {
		for _, app := range apps.Apps() {
			var floors, twins []float64
			var seen uint64
			for r := 0; r < reps; r++ {
				runtime.GC()
				start := time.Now()
				app.PlainTwin()
				twins = append(twins, float64(time.Since(start)))

				g := &dropAll{}
				s := trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}, Gate: g})
				runtime.GC()
				start = time.Now()
				p := s.BindDefault()
				app.Instrumented(s)
				p.Close()
				floors = append(floors, float64(time.Since(start)))
				s.FlushHandles()
				seen = g.seen.Load()
			}
			f, t := median(floors), median(twins)
			ratios = append(ratios, f/t)
			extra += time.Duration(f - t)
			accesses += seen
		}
	})
	out["dstruct.floor_ratio"] = geoMean(ratios)
	out["dstruct.ns_per_access"] = float64(extra) / float64(accesses)
}

// probeMerge folds the workload's last reports into one fleet view.
func probeMerge(tr *tracer, reports []*core.Report, out map[string]float64) {
	var ds []float64
	rows := 0
	for r := 0; r < 5; r++ {
		d := tr.timed("core.merge", laneProbe, 0, func() {
			merged, _ := core.MergeReports(reports...)
			rows = len(merged.Instances)
		})
		ds = append(ds, float64(d))
	}
	if rows > 0 {
		out["core.merge_us_per_row"] = median(ds) / 1e3 / float64(rows)
	}
}
