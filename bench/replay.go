package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"dsspy/internal/core"
	"dsspy/internal/corpus"
	"dsspy/internal/trace"
)

// replay-corpus: the offline `dsspy -replay -stream` job. Setup records a
// fixed corpus mix (990 instances, 486,120 events) in a seed-shuffled
// order and saves it as a v3 session log; each iteration loads the log
// columnar, folds it through the streaming analyzer, and renders the report.
// The v3 decoder and per-instance finalize carry the work, over about a
// thousand instances; dstruct, the producer and the collector do none. The
// uninstrumented twin of an iteration is the load alone: the same log read
// and decoded with no analysis behind it.

type replayBench struct {
	cfg     runConfig
	mix     corpus.Mix
	path    string
	refText []byte
	refSigs map[trace.InstanceID]string
	last    [2]*core.Report
}

func newReplayBench(cfg runConfig) *replayBench {
	// Sized so a run collects over 100 reports: report_ms_p90 then has ten
	// samples beyond it.
	units := 6
	if cfg.short {
		units = 1
	}
	return &replayBench{cfg: cfg, mix: mixOf(units),
		path: filepath.Join(cfg.outDir, fmt.Sprintf("replay-%d.dslog", cfg.seed))}
}

func (b *replayBench) setup() error {
	s, cols := recordMix(b.mix, "replay", b.cfg.seed)
	if err := trace.SaveSessionColumns(b.path, s, cols); err != nil {
		return err
	}
	rep, text, _, _, err := b.replay(nil, nil, 0)
	if err != nil {
		return err
	}
	if err := checkUseCases(rep, b.mix); err != nil {
		return fmt.Errorf("reference replay: %w", err)
	}
	b.refText, b.refSigs = text, signatures(rep)
	return nil
}

// replay runs one iteration: load, fold, finalize, render.
func (b *replayBench) replay(tr *tracer, fold *busyClock, parent int) (*core.Report, []byte, int, time.Duration, error) {
	start := time.Now()
	var s *trace.Session
	var cols []*trace.ColumnBatch
	var err error
	tr.timed("trace.codec.load", laneMain, parent, func() { s, cols, err = trace.LoadSessionColumns(b.path) })
	if err != nil {
		return nil, nil, 0, 0, err
	}
	sa := core.New().NewStreamAnalyzer(runtime.GOMAXPROCS(0))
	sa.Attach(s)
	n := 0
	d := tr.timed("core.fold", laneMain, parent, func() {
		for _, c := range cols {
			sa.FeedColumns(c)
			n += c.Len()
		}
	})
	if fold != nil {
		fold.add(d, n)
	}
	var rep *core.Report
	tr.timed("core.finalize", laneMain, parent, func() { rep = sa.Close() })
	var buf bytes.Buffer
	tr.timed("core.write", laneMain, parent, func() { rep.Write(&buf) })
	return rep, buf.Bytes(), n, time.Since(start), nil
}

func (b *replayBench) measure(e *env) (*measurement, error) {
	m := &measurement{}
	var profiled, twins []float64
	var agree, total int
	var mem0, mem1 runtime.MemStats
	for k := 0; e.more(k, 2); k++ {
		tr := e.tracerFor(k)
		e.gc()
		var twinErr error
		twin := tr.timed("replay.twin", laneMain, 0, func() { _, _, twinErr = trace.LoadSessionColumns(b.path) })
		if twinErr != nil {
			return nil, twinErr
		}

		e.gc()
		runtime.ReadMemStats(&mem0)
		var fold *busyClock
		if tr != nil {
			fold = &m.fold
		}
		root := tr.reserve("ledger.iteration", laneMain, 0)
		start := time.Now()
		rep, text, n, d, err := b.replay(tr, fold, root)
		tr.finish(root, start, nil)
		runtime.ReadMemStats(&mem1)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(text, b.refText) {
			e.ref.op(fmt.Errorf("replay %d: report differs from the reference", k))
		} else {
			e.ref.op(nil)
		}
		rep.Origin = fmt.Sprintf("replay#%d", k)
		b.last[0], b.last[1] = b.last[1], rep
		if tr == nil {
			m.events += uint64(n)
			m.wall += d
			m.allocBytes += mem1.TotalAlloc - mem0.TotalAlloc
			m.latencies = append(m.latencies, d)
			profiled = append(profiled, d.Seconds())
			twins = append(twins, twin.Seconds())
			agree += agreeing(b.refSigs, rep)
			total += len(b.refSigs)
		} else {
			m.tracedEvents += uint64(n)
			m.tracedWall += d
			m.finalizeRows += len(rep.Instances)
		}
		e.cal.maybe()
	}
	if len(profiled) == 0 {
		return nil, fmt.Errorf("no untraced iteration completed; raise -seconds")
	}
	m.slowdown = median(profiled) / median(twins)
	m.agreement = float64(agree) / float64(total)
	return m, nil
}

func (b *replayBench) probeInputs() ([]probeInput, error) {
	s, runs, err := trace.LoadSessionColumns(b.path)
	if err != nil {
		return nil, err
	}
	return []probeInput{{sess: s, cols: concat(runs)}}, nil
}

// concat joins Seq-ordered runs into one batch.
func concat(runs []*trace.ColumnBatch) *trace.ColumnBatch {
	out := &trace.ColumnBatch{}
	for _, r := range runs {
		out.AppendRange(r, 0, r.Len())
	}
	return out
}

func (b *replayBench) mergeInputs() []*core.Report {
	if b.last[0] == nil {
		return b.last[1:]
	}
	return b.last[:]
}

func (b *replayBench) close() {}
