package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dsspy/internal/core"
	"dsspy/internal/trace"
)

// The ledger: spans the benchmark records around its own calls into each
// layer, kept in memory and written out as a Chrome trace-event file when
// the run ends. Nothing inside the program under test is instrumented; the
// layers are timed from outside, through public seams (the collector's
// ShardSink, the collector server's TenantSink, the session's Recorder).

// Lanes group spans by the goroutine that ran them. A root span's children
// on the same lane are the steps that block the result; spans on other lanes
// (drain goroutines, the daemon's connection goroutines) run beside it.
const (
	laneMain   = 1 // the load-generating goroutine
	laneDrain  = 2 // collector drain goroutines (rollups)
	laneReader = 3 // daemon-fleet's report reader
	laneProbe  = 4 // isolation probes after the measured phase
)

type span struct {
	name   string
	lane   int
	start  time.Duration // since tracer start
	dur    time.Duration
	id     int
	parent int
	args   map[string]any
}

// tracer records spans. A nil *tracer records nothing, so untraced
// iterations run the identical code path minus the bookkeeping.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, lane, parent int, start time.Time, dur time.Duration, args map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, lane: lane, start: start.Sub(t.t0), dur: dur, id: id, parent: parent, args: args})
	t.mu.Unlock()
	return id
}

// reserve allocates a span id for a root whose duration is known only after
// its children ran; finish fills it in.
func (t *tracer) reserve(name string, lane, parent int) int {
	return t.add(name, lane, parent, time.Now(), 0, nil)
}

func (t *tracer) finish(id int, start time.Time, args map[string]any) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	sp := &t.spans[id-1]
	sp.start = start.Sub(t.t0)
	sp.dur = time.Since(start)
	sp.args = args
	t.mu.Unlock()
}

// timed runs fn, records it as a span, and returns its wall time.
func (t *tracer) timed(name string, lane, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.add(name, lane, parent, start, d, nil)
	return d
}

// residualShare is the share of root-span wall time that the root's
// same-lane children do not explain, over every root span with the given
// name (the ledger reconciliation: layer spans vs end-to-end wall).
func (t *tracer) residualShare(root string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	roots := make(map[int]time.Duration)
	lanes := make(map[int]int)
	var wall time.Duration
	for _, sp := range t.spans {
		if sp.name == root {
			roots[sp.id] = 0
			lanes[sp.id] = sp.lane
			wall += sp.dur
		}
	}
	var explained time.Duration
	for _, sp := range t.spans {
		if _, ok := roots[sp.parent]; ok && sp.lane == lanes[sp.parent] {
			explained += sp.dur
		}
	}
	if wall == 0 {
		return 0
	}
	return 1 - float64(explained)/float64(wall)
}

// durationsOf returns the durations of every span with the given name.
func (t *tracer) durationsOf(name string) durations {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out durations
	for _, sp := range t.spans {
		if sp.name == name {
			out = append(out, sp.dur)
		}
	}
	return out
}

// writeChrome writes the spans as a Chrome trace-event JSON file (loadable in
// chrome://tracing and Perfetto).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	evs := make([]event, len(t.spans))
	for i, sp := range t.spans {
		args := map[string]any{"id": sp.id, "parent": sp.parent}
		for k, v := range sp.args {
			args[k] = v
		}
		evs[i] = event{Name: sp.name, Cat: "bench", Ph: "X",
			Ts: float64(sp.start) / 1e3, Dur: float64(sp.dur) / 1e3, Pid: 1, Tid: sp.lane, Args: args}
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("writing trace file: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace file: %w", err)
	}
	return f.Close()
}

// busyClock accumulates the time a layer spent in calls made through one of
// the wrappers below, and the events those calls carried. Safe for
// concurrent use: drain and connection goroutines add to it in parallel.
type busyClock struct {
	ns     atomic.Int64
	events atomic.Int64
}

func (c *busyClock) add(d time.Duration, n int) {
	c.ns.Add(int64(d))
	c.events.Add(int64(n))
}

func (c *busyClock) busy() time.Duration { return time.Duration(c.ns.Load()) }

// nsPerEvent is the layer's busy time per event it handled.
func (c *busyClock) nsPerEvent() float64 {
	n := c.events.Load()
	if n == 0 {
		return 0
	}
	return float64(c.ns.Load()) / float64(n)
}

// timedSink wraps a collector ShardSink, timing every delivered batch.
func timedSink(next trace.ShardSink, c *busyClock) trace.ShardSink {
	return func(shard int, b *trace.ColumnBatch) {
		start := time.Now()
		next(shard, b)
		c.add(time.Since(start), b.Len())
	}
}

// timedRecorder wraps a session's recorder, timing the hand-off of every
// producer batch (and every per-event Record) into the collector.
type timedRecorder struct {
	next trace.Recorder
	c    *busyClock
}

func (r timedRecorder) Record(e trace.Event) {
	start := time.Now()
	r.next.Record(e)
	r.c.add(time.Since(start), 1)
}

func (r timedRecorder) RecordBatch(batch []trace.Event) {
	start := time.Now()
	trace.RecordAll(r.next, batch)
	r.c.add(time.Since(start), len(batch))
}

// timedTenantSink wraps the daemon as the collector server's TenantSink,
// timing event delivery while on is set.
type timedTenantSink struct {
	next *core.Daemon
	on   atomic.Bool
	c    busyClock
}

func (s *timedTenantSink) TenantEvents(tenant string, events []trace.Event) {
	if !s.on.Load() {
		s.next.TenantEvents(tenant, events)
		return
	}
	start := time.Now()
	s.next.TenantEvents(tenant, events)
	s.c.add(time.Since(start), len(events))
}

func (s *timedTenantSink) TenantInstance(tenant string, inst trace.Instance) {
	s.next.TenantInstance(tenant, inst)
}

func (s *timedTenantSink) TenantAggregate(tenant string, rec trace.AggRecord) {
	s.next.TenantAggregate(tenant, rec)
}
