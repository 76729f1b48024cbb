// Cross-thread contention analysis. Every event carries a thread id, but the
// per-instance figures of stats.go are interleaving-blind: they count how many
// threads touched an instance, not *how* their accesses interleave. This file
// adds the thread-aware layer: contention episodes (maximal windows of dense
// multi-thread interleaving), reader/writer phase structure, and a bounded
// happens-before sketch — one access-interval summary per thread, O(threads)
// per instance — inspired by the interval/vector-clock summaries dynamic
// partial-order structures (CSSTs) maintain. Two threads whose access windows
// are disjoint in sequence time are ordered (no concurrency between them);
// overlapping windows are potentially concurrent. The use-case layer turns
// these figures into concurrency-aware detections, and the advisor into
// container recommendations (shard-by-key, MPSC queue, RWMutex-wrap).
//
// Like every other per-instance reducer, StreamContention folds the instance's
// events in sequence order, one at a time (Fold) or a thread run at a time
// (FoldRun), with the same figures either way; unlike StreamStats it is
// order-*sensitive* (episodes and phases are adjacency properties), which is
// fine on exactly the grounds the run segmenter accepts: every feed path
// folds the identical per-instance sequence.
package profile

import (
	"sort"

	"dsspy/internal/trace"
)

const (
	// episodeBreakRun ends a contention episode: once one thread has held the
	// structure for this many consecutive events, the interleaving is over.
	// The exclusive run's first episodeBreakRun-1 events remain inside the
	// episode (they were interleaving candidates until the run completed).
	episodeBreakRun = 16

	// maxTrackedThreads caps the happens-before sketch. Beyond the cap,
	// events still fold into every O(1) figure (episodes, phases, switches)
	// but get no per-thread window; OverflowEvents counts them.
	maxTrackedThreads = 64
)

// ThreadWindow is the bounded per-thread summary of the happens-before
// sketch: the thread's access interval in sequence time plus its operation
// mix. Disjoint intervals are ordered; overlapping intervals are potentially
// concurrent.
type ThreadWindow struct {
	Thread   trace.ThreadID
	FirstSeq uint64
	LastSeq  uint64
	Events   int
	Reads    int // read-like events (Op.IsRead)
	Writes   int // write-like events (Op.IsWrite)
	Inserts  int
	Deletes  int
}

// Overlaps reports whether the two access intervals intersect in sequence
// time — the witness that the threads were (potentially) concurrent on this
// instance.
func (w ThreadWindow) Overlaps(o ThreadWindow) bool {
	return w.FirstSeq <= o.LastSeq && o.FirstSeq <= w.LastSeq
}

// Contention is the per-instance cross-thread summary.
type Contention struct {
	Total    int `json:"total"`
	Switches int `json:"switches,omitempty"` // adjacent events from different threads

	// Episode structure: maximal windows of consecutive events in which no
	// thread performed episodeBreakRun events exclusively.
	Episodes       int `json:"episodes,omitempty"`
	EpisodeEvents  int `json:"episode_events,omitempty"`
	MaxEpisode     int `json:"max_episode,omitempty"`
	WriterEpisodes int `json:"writer_episodes,omitempty"` // episodes containing ≥1 write

	// Reader/writer phase structure: maximal runs of same-classification
	// (read-like vs write-like) events, regardless of thread.
	ReadPhases    int `json:"read_phases,omitempty"`
	WritePhases   int `json:"write_phases,omitempty"`
	MaxReadPhase  int `json:"max_read_phase,omitempty"`
	MaxWritePhase int `json:"max_write_phase,omitempty"`

	// Happens-before sketch digest over the thread windows.
	OrderedPairs    int `json:"ordered_pairs,omitempty"`    // disjoint access intervals
	ConcurrentPairs int `json:"concurrent_pairs,omitempty"` // overlapping access intervals
	Producers       int `json:"producers,omitempty"`        // threads that inserted
	Consumers       int `json:"consumers,omitempty"`        // threads that deleted
	OverflowEvents  int `json:"overflow_events,omitempty"`  // events beyond the window cap

	Windows []ThreadWindow `json:"windows,omitempty"`
}

// Threads returns the number of tracked threads (identical to Stats.Threads
// unless the window table overflowed).
func (c *Contention) Threads() int { return len(c.Windows) }

// Contended reports whether the instance saw interleaved multi-thread access
// including at least one write — the situation where naive parallelization of
// the surrounding code would race, and where a concurrency-aware container
// pays off.
func (c *Contention) Contended() bool {
	return c != nil && c.Episodes > 0 && c.WriterEpisodes > 0
}

// EpisodeShare returns the fraction of the instance's events that fell inside
// contention episodes.
func (c *Contention) EpisodeShare() float64 {
	if c == nil || c.Total == 0 {
		return 0
	}
	return float64(c.EpisodeEvents) / float64(c.Total)
}

// PhaseSeparated reports whether reads and writes alternate in few, long
// phases rather than mixing: the whole profile is at most maxPhases
// read/write phases with at least one of each.
func (c *Contention) PhaseSeparated(maxPhases int) bool {
	if c == nil || c.ReadPhases == 0 || c.WritePhases == 0 {
		return false
	}
	return c.ReadPhases+c.WritePhases <= maxPhases
}

// StreamContention incrementally computes a profile's Contention. Fold each
// event in per-instance sequence order; Snapshot at any time yields the
// figures of the prefix folded so far, without consuming it.
//
// Single-threaded fast path: all episode/phase/switch state is scalar, and
// the first thread's window lives inline — an instance touched by exactly one
// thread never allocates (asserted by TestContentionSingleThreadZeroAlloc).
// The window table is only materialized when a second thread appears.
type StreamContention struct {
	started    bool
	prevThread trace.ThreadID
	prevWrite  bool
	sameRun    int
	switches   int
	total      int

	epOpen   bool
	epLen    int
	epWriter bool

	episodes       int
	episodeEvents  int
	maxEpisode     int
	writerEpisodes int

	phStarted bool
	phWrite   bool
	phLen     int

	readPhases    int
	writePhases   int
	maxReadPhase  int
	maxWritePhase int

	w0       ThreadWindow   // first thread's window, inline
	more     []ThreadWindow // further threads; nil while single-threaded
	overflow int            // events from threads beyond maxTrackedThreads
}

// Fold adds one event.
func (c *StreamContention) Fold(e trace.Event) {
	c.fold(e.Seq, e.Op, e.Thread)
}

// FoldBatch folds events [i, j) of a column batch one thread run at a time,
// as FoldRun's pass folds contention — enter, runStep per event, leave —
// without the stats and segmentation the pass folds beside it: the
// contention reducer's share of the fold, timed alone by the overhead gates.
func (c *StreamContention) FoldBatch(b *trace.ColumnBatch, i, j int) {
	for k := i; k < j; {
		e := b.ThreadRun(k, min(j, k+maxSpan))
		seqs, ops := b.Seq[k:e], b.Op[k:e]
		c.enter(b.Thread[k], ops[0].IsWrite())
		var counts uint64
		lo, hi := seqs[0], seqs[0]
		for x, op := range ops {
			cnt := opCounts[op]
			counts += cnt
			lo, hi = min(lo, seqs[x]), max(hi, seqs[x])
			c.runStep(cnt&writeCounts != 0)
		}
		c.leave(b.Thread[k], len(ops), lo, hi, counts)
		k = e
	}
}

// enter readies the state for FoldRun's pass over a thread run on thr whose
// first event is a write when w0. It counts the thread switch the run
// begins, if it begins one, and leaves the phase, same-thread and episode
// state one event short, so that folding every event of the run as a
// same-thread continuation, as the pass does, lands where fold lands.
func (c *StreamContention) enter(thr trace.ThreadID, w0 bool) {
	if !c.phStarted {
		c.phStarted, c.phWrite, c.phLen = true, w0, 0
	}
	switch {
	case !c.started:
		c.started, c.prevThread, c.sameRun = true, thr, 0
	case thr != c.prevThread:
		c.switches++
		if !c.epOpen {
			// The switch pair opens the episode; the pass adds this run's
			// first event to it.
			c.epOpen, c.epLen, c.epWriter = true, 1, c.prevWrite
		}
		c.prevThread, c.sameRun = thr, 0
	}
}

// runStep folds one event of a thread run that enter readied, write-like
// when w, into the reader/writer phases and the episode the thread's
// exclusive run may close: the per-event contention step of FoldRun's pass
// and of FoldBatch.
func (c *StreamContention) runStep(w bool) {
	if w != c.phWrite {
		c.closePhase(c.phWrite, c.phLen)
		c.phWrite, c.phLen = w, 0
	}
	c.phLen++
	c.sameRun++
	if c.epOpen {
		if c.sameRun >= episodeBreakRun {
			c.closeEpisode()
		} else {
			c.epLen++
			c.epWriter = c.epWriter || w
		}
	}
	c.prevWrite = w
}

// leave ends FoldRun's pass over a thread run of m events on thr: Seqs
// within [lo, hi] and op counts packed as opCounts packs them. It adds the
// run to the thread's window — one lookup per run — or to the overflow
// count beyond the window cap.
func (c *StreamContention) leave(thr trace.ThreadID, m int, lo, hi uint64, counts uint64) {
	c.total += m
	win := c.window(thr)
	if win == nil {
		c.overflow += m
		return
	}
	if win.Events == 0 || lo < win.FirstSeq {
		win.FirstSeq = lo
	}
	if hi > win.LastSeq {
		win.LastSeq = hi
	}
	win.Events += m
	win.Reads += int(counts & 0xffff)
	win.Writes += int(counts >> 16 & 0xffff)
	win.Inserts += int(counts >> 32 & 0xffff)
	win.Deletes += int(counts >> 48)
}

func (c *StreamContention) fold(seq uint64, op trace.Op, thr trace.ThreadID) {
	c.total++
	w := op.IsWrite()

	// Reader/writer phases.
	switch {
	case !c.phStarted:
		c.phStarted, c.phWrite, c.phLen = true, w, 1
	case w == c.phWrite:
		c.phLen++
	default:
		c.closePhase(c.phWrite, c.phLen)
		c.phWrite, c.phLen = w, 1
	}

	// Switches and episodes.
	switch {
	case !c.started:
		c.started, c.prevThread, c.sameRun = true, thr, 1
	case thr == c.prevThread:
		c.sameRun++
		if c.epOpen {
			if c.sameRun >= episodeBreakRun {
				c.closeEpisode()
			} else {
				c.epLen++
				c.epWriter = c.epWriter || w
			}
		}
	default:
		c.switches++
		if c.epOpen {
			c.epLen++
		} else {
			// The switch pair — the previous thread's last event and this
			// one — opens the episode.
			c.epOpen, c.epLen, c.epWriter = true, 2, c.prevWrite
		}
		c.epWriter = c.epWriter || w
		c.prevThread, c.sameRun = thr, 1
	}
	c.prevWrite = w

	// Happens-before sketch window.
	if win := c.window(thr); win != nil {
		if win.Events == 0 {
			win.FirstSeq = seq
		}
		if seq < win.FirstSeq {
			win.FirstSeq = seq
		}
		if seq > win.LastSeq {
			win.LastSeq = seq
		}
		win.Events++
		if op.IsRead() {
			win.Reads++
		}
		if w {
			win.Writes++
		}
		switch op {
		case trace.OpInsert:
			win.Inserts++
		case trace.OpDelete:
			win.Deletes++
		}
	} else {
		c.overflow++
	}
}

// window returns the thread's window, materializing the overflow table only
// when a second thread appears; nil once the table is full.
func (c *StreamContention) window(thr trace.ThreadID) *ThreadWindow {
	if c.w0.Events == 0 || c.w0.Thread == thr {
		c.w0.Thread = thr
		return &c.w0
	}
	for i := range c.more {
		if c.more[i].Thread == thr {
			return &c.more[i]
		}
	}
	if len(c.more) >= maxTrackedThreads-1 {
		return nil
	}
	c.more = append(c.more, ThreadWindow{Thread: thr})
	return &c.more[len(c.more)-1]
}

func (c *StreamContention) closeEpisode() {
	// The closing thread's exclusive run stays in the episode up to the
	// event before the one that completed it; the completing event was never
	// added to epLen.
	c.episodes++
	c.episodeEvents += c.epLen
	if c.epLen > c.maxEpisode {
		c.maxEpisode = c.epLen
	}
	if c.epWriter {
		c.writerEpisodes++
	}
	c.epOpen, c.epLen, c.epWriter = false, 0, false
}

// closePhase counts a closed phase of n events, write-like when w.
func (c *StreamContention) closePhase(w bool, n int) {
	if w {
		c.writePhases++
		if n > c.maxWritePhase {
			c.maxWritePhase = n
		}
	} else {
		c.readPhases++
		if n > c.maxReadPhase {
			c.maxReadPhase = n
		}
	}
}

// Events returns the number of events folded so far.
func (c *StreamContention) Events() int { return c.total }

// MultiThread reports whether more than one thread has folded events — the
// cheap gate /metrics scrapes use before reading Live figures.
func (c *StreamContention) MultiThread() bool { return len(c.more) > 0 }

// Live returns the running episode figures without building a snapshot —
// the cheap accessor /metrics scrapes read under the shard lock.
func (c *StreamContention) Live() (episodes, episodeEvents int, contended bool) {
	episodes, episodeEvents = c.episodes, c.episodeEvents
	writers := c.writerEpisodes
	if c.epOpen {
		episodes++
		episodeEvents += c.epLen
		if c.epWriter {
			writers++
		}
	}
	return episodes, episodeEvents, episodes > 0 && writers > 0
}

// Snapshot returns the cross-thread summary over everything folded so far.
// The reducer may keep folding afterwards; open episode and phase state is
// flushed into the snapshot without being consumed.
func (c *StreamContention) Snapshot() *Contention {
	ct := &Contention{
		Total:          c.total,
		Switches:       c.switches,
		Episodes:       c.episodes,
		EpisodeEvents:  c.episodeEvents,
		MaxEpisode:     c.maxEpisode,
		WriterEpisodes: c.writerEpisodes,
		ReadPhases:     c.readPhases,
		WritePhases:    c.writePhases,
		MaxReadPhase:   c.maxReadPhase,
		MaxWritePhase:  c.maxWritePhase,
		OverflowEvents: c.overflow,
	}
	if c.epOpen {
		ct.Episodes++
		ct.EpisodeEvents += c.epLen
		if c.epLen > ct.MaxEpisode {
			ct.MaxEpisode = c.epLen
		}
		if c.epWriter {
			ct.WriterEpisodes++
		}
	}
	if c.phStarted && c.phLen > 0 {
		if c.phWrite {
			ct.WritePhases++
			if c.phLen > ct.MaxWritePhase {
				ct.MaxWritePhase = c.phLen
			}
		} else {
			ct.ReadPhases++
			if c.phLen > ct.MaxReadPhase {
				ct.MaxReadPhase = c.phLen
			}
		}
	}

	n := len(c.more)
	if c.w0.Events > 0 {
		n++
	}
	if n > 0 {
		ws := make([]ThreadWindow, 0, n)
		if c.w0.Events > 0 {
			ws = append(ws, c.w0)
		}
		ws = append(ws, c.more...)
		sort.Slice(ws, func(i, j int) bool { return ws[i].Thread < ws[j].Thread })
		ct.Windows = ws
		for i := range ws {
			if ws[i].Inserts > 0 {
				ct.Producers++
			}
			if ws[i].Deletes > 0 {
				ct.Consumers++
			}
			for j := i + 1; j < len(ws); j++ {
				if ws[i].Overlaps(ws[j]) {
					ct.ConcurrentPairs++
				} else {
					ct.OrderedPairs++
				}
			}
		}
	}
	return ct
}

// Clone returns an independent copy, used by snapshot-at-any-time readers.
func (c *StreamContention) Clone() *StreamContention {
	out := *c
	out.more = append([]ThreadWindow(nil), c.more...)
	return &out
}
