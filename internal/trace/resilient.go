package trace

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dsspy/internal/obs"
)

// ResilientRecorder wraps the socket recorder with the machinery a
// production profiling run needs when the collector is allowed to hiccup:
// bounded-retry reconnection with exponential backoff, a crash-safe disk
// spill (a write-ahead log in the wire format) that absorbs events while the
// link is down, and replay of the spill once the collector is back. The
// contract is the delivery/accounting invariant:
//
//	Recorded == Delivered + Dropped + OnDisk + Buffered
//
// at every instant — an event handed to Record is eventually written to a
// collector connection, parked in a spill file loadable post-mortem
// (RecoverEventLog), or counted as dropped. Never silently lost.
//
// Delivery is at-least-once: a batch whose write errored is re-spilled and
// replayed on the next connection, because the transport cannot say how much
// of it the collector decoded. The collector side's salvaging reader
// discards the cut frame, so in practice a mid-frame failure neither loses
// nor duplicates events; only a failure after a fully flushed frame can
// duplicate it, and duplicates share a Seq so they are detectable
// downstream.
type ResilientRecorder struct {
	opts    ResilientOptions
	dial    func() (net.Conn, error)
	log     *slog.Logger
	tracer  *obs.Tracer
	sampler *obs.OccupancySampler

	mu     sync.Mutex
	sock   *SocketRecorder
	buf    []Event
	spill  *spillFile
	closed bool

	reconnecting bool
	gaveUp       bool

	recorded   uint64
	delivered  uint64
	dropped    uint64
	spilled    uint64
	replayed   uint64
	onDisk     uint64
	reconnects uint64
	spillSeq   int
	lastSpill  string

	done     chan struct{}
	doneOnce sync.Once
	// idle is closed fields' companion for tests: reconnectLoop exit signal.
	loopDone chan struct{}
}

// ResilientOptions configures a ResilientRecorder. Zero values get sensible
// defaults; only the target (Addr or Dial) is required.
type ResilientOptions struct {
	// Network and Addr name the collector for the default dialer.
	Network, Addr string
	// Dial overrides the default dialer; tests use it to inject faulty
	// connections.
	Dial func() (net.Conn, error)
	// SpillDir is the directory for the crash-safe spill WAL. Empty disables
	// spilling: events that cannot be sent are dropped (and counted).
	SpillDir string
	// BatchSize is the in-flight queue bound: events buffered before a
	// flush. Defaults to DefaultSocketBatch.
	BatchSize int
	// BaseBackoff is the first reconnect delay, doubled per attempt up to
	// MaxBackoff. Defaults: 25ms and 2s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxRetries bounds consecutive failed reconnect attempts per outage;
	// when exhausted the recorder stops dialing and runs spill-only (or
	// drop-only without a spill dir). Zero means retry forever.
	MaxRetries int
	// WriteTimeout bounds each batch write, so a stalled collector cannot
	// block the producer indefinitely. Defaults to 5s.
	WriteTimeout time.Duration
	// Logger receives connection-lifecycle diagnostics (reconnects, spills,
	// replays, give-up). Nil disables logging.
	Logger *slog.Logger
	// Tracer records reconnect/replay spans and outage instants. Nil disables.
	Tracer *obs.Tracer
	// SampleInterval enables periodic sampling of the in-flight buffer
	// occupancy into Stats().BufferDepth. Zero disables sampling; negative
	// uses obs.DefaultSampleInterval.
	SampleInterval time.Duration
	// Hello is the stream's tenant/process/run identity, sent on every
	// (re)connect so a multiplexing daemon binds each incarnation of the
	// stream to the same tenant. Nil sends no hello (DefaultTenant).
	Hello *Hello
}

func (o *ResilientOptions) withDefaults() {
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultSocketBatch
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 25 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 5 * time.Second
	}
	if o.Network == "" {
		o.Network = "tcp"
	}
}

// NewResilientRecorder connects to the collector, falling back to
// reconnect-with-backoff (spilling in the meantime) when the first dial
// fails. The error is non-nil only for unusable options.
func NewResilientRecorder(opts ResilientOptions) (*ResilientRecorder, error) {
	opts.withDefaults()
	dial := opts.Dial
	if dial == nil {
		if opts.Addr == "" {
			return nil, errors.New("trace: resilient recorder needs Addr or Dial")
		}
		network, addr := opts.Network, opts.Addr
		dial = func() (net.Conn, error) { return net.Dial(network, addr) }
	}
	rr := &ResilientRecorder{
		opts:   opts,
		dial:   dial,
		log:    orNoLog(opts.Logger),
		tracer: opts.Tracer,
		buf:    make([]Event, 0, opts.BatchSize),
		done:   make(chan struct{}),
	}
	if opts.SampleInterval != 0 {
		rr.sampler = obs.StartOccupancySampler(opts.SampleInterval,
			obs.Probe{Name: "buffer", Fn: func() int64 {
				rr.mu.Lock()
				n := int64(len(rr.buf))
				rr.mu.Unlock()
				return n
			}})
	}
	if sock, err := rr.connect(); err == nil {
		rr.sock = sock
		rr.log.Debug("resilient recorder connected", "addr", opts.Addr)
	} else {
		rr.log.Warn("resilient recorder: initial dial failed, reconnecting", "addr", opts.Addr, "err", err)
		rr.startReconnectLocked()
	}
	return rr, nil
}

// connect dials and wraps one connection.
func (rr *ResilientRecorder) connect() (*SocketRecorder, error) {
	conn, err := rr.dial()
	if err != nil {
		return nil, err
	}
	sock, err := NewSocketRecorder(conn)
	if err != nil {
		return nil, err
	}
	sock.SetWriteTimeout(rr.opts.WriteTimeout)
	if rr.opts.Hello != nil {
		if err := sock.SendHello(*rr.opts.Hello); err != nil {
			sock.abandon()
			return nil, err
		}
	}
	return sock, nil
}

// Record buffers the event, flushing full batches. It never blocks on a
// dead link and never panics: with the collector away, batches overflow to
// the spill WAL (or the drop counter). Record after Close counts the event
// as dropped.
func (rr *ResilientRecorder) Record(e Event) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	rr.recorded++
	if rr.closed {
		rr.dropped++
		return
	}
	rr.buf = append(rr.buf, e)
	if len(rr.buf) >= rr.opts.BatchSize {
		rr.flushLocked()
	}
}

// RecordBatch buffers a whole producer batch under one lock acquisition; the
// delivery accounting (recorded == delivered + dropped + on-disk + buffered)
// and the overflow-to-spill behavior match Record.
func (rr *ResilientRecorder) RecordBatch(batch []Event) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	rr.recorded += uint64(len(batch))
	if rr.closed {
		rr.dropped += uint64(len(batch))
		return
	}
	rr.buf = append(rr.buf, batch...)
	if len(rr.buf) >= rr.opts.BatchSize {
		rr.flushLocked()
	}
}

// flushLocked ships the in-flight buffer to the connection, or to the spill
// when the connection is down or the write fails.
func (rr *ResilientRecorder) flushLocked() {
	if len(rr.buf) == 0 {
		return
	}
	if rr.sock != nil {
		if err := rr.sock.sendBatch(rr.buf); err == nil {
			rr.delivered += uint64(len(rr.buf))
			rr.buf = rr.buf[:0]
			return
		}
		// The write failed: the connection is gone. Abandon it, spill the
		// batch (at-least-once: the receiver's salvaging reader discards the
		// cut frame), and start reconnecting in the background.
		rr.sock.abandon()
		rr.sock = nil
		rr.log.Warn("resilient recorder: collector link lost, spilling", "buffered", len(rr.buf))
		rr.tracer.Instant("link-lost", "resilient")
		rr.startReconnectLocked()
	}
	rr.spillLocked(rr.buf)
	rr.buf = rr.buf[:0]
}

// spillLocked appends events to the spill WAL, opening a fresh file when
// needed. Spill failures degrade to counted drops.
func (rr *ResilientRecorder) spillLocked(events []Event) {
	if len(events) == 0 {
		return
	}
	if rr.opts.SpillDir == "" {
		rr.dropped += uint64(len(events))
		return
	}
	if rr.spill == nil {
		sp, err := rr.openSpillLocked()
		if err != nil {
			rr.log.Warn("resilient recorder: spill open failed, dropping", "err", err, "events", len(events))
			rr.dropped += uint64(len(events))
			return
		}
		rr.log.Info("resilient recorder: opened spill WAL", "path", sp.path)
		rr.spill = sp
	}
	if err := rr.spill.writeBatch(events); err != nil {
		// The WAL itself failed (disk full, unlinked dir): count the batch
		// dropped and retire the file so the next batch tries a fresh one.
		rr.dropped += uint64(len(events))
		rr.spill.close()
		rr.spill = nil
		return
	}
	rr.spilled += uint64(len(events))
	rr.onDisk += uint64(len(events))
}

func (rr *ResilientRecorder) openSpillLocked() (*spillFile, error) {
	rr.spillSeq++
	path := filepath.Join(rr.opts.SpillDir,
		fmt.Sprintf("dsspy-spill-%d-%d.dslog", os.Getpid(), rr.spillSeq))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sw, err := NewStreamWriter(f)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	if err := sw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	rr.lastSpill = path
	return &spillFile{path: path, f: f, sw: sw}, nil
}

// startReconnectLocked launches the single-flight reconnect loop.
func (rr *ResilientRecorder) startReconnectLocked() {
	if rr.reconnecting || rr.closed || rr.gaveUp {
		return
	}
	rr.reconnecting = true
	rr.loopDone = make(chan struct{})
	go rr.reconnectLoop(rr.loopDone)
}

// reconnectLoop dials with exponential backoff until it can install a fresh
// connection (after replaying any spill), gives up after MaxRetries, or the
// recorder closes.
func (rr *ResilientRecorder) reconnectLoop(loopDone chan struct{}) {
	defer close(loopDone)
	delay := rr.opts.BaseBackoff
	attempts := 0
	for {
		select {
		case <-rr.done:
			rr.mu.Lock()
			rr.reconnecting = false
			rr.mu.Unlock()
			return
		default:
		}
		sock, err := rr.connect()
		if err == nil {
			// Count the reconnect when the dial succeeds: the replay below
			// may already deliver events even if Close wins the race to
			// install the connection.
			rr.mu.Lock()
			rr.reconnects++
			rr.mu.Unlock()
			err = rr.replayAndInstall(sock)
			if err == nil {
				rr.log.Info("resilient recorder: reconnected", "attempts", attempts+1)
				rr.tracer.Instant("reconnected", "resilient")
				return
			}
			sock.abandon()
		}
		attempts++
		rr.log.Debug("resilient recorder: reconnect attempt failed", "attempt", attempts, "err", err)
		if rr.opts.MaxRetries > 0 && attempts >= rr.opts.MaxRetries {
			rr.mu.Lock()
			rr.gaveUp = true
			rr.reconnecting = false
			rr.mu.Unlock()
			rr.log.Error("resilient recorder: giving up on collector", "attempts", attempts)
			return
		}
		select {
		case <-rr.done:
			rr.mu.Lock()
			rr.reconnecting = false
			rr.mu.Unlock()
			return
		case <-time.After(delay):
		}
		delay *= 2
		if delay > rr.opts.MaxBackoff {
			delay = rr.opts.MaxBackoff
		}
	}
}

// replayAndInstall drains the spill WAL through the fresh connection, then
// installs it as the live socket. Events recorded during replay land in a
// new spill file; the loop rotates until no spill remains at install time,
// so nothing is stranded on disk while the link is up.
func (rr *ResilientRecorder) replayAndInstall(sock *SocketRecorder) error {
	for {
		rr.mu.Lock()
		if rr.closed {
			rr.reconnecting = false
			rr.mu.Unlock()
			return errors.New("trace: recorder closed during reconnect")
		}
		sp := rr.spill
		rr.spill = nil
		if sp == nil {
			// Nothing (left) to replay: go live.
			rr.sock = sock
			rr.reconnecting = false
			rr.mu.Unlock()
			return nil
		}
		sp.close()
		rr.mu.Unlock()

		if err := rr.replayFile(sp.path, sp.count, sock); err != nil {
			return err
		}
	}
}

// replayFile salvage-reads one spill file and ships its events. On success
// the file is deleted; on a send failure the unsent remainder is re-spilled
// so no event is lost. wrote is the number of events the WAL writer recorded
// into the file; the difference to what salvage recovers (a cut tail frame
// from a crash-interrupted write) is counted as dropped.
func (rr *ResilientRecorder) replayFile(path string, wrote uint64, sock *SocketRecorder) error {
	sp := rr.tracer.Begin("replay-spill", "resilient")
	defer func() { sp.End("path", path) }()
	rr.log.Info("resilient recorder: replaying spill", "path", path, "events", wrote)
	events, _, err := RecoverEventLog(path)
	if err != nil {
		// Unreadable header: nothing salvageable. Account the whole file as
		// dropped and keep going; the WAL is gone either way.
		rr.mu.Lock()
		rr.onDisk -= min64(rr.onDisk, wrote)
		rr.dropped += wrote
		rr.mu.Unlock()
		os.Remove(path)
		return nil
	}
	// The recovered events stay counted on disk until the send below has
	// moved them to delivered (or back to a spill) under one lock, so a
	// Stats snapshot taken mid-replay — Close does not wait for the
	// reconnect loop — still balances.
	recovered := uint64(len(events))
	if wrote > recovered {
		rr.mu.Lock()
		rr.onDisk -= min64(rr.onDisk, wrote-recovered)
		rr.dropped += wrote - recovered
		rr.mu.Unlock()
	}

	// Replay in BatchSize chunks — the same granularity as live traffic —
	// not one giant MaxBatch frame. A replay frame larger than the link
	// reliably carries would fail in full on every reconnect, re-spill in
	// full, and never make progress; per-batch chunks turn a flaky link into
	// incremental delivery instead of a livelock.
	chunk := rr.opts.BatchSize
	if chunk <= 0 || chunk > MaxBatch {
		chunk = MaxBatch
	}
	sent := 0
	var sendErr error
	for sent < len(events) {
		n := len(events) - sent
		if n > chunk {
			n = chunk
		}
		if sendErr = sock.sendBatch(events[sent : sent+n]); sendErr != nil {
			break
		}
		sent += n
	}
	rr.mu.Lock()
	rr.onDisk -= min64(rr.onDisk, recovered)
	rr.delivered += uint64(sent)
	rr.replayed += uint64(sent)
	if sendErr != nil {
		// Park the unsent remainder back on disk (at-least-once).
		rr.spillLocked(events[sent:])
	}
	rr.mu.Unlock()
	os.Remove(path)
	return sendErr
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// Close flushes the in-flight buffer (to the connection or the spill),
// writes the end-of-stream marker on a live connection, seals the spill
// file, and stops the reconnect loop. Events still on disk after Close are
// loadable with RecoverEventLog at Stats().SpillPath.
func (rr *ResilientRecorder) Close() error {
	return rr.finish(nil)
}

// FinishSession is Close plus the session's instance registry: on a live
// connection the registry frames are appended before the end marker, so the
// collector server can rebuild a replay session (CollectorServer.Session).
func (rr *ResilientRecorder) FinishSession(sess *Session) error {
	return rr.finish(sess)
}

func (rr *ResilientRecorder) finish(sess *Session) error {
	// Stop the sampler before taking mu: its probe locks mu, so stopping
	// under the lock would deadlock.
	rr.sampler.Stop()
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.closed {
		return nil
	}
	rr.closed = true
	rr.doneOnce.Do(func() { close(rr.done) })
	rr.flushLocked()
	var err error
	if rr.sock != nil {
		if sess != nil {
			err = rr.sock.FinishSession(sess)
		} else {
			err = rr.sock.Close()
		}
		rr.sock = nil
	}
	if rr.spill != nil {
		rr.spill.close()
		rr.spill = nil
	}
	return err
}

// ResilientStats accounts for every event handed to a resilient recorder.
// The invariant Recorded == Delivered + Dropped + OnDisk + Buffered holds at
// every snapshot; after Close, Buffered is zero.
type ResilientStats struct {
	Recorded  uint64 // events handed to Record
	Delivered uint64 // events written to a collector connection (incl. Replayed)
	Replayed  uint64 // delivered events that took the spill detour
	Spilled   uint64 // events ever written to the spill WAL
	OnDisk    uint64 // events currently parked in spill files
	Dropped   uint64 // events given up on: no spill, WAL damage, after Close
	Buffered  uint64 // events in the in-flight batch right now
	Reconnects uint64
	// SpillPath is the most recent spill file; after Close with OnDisk > 0
	// it names the WAL to recover post-mortem.
	SpillPath string
	// BufferDepth is the sampled in-flight buffer occupancy distribution,
	// populated when ResilientOptions.SampleInterval enabled sampling.
	BufferDepth obs.HistSnapshot
}

// Write renders the stats in the layout `dsspy -stats` prints.
func (rs ResilientStats) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Resilient recorder: %d recorded = %d delivered (%d replayed) + %d dropped + %d on disk + %d buffered; %d reconnect(s)\n",
		rs.Recorded, rs.Delivered, rs.Replayed, rs.Dropped, rs.OnDisk, rs.Buffered, rs.Reconnects); err != nil {
		return err
	}
	if rs.OnDisk > 0 && rs.SpillPath != "" {
		if _, err := fmt.Fprintf(w, "  spill WAL with undelivered events: %s (recover with dsspy -recover)\n", rs.SpillPath); err != nil {
			return err
		}
	}
	if rs.BufferDepth.Count > 0 {
		if _, err := fmt.Fprintf(w, "  buffer depth p50 %.0f p99 %.0f max %d (%d samples)\n",
			rs.BufferDepth.Quantile(0.50), rs.BufferDepth.Quantile(0.99),
			rs.BufferDepth.Max, rs.BufferDepth.Count); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns a snapshot of the delivery accounting.
func (rr *ResilientRecorder) Stats() ResilientStats {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	rs := ResilientStats{
		Recorded:   rr.recorded,
		Delivered:  rr.delivered,
		Replayed:   rr.replayed,
		Spilled:    rr.spilled,
		OnDisk:     rr.onDisk,
		Dropped:    rr.dropped,
		Buffered:   uint64(len(rr.buf)),
		Reconnects: rr.reconnects,
		SpillPath:  rr.lastSpill,
	}
	if rr.sampler != nil {
		rs.BufferDepth = rr.sampler.Hist(0)
	}
	return rs
}

// WriteMetrics exports the delivery accounting in Prometheus exposition.
func (rr *ResilientRecorder) WriteMetrics(w *obs.PromWriter) {
	rs := rr.Stats()
	w.Counter("dsspy_resilient_recorded_total", "Events handed to the resilient recorder.", float64(rs.Recorded))
	w.Counter("dsspy_resilient_delivered_total", "Events delivered to a collector connection.", float64(rs.Delivered))
	w.Counter("dsspy_resilient_replayed_total", "Delivered events that took the spill detour.", float64(rs.Replayed))
	w.Counter("dsspy_resilient_dropped_total", "Events given up on.", float64(rs.Dropped))
	w.Counter("dsspy_resilient_reconnects_total", "Collector reconnects.", float64(rs.Reconnects))
	w.Gauge("dsspy_resilient_on_disk", "Events currently parked in spill files.", float64(rs.OnDisk))
	w.Gauge("dsspy_resilient_buffered", "Events in the in-flight batch.", float64(rs.Buffered))
	if rs.BufferDepth.Count > 0 {
		w.Histogram("dsspy_resilient_buffer_depth", "Sampled in-flight buffer occupancy.", rs.BufferDepth, 1)
	}
}

// Connected reports whether a live collector connection is installed.
func (rr *ResilientRecorder) Connected() bool {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return rr.sock != nil
}

// spillFile is one segment of the crash-safe WAL: wire-format events,
// flushed after every batch so a dying process loses at most the frame being
// written. close seals it with the end-of-stream marker; a file without the
// marker (a crash) is still loadable via RecoverEventLog, which reports it
// as truncated.
type spillFile struct {
	path  string
	f     *os.File
	sw    *StreamWriter
	count uint64
}

func (sp *spillFile) writeBatch(events []Event) error {
	if err := sp.sw.WriteBatch(events); err != nil {
		return err
	}
	if err := sp.sw.Flush(); err != nil {
		return err
	}
	sp.count += uint64(len(events))
	return nil
}

func (sp *spillFile) close() {
	sp.sw.Close()
	sp.f.Close()
}
