package trace

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"sync"
	"time"

	"dsspy/internal/obs"
)

// Out-of-process collection. DSspy "executes the dynamic analysis module in a
// separate process which receives the runtime information via asynchronous
// intra-process communication" (§IV). SocketRecorder is the producer side: it
// batches events and ships them over a net.Conn. CollectorServer is the
// consumer side: it accepts one or more producer connections and accumulates
// their events for post-mortem analysis. Producer and consumer may live in
// the same process (tests, examples) or different ones (cmd/dsspy -collect /
// -listen).
//
// The server is built to survive the failures long profiling runs actually
// hit: transient Accept errors are retried with backoff (the net/http
// pattern), each connection reads under a deadline so a wedged producer
// cannot pin a goroutine forever, a connection cap bounds memory under
// accept storms, and a producer stream that dies mid-flight keeps every
// event decoded before the error — salvaged, and accounted per connection in
// ServerStats.

// SocketRecorder forwards events over a network connection using the wire
// format. Events are buffered in columns and flushed in batches, encoded
// straight from the buffer; Close flushes the tail and writes the
// end-of-stream marker.
type SocketRecorder struct {
	mu   sync.Mutex
	sw   *StreamWriter
	conn net.Conn
	buf  ColumnBatch
	err  error

	writeTimeout time.Duration

	recorded  uint64
	delivered uint64
	dropped   uint64
}

// DefaultSocketBatch is the number of events buffered before a flush.
const DefaultSocketBatch = 1024

// DialCollector connects to a collector server at addr ("network,address" is
// expressed with the usual net.Dial arguments).
func DialCollector(network, addr string) (*SocketRecorder, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("trace: dialing collector: %w", err)
	}
	return NewSocketRecorder(conn)
}

// NewSocketRecorder wraps an established connection.
func NewSocketRecorder(conn net.Conn) (*SocketRecorder, error) {
	sw, err := NewStreamWriter(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	s := &SocketRecorder{sw: sw, conn: conn}
	s.buf.Grow(DefaultSocketBatch)
	return s, nil
}

// SetWriteTimeout bounds each flush: a write that cannot complete within d
// fails with a timeout instead of blocking the producer indefinitely behind
// a stalled collector. Zero (the default) means no deadline.
func (s *SocketRecorder) SetWriteTimeout(d time.Duration) {
	s.mu.Lock()
	s.writeTimeout = d
	s.mu.Unlock()
}

// Record buffers the event, flushing a full batch to the connection.
// A transport error is sticky: it is remembered and returned by Close, and
// subsequent events are dropped — counted, never silently lost — so
// instrumented code never crashes because the collector went away.
func (s *SocketRecorder) Record(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recorded++
	if s.err != nil || s.conn == nil {
		s.dropped++
		return
	}
	s.buf.Append(e)
	if s.buf.Len() >= DefaultSocketBatch {
		s.flushLocked()
	}
}

// RecordBatch buffers a whole producer batch under one lock acquisition;
// error and accounting semantics match Record.
func (s *SocketRecorder) RecordBatch(batch []Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recorded += uint64(len(batch))
	if s.err != nil || s.conn == nil {
		s.dropped += uint64(len(batch))
		return
	}
	s.buf.AppendEvents(batch)
	if s.buf.Len() >= DefaultSocketBatch {
		s.flushLocked()
	}
}

// ColumnShards reports one shard: a producer hands its whole flush over as
// one program-order column batch.
func (s *SocketRecorder) ColumnShards() int { return 1 }

// RecordColumns buffers a producer's column batch with six column copies
// and returns it to the pool; error and accounting semantics match Record.
func (s *SocketRecorder) RecordColumns(_ int, b *ColumnBatch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer releaseColumns(b)
	n := b.Len()
	s.recorded += uint64(n)
	if s.err != nil || s.conn == nil {
		s.dropped += uint64(n)
		return
	}
	s.buf.AppendRange(b, 0, n)
	if s.buf.Len() >= DefaultSocketBatch {
		s.flushLocked()
	}
}

// RecordAggregate ships a flushed lazy-aggregation record as a v3 aggregate
// frame (AggregateRecorder). It rides the same sticky-error contract as
// events, but is advisory: a failed aggregate write is not counted as a
// dropped event, because its accesses were already settled with the gate.
func (s *SocketRecorder) RecordAggregate(rec AggRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.conn == nil || rec.N == 0 {
		return
	}
	// Flush buffered events first so frames hit the wire in flush order.
	s.flushLocked()
	if s.err != nil {
		return
	}
	if s.writeTimeout > 0 {
		s.conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		defer s.conn.SetWriteDeadline(time.Time{})
	}
	if err := s.sw.WriteAggregate(rec); err != nil {
		s.err = err
		return
	}
	if err := s.sw.Flush(); err != nil {
		s.err = err
	}
}

func (s *SocketRecorder) flushLocked() {
	n := s.buf.Len()
	if n == 0 {
		return
	}
	if err := s.writeLocked(&s.buf); err != nil {
		if s.err == nil {
			s.err = err
		}
		s.dropped += uint64(n)
	} else {
		s.delivered += uint64(n)
	}
	s.buf.Reset()
}

// writeLocked ships columns under the write deadline. It flushes the stream
// writer so a transport failure surfaces on the batch that hit it, not
// batches later.
func (s *SocketRecorder) writeLocked(cols *ColumnBatch) error {
	if s.writeTimeout > 0 {
		s.conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		defer s.conn.SetWriteDeadline(time.Time{})
	}
	if err := s.sw.WriteColumns(cols); err != nil {
		return err
	}
	return s.sw.Flush()
}

// sendColumns writes a column batch immediately, bypassing the Record buffer
// and its counters. The resilient recorder uses it as a raw transport
// primitive and does its own accounting.
func (s *SocketRecorder) sendColumns(cols *ColumnBatch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.conn == nil {
		return errors.New("trace: socket recorder closed")
	}
	if err := s.writeLocked(cols); err != nil {
		s.err = err
		return err
	}
	return nil
}

// abandon tears the connection down without flushing or writing the end
// marker. The resilient recorder calls it when a write fails: the transport
// is untrustworthy, so the remaining events take the spill path instead.
func (s *SocketRecorder) abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	if s.err == nil {
		s.err = errors.New("trace: socket recorder abandoned")
	}
}

// SocketStats accounts for every event handed to a socket recorder:
// Recorded == Delivered + Dropped + (events still buffered). After Close the
// buffer is empty and the identity is exact.
type SocketStats struct {
	Recorded  uint64 // events handed to Record
	Delivered uint64 // events written to the connection without error
	Dropped   uint64 // events discarded after a transport error or Close
}

// Stats returns a snapshot of the recorder's delivery accounting.
func (s *SocketRecorder) Stats() SocketStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SocketStats{Recorded: s.recorded, Delivered: s.delivered, Dropped: s.dropped}
}

// Close flushes buffered events, writes the end marker, closes the
// connection, and returns the first transport error encountered.
func (s *SocketRecorder) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

// FinishSession flushes buffered events, appends the session's instance
// registry as metadata frames, writes the end marker and closes the
// connection. A collector server receiving this stream can rebuild a replay
// session (CollectorServer.Session) without the producing process.
func (s *SocketRecorder) FinishSession(sess *Session) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == nil {
		return s.err
	}
	s.flushLocked()
	if s.err == nil {
		if err := s.sw.WriteInstances(sess.Instances()); err != nil {
			s.err = err
		}
	}
	return s.closeLocked()
}

func (s *SocketRecorder) closeLocked() error {
	if s.conn == nil {
		return s.err
	}
	s.flushLocked()
	if err := s.sw.Close(); err != nil && s.err == nil {
		s.err = err
	}
	if err := s.conn.Close(); err != nil && s.err == nil {
		s.err = err
	}
	s.conn = nil
	return s.err
}

// ServerOptions hardens a collector server for long unattended runs.
// The zero value preserves the permissive defaults: no read deadline, no
// connection cap.
type ServerOptions struct {
	// ConnTimeout is the per-frame read deadline on producer connections. A
	// producer that goes silent longer than this has its stream terminated
	// (and salvaged). Zero means no deadline.
	ConnTimeout time.Duration
	// MaxConns caps concurrent producer connections; further connections are
	// closed immediately and counted in ServerStats.Rejected. Zero means
	// unlimited.
	MaxConns int
	// AcceptBackoffMax caps the exponential backoff between retries of a
	// failing Accept. Defaults to 1s.
	AcceptBackoffMax time.Duration
	// Logger receives accept/reject/stream-outcome diagnostics. Nil disables.
	Logger *slog.Logger
	// Tracer records one span per producer connection lifecycle. Nil disables.
	Tracer *obs.Tracer
	// SampleInterval enables periodic sampling of the event-store size and
	// active connection count. Zero disables; negative uses
	// obs.DefaultSampleInterval.
	SampleInterval time.Duration
	// Tenancy turns the server into a multiplexing daemon: streams bind to
	// tenants via the hello frame, per-tenant quotas and deadlines apply, and
	// admitted traffic flows to the tenant sink (or per-tenant stores). Nil
	// keeps the single-run collector behavior unchanged.
	Tenancy *TenancyOptions
}

// ConnStats describes one producer connection's outcome.
type ConnStats struct {
	Remote        string
	Tenant        string // tenant the stream bound to ("" before binding / without tenancy)
	Events        int    // events decoded from this connection
	Instances     int    // registry records received
	SkippedFrames int    // checksum-failed frames and implausible registry records skipped mid-stream
	Complete      bool   // end-of-stream marker seen
	TimedOut      bool   // stream ended by the read deadline (salvage still counted above)
	Err           string // terminal error, "" for a clean stream
}

// Salvaged reports whether the connection's events come from a partial
// stream: the producer died, the link broke, or the deadline fired before
// the end marker.
func (c ConnStats) Salvaged() bool { return !c.Complete && c.Events > 0 }

// ServerStats is the observability surface of a collector server: what it
// accepted, what it refused, what it had to retry, and the per-connection
// delivery outcome — including how many events were salvaged from streams
// that never completed.
type ServerStats struct {
	Accepted      int // connections served
	Rejected      int // connections refused by MaxConns
	AcceptRetries int // transient Accept errors survived with backoff
	Conns         []ConnStats

	// StoreDepth and ActiveConns are the sampled event-store size and
	// concurrent-connection distributions, populated when
	// ServerOptions.SampleInterval enabled sampling.
	StoreDepth  obs.HistSnapshot
	ActiveConns obs.HistSnapshot
}

// SalvagedEvents totals events recovered from incomplete producer streams.
func (ss ServerStats) SalvagedEvents() int {
	n := 0
	for _, c := range ss.Conns {
		if c.Salvaged() {
			n += c.Events
		}
	}
	return n
}

// Write renders the stats in the layout `dsspy -stats` prints.
func (ss ServerStats) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Collector server: %d conn(s) accepted, %d rejected, %d accept retries, %d salvaged event(s)\n",
		ss.Accepted, ss.Rejected, ss.AcceptRetries, ss.SalvagedEvents()); err != nil {
		return err
	}
	for i, c := range ss.Conns {
		status := "complete"
		if !c.Complete {
			status = "partial"
		}
		who := c.Remote
		if c.Tenant != "" {
			who += ", tenant " + c.Tenant
		}
		line := fmt.Sprintf("  conn %d (%s): %d event(s), %d instance(s), %s", i, who, c.Events, c.Instances, status)
		if c.TimedOut {
			line += ", timed out"
		}
		if c.SkippedFrames > 0 {
			line += fmt.Sprintf(", %d corrupt frame(s) skipped", c.SkippedFrames)
		}
		if c.Err != "" {
			line += fmt.Sprintf(", error: %s", c.Err)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// CollectorServer accepts producer connections and accumulates their events.
type CollectorServer struct {
	ln      net.Listener
	opts    ServerOptions
	log     *slog.Logger
	tracer  *obs.Tracer
	sampler *obs.OccupancySampler
	tenants *tenantTable // non-nil iff opts.Tenancy is set

	mu        sync.Mutex
	cond      *sync.Cond
	events    ColumnBatch
	instances map[InstanceID]Instance
	open      map[net.Conn]struct{}
	conns     []*ConnStats
	errs      []error
	accepted  int
	rejected  int
	retries   int
	active    int
	completed int
	closed    bool
	// aborted is set by Abort under mu. A connection the accept loop
	// registers after Abort took its snapshot of open would otherwise be
	// served with nobody left to tear it down.
	aborted bool

	wg      sync.WaitGroup
	closing chan struct{}
}

// ListenCollector starts a collector server with default options on the
// given listener address. Use network "tcp" with addr "127.0.0.1:0" for an
// ephemeral port, or "unix" with a socket path.
func ListenCollector(network, addr string) (*CollectorServer, error) {
	return ListenCollectorOpts(network, addr, ServerOptions{})
}

// ListenCollectorOpts starts a collector server with explicit hardening
// options.
func ListenCollectorOpts(network, addr string, opts ServerOptions) (*CollectorServer, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("trace: starting collector: %w", err)
	}
	return NewCollectorServer(ln, opts), nil
}

// NewCollectorServer starts a collector server on an existing listener —
// tests wrap the listener with fault injection, and embedders bring their
// own (pre-bound sockets, TLS).
func NewCollectorServer(ln net.Listener, opts ServerOptions) *CollectorServer {
	if opts.AcceptBackoffMax <= 0 {
		opts.AcceptBackoffMax = time.Second
	}
	cs := &CollectorServer{
		ln:        ln,
		opts:      opts,
		log:       orNoLog(opts.Logger),
		tracer:    opts.Tracer,
		instances: make(map[InstanceID]Instance),
		open:      make(map[net.Conn]struct{}),
		closing:   make(chan struct{}),
	}
	if opts.Tenancy != nil {
		cs.tenants = newTenantTable(opts.Tenancy)
	}
	cs.cond = sync.NewCond(&cs.mu)
	if opts.SampleInterval != 0 {
		cs.sampler = obs.StartOccupancySampler(opts.SampleInterval,
			obs.Probe{Name: "store", Fn: func() int64 {
				cs.mu.Lock()
				n := int64(cs.events.Len())
				cs.mu.Unlock()
				return n
			}},
			obs.Probe{Name: "conns", Fn: func() int64 {
				cs.mu.Lock()
				n := int64(cs.active)
				cs.mu.Unlock()
				return n
			}})
	}
	cs.wg.Add(1)
	go cs.acceptLoop()
	return cs
}

// Addr returns the address producers should dial.
func (cs *CollectorServer) Addr() net.Addr { return cs.ln.Addr() }

// acceptLoop accepts until the server closes. Transient Accept errors —
// EMFILE bursts, resets on half-open connections — are retried with
// exponential backoff instead of killing the server (the net/http pattern);
// only listener closure ends the loop.
func (cs *CollectorServer) acceptLoop() {
	defer cs.wg.Done()
	var delay time.Duration
	for {
		conn, err := cs.ln.Accept()
		if err != nil {
			select {
			case <-cs.closing:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				cs.addErr(err)
				return
			}
			if delay == 0 {
				delay = 5 * time.Millisecond
			} else {
				delay *= 2
			}
			if delay > cs.opts.AcceptBackoffMax {
				delay = cs.opts.AcceptBackoffMax
			}
			cs.mu.Lock()
			cs.retries++
			cs.mu.Unlock()
			cs.log.Warn("collector server: accept failed, backing off", "err", err, "delay", delay)
			select {
			case <-cs.closing:
				return
			case <-time.After(delay):
			}
			continue
		}
		delay = 0

		cs.mu.Lock()
		if cs.aborted {
			cs.mu.Unlock()
			conn.Close()
			return
		}
		if cs.opts.MaxConns > 0 && cs.active >= cs.opts.MaxConns {
			cs.rejected++
			cs.mu.Unlock()
			cs.log.Warn("collector server: connection cap reached, rejecting", "remote", remoteString(conn), "max", cs.opts.MaxConns)
			conn.Close()
			continue
		}
		cs.active++
		cs.accepted++
		st := &ConnStats{Remote: remoteString(conn)}
		cs.conns = append(cs.conns, st)
		cs.open[conn] = struct{}{}
		cs.mu.Unlock()
		cs.log.Info("collector server: producer connected", "remote", st.Remote)

		cs.wg.Add(1)
		go cs.serve(conn, st)
	}
}

func remoteString(conn net.Conn) string {
	if ra := conn.RemoteAddr(); ra != nil {
		return ra.String()
	}
	return "<unknown>"
}

// serve decodes one producer stream. Events are appended to the store batch
// by batch, so a stream that dies mid-flight keeps everything decoded before
// the error — the partial prefix is salvaged, not discarded. Checksum-failed
// frames are skipped and counted; structural damage ends the stream with its
// prefix intact.
//
// Every event frame is decoded into one column batch owned by the
// connection and reset per frame; tenant admission works on those columns,
// and sink delivery inflates the kept events into one []Event the
// connection also reuses. In steady state a frame costs no allocation.
func (cs *CollectorServer) serve(conn net.Conn, st *ConnStats) {
	defer cs.wg.Done()
	defer conn.Close()
	defer cs.connDone(conn)
	sp := cs.tracer.Begin("conn", "server")

	tenancy := cs.opts.Tenancy
	var tenant *tenantState
	var timedOut, poisoned bool
	defer func() {
		if tenant != nil {
			tenant.connDone(tenancy.now(), timedOut, poisoned)
		}
		cs.mu.Lock()
		events, complete, errStr := st.Events, st.Complete, st.Err
		cs.mu.Unlock()
		sp.End("remote", st.Remote, "events", fmt.Sprint(events), "complete", fmt.Sprint(complete))
		if errStr != "" {
			cs.log.Warn("collector server: producer stream died, prefix salvaged",
				"remote", st.Remote, "events", events, "err", errStr)
		} else {
			cs.log.Info("collector server: producer stream finished",
				"remote", st.Remote, "events", events, "complete", complete)
		}
	}()

	// A stream that dies is a per-connection outcome, not a server failure:
	// it is recorded in ConnStats (and the prefix salvaged), while Close's
	// error stays reserved for the server's own plumbing. A deadline error is
	// classified on the ConnStats row — the salvage it triggered is visible
	// right there, not only in a log line — and feeds the tenant's poison
	// heuristic; structural damage (ErrBadStream) counts as poison too.
	fail := func(err error) {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			timedOut = true
		}
		if errors.Is(err, ErrBadStream) {
			poisoned = true
		}
		cs.mu.Lock()
		st.Err = err.Error()
		st.TimedOut = timedOut
		cs.mu.Unlock()
	}

	// bind attaches the stream to its tenant on the first hello — or to
	// DefaultTenant if payload arrives with no hello (pre-multiplexing
	// producers) — enforcing the tenant's connection cap and quarantine.
	bind := func(h Hello) error {
		if tenancy == nil || tenant != nil {
			return nil
		}
		t := cs.tenants.get(h.Key())
		if ok, reason := t.admitConn(tenancy.now()); !ok {
			cs.log.Warn("collector server: tenant refused connection",
				"tenant", t.name, "remote", st.Remote, "reason", reason)
			return fmt.Errorf("trace: %s", reason)
		}
		tenant = t
		cs.mu.Lock()
		st.Tenant = t.name
		cs.mu.Unlock()
		return nil
	}

	deadline := func() time.Duration {
		if tenant != nil {
			return tenant.deadline(cs.opts.ConnTimeout)
		}
		return cs.opts.ConnTimeout
	}

	cs.extendDeadline(conn, deadline())
	sr, err := NewStreamReader(conn)
	if err != nil {
		fail(err)
		return
	}
	var (
		cols    ColumnBatch // the frame being decoded, reset per frame
		deliver []Event     // the sink's view of cols' kept events
		seen    int         // events and registry records taken so far
	)
	skip := func() {
		cs.mu.Lock()
		st.SkippedFrames++
		cs.mu.Unlock()
	}
	sawEnd := false
	for {
		cs.extendDeadline(conn, deadline())
		cols.Reset()
		ent, err := sr.readEntry(&cols)
		switch {
		case err == nil:
		case errors.Is(err, ErrChecksum):
			skip()
			continue
		case err == io.EOF && sawEnd:
			return
		default:
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			fail(err)
			return
		}
		switch ent.kind {
		case frameHello:
			cs.mu.Lock()
			st.Tenant = ent.hello.Key()
			cs.mu.Unlock()
			if err := bind(ent.hello); err != nil {
				fail(err)
				return
			}
		case frameEnd:
			// Events first, registry afterwards; keep reading registry
			// frames until the stream truly ends.
			sawEnd = true
			cs.mu.Lock()
			st.Complete = true
			cs.mu.Unlock()
		case frameEvents:
			seen += ent.n
			if tenancy != nil {
				if err := bind(Hello{}); err != nil {
					fail(err)
					return
				}
				cs.mu.Lock()
				st.Events += ent.n
				cs.mu.Unlock()
				if wait := tenant.admit(&cols, tenancy.now()); wait > 0 {
					// Producer blocking: the bucket debt is paid in wall time
					// on this connection's goroutine, never a neighbor's.
					tenancy.sleep(wait)
				}
				if cols.Len() > 0 {
					if tenancy.Sink != nil {
						deliver = cols.AppendTo(deliver[:0], 0, cols.Len())
						tenancy.Sink.TenantEvents(tenant.name, deliver)
					} else {
						tenant.store(&cols)
					}
				}
				continue
			}
			cs.mu.Lock()
			cs.events.AppendRange(&cols, 0, cols.Len())
			st.Events += ent.n
			cs.mu.Unlock()
		case frameInstance:
			if !plausibleRegistryID(ent.instance.ID, seen) {
				// Damaged or hostile: restoring it would allocate a
				// placeholder for every ID in the gap. Skip it like a
				// corrupt frame; the stream goes on.
				skip()
				continue
			}
			seen++
			if tenancy != nil {
				if err := bind(Hello{}); err != nil {
					fail(err)
					return
				}
				cs.mu.Lock()
				st.Instances++
				cs.mu.Unlock()
				if tenancy.Sink != nil {
					tenancy.Sink.TenantInstance(tenant.name, ent.instance)
				} else {
					tenant.mu.Lock()
					if _, ok := tenant.instances[ent.instance.ID]; !ok {
						tenant.instances[ent.instance.ID] = ent.instance
					}
					tenant.mu.Unlock()
				}
				continue
			}
			cs.mu.Lock()
			if _, ok := cs.instances[ent.instance.ID]; !ok {
				cs.instances[ent.instance.ID] = ent.instance
			}
			st.Instances++
			cs.mu.Unlock()
		case frameAggregate:
			// Advisory lazy-aggregation records: forwarded to sinks that
			// opt in, dropped otherwise (conservation was settled on the
			// producer side, so nothing is lost but bound tightening).
			if tenancy != nil {
				if err := bind(Hello{}); err != nil {
					fail(err)
					return
				}
				if as, ok := tenancy.Sink.(TenantAggregateSink); ok {
					as.TenantAggregate(tenant.name, ent.agg)
				}
			}
		}
	}
}

// extendDeadline pushes the per-frame read deadline forward. The duration is
// resolved per connection: a tenant quota may override the server-wide
// -conn-timeout once the stream has bound to its tenant.
func (cs *CollectorServer) extendDeadline(conn net.Conn, d time.Duration) {
	if d > 0 {
		conn.SetReadDeadline(time.Now().Add(d))
	}
}

// connDone retires one connection and wakes WaitStreams waiters.
func (cs *CollectorServer) connDone(conn net.Conn) {
	cs.mu.Lock()
	delete(cs.open, conn)
	cs.active--
	cs.completed++
	cs.mu.Unlock()
	cs.cond.Broadcast()
}

func (cs *CollectorServer) addErr(err error) {
	cs.mu.Lock()
	cs.errs = append(cs.errs, err)
	cs.mu.Unlock()
}

// WaitStreams blocks until n producer streams have finished (completely or
// partially) or the server is closed. It is how `dsspy -listen` knows the
// producers it was waiting for are done.
func (cs *CollectorServer) WaitStreams(n int) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for cs.completed < n && !cs.closed {
		cs.cond.Wait()
	}
}

// Close stops accepting connections and waits for in-flight producer
// streams to finish (a wedged producer is bounded by ConnTimeout, if set).
// It returns the first server-level error; per-connection stream errors are
// reported in ServerStats, not here.
func (cs *CollectorServer) Close() error {
	return cs.shutdown(false)
}

// Abort is Close with crash semantics: still-open producer connections are
// torn down instead of drained. Their decoded prefixes are salvaged like any
// other dead stream. Tests use it to model a collector that dies mid-run.
func (cs *CollectorServer) Abort() error {
	return cs.shutdown(true)
}

func (cs *CollectorServer) shutdown(kill bool) error {
	cs.mu.Lock()
	alreadyClosed := cs.closed
	cs.closed = true
	var open []net.Conn
	if kill {
		cs.aborted = true
		open = make([]net.Conn, 0, len(cs.open))
		for conn := range cs.open {
			open = append(open, conn)
		}
	}
	cs.mu.Unlock()
	cs.cond.Broadcast()
	if !alreadyClosed {
		close(cs.closing)
	}
	cs.ln.Close()
	for _, conn := range open {
		conn.Close()
	}
	cs.wg.Wait()
	cs.sampler.Stop()
	return cs.firstErr()
}

// Drain is the SIGTERM path: stop accepting, give in-flight producer streams
// up to timeout to finish on their own, then tear down whatever is left. The
// decoded prefix of every torn-down stream is salvaged like any other dead
// stream, so a drain never discards events already on the wire. It returns
// the number of connections that had to be cut.
func (cs *CollectorServer) Drain(timeout time.Duration) (cut int, err error) {
	cs.mu.Lock()
	alreadyClosed := cs.closed
	cs.closed = true
	cs.mu.Unlock()
	cs.cond.Broadcast()
	if !alreadyClosed {
		close(cs.closing)
	}
	cs.ln.Close()

	// Bounded wait for a voluntary finish. sync.Cond has no timed wait, so
	// the drain polls; 2ms granularity is noise against drain timeouts
	// measured in seconds.
	deadline := time.Now().Add(timeout)
	for {
		cs.mu.Lock()
		active := cs.active
		cs.mu.Unlock()
		if active == 0 || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	cs.mu.Lock()
	open := make([]net.Conn, 0, len(cs.open))
	for conn := range cs.open {
		open = append(open, conn)
	}
	cs.mu.Unlock()
	for _, conn := range open {
		conn.Close()
	}
	cs.wg.Wait()
	cs.sampler.Stop()
	if len(open) > 0 {
		cs.log.Warn("collector server: drain timeout, connections cut", "cut", len(open))
	}
	return len(open), cs.firstErr()
}

func (cs *CollectorServer) firstErr() error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, err := range cs.errs {
		if !errors.Is(err, net.ErrClosed) {
			return err
		}
	}
	return nil
}

// Columns returns all events received so far as one column batch ordered by
// sequence number: a copy, so it stays valid while producers still stream.
// Events salvaged from partial streams are included; ServerStats tells them
// apart per connection.
func (cs *CollectorServer) Columns() *ColumnBatch {
	out := &ColumnBatch{}
	cs.mu.Lock()
	out.AppendRange(&cs.events, 0, cs.events.Len())
	cs.mu.Unlock()
	out.SortBySeq()
	return out
}

// Session rebuilds a replay session from the registry frames producers sent
// with FinishSession. Instances the registry never named (their frames were
// lost with a partial stream) appear as placeholders, so analysis can still
// bucket their events.
func (cs *CollectorServer) Session() *Session {
	s := NewSessionWith(Options{Recorder: NullRecorder{}})
	cs.mu.Lock()
	ids := make([]InstanceID, 0, len(cs.instances))
	for id := range cs.instances {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	instances := make([]Instance, len(ids))
	for i, id := range ids {
		instances[i] = cs.instances[id]
	}
	cs.mu.Unlock()
	for _, inst := range instances {
		s.restoreInstance(inst)
	}
	return s
}

// TenantStats returns per-tenant admission snapshots, sorted by tenant name.
// Nil without TenancyOptions.
func (cs *CollectorServer) TenantStats() []TenantStats {
	if cs.tenants == nil {
		return nil
	}
	now := cs.opts.Tenancy.now()
	states := cs.tenants.all()
	out := make([]TenantStats, len(states))
	for i, t := range states {
		out[i] = t.stats(now)
	}
	return out
}

// TenantColumns returns a copy of one tenant's retained events as one column
// batch ordered by sequence number (store mode only — with a sink the server
// retains nothing).
func (cs *CollectorServer) TenantColumns(name string) *ColumnBatch {
	if cs.tenants == nil {
		return nil
	}
	t := cs.tenants.get(name)
	out := &ColumnBatch{}
	t.mu.Lock()
	out.AppendRange(&t.events, 0, t.events.Len())
	t.mu.Unlock()
	out.SortBySeq()
	return out
}

// TenantSession rebuilds a replay session from one tenant's registry frames
// (store mode only), mirroring Session for the single-run collector.
func (cs *CollectorServer) TenantSession(name string) *Session {
	if cs.tenants == nil {
		return nil
	}
	t := cs.tenants.get(name)
	s := NewSessionWith(Options{Recorder: NullRecorder{}})
	t.mu.Lock()
	ids := make([]InstanceID, 0, len(t.instances))
	for id := range t.instances {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	instances := make([]Instance, len(ids))
	for i, id := range ids {
		instances[i] = t.instances[id]
	}
	t.mu.Unlock()
	for _, inst := range instances {
		s.restoreInstance(inst)
	}
	return s
}

// ServerStats returns a snapshot of the server's accept/reject/retry
// counters and per-connection outcomes.
func (cs *CollectorServer) ServerStats() ServerStats {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	ss := ServerStats{
		Accepted:      cs.accepted,
		Rejected:      cs.rejected,
		AcceptRetries: cs.retries,
		Conns:         make([]ConnStats, len(cs.conns)),
	}
	for i, c := range cs.conns {
		ss.Conns[i] = *c
	}
	if cs.sampler != nil {
		ss.StoreDepth = cs.sampler.Hist(0)
		ss.ActiveConns = cs.sampler.Hist(1)
	}
	return ss
}

// WriteMetrics exports the server's accept/connection/store counters in
// Prometheus exposition.
func (cs *CollectorServer) WriteMetrics(w *obs.PromWriter) {
	cs.mu.Lock()
	accepted, rejected, retries := cs.accepted, cs.rejected, cs.retries
	active, stored := cs.active, cs.events.Len()
	cs.mu.Unlock()
	w.Counter("dsspy_server_conns_accepted_total", "Producer connections served.", float64(accepted))
	w.Counter("dsspy_server_conns_rejected_total", "Connections refused by the connection cap.", float64(rejected))
	w.Counter("dsspy_server_accept_retries_total", "Transient accept errors survived with backoff.", float64(retries))
	w.Gauge("dsspy_server_conns_active", "Producer connections currently open.", float64(active))
	w.Gauge("dsspy_server_events_stored", "Events accumulated in the store.", float64(stored))
	if cs.sampler != nil {
		w.Histogram("dsspy_server_store_depth", "Sampled event-store size.", cs.sampler.Hist(0), 1)
		w.Histogram("dsspy_server_conns_sampled", "Sampled concurrent producer connections.", cs.sampler.Hist(1), 1)
	}
	if cs.tenants != nil {
		cs.tenants.writeMetrics(w)
	}
}
