package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"dsspy/internal/core"
	"dsspy/internal/corpus"
	"dsspy/internal/trace"
)

// daemon-fleet: the multi-tenant collection daemon under load. Setup
// pre-encodes one v3 producer stream per tenant (hello, 1024-event batches,
// registry, end) from a corpus mix at 2/15 of replay's scale, 330 instances
// and 162,040 events. One sender streams them back to back over loopback
// TCP, alternating tenants t0 and t1, into a collector server delivering to
// a core.Daemon with the default DaemonConfig; each stream counts once the
// server has finished it (closed loop). One reader asks for a tenant report
// in a closed loop beside it, so reads contend with writes on the same
// per-tenant lock. Warm-up fills every tenant's closed-window ring first, so
// a report always merges the same number of windows.
//
// Each stream's uninstrumented twin follows it: the same bytes sent to a
// second collector server whose sink discards them, transport and decode
// with no analysis behind it.

// windowEventsShort scales the daemon's window down with -short inputs, so
// warm-up still fills the ring in proportion.
const windowEventsShort = 1 << 16

// readerThink is the reader's pause between two reports.
const readerThink = 5 * time.Millisecond

type daemonBench struct {
	cfg     runConfig
	mix     corpus.Mix
	tenants [2]string
	streams [2][]byte
	events  [2]int
	inputs  []probeInput
	// agreement is the share of instances whose findings through the daemon
	// equal the columnar analyzer's on the same stream (setup's reference
	// pass).
	agreement float64

	dm   *core.Daemon
	sink *timedTenantSink
	srv  *server
	twin *server
	last [2]*core.Report
}

// server is a collector server plus the count of streams sent to it, which
// the closed-loop sender waits on.
type server struct {
	cs   *trace.CollectorServer
	sent int
}

func newDaemonBench(cfg runConfig) *daemonBench {
	units := 2
	if cfg.short {
		units = 1
	}
	return &daemonBench{cfg: cfg, mix: mixOf(units), tenants: [2]string{"t0", "t1"}}
}

func (b *daemonBench) daemonConfig() core.DaemonConfig {
	if b.cfg.short {
		return core.DaemonConfig{WindowEvents: windowEventsShort}
	}
	return core.DaemonConfig{}
}

func listen(sink trace.TenantSink) (*server, error) {
	cs, err := trace.ListenCollectorOpts("tcp", "127.0.0.1:0",
		trace.ServerOptions{Tenancy: &trace.TenancyOptions{Sink: sink}})
	if err != nil {
		return nil, err
	}
	return &server{cs: cs}, nil
}

// send streams one pre-encoded producer stream and waits until the server
// has finished it.
func (s *server) send(stream []byte) (time.Duration, error) {
	start := time.Now()
	conn, err := net.Dial("tcp", s.cs.Addr().String())
	if err != nil {
		return 0, fmt.Errorf("dialing collector: %w", err)
	}
	_, werr := conn.Write(stream)
	cerr := conn.Close()
	if werr != nil {
		return 0, fmt.Errorf("sending stream: %w", werr)
	}
	if cerr != nil {
		return 0, fmt.Errorf("closing stream: %w", cerr)
	}
	s.sent++
	s.cs.WaitStreams(s.sent)
	return time.Since(start), nil
}

// encodeStream renders one producer stream the way a producer process ships
// it: hello, event frames of 1024 events, the registry, the end marker.
func encodeStream(tenant string, seed int64, s *trace.Session, cols *trace.ColumnBatch) ([]byte, error) {
	var buf bytes.Buffer
	sw, err := trace.NewStreamWriter(&buf)
	if err != nil {
		return nil, err
	}
	if err := sw.WriteHello(trace.Hello{Tenant: tenant, Process: "bench-sender", Run: fmt.Sprint(seed)}); err != nil {
		return nil, err
	}
	for lo := 0; lo < cols.Len(); lo += 1024 {
		part := cols.Slice(lo, min(lo+1024, cols.Len()))
		if err := sw.WriteColumns(&part); err != nil {
			return nil, err
		}
	}
	if err := sw.WriteInstances(s.Instances()); err != nil {
		return nil, err
	}
	if err := sw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (b *daemonBench) setup() error {
	b.close()
	b.inputs = b.inputs[:0]
	for t, name := range b.tenants {
		s, cols := recordMix(b.mix, "fleet-"+name, b.cfg.seed*2+int64(t))
		stream, err := encodeStream(name, b.cfg.seed, s, cols)
		if err != nil {
			return err
		}
		b.streams[t], b.events[t] = stream, cols.Len()
		b.inputs = append(b.inputs, probeInput{sess: s, cols: cols})
	}
	if err := b.referencePass(); err != nil {
		return err
	}

	b.dm = core.New().NewDaemon(b.daemonConfig())
	b.sink = &timedTenantSink{next: b.dm}
	var err error
	if b.srv, err = listen(b.sink); err != nil {
		return err
	}
	if b.twin, err = listen(nullTenantSink{}); err != nil {
		return err
	}
	// Warm-up: fill every tenant's closed-window ring.
	for k := 0; !b.ringsFull(); k++ {
		if _, err := b.srv.send(b.streams[k%2]); err != nil {
			return err
		}
	}
	for t := range b.tenants {
		if _, err := b.twin.send(b.streams[t]); err != nil {
			return err
		}
		b.dm.TenantReport(b.tenants[t])
	}
	return nil
}

// referencePass sends one stream per tenant into a fresh daemon and checks
// the tenant reports against the mix, and each row against the columnar
// analyzer's verdict on the same stream.
func (b *daemonBench) referencePass() error {
	// Default windows: one stream never rotates, so each instance's whole
	// history lands in one window (-short's small windows would split it).
	dm := core.New().NewDaemon(core.DaemonConfig{})
	srv, err := listen(dm)
	if err != nil {
		return err
	}
	defer srv.cs.Close()
	agree, total := 0, 0
	for t, name := range b.tenants {
		if _, err := srv.send(b.streams[t]); err != nil {
			return err
		}
		rep := dm.TenantReport(name)
		if err := checkUseCases(rep, b.mix); err != nil {
			return fmt.Errorf("reference pass, tenant %s: %w", name, err)
		}
		sa := core.New().NewStreamAnalyzer(runtime.GOMAXPROCS(0))
		sa.Attach(b.inputs[t].sess)
		sa.FeedColumns(b.inputs[t].cols)
		want := signatures(sa.Close())
		agree += agreeing(want, rep)
		total += len(want)
	}
	b.agreement = float64(agree) / float64(total)
	return nil
}

func (b *daemonBench) ringsFull() bool {
	max := b.daemonConfig()
	if max.MaxWindows == 0 {
		max.MaxWindows = 8 // DaemonConfig's default
	}
	full := 0
	for _, st := range b.dm.Status() {
		if st.Windows >= max.MaxWindows {
			full++
		}
	}
	return full == len(b.tenants)
}

// read is one report read: a tenant's complete view, rendered, and checked
// to cover every instance of the tenant's stream.
func (b *daemonBench) read(tr *tracer, tenant int) (*core.Report, time.Duration, error) {
	start := time.Now()
	var rep *core.Report
	tr.timed("core.finalize", laneReader, 0, func() { rep = b.dm.TenantReport(b.tenants[tenant]) })
	var buf bytes.Buffer
	tr.timed("core.write", laneReader, 0, func() { rep.Write(&buf) })
	d := time.Since(start)
	ids := make(map[trace.InstanceID]bool)
	for _, ir := range rep.Instances {
		ids[ir.Profile.Instance.ID] = true
	}
	if want := b.mix.Instances(); len(ids) != want {
		return rep, d, fmt.Errorf("tenant %s report covers %d instances, want %d", b.tenants[tenant], len(ids), want)
	}
	return rep, d, nil
}

type readResult struct {
	latencies    durations
	finalizeRows int
	errs         []error
	last         [2]*core.Report
}

func (b *daemonBench) measure(e *env) (*measurement, error) {
	m := &measurement{}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	calib0 := len(e.cal.samples)

	stop := make(chan struct{})
	var rr readResult
	var wg sync.WaitGroup
	wg.Add(1)
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	go func() {
		defer wg.Done()
		// Two reads at least, one per tenant.
		for k := 0; k < 2 || !stopped(); k++ {
			time.Sleep(readerThink)
			rep, d, err := b.read(e.tr, k%2)
			rr.errs = append(rr.errs, err)
			rr.latencies = append(rr.latencies, d)
			rr.finalizeRows += len(rep.Instances)
			rr.last[k%2] = rep
		}
	}()

	var profiled, twins [2][]float64
	var sendErr error
	// Four streams at least: two tenant pairs, one traced in a traced run.
	for k := 0; e.more(k, 4); k++ {
		t := k % 2
		tr := e.tracerFor(k / 2)
		b.sink.on.Store(tr != nil)
		busy0 := b.sink.c.busy()
		root := tr.reserve("ledger.iteration", laneMain, 0)
		d, err := b.srv.send(b.streams[t])
		if err != nil {
			sendErr = err
			break
		}
		if tr == nil {
			m.events += uint64(b.events[t])
			m.wall += d
			profiled[t] = append(profiled[t], d.Seconds())
		} else {
			start := time.Now().Add(-d)
			tr.finish(root, start, map[string]any{"tenant": b.tenants[t]})
			tr.add("core.fold", laneMain, root, start, b.sink.c.busy()-busy0, nil)
			m.tracedEvents += uint64(b.events[t])
			m.tracedWall += d
		}
		d, err = b.twin.send(b.streams[t])
		if err != nil {
			sendErr = err
			break
		}
		tr.add("daemon.twin", laneMain, 0, time.Now().Add(-d), d, nil)
		if tr == nil {
			twins[t] = append(twins[t], d.Seconds())
		}
		e.cal.maybe()
	}
	b.sink.on.Store(false)
	close(stop)
	wg.Wait()
	runtime.ReadMemStats(&mem1)
	if sendErr != nil {
		return nil, sendErr
	}

	for _, err := range rr.errs {
		e.ref.op(err)
	}
	b.checkDelivery(e.ref)
	m.latencies = rr.latencies
	m.finalizeRows = rr.finalizeRows
	m.fold.add(b.sink.c.busy(), int(b.sink.c.events.Load()))
	b.last = rr.last
	// The whole phase's allocation (reader and twin included) is charged to
	// the delivered events; only the calibration kernel's share is taken out.
	calibAlloc := uint64(len(e.cal.samples)-calib0) * e.cal.allocBytes
	if alloc := mem1.TotalAlloc - mem0.TotalAlloc; alloc > calibAlloc {
		m.allocBytes = alloc - calibAlloc
	}

	if e.tr == nil {
		var ratios []float64
		for t := range b.tenants {
			if len(profiled[t]) == 0 || len(twins[t]) == 0 {
				return nil, fmt.Errorf("too few streams; raise -seconds")
			}
			ratios = append(ratios, median(profiled[t])/median(twins[t]))
		}
		m.slowdown = geoMean(ratios)
	}
	m.agreement = b.agreement
	return m, nil
}

// checkDelivery is the delivery referee, one operation per tenant and per
// connection: every tenant received exactly what was delivered, with
// nothing sampled out or dropped, and every connection completed cleanly.
func (b *daemonBench) checkDelivery(ref *referee) {
	for _, ts := range b.srv.cs.TenantStats() {
		var err error
		if ts.Received != ts.Delivered || ts.SampledOut != 0 || ts.Dropped != 0 {
			err = fmt.Errorf("tenant %s: received %d, delivered %d, sampled out %d, dropped %d",
				ts.Tenant, ts.Received, ts.Delivered, ts.SampledOut, ts.Dropped)
		}
		ref.op(err)
	}
	for _, c := range b.srv.cs.ServerStats().Conns {
		var err error
		if !c.Complete || c.Err != "" {
			err = fmt.Errorf("connection %s (tenant %s) incomplete: %s", c.Remote, c.Tenant, c.Err)
		}
		ref.op(err)
	}
}

func (b *daemonBench) probeInputs() ([]probeInput, error) { return b.inputs, nil }

func (b *daemonBench) mergeInputs() []*core.Report {
	var out []*core.Report
	for _, rep := range b.last {
		if rep != nil {
			out = append(out, rep)
		}
	}
	return out
}

func (b *daemonBench) close() {
	for _, s := range []*server{b.srv, b.twin} {
		if s != nil {
			s.cs.Close()
		}
	}
	b.srv, b.twin = nil, nil
}

// nullTenantSink discards a tenant's traffic: the twin server's sink.
type nullTenantSink struct{}

func (nullTenantSink) TenantEvents(string, []trace.Event)    {}
func (nullTenantSink) TenantInstance(string, trace.Instance) {}
