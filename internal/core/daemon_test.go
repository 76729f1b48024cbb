package core_test

// Daemon tests: the acceptance scenario (three tenants, one over quota, the
// other two byte-identical to their solo runs), window rotation bounds, and
// the checkpoint/restore contract.

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"dsspy/internal/core"
	"dsspy/internal/corpus"
	"dsspy/internal/trace"
)

// runTenantProducer instruments a corpus program over a daemon socket: dial
// with the tenant's hello, run the behaviors, ship the registry, close.
func runTenantProducer(t *testing.T, addr, tenant string, p corpus.DynamicProgram) {
	t.Helper()
	sock, err := trace.DialCollectorHello("tcp", addr, trace.Hello{Tenant: tenant, Process: "test", Run: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	s := trace.NewSessionWith(trace.Options{Recorder: sock, CaptureSites: true})
	for _, b := range p.Mix.Behaviors(p.Name) {
		b(s)
	}
	if err := sock.FinishSession(s); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonTenantIsolationUnderQuotaPressure is the ISSUE acceptance
// scenario: three tenants share one daemon; gamma is throttled into
// degradation; alpha's and beta's reports must equal their solo runs byte
// for byte, and gamma's overage must be fully accounted.
func TestDaemonTenantIsolationUnderQuotaPressure(t *testing.T) {
	progs := corpusPrograms()
	alphaProg, betaProg, gammaProg := progs[4], progs[7], progs[14]

	daemon := core.New().NewDaemon(core.DaemonConfig{})
	cs, err := trace.ListenCollectorOpts("tcp", "127.0.0.1:0", trace.ServerOptions{
		Tenancy: &trace.TenancyOptions{
			Sink: daemon,
			PerTenant: map[string]trace.TenantQuota{
				// A quota gamma's workload blows through immediately.
				"gamma": {EventsPerSec: 50, Burst: 50, MaxBlock: time.Millisecond},
			},
			Sleep: func(time.Duration) {}, // don't serve real block waits in tests
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	addr := cs.Addr().String()

	runTenantProducer(t, addr, "alpha", alphaProg)
	runTenantProducer(t, addr, "beta", betaProg)
	runTenantProducer(t, addr, "gamma", gammaProg)
	cs.WaitStreams(3)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	// Alpha and beta: byte-identical to their solo single-collector runs.
	for _, tc := range []struct {
		tenant string
		prog   corpus.DynamicProgram
	}{
		{"alpha", alphaProg},
		{"beta", betaProg},
	} {
		solo := tc.prog.Run(core.New())
		want := reportBytes(t, solo)
		got := reportBytes(t, daemon.TenantReport(tc.tenant))
		if !bytes.Equal(got, want) {
			t.Errorf("tenant %s: daemon report != solo run (%d vs %d bytes)", tc.tenant, len(got), len(want))
		}
	}

	// Gamma: degraded, with every event accounted for.
	var gamma trace.TenantStats
	for _, ts := range cs.TenantStats() {
		if !ts.Conserved() {
			t.Errorf("tenant %s: conservation violated: %+v", ts.Tenant, ts)
		}
		if ts.Tenant == "gamma" {
			gamma = ts
		}
	}
	if gamma.SampledOut+gamma.Dropped == 0 {
		t.Fatalf("gamma was not degraded despite a 50 ev/s quota: %+v", gamma)
	}
	if gamma.Demotions == 0 {
		t.Fatalf("gamma recorded no demotions: %+v", gamma)
	}
	// And the shed load never reached gamma's analysis window.
	gotGamma := daemon.TenantReport("gamma")
	soloGamma := gammaProg.Run(core.New())
	if gotGamma.Stats.Events >= soloGamma.Stats.Events {
		t.Fatalf("gamma window folded %d events, want fewer than the solo run's %d",
			gotGamma.Stats.Events, soloGamma.Stats.Events)
	}
}

// TestDaemonWindowRotation bounds the ring and conserves events across
// window boundaries.
func TestDaemonWindowRotation(t *testing.T) {
	daemon := core.New().NewDaemon(core.DaemonConfig{WindowEvents: 500, MaxWindows: 3})
	total := 0
	for i := 0; i < 10; i++ {
		events := make([]trace.Event, 400)
		for j := range events {
			events[j] = trace.Event{
				Seq:      uint64(total + j + 1),
				Instance: 1,
				Op:       trace.OpInsert,
				Index:    j,
				Size:     j,
				Thread:   1,
			}
		}
		daemon.TenantEvents("alpha", events)
		total += len(events)
	}
	daemon.TenantInstance("alpha", trace.Instance{ID: 1, TypeName: "List[int]"})

	st := daemon.Status()
	if len(st) != 1 {
		t.Fatalf("tenants in status: %d", len(st))
	}
	a := st[0]
	// Batches of 400 cross the 500-event bound every second batch: 5 rotations.
	if a.Rotated != 5 {
		t.Fatalf("rotated %d windows over %d events with WindowEvents=500, want 5", a.Rotated, total)
	}
	if a.Windows > 3 {
		t.Fatalf("ring holds %d windows, bound is 3", a.Windows)
	}
	if a.Evicted != a.Rotated-a.Windows {
		t.Fatalf("eviction accounting: rotated %d, retained %d, evicted %d", a.Rotated, a.Windows, a.Evicted)
	}

	// The merged view spans the retained windows plus the open one; its event
	// count is exactly what was folded minus what eviction discarded.
	rep := daemon.TenantReport("alpha")
	if rep.Stats.Events >= total {
		t.Fatalf("report folds %d events, want fewer than %d (evictions discarded some)", rep.Stats.Events, total)
	}
	if rep.Stats.Events == 0 {
		t.Fatal("report is empty")
	}
}

// TestDaemonCheckpointRestore: what a daemon checkpointed, its successor
// serves — byte for byte — and new windows never reuse old origins.
func TestDaemonCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	progs := corpusPrograms()

	first := core.New().NewDaemon(core.DaemonConfig{CheckpointDir: dir, WindowEvents: 300})
	feed := func(dm *core.Daemon, tenant string, p corpus.DynamicProgram) {
		s, events := recordProgram(p)
		for _, inst := range s.Instances() {
			dm.TenantInstance(tenant, inst)
		}
		dm.TenantEvents(tenant, events)
	}
	feed(first, "alpha", progs[3])
	feed(first, "beta", progs[9])
	if err := first.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantAlpha := reportBytes(t, first.TenantReport("alpha"))
	wantBeta := reportBytes(t, first.TenantReport("beta"))
	wantFleet := reportBytes(t, first.FleetReport())

	second := core.New().NewDaemon(core.DaemonConfig{CheckpointDir: dir, WindowEvents: 300})
	n, err := second.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("restored %d tenants, want 2", n)
	}
	if got := reportBytes(t, second.TenantReport("alpha")); !bytes.Equal(got, wantAlpha) {
		t.Error("alpha: restored report != checkpointed report")
	}
	if got := reportBytes(t, second.TenantReport("beta")); !bytes.Equal(got, wantBeta) {
		t.Error("beta: restored report != checkpointed report")
	}
	if got := reportBytes(t, second.FleetReport()); !bytes.Equal(got, wantFleet) {
		t.Error("fleet: restored view != checkpointed view")
	}

	// New events land in windows numbered past the restored ones.
	feed(second, "alpha", progs[3])
	rep := second.TenantReport("alpha")
	seen := map[string]bool{}
	for _, ir := range rep.Instances {
		seen[ir.Origin] = true
	}
	if len(seen) < 2 {
		t.Fatalf("post-restore windows reuse checkpointed origins: %v", seen)
	}
}

// TestDaemonCheckpointIsIdempotent: checkpointing twice with no new traffic
// must not change the saved state or the served report.
func TestDaemonCheckpointIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	daemon := core.New().NewDaemon(core.DaemonConfig{CheckpointDir: dir})
	events := make([]trace.Event, 100)
	for j := range events {
		events[j] = trace.Event{Seq: uint64(j + 1), Instance: 1, Op: trace.OpInsert, Index: j, Size: j, Thread: 1}
	}
	daemon.TenantInstance("alpha", trace.Instance{ID: 1, TypeName: "List[int]"})
	daemon.TenantEvents("alpha", events)

	if err := daemon.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, daemon.TenantReport("alpha"))
	if err := daemon.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, daemon.TenantReport("alpha")); !bytes.Equal(got, want) {
		t.Fatal("a quiet second checkpoint changed the tenant report")
	}

	restored := core.New().NewDaemon(core.DaemonConfig{CheckpointDir: dir})
	if _, err := restored.Restore(); err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, restored.TenantReport("alpha")); !bytes.Equal(got, want) {
		t.Fatal("restore after double checkpoint diverged")
	}
}

// recordProgram runs a corpus program against a memory recorder and returns
// its session and its events in sequence order.
func recordProgram(p corpus.DynamicProgram) (*trace.Session, []trace.Event) {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec, CaptureSites: true})
	for _, b := range p.Mix.Behaviors(p.Name) {
		b(s)
	}
	return s, rec.Events()
}

// stripOrigins clears every origin stamp, so reports windowed under
// different names compare on content alone.
func stripOrigins(rep *core.Report) *core.Report {
	rep.Origin = ""
	for _, ir := range rep.Instances {
		ir.Origin = ""
	}
	rep.RegisteredFrom = nil
	return rep
}

// TestDaemonTenantEventsReusedBuffer: a producer connection hands the daemon
// one buffer it overwrites after every call, so nothing the daemon folds may
// alias the caller's events. The tenant view, across windows that do not
// divide the stream, must equal per-window FeedColumns references over the
// same chunks.
func TestDaemonTenantEventsReusedBuffer(t *testing.T) {
	const chunk = 1024
	const window = 1500 // rotates after every second chunk, mid-instance
	s, events := recordProgram(corpusPrograms()[19])
	if len(events) < 3*window {
		t.Fatalf("program yields %d events, want at least %d", len(events), 3*window)
	}
	if len(events)%window == 0 {
		t.Fatalf("window %d divides the %d-event stream", window, len(events))
	}

	dm := core.New().NewDaemon(core.DaemonConfig{WindowEvents: window, MaxWindows: len(events)/window + 2})
	for _, inst := range s.Instances() {
		dm.TenantInstance("alpha", inst)
	}
	var refs []*core.Report
	ref := core.New().NewStreamAnalyzer(0)
	ref.Attach(s)
	live := 0
	closeRef := func() {
		rep := ref.Close()
		rep.Origin = fmt.Sprintf("ref#%d", len(refs))
		refs = append(refs, rep)
	}

	buf := make([]trace.Event, chunk)
	for lo := 0; lo < len(events); lo += chunk {
		n := copy(buf, events[lo:min(lo+chunk, len(events))])
		dm.TenantEvents("alpha", buf[:n])
		for i := range buf {
			buf[i] = trace.Event{Seq: ^uint64(0), Instance: 1, Op: trace.OpDelete, Index: -1, Thread: 99}
		}

		var cb trace.ColumnBatch
		cb.AppendEvents(events[lo : lo+n])
		ref.FeedColumns(&cb)
		if live += n; live >= window {
			closeRef()
			ref = core.New().NewStreamAnalyzer(0)
			ref.Attach(s)
			live = 0
		}
	}
	if live > 0 {
		closeRef()
	}
	if len(refs) < 3 {
		t.Fatalf("stream closed %d windows, want several", len(refs))
	}

	want, _ := core.MergeReports(refs...)
	got := dm.TenantReport("alpha")
	if !bytes.Equal(reportBytes(t, stripOrigins(got)), reportBytes(t, stripOrigins(want))) {
		t.Fatal("tenant view over a reused caller buffer != per-window FeedColumns reference")
	}
}

// stampWindow marks a reference window report the way the daemon stamps
// its windows: report, rows and registry under one origin.
func stampWindow(rep *core.Report, origin string) *core.Report {
	rep.Origin = origin
	for _, ir := range rep.Instances {
		ir.Origin = origin
	}
	rep.RegisteredFrom = make([]string, len(rep.Registered))
	for i := range rep.RegisteredFrom {
		rep.RegisteredFrom[i] = origin
	}
	return rep
}

// TestTenantReportConcurrentWithEvents: TenantReport captures the open
// window under the tenant lock and finalizes, merges and renders after
// releasing it. A reader racing TenantEvents across window rotations (run it
// under -race) must still see one point of the stream: at every point, the
// view equals MergeReports over the windows closed by then plus a snapshot
// of the open one, rebuilt here from per-window analyzers.
func TestTenantReportConcurrentWithEvents(t *testing.T) {
	const chunk, window = 256, 2000
	s, events := recordProgram(corpusPrograms()[19])
	if len(events) < 3*window {
		t.Fatalf("program yields %d events, want at least %d", len(events), 3*window)
	}

	// The reference view after every chunk, keyed by the events it covers
	// (no window is evicted, so that count names the point).
	want := map[int][]byte{}
	empty, _ := core.MergeReports()
	want[0] = reportBytes(t, empty)
	var closed []*core.Report
	open := core.New().NewStreamAnalyzer(0)
	open.Attach(s)
	live := 0
	for lo := 0; lo < len(events); lo += chunk {
		part := events[lo:min(lo+chunk, len(events))]
		open.Feed(part...)
		if live += len(part); live >= window {
			closed = append(closed, stampWindow(open.Close(), fmt.Sprintf("alpha#%d", len(closed))))
			open = core.New().NewStreamAnalyzer(0)
			open.Attach(s)
			live = 0
		}
		parts := append([]*core.Report(nil), closed...)
		if live > 0 {
			parts = append(parts, stampWindow(open.Snapshot(), fmt.Sprintf("alpha#%d", len(closed))))
		}
		view, _ := core.MergeReports(parts...)
		want[lo+len(part)] = reportBytes(t, view)
	}
	if len(closed) < 2 {
		t.Fatalf("stream closed %d windows, want a rotation or more", len(closed))
	}

	dm := core.New().NewDaemon(core.DaemonConfig{WindowEvents: window, MaxWindows: len(events)/window + 2})
	for _, inst := range s.Instances() {
		dm.TenantInstance("alpha", inst)
	}
	// The writer waits after every chunk until the reader has begun another
	// read, so the reads interleave with the stream instead of all landing
	// after it; each read then races the next chunk.
	reading := make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for lo := 0; lo < len(events); lo += chunk {
			dm.TenantEvents("alpha", events[lo:min(lo+chunk, len(events))])
			<-reading
		}
	}()
	seen := map[int]bool{}
	check := func() {
		select {
		case reading <- struct{}{}:
		default:
		}
		view := dm.TenantReport("alpha")
		w, ok := want[view.Stats.Events]
		if !ok {
			t.Fatalf("a read covers %d events, which is no chunk boundary", view.Stats.Events)
		}
		if !bytes.Equal(reportBytes(t, view), w) {
			t.Fatalf("the view at %d events != merge(closed windows, open snapshot)", view.Stats.Events)
		}
		seen[view.Stats.Events] = true
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		check()
	}
	check()
	if !seen[len(events)] {
		t.Fatal("the read after the last chunk does not cover the whole stream")
	}
	t.Logf("checked reads at %d of %d points", len(seen), len(want))
}

// TestDaemonSkipsHostileRegistryFrame: one tenant's stream carries a
// registry frame naming instance ID 8·10⁸ — restored unbounded, tens of GB
// of placeholders. The server skips that one frame and counts it; the
// tenant keeps its connection and its report, and its neighbor's report is
// byte-identical to a solo run.
func TestDaemonSkipsHostileRegistryFrame(t *testing.T) {
	progs := corpusPrograms()
	daemon := core.New().NewDaemon(core.DaemonConfig{})
	cs, err := trace.ListenCollectorOpts("tcp", "127.0.0.1:0", trace.ServerOptions{
		Tenancy: &trace.TenancyOptions{Sink: daemon},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	s, events := recordProgram(progs[4])
	var cols trace.ColumnBatch
	cols.AppendEvents(events)
	conn, err := net.Dial("tcp", cs.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sw, err := trace.NewStreamWriter(conn)
	if err != nil {
		t.Fatal(err)
	}
	hostile := trace.Instance{ID: 800_000_000, Kind: trace.KindList, TypeName: "List[int]"}
	for _, err := range []error{
		sw.WriteHello(trace.Hello{Tenant: "mallory"}),
		sw.WriteColumns(&cols),
		sw.WriteInstances(append([]trace.Instance{hostile}, s.Instances()...)),
		sw.Close(),
		conn.Close(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	runTenantProducer(t, cs.Addr().String(), "alice", progs[7])
	cs.WaitStreams(2)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	for _, c := range cs.ServerStats().Conns {
		if !c.Complete || c.Err != "" {
			t.Fatalf("tenant %s lost its connection: %+v", c.Tenant, c)
		}
		if want := map[string]int{"mallory": 1}[c.Tenant]; c.SkippedFrames != want {
			t.Fatalf("tenant %s: %d frames skipped, want %d", c.Tenant, c.SkippedFrames, want)
		}
	}
	ref := core.New().NewStreamAnalyzer(0)
	ref.Attach(s)
	ref.FeedColumns(&cols)
	want := reportBytes(t, stripOrigins(ref.Close()))
	if got := reportBytes(t, stripOrigins(daemon.TenantReport("mallory"))); !bytes.Equal(got, want) {
		t.Fatal("mallory's report != a FeedColumns reference over the same stream")
	}
	if got, want := reportBytes(t, daemon.TenantReport("alice")), reportBytes(t, progs[7].Run(core.New())); !bytes.Equal(got, want) {
		t.Fatal("alice's report != her solo run")
	}
}

// TestFeedConcurrentCallers: concurrent Feed callers share the analyzer's
// fold queues and the scratch-batch pool, so concurrent feeds of disjoint
// instance sets (run under -race) must fold exactly what a sequential feed
// folds.
func TestFeedConcurrentCallers(t *testing.T) {
	s, events := recordProgram(corpusPrograms()[5])
	var parts [2][]trace.Event
	for _, e := range events {
		parts[e.Instance%2] = append(parts[e.Instance%2], e)
	}
	if len(parts[0]) == 0 || len(parts[1]) == 0 {
		t.Fatal("program does not touch both instance sets")
	}

	seq := core.New().NewStreamAnalyzer(4)
	seq.Attach(s)
	seq.Feed(events...)
	want := reportBytes(t, seq.Close())

	conc := core.New().NewStreamAnalyzer(4)
	conc.Attach(s)
	var wg sync.WaitGroup
	for _, part := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := 0; lo < len(part); lo += 100 {
				conc.Feed(part[lo:min(lo+100, len(part))]...)
			}
		}()
	}
	wg.Wait()
	if got := reportBytes(t, conc.Close()); !bytes.Equal(got, want) {
		t.Fatal("concurrent Feed of disjoint instances != sequential Feed")
	}
}

// fleetStream records daemon-fleet's tenant stream: a 330-instance corpus
// mix.
func fleetStream() (*trace.Session, []trace.Event) {
	mix := corpus.Mix{
		LI: 40, IQ: 40, FS: 10, FLR: 40, SAIDual: 20, LIFLR: 20,
		RegularOnly: 40, Irregular: 40,
		CM: 20, MQ: 20, RMT: 20, PRW: 20,
	}
	return recordProgram(corpus.DynamicProgram{Name: "fleet", Mix: mix})
}

// fleetTenant returns a daemon at daemon-fleet's tenant steady state: a
// full ring of eight closed windows plus a half-full open window, each over
// the same 330-instance corpus stream, which it returns too.
func fleetTenant() (*core.Daemon, []trace.Event) {
	s, events := fleetStream()
	dm := core.New().NewDaemon(core.DaemonConfig{WindowEvents: len(events), MaxWindows: 8})
	for _, inst := range s.Instances() {
		dm.TenantInstance("t0", inst)
	}
	for w := 0; w < 8; w++ {
		dm.TenantEvents("t0", events)
	}
	dm.TenantEvents("t0", events[:len(events)/2])
	return dm, events
}

// The tenant read budget: the text once, plus a per-row allowance a third
// above the measured 248 B/row.
const (
	tenantReadTextFactor = 1.0
	tenantReadRowBytes   = 330
)

// TestTenantReportAllocGate bounds what one tenant read allocates —
// TenantReport plus Write into a fresh bytes.Buffer — by what it returns:
// the rendered text, allocated once at its size, plus an allowance per
// merged row (clone, finalize and merge). Between reads the stream moves on
// by a sixteenth, as it does under a reader polling a busy tenant, so part
// of the open window changes. On fleetTenant's 2,808 rows and 1,436 KiB of
// text a read measured 2,116 KiB: the text plus 248 B/row. The fmt
// renderer, keyed merge and per-snapshot clones and pattern-list copies
// before it measured 7,333 KiB (the text plus 2,150 B/row).
func TestTenantReportAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate; the race build allocates more")
	}
	dm, events := fleetTenant()
	dm.TenantReport("t0") // warm-up
	const reads = 5
	var text, rows int
	var alloc uint64
	for k, lo := 0, len(events)/2; k < reads; k, lo = k+1, lo+len(events)/16 {
		dm.TenantEvents("t0", events[lo:lo+len(events)/16])
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rep := dm.TenantReport("t0")
		var buf bytes.Buffer
		if err := rep.Write(&buf); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
		text, rows = buf.Len(), len(rep.Instances)
	}
	perRead := float64(alloc) / reads
	budget := tenantReadTextFactor*float64(text) + tenantReadRowBytes*float64(rows)
	t.Logf("a tenant read allocates %.0f KiB for %d KiB of text and %d rows: %.2f B per text byte, or text once plus %.0f B/row (budget %.0f KiB)",
		perRead/1024, text/1024, rows, perRead/float64(text), (perRead-float64(text))/float64(rows), budget/1024)
	if perRead > budget {
		t.Fatalf("a tenant read allocates %.0f KiB, budget %.0f KiB (%.1f B/text byte + %d B/row)",
			perRead/1024, budget/1024, tenantReadTextFactor, tenantReadRowBytes)
	}
}

// TestClosedWindowPatternListsExact: every row of every closed window keeps
// its pattern list at its length, so the ring holds no growth slack.
func TestClosedWindowPatternListsExact(t *testing.T) {
	dm, _ := fleetTenant()
	windows := dm.ClosedWindows("t0")
	if len(windows) != 8 {
		t.Fatalf("ring holds %d windows, want 8", len(windows))
	}
	for i, w := range windows {
		checkExactPatternLists(t, w, fmt.Sprintf("window %d", i))
	}
}

// ringRetainedBefore is the heap TestDaemonRingRetainedHeap read when each
// listed pattern was a copy of its 88-byte segmenter run: 6.13 MiB. The
// compact record and the registry copy the ring shares across windows take
// it to 4.00 MiB (0.65×). Patterns were half of the old figure on
// fleetTenant; the rest is per-row state — stats, profile, use cases,
// evidence, contention — which the record does not touch.
const (
	ringRetainedBefore = 6_423_000
	ringRetainedShare  = 0.70
)

// heapAfterGC is the live heap after two collections: the first moves
// sync.Pool caches to their victim lists, the second frees them.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestDaemonRingRetainedHeap bounds what a daemon at fleetTenant's steady
// state keeps alive — a full ring of eight closed windows plus a half-full
// open window — as the heap with the daemon alive minus the heap after it is
// dropped.
func TestDaemonRingRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap gate; the race build allocates more")
	}
	live := func() uint64 {
		dm, _ := fleetTenant()
		dm.TenantReport("t0") // waits for the open window's folds
		h := heapAfterGC()
		runtime.KeepAlive(dm)
		return h
	}()
	retained := float64(live) - float64(heapAfterGC())
	t.Logf("the daemon retains %.2f MiB; %.2f MiB before the compact pattern record (%.2f×, bound %.2f×)",
		retained/(1<<20), float64(ringRetainedBefore)/(1<<20), retained/ringRetainedBefore, ringRetainedShare)
	if retained > ringRetainedShare*ringRetainedBefore {
		t.Fatalf("the daemon retains %.2f MiB, bound %.2f MiB", retained/(1<<20), ringRetainedShare*ringRetainedBefore/(1<<20))
	}
}

// BenchmarkDaemonTenantReport measures one tenant read at the daemon's steady
// state: a full ring of eight closed windows plus the open window, each over
// the same 330-instance corpus stream (daemon-fleet's tenant shape). "merge"
// is TenantReport — snapshot plus MergeReports — and "write" renders the
// merged view.
func BenchmarkDaemonTenantReport(b *testing.B) {
	dm, _ := fleetTenant()

	b.Run("merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dm.TenantReport("t0")
		}
	})
	rep := dm.TenantReport("t0")
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := rep.Write(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDaemonIngest measures the daemon's ingest layer at daemon-fleet's
// shape: one op delivers fleetStream to each of two tenants in 1024-event
// frames through TenantEvents, tenants alternating frame by frame, into a
// daemon with the default windows, while a reader renders a tenant report
// every 5 ms, alternating tenants. The frames are copied into one slice that
// is reused for the next frame, as the server's is. The timed region ends
// with a report per tenant, which waits for everything fed to be folded, so
// no fold is left outside it. B/event includes the reader's allocations;
// reads/op says how many reads they come from.
func BenchmarkDaemonIngest(b *testing.B) {
	s, events := fleetStream()
	tenants := [2]string{"t0", "t1"}
	dm := core.New().NewDaemon(core.DaemonConfig{})
	for _, tenant := range tenants {
		for _, inst := range s.Instances() {
			dm.TenantInstance(tenant, inst)
		}
	}
	frame := make([]trace.Event, 1024)
	ingest := func() {
		for lo := 0; lo < len(events); lo += len(frame) {
			for _, tenant := range tenants {
				part := frame[:copy(frame, events[lo:min(lo+len(frame), len(events))])]
				dm.TenantEvents(tenant, part)
			}
		}
	}
	ingest() // warm-up: both tenants have an open window to read

	stop := make(chan struct{})
	var reads int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			buf.Reset()
			if err := dm.TenantReport(tenants[k%2]).Write(&buf); err != nil {
				panic(err)
			}
			reads++
		}
	}()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ingest()
	}
	close(stop)
	wg.Wait()
	for _, tenant := range tenants {
		if got, want := distinctInstances(dm.TenantReport(tenant)), distinctEventInstances(events); got != want {
			b.Fatalf("tenant %s report covers %d instances, its stream %d", tenant, got, want)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	n := float64(b.N) * float64(len(tenants)*len(events))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B/event")
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
}

// distinctInstances counts the instance ids among a report's rows.
func distinctInstances(rep *core.Report) int {
	ids := make(map[trace.InstanceID]bool)
	for _, ir := range rep.Instances {
		ids[ir.Profile.Instance.ID] = true
	}
	return len(ids)
}

// distinctEventInstances counts the instance ids among events.
func distinctEventInstances(events []trace.Event) int {
	ids := make(map[trace.InstanceID]bool)
	for _, e := range events {
		ids[e.Instance] = true
	}
	return len(ids)
}
