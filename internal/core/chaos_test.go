package core_test

// The chaos matrix of the failure model (ISSUE 7): every cell injects one
// fault family through internal/faultnet and asserts the books still
// balance — per-tenant conservation on the collector side
// (received == delivered + sampled-out + dropped) and the producer-side
// resilient invariant (recorded == delivered + dropped + on-disk +
// buffered). `make chaos` runs exactly these cells under -race.

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dsspy/internal/core"
	"dsspy/internal/faultnet"
	"dsspy/internal/trace"
)

func waitCond(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func chaosEvents(n int) []trace.Event {
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = trace.Event{Seq: uint64(i + 1), Instance: trace.InstanceID(i%4 + 1), Op: trace.OpInsert, Index: i, Size: i, Thread: 1}
	}
	return events
}

func assertTenantsConserved(t *testing.T, cs *trace.CollectorServer) {
	t.Helper()
	for _, ts := range cs.TenantStats() {
		if !ts.Conserved() {
			t.Errorf("tenant %s: conservation violated: received %d != delivered %d + sampled-out %d + dropped %d",
				ts.Tenant, ts.Received, ts.Delivered, ts.SampledOut, ts.Dropped)
		}
	}
}

func assertResilientConserved(t *testing.T, st trace.ResilientStats) {
	t.Helper()
	if st.Recorded != st.Delivered+st.Dropped+st.OnDisk+st.Buffered {
		t.Errorf("producer invariant violated: recorded %d != delivered %d + dropped %d + on-disk %d + buffered %d",
			st.Recorded, st.Delivered, st.Dropped, st.OnDisk, st.Buffered)
	}
}

// TestChaosFlakyAccepts: the listener refuses the first connections; the
// resilient producer backs off, reconnects, and delivers everything.
func TestChaosFlakyAccepts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cs := trace.NewCollectorServer(faultnet.WrapListener(ln, 3, faultnet.Options{}), trace.ServerOptions{
		Tenancy: &trace.TenancyOptions{},
	})
	defer cs.Close()

	rr, err := trace.NewResilientRecorder(trace.ResilientOptions{
		Network: "tcp", Addr: ln.Addr().String(),
		BatchSize:   30,
		BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
		Hello: &trace.Hello{Tenant: "alpha"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close() // before waitCond failures, so the server shutdown can't hang
	for _, e := range chaosEvents(300) {
		rr.Record(e)
	}
	waitCond(t, 5*time.Second, func() bool { return cs.TenantColumns("alpha").Len() == 300 })
	if err := rr.Close(); err != nil {
		t.Fatal(err)
	}

	assertResilientConserved(t, rr.Stats())
	assertTenantsConserved(t, cs)
	if rr.Stats().Delivered != 300 {
		t.Fatalf("delivered %d of 300 through flaky accepts", rr.Stats().Delivered)
	}
}

// TestChaosMidFrameCut: every connection dies after a byte budget, tearing a
// frame mid-write; the producer spills, reconnects, and replays. No event is
// lost on the producer side, and the collector's books balance despite the
// torn tails it salvaged.
func TestChaosMidFrameCut(t *testing.T) {
	cs, err := trace.ListenCollectorOpts("tcp", "127.0.0.1:0", trace.ServerOptions{
		Tenancy: &trace.TenancyOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	rr, err := trace.NewResilientRecorder(trace.ResilientOptions{
		Dial: faultnet.FlakyDialer(func() (net.Conn, error) {
			return net.Dial("tcp", cs.Addr().String())
		}, 0, faultnet.Options{FailAfterBytes: 900}),
		SpillDir:    t.TempDir(),
		BatchSize:   50,
		BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
		Hello: &trace.Hello{Tenant: "alpha"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	for _, e := range chaosEvents(500) {
		rr.Record(e)
	}
	// Unique delivery matters, not the raw count: replays resend whole
	// batches, so the server may hold duplicates of a torn batch's survivors.
	waitCond(t, 10*time.Second, func() bool {
		seen := map[uint64]bool{}
		for _, seq := range cs.TenantColumns("alpha").Seq {
			seen[seq] = true
		}
		return len(seen) == 500
	})
	if err := rr.Close(); err != nil {
		t.Fatal(err)
	}
	assertResilientConserved(t, rr.Stats())
	assertTenantsConserved(t, cs)
	if rr.Stats().Reconnects == 0 {
		t.Fatal("cut connections caused no reconnects — the fault never fired")
	}
}

// TestChaosCorruptFrames: a bit flips in every Nth write. Checksummed frames
// that arrive corrupt are skipped and counted, never folded; structural
// damage poisons the connection and the producer redials. Books balance on
// both sides throughout.
func TestChaosCorruptFrames(t *testing.T) {
	cs, err := trace.ListenCollectorOpts("tcp", "127.0.0.1:0", trace.ServerOptions{
		Tenancy: &trace.TenancyOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	rr, err := trace.NewResilientRecorder(trace.ResilientOptions{
		Dial: faultnet.FlakyDialer(func() (net.Conn, error) {
			return net.Dial("tcp", cs.Addr().String())
		}, 0, faultnet.Options{CorruptEveryN: 3}),
		SpillDir:    t.TempDir(),
		BatchSize:   50,
		BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
		WriteTimeout: 500 * time.Millisecond,
		Hello:        &trace.Hello{Tenant: "alpha"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	for _, e := range chaosEvents(400) {
		rr.Record(e)
	}
	time.Sleep(100 * time.Millisecond) // let batches traverse the corrupt link
	if err := rr.Close(); err != nil {
		t.Fatal(err)
	}

	assertResilientConserved(t, rr.Stats())
	assertTenantsConserved(t, cs)
	// The fault must actually have bitten: skipped frames or poisoned conns.
	stats := cs.ServerStats()
	skipped, failed := 0, 0
	for _, c := range stats.Conns {
		skipped += c.SkippedFrames
		if c.Err != "" {
			failed++
		}
	}
	if skipped == 0 && failed == 0 {
		t.Fatal("corruption never bit: no skipped frames, no failed conns")
	}
	// Whatever the server kept is a subset of what was sent — no invented
	// events.
	for _, seq := range cs.TenantColumns("alpha").Seq {
		if seq == 0 || seq > 400 {
			t.Fatalf("corrupt link invented event seq %d", seq)
		}
	}
}

// TestChaosStalledReaderQuarantine: a slowloris producer stalls mid-frame
// holding the socket open. The tenant's own deadline cuts it, the salvage is
// recorded, and repeated offenses quarantine the tenant.
func TestChaosStalledReaderQuarantine(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Server-side reads stall after 96 bytes (mid events-frame, past the
	// magic and hello), for far longer than the tenant deadline.
	cs := trace.NewCollectorServer(faultnet.WrapListener(ln, 0, faultnet.Options{
		StallReadAfterBytes: 96,
		StallDuration:       30 * time.Second,
	}), trace.ServerOptions{
		Tenancy: &trace.TenancyOptions{
			PerTenant: map[string]trace.TenantQuota{
				"loris": {ConnTimeout: 80 * time.Millisecond, QuarantineAfter: 2, Quarantine: time.Minute},
			},
		},
	})
	defer cs.Close()

	for i := 0; i < 2; i++ {
		sock, err := trace.DialCollectorHello("tcp", ln.Addr().String(), trace.Hello{Tenant: "loris"})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range chaosEvents(200) {
			sock.Record(e)
		}
		// Hold the conn open; the server's deadline must cut it.
		defer sock.Close()
	}
	cs.WaitStreams(2)

	timedOut := 0
	for _, c := range cs.ServerStats().Conns {
		if c.TimedOut {
			timedOut++
		}
	}
	if timedOut != 2 {
		t.Fatalf("%d conns classified timed-out, want 2", timedOut)
	}
	assertTenantsConserved(t, cs)

	var loris trace.TenantStats
	for _, ts := range cs.TenantStats() {
		if ts.Tenant == "loris" {
			loris = ts
		}
	}
	if loris.Timeouts != 2 {
		t.Fatalf("tenant timeouts %d, want 2", loris.Timeouts)
	}
	if !loris.Quarantined {
		t.Fatal("two consecutive poisoned conns did not quarantine the tenant")
	}

	// While quarantined, a fresh conn is refused at admission.
	sock, err := trace.DialCollectorHello("tcp", ln.Addr().String(), trace.Hello{Tenant: "loris"})
	if err == nil {
		sock.Record(trace.Event{Seq: 1, Instance: 1, Op: trace.OpInsert})
		sock.Close()
	}
	waitCond(t, 2*time.Second, func() bool {
		for _, ts := range cs.TenantStats() {
			if ts.Tenant == "loris" && ts.ConnsRejected >= 1 {
				return true
			}
		}
		return false
	})
}

// TestChaosSpillDiskFull: the spill WAL cannot be created (the "directory"
// is a regular file) while the collector is unreachable. Events are dropped
// and counted — the invariant holds even with both legs broken.
func TestChaosSpillDiskFull(t *testing.T) {
	notADir := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	rr, err := trace.NewResilientRecorder(trace.ResilientOptions{
		Network: "tcp", Addr: "127.0.0.1:1", // nothing listens here
		SpillDir:    notADir,
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		MaxRetries: 2,
		Hello:      &trace.Hello{Tenant: "alpha"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range chaosEvents(200) {
		rr.Record(e)
	}
	if err := rr.Close(); err != nil {
		t.Fatal(err)
	}
	st := rr.Stats()
	assertResilientConserved(t, st)
	if st.Delivered != 0 {
		t.Fatalf("delivered %d events with no collector", st.Delivered)
	}
	if st.Dropped != st.Recorded {
		t.Fatalf("disk-full spill: dropped %d of %d recorded", st.Dropped, st.Recorded)
	}
}

// TestChaosDaemonRestartResumes: SIGTERM semantics end to end — drain the
// server, checkpoint the daemon, restart both, and keep collecting. The
// second incarnation's report contains both halves; closed-window state
// survives byte for byte.
func TestChaosDaemonRestartResumes(t *testing.T) {
	dir := t.TempDir()
	progs := corpusPrograms()

	// First incarnation.
	daemon1 := core.New().NewDaemon(core.DaemonConfig{CheckpointDir: dir})
	cs1, err := trace.ListenCollectorOpts("tcp", "127.0.0.1:0", trace.ServerOptions{
		Tenancy: &trace.TenancyOptions{Sink: daemon1},
	})
	if err != nil {
		t.Fatal(err)
	}
	runTenantProducer(t, cs1.Addr().String(), "alpha", progs[2])
	cs1.WaitStreams(1)
	if _, err := cs1.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	assertTenantsConserved(t, cs1)
	if err := daemon1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkpointed := reportBytes(t, daemon1.TenantReport("alpha"))

	// Second incarnation restores and keeps going.
	daemon2 := core.New().NewDaemon(core.DaemonConfig{CheckpointDir: dir})
	if n, err := daemon2.Restore(); err != nil || n != 1 {
		t.Fatalf("restore: %d tenants, err %v", n, err)
	}
	if got := reportBytes(t, daemon2.TenantReport("alpha")); !bytes.Equal(got, checkpointed) {
		t.Fatal("restored tenant view != checkpointed view")
	}
	before := daemon2.TenantReport("alpha").Stats.Events

	cs2, err := trace.ListenCollectorOpts("tcp", "127.0.0.1:0", trace.ServerOptions{
		Tenancy: &trace.TenancyOptions{Sink: daemon2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs2.Close()
	runTenantProducer(t, cs2.Addr().String(), "alpha", progs[2])
	cs2.WaitStreams(1)
	if _, err := cs2.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	assertTenantsConserved(t, cs2)

	after := daemon2.TenantReport("alpha").Stats.Events
	if after != 2*before {
		t.Fatalf("restarted daemon folds %d events, want both halves (%d)", after, 2*before)
	}
}
