package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// The tenancy suite: hello-frame identity, the admission ladder's
// determinism under a fake clock, per-tenant conservation, multiplexed
// collection, per-tenant deadlines, and the drain path.

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := Hello{Tenant: "checkout", Process: "host-17:4242", Run: "2026-08-08T10:00:00Z"}
	if err := sw.WriteHello(want); err != nil {
		t.Fatal(err)
	}
	if err := writeEvents(sw, testEvents(3)); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	sr, err := NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ent, err := sr.readEntry(&ColumnBatch{})
	if err != nil {
		t.Fatal(err)
	}
	if ent.kind != frameHello {
		t.Fatalf("first frame kind 0x%02x, want hello", ent.kind)
	}
	if ent.hello != want {
		t.Fatalf("hello round-trip: got %+v, want %+v", ent.hello, want)
	}
	// The events behind the hello still decode.
	events, err := readAll(sr)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events after hello, want 3", len(events))
	}
}

func TestHelloKeyDefaults(t *testing.T) {
	if k := (Hello{}).Key(); k != DefaultTenant {
		t.Fatalf("empty hello key %q, want %q", k, DefaultTenant)
	}
	if k := (Hello{Tenant: "alpha"}).Key(); k != "alpha" {
		t.Fatalf("key %q, want alpha", k)
	}
}

func TestHelloTruncatesOversizeIdentity(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", maxHelloString*4)
	if err := sw.WriteHello(Hello{Tenant: long}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ent, err := sr.readEntry(&ColumnBatch{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ent.hello.Tenant) != maxHelloString {
		t.Fatalf("tenant of %d bytes read back, want truncation to %d", len(ent.hello.Tenant), maxHelloString)
	}
}

// fakeClock is a deterministic time source for admission tests.
type fakeClock struct {
	now time.Time
}

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }
func (c *fakeClock) Sleep(d time.Duration)   { c.Advance(d) }

// seqBatch returns a column batch of n events with Seqs 1..n.
func seqBatch(n int) *ColumnBatch {
	b := &ColumnBatch{}
	b.Grow(n)
	for i := 0; i < n; i++ {
		b.Append(Event{Seq: uint64(i + 1), Instance: 1, Op: OpRead, Index: i})
	}
	return b
}

// admitN offers a batch of n events to the tenant and returns what it kept.
func admitN(ts *tenantState, n int, now time.Time) (*ColumnBatch, time.Duration) {
	b := seqBatch(n)
	wait := ts.admit(b, now)
	return b, wait
}

func conservedOrFatal(t *testing.T, ts TenantStats) {
	t.Helper()
	if !ts.Conserved() {
		t.Fatalf("conservation violated for %s: received %d != delivered %d + sampled-out %d + dropped %d",
			ts.Tenant, ts.Received, ts.Delivered, ts.SampledOut, ts.Dropped)
	}
}

// TestTenantLadderDegradesAndRecovers walks one tenant down the whole ladder
// under a fake clock — block (lossless, producer pays in wall time), then
// sample:N, then drop — and back up after sustained good behavior. Every
// step checks the conservation identity.
func TestTenantLadderDegradesAndRecovers(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	quota := TenantQuota{
		EventsPerSec: 1000,
		Burst:        1000,
		MaxBlock:     100 * time.Millisecond,
		SampleN:      4,
		RecoverAfter: 2 * time.Second,
	}.withDefaults()
	ts := newTenantState("alpha", quota, clk.Now())

	// Within burst: admitted losslessly at the block rung, no wait.
	kept, wait := admitN(ts, 500, clk.Now())
	if kept.Len() != 500 || wait != 0 {
		t.Fatalf("under-quota admit: kept %d wait %s, want 500 and 0", kept.Len(), wait)
	}

	// Exhaust the bucket: the next batch runs a debt small enough for the
	// block budget — still lossless, but the producer pays.
	kept, wait = admitN(ts, 550, clk.Now())
	if kept.Len() != 550 {
		t.Fatalf("block-rung admit: kept %d, want 550 (lossless)", kept.Len())
	}
	if wait <= 0 || wait > quota.MaxBlock {
		t.Fatalf("block-rung wait %s, want within (0, %s]", wait, quota.MaxBlock)
	}
	clk.Sleep(wait)

	// A huge burst blows past the block budget: demote to sampling. The
	// sampled trickle still overruns the empty bucket, so the ladder falls
	// through to drop within the same call — but nothing is lost silently.
	kept, _ = admitN(ts, 100000, clk.Now())
	if got := ts.stats(clk.Now()); got.Level != LevelDrop {
		t.Fatalf("after overrun: level %s, want drop", got.Level)
	} else {
		conservedOrFatal(t, got)
	}
	if kept.Len() != 0 {
		t.Fatalf("dropped batch kept %d events", kept.Len())
	}

	// While at drop, everything is shed and counted.
	admitN(ts, 1000, clk.Now())
	conservedOrFatal(t, ts.stats(clk.Now()))

	// Sustained headroom promotes back one rung at a time.
	for i := 0; i < 40; i++ {
		clk.Advance(500 * time.Millisecond)
		admitN(ts, 10, clk.Now())
	}
	got := ts.stats(clk.Now())
	if got.Level != LevelBlock {
		t.Fatalf("after sustained headroom: level %s, want block", got.Level)
	}
	if got.Promotions < 2 {
		t.Fatalf("promotions %d, want >= 2 (drop→sample→block)", got.Promotions)
	}
	conservedOrFatal(t, got)
}

// TestTenantSampleRung pins the tenant at sample:N and checks the 1-in-N
// keep rate and the sampled-out accounting.
func TestTenantSampleRung(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	quota := TenantQuota{EventsPerSec: 100000, SampleN: 8}.withDefaults()
	ts := newTenantState("alpha", quota, clk.Now())
	ts.level = LevelSample

	kept, _ := admitN(ts, 800, clk.Now())
	if kept.Len() != 100 {
		t.Fatalf("sample:8 kept %d of 800, want 100", kept.Len())
	}
	got := ts.stats(clk.Now())
	if got.SampledOut != 700 || got.Delivered != 100 {
		t.Fatalf("sample accounting: delivered %d sampled-out %d, want 100/700", got.Delivered, got.SampledOut)
	}
	conservedOrFatal(t, got)
}

// TestTenantUnlimitedQuotaPassesThrough checks the zero quota admits
// everything with no waiting — the pre-tenancy behavior.
func TestTenantUnlimitedQuotaPassesThrough(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	ts := newTenantState("free", TenantQuota{}.withDefaults(), clk.Now())
	kept, wait := admitN(ts, 1<<20, clk.Now())
	if kept.Len() != 1<<20 || wait != 0 {
		t.Fatalf("unlimited quota: kept %d wait %s", kept.Len(), wait)
	}
	conservedOrFatal(t, ts.stats(clk.Now()))
}

// TestTenantStoreBound checks the retained-store memory bound drops (and
// counts) overflow without breaking conservation.
func TestTenantStoreBound(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	ts := newTenantState("alpha", TenantQuota{MaxStoredEvents: 100}.withDefaults(), clk.Now())
	kept, _ := admitN(ts, 250, clk.Now())
	ts.store(kept)
	got := ts.stats(clk.Now())
	if got.StoredEvents != 100 {
		t.Fatalf("stored %d events, want bound of 100", got.StoredEvents)
	}
	if got.Dropped != 150 {
		t.Fatalf("dropped %d, want 150", got.Dropped)
	}
	if s := ts.events.Seq; s[0] != 1 || s[99] != 100 {
		t.Fatalf("stored Seqs %d..%d, want the prefix 1..100", s[0], s[99])
	}
	conservedOrFatal(t, got)
}

// TestCollectorServerMultiplexesTenants runs two tenants' producers against
// one daemon-mode server and checks complete isolation of their stores plus
// per-tenant conservation.
func TestCollectorServerMultiplexesTenants(t *testing.T) {
	cs, err := ListenCollectorOpts("tcp", "127.0.0.1:0", ServerOptions{
		Tenancy: &TenancyOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	send := func(tenant string, base uint64, n int) {
		sock, err := DialCollectorHello("tcp", cs.Addr().String(), Hello{Tenant: tenant, Process: "p", Run: "r"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			sock.Record(Event{Seq: base + uint64(i), Instance: 1, Op: OpInsert, Thread: 1})
		}
		if err := sock.Close(); err != nil {
			t.Fatal(err)
		}
	}
	send("alpha", 1, 100)
	send("beta", 1000, 50)
	cs.WaitStreams(2)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	alpha := inflated(cs.TenantColumns("alpha"))
	beta := inflated(cs.TenantColumns("beta"))
	if len(alpha) != 100 || len(beta) != 50 {
		t.Fatalf("tenant stores: alpha %d beta %d, want 100/50", len(alpha), len(beta))
	}
	for _, e := range alpha {
		if e.Seq >= 1000 {
			t.Fatalf("beta event %d leaked into alpha's store", e.Seq)
		}
	}
	for _, ts := range cs.TenantStats() {
		conservedOrFatal(t, ts)
	}
	// The conn rows carry their tenant.
	for _, c := range cs.ServerStats().Conns {
		if c.Tenant != "alpha" && c.Tenant != "beta" {
			t.Fatalf("conn bound to tenant %q", c.Tenant)
		}
	}
}

// TestCollectorServerDefaultTenantWithoutHello: a pre-multiplexing producer
// (no hello) lands in the default tenant on a daemon-mode server.
func TestCollectorServerDefaultTenantWithoutHello(t *testing.T) {
	cs, err := ListenCollectorOpts("tcp", "127.0.0.1:0", ServerOptions{
		Tenancy: &TenancyOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	sock, err := DialCollector("tcp", cs.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range testEvents(20) {
		sock.Record(e)
	}
	sock.Close()
	cs.WaitStreams(1)
	cs.Close()

	if got := len(inflated(cs.TenantColumns(DefaultTenant))); got != 20 {
		t.Fatalf("default tenant holds %d events, want 20", got)
	}
}

// TestLegacyServerToleratesHello: a daemon-aware producer against a plain
// single-run server — the hello is recorded on the conn row and the events
// flow into the legacy store.
func TestLegacyServerToleratesHello(t *testing.T) {
	cs, err := ListenCollector("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	sock, err := DialCollectorHello("tcp", cs.Addr().String(), Hello{Tenant: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range testEvents(10) {
		sock.Record(e)
	}
	sock.Close()
	cs.WaitStreams(1)
	cs.Close()

	if got := len(inflated(cs.Columns())); got != 10 {
		t.Fatalf("legacy server stored %d events from hello stream, want 10", got)
	}
	conns := cs.ServerStats().Conns
	if len(conns) != 1 || conns[0].Tenant != "alpha" {
		t.Fatalf("legacy conn row did not record the hello tenant: %+v", conns)
	}
}

// TestTenantConnCap rejects a tenant's connections beyond its cap while a
// neighbor tenant connects freely.
func TestTenantConnCap(t *testing.T) {
	cs, err := ListenCollectorOpts("tcp", "127.0.0.1:0", ServerOptions{
		Tenancy: &TenancyOptions{
			PerTenant: map[string]TenantQuota{"alpha": {MaxConns: 1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	hold, err := DialCollectorHello("tcp", cs.Addr().String(), Hello{Tenant: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	hold.Record(Event{Seq: 1, Instance: 1, Op: OpInsert})
	waitFor(t, 2*time.Second, func() bool {
		for _, ts := range cs.TenantStats() {
			if ts.Tenant == "alpha" && ts.Conns == 1 {
				return true
			}
		}
		return false
	})

	// Second alpha conn: bound then refused.
	second, err := DialCollectorHello("tcp", cs.Addr().String(), Hello{Tenant: "alpha"})
	if err == nil {
		second.Record(Event{Seq: 2, Instance: 1, Op: OpInsert})
		second.Close()
	}
	waitFor(t, 2*time.Second, func() bool {
		for _, ts := range cs.TenantStats() {
			if ts.Tenant == "alpha" && ts.ConnsRejected >= 1 {
				return true
			}
		}
		return false
	})

	// A neighbor connects fine.
	beta, err := DialCollectorHello("tcp", cs.Addr().String(), Hello{Tenant: "beta"})
	if err != nil {
		t.Fatal(err)
	}
	beta.Record(Event{Seq: 10, Instance: 1, Op: OpInsert})
	if err := beta.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(inflated(cs.TenantColumns("beta"))) == 1 })
}

// TestPerTenantDeadlineRecordsTimedOutSalvage is the ISSUE bugfix test: a
// tenant-specific ConnTimeout (shorter than the server-wide one) must fire,
// and the timed-out conn must record its salvage — events counted, TimedOut
// set — on the ConnStats row itself, not only in a log line.
func TestPerTenantDeadlineRecordsTimedOutSalvage(t *testing.T) {
	cs, err := ListenCollectorOpts("tcp", "127.0.0.1:0", ServerOptions{
		ConnTimeout: time.Hour, // server-wide deadline far away
		Tenancy: &TenancyOptions{
			PerTenant: map[string]TenantQuota{"slow": {ConnTimeout: 100 * time.Millisecond}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	sock, err := DialCollectorHello("tcp", cs.Addr().String(), Hello{Tenant: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	for _, e := range testEvents(30) {
		sock.Record(e)
	}
	// Force the batch onto the wire, then go silent holding the conn open.
	var b ColumnBatch
	b.Append(Event{Seq: 999, Instance: 1, Op: OpRead})
	if err := sock.sendColumns(&b); err != nil {
		t.Fatal(err)
	}

	cs.WaitStreams(1) // the deadline ends the stream
	stats := cs.ServerStats()
	if len(stats.Conns) != 1 {
		t.Fatalf("want 1 conn row, got %d", len(stats.Conns))
	}
	c := stats.Conns[0]
	if !c.TimedOut {
		t.Fatalf("timed-out conn not classified on ConnStats: %+v", c)
	}
	if c.Complete {
		t.Fatal("timed-out conn marked complete")
	}
	if c.Events == 0 {
		t.Fatal("timed-out conn salvaged 0 events on its ConnStats row")
	}
	if c.Tenant != "slow" {
		t.Fatalf("conn row tenant %q, want slow", c.Tenant)
	}
	var ts TenantStats
	for _, s := range cs.TenantStats() {
		if s.Tenant == "slow" {
			ts = s
		}
	}
	if ts.Timeouts != 1 {
		t.Fatalf("tenant timeout counter %d, want 1", ts.Timeouts)
	}
	conservedOrFatal(t, ts)
}

// TestDrainSalvagesInFlightStreams: Drain gives producers a bounded window,
// then cuts them; everything decoded before the cut stays in the store.
func TestDrainSalvagesInFlightStreams(t *testing.T) {
	cs, err := ListenCollectorOpts("tcp", "127.0.0.1:0", ServerOptions{
		Tenancy: &TenancyOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}

	sock, err := DialCollectorHello("tcp", cs.Addr().String(), Hello{Tenant: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	// Ship a batch but never finish the stream.
	var b ColumnBatch
	b.AppendEvents(testEvents(40))
	if err := sock.sendColumns(&b); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(inflated(cs.TenantColumns("alpha"))) == 40 })

	cut, err := cs.Drain(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if cut != 1 {
		t.Fatalf("drain cut %d conns, want 1", cut)
	}
	if got := len(inflated(cs.TenantColumns("alpha"))); got != 40 {
		t.Fatalf("drained store holds %d events, want the 40 salvaged", got)
	}
	for _, ts := range cs.TenantStats() {
		conservedOrFatal(t, ts)
	}
}

// TestDrainWaitsForCleanFinish: a stream that completes within the drain
// window is not cut.
func TestDrainWaitsForCleanFinish(t *testing.T) {
	cs, err := ListenCollectorOpts("tcp", "127.0.0.1:0", ServerOptions{
		Tenancy: &TenancyOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}

	sock, err := DialCollectorHello("tcp", cs.Addr().String(), Hello{Tenant: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(30 * time.Millisecond)
		for _, e := range testEvents(10) {
			sock.Record(e)
		}
		sock.Close()
	}()

	cut, err := cs.Drain(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if cut != 0 {
		t.Fatalf("drain cut %d conns, want 0 (stream finished in the window)", cut)
	}
	if got := len(inflated(cs.TenantColumns("alpha"))); got != 10 {
		t.Fatalf("store holds %d events after clean drain, want 10", got)
	}
	conns := cs.ServerStats().Conns
	if len(conns) != 1 || !conns[0].Complete {
		t.Fatalf("conn should have completed cleanly: %+v", conns)
	}
}
