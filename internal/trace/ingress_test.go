package trace

import (
	"bytes"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The columnar ingress suite: a daemon-mode server decodes, admits and
// delivers every frame of a connection through one reused column batch and
// one reused []Event. These tests pin its allocation budget, the admission
// ladder on columns against the []Event ladder it replaced, and the
// delivered events under buffer reuse.

// encodeProducerStream renders a stream the way a socket producer ships it:
// hello, frames of DefaultSocketBatch events, the registry, the end marker.
func encodeProducerStream(t testing.TB, tenant string, events []Event, instances []Instance) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteHello(Hello{Tenant: tenant}); err != nil {
		t.Fatal(err)
	}
	var cols ColumnBatch
	cols.AppendEvents(events)
	for lo := 0; lo < cols.Len(); lo += DefaultSocketBatch {
		part := cols.Slice(lo, min(lo+DefaultSocketBatch, cols.Len()))
		if err := sw.WriteColumns(&part); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.WriteInstances(instances); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sendStream writes raw bytes over one connection and waits until the
// server has finished the stream; sent counts the server's streams so far.
func sendStream(t testing.TB, cs *CollectorServer, raw []byte, sent int) {
	t.Helper()
	conn, err := net.Dial("tcp", cs.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	cs.WaitStreams(sent)
}

// countingSink discards a tenant's traffic, counting the events.
type countingSink struct{ events atomic.Uint64 }

func (s *countingSink) TenantEvents(_ string, events []Event) { s.events.Add(uint64(len(events))) }
func (s *countingSink) TenantInstance(string, Instance)       {}

// TestIngressAllocGate streams a pre-encoded 200k-event v3 stream ten times
// through a daemon-mode server whose sink discards the events. Decode,
// admission and delivery reuse one column batch and one []Event per
// connection, so what is left is per-connection setup: the gate allows
// 2 B/event. The inflating ingress it replaced measured about 73 B/event.
func TestIngressAllocGate(t *testing.T) {
	const events, sends = 200_000, 10
	raw := encodeProducerStream(t, "alloc", corpusLikeEvents(events), []Instance{
		{ID: 1, Kind: KindList, TypeName: "List[int]"},
		{ID: 2, Kind: KindList, TypeName: "List[int]"},
		{ID: 3, Kind: KindDictionary, TypeName: "map[int]int"},
		{ID: 4, Kind: KindList, TypeName: "List[string]"},
	})
	sink := &countingSink{}
	cs, err := ListenCollectorOpts("tcp", "127.0.0.1:0", ServerOptions{Tenancy: &TenancyOptions{Sink: sink}})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	sendStream(t, cs, raw, 1) // warm-up: listener and netpoll setup
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := 0; k < sends; k++ {
		sendStream(t, cs, raw, k+2)
	}
	runtime.ReadMemStats(&m1)

	if got, want := sink.events.Load(), uint64((sends+1)*events); got != want {
		t.Fatalf("sink saw %d events, want %d", got, want)
	}
	for _, ts := range cs.TenantStats() {
		conservedOrFatal(t, ts)
	}
	perEvent := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(sends*events)
	t.Logf("ingress allocates %.3f B/event over %d×%d events", perEvent, sends, events)
	if perEvent > 2 {
		t.Fatalf("ingress allocates %.2f B/event, gate is 2", perEvent)
	}
}

// refAdmit is the []Event admission ladder the columnar one replaced, kept
// verbatim as the differential reference: it filters the slice in place at
// the sample rung and returns nil at the drop rung.
func refAdmit(t *tenantState, events []Event, now time.Time) ([]Event, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.received += uint64(len(events))
	n := len(events)
	t.refillLocked(now)
	q := t.quota
	if q.EventsPerSec <= 0 {
		t.delivered += uint64(n)
		return events, 0
	}
	if t.level == LevelBlock {
		need := float64(n) - t.tokens
		if need <= 0 {
			t.tokens -= float64(n)
			t.delivered += uint64(n)
			t.creditLocked(now)
			return events, 0
		}
		wait := time.Duration(need / float64(q.EventsPerSec) * float64(time.Second))
		if t.blocked+wait <= q.MaxBlock {
			t.blocked += wait
			t.blockedAll += wait
			t.tokens -= float64(n)
			t.delivered += uint64(n)
			return events, wait
		}
		t.demoteLocked(now)
	}
	if t.level == LevelSample {
		kept := events[:0]
		for _, e := range events {
			t.skip++
			if t.skip%uint64(q.SampleN) == 0 {
				kept = append(kept, e)
			}
		}
		if float64(len(kept)) <= t.tokens {
			t.tokens -= float64(len(kept))
			t.sampledOut += uint64(n - len(kept))
			t.delivered += uint64(len(kept))
			t.creditLocked(now)
			return kept, 0
		}
		t.demoteLocked(now)
	}
	if float64(n) <= t.tokens {
		t.creditLocked(now)
	} else {
		t.underSince = now
	}
	t.dropped += uint64(n)
	return nil, 0
}

// TestTenantAdmissionColumnsMatchEventLadder drives the columnar ladder and
// the []Event reference through one fixed sequence of batches and clock
// steps, under several sample divisors. At every step both must keep the
// same Seq list, ask for the same wait, sit on the same rung and hold the
// same counters — and received == delivered + sampled-out + dropped.
func TestTenantAdmissionColumnsMatchEventLadder(t *testing.T) {
	for _, sampleN := range []int{2, 4, 7} {
		quota := TenantQuota{
			EventsPerSec: 1000,
			Burst:        1000,
			MaxBlock:     100 * time.Millisecond,
			SampleN:      sampleN,
			RecoverAfter: 2 * time.Second,
		}.withDefaults()
		clk := &fakeClock{now: time.Unix(1000, 0)}
		cols := newTenantState("cols", quota, clk.Now())
		ref := newTenantState("ref", quota, clk.Now())
		rng := rand.New(rand.NewSource(int64(sampleN)))
		var seq uint64
		var rungs [3]int
		for step := 0; step < 3000; step++ {
			// Bursts of mixed size with short and long gaps: enough load to
			// demote through every rung, enough quiet to promote back.
			n := 1 + rng.Intn(40)
			if rng.Intn(8) == 0 {
				n = 500 + rng.Intn(1500)
			}
			events := make([]Event, n)
			for i := range events {
				seq++
				events[i] = Event{Seq: seq, Instance: InstanceID(1 + i%3), Op: OpRead, Index: i}
			}
			var b ColumnBatch
			b.AppendEvents(events)

			rungs[cols.level]++
			wait := cols.admit(&b, clk.Now())
			kept, refWait := refAdmit(ref, events, clk.Now())
			if wait != refWait {
				t.Fatalf("N=%d step %d: wait %s, reference %s", sampleN, step, wait, refWait)
			}
			if b.Len() != len(kept) {
				t.Fatalf("N=%d step %d: kept %d events, reference %d", sampleN, step, b.Len(), len(kept))
			}
			for i, e := range kept {
				if b.Seq[i] != e.Seq || b.At(i) != e {
					t.Fatalf("N=%d step %d: kept event %d is %+v, reference %+v", sampleN, step, i, b.At(i), e)
				}
			}
			got, want := cols.stats(clk.Now()), ref.stats(clk.Now())
			got.Tenant, want.Tenant = "", ""
			if got != want {
				t.Fatalf("N=%d step %d: stats %+v, reference %+v", sampleN, step, got, want)
			}
			conservedOrFatal(t, got)

			clk.Sleep(wait)
			switch rng.Intn(4) {
			case 0:
				clk.Advance(time.Duration(rng.Intn(800)) * time.Millisecond)
			case 1:
				clk.Advance(time.Duration(rng.Intn(20)) * time.Millisecond)
			}
		}
		for level, k := range rungs {
			if k == 0 {
				t.Fatalf("N=%d: the sequence never reached rung %s", sampleN, DegradeLevel(level))
			}
		}
	}
}

// copyingSink keeps a copy of everything delivered, in delivery order.
type copyingSink struct {
	mu     sync.Mutex
	events []Event
	calls  int
}

func (s *copyingSink) TenantEvents(_ string, events []Event) {
	s.mu.Lock()
	s.events = append(s.events, events...)
	s.calls++
	s.mu.Unlock()
}
func (s *copyingSink) TenantInstance(string, Instance) {}

// TestSinkSeesEventsUnderBufferReuse: the server overwrites the delivered
// slice with the next frame's events, so a sink that copies what it is
// handed must still end up with exactly the stream that was sent — at the
// block rung whole, at the sample rung every N-th event.
func TestSinkSeesEventsUnderBufferReuse(t *testing.T) {
	sent := corpusLikeEvents(10*DefaultSocketBatch + 123)
	raw := encodeProducerStream(t, "copy", sent, nil)
	for _, tc := range []struct {
		name  string
		quota TenantQuota
		every int
	}{
		{"block", TenantQuota{}, 1},
		{"sample", TenantQuota{EventsPerSec: 1 << 30, SampleN: 5, RecoverAfter: time.Hour}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &copyingSink{}
			cs, err := ListenCollectorOpts("tcp", "127.0.0.1:0", ServerOptions{Tenancy: &TenancyOptions{
				Default: tc.quota,
				Sink:    sink,
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer cs.Close()
			if tc.every > 1 {
				// Pin the tenant at the sample rung before it streams.
				ts := cs.tenants.get("copy")
				ts.mu.Lock()
				ts.level = LevelSample
				ts.mu.Unlock()
			}
			sendStream(t, cs, raw, 1)

			var want []Event
			for i := tc.every - 1; i < len(sent); i += tc.every {
				want = append(want, sent[i])
			}
			if sink.calls < 2 {
				t.Fatalf("sink called %d times, want one call per frame", sink.calls)
			}
			if len(sink.events) != len(want) {
				t.Fatalf("sink copied %d events, want %d", len(sink.events), len(want))
			}
			for i := range want {
				if sink.events[i] != want[i] {
					t.Fatalf("event %d: sink copied %+v, sent %+v", i, sink.events[i], want[i])
				}
			}
			for _, ts := range cs.TenantStats() {
				conservedOrFatal(t, ts)
			}
		})
	}
}

// registrySink records the registry a tenant's sink receives.
type registrySink struct {
	countingSink
	mu        sync.Mutex
	instances map[string][]Instance
}

func (s *registrySink) TenantInstance(tenant string, inst Instance) {
	s.mu.Lock()
	s.instances[tenant] = append(s.instances[tenant], inst)
	s.mu.Unlock()
}

// TestServerSkipsImplausibleRegistryID: a tenant whose stream carries a
// registry frame naming an ID far past anything it sent keeps its
// connection. The frame is skipped and counted on the connection, and
// neither the tenant's own genuine records nor its neighbor's reach the
// sink any differently.
func TestServerSkipsImplausibleRegistryID(t *testing.T) {
	sink := &registrySink{instances: make(map[string][]Instance)}
	cs, err := ListenCollectorOpts("tcp", "127.0.0.1:0", ServerOptions{Tenancy: &TenancyOptions{Sink: sink}})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	events := fuzzSeedEvents()
	genuine := []Instance{{ID: 1, TypeName: "List[int]"}, {ID: 2, TypeName: "map[int]string"}}
	hostile := append([]Instance{{ID: hostileRegistryID, TypeName: "List[int]"}}, genuine...)
	sendStream(t, cs, encodeProducerStream(t, "mallory", events, hostile), 1)
	sendStream(t, cs, encodeProducerStream(t, "alice", events, genuine), 2)

	for _, c := range cs.ServerStats().Conns {
		if !c.Complete || c.Err != "" || c.Events != len(events) {
			t.Fatalf("connection %+v: want complete, clean, %d events", c, len(events))
		}
		want := 0
		if c.Tenant == "mallory" {
			want = 1
		}
		if c.SkippedFrames != want || c.Instances != len(genuine) {
			t.Fatalf("tenant %s: skipped %d frames and took %d records, want %d and %d",
				c.Tenant, c.SkippedFrames, c.Instances, want, len(genuine))
		}
	}
	for _, tenant := range []string{"mallory", "alice"} {
		got := sink.instances[tenant]
		if len(got) != len(genuine) || got[0] != genuine[0] || got[1] != genuine[1] {
			t.Fatalf("tenant %s: sink saw registry %+v, want %+v", tenant, got, genuine)
		}
	}
	if got, want := sink.events.Load(), uint64(2*len(events)); got != want {
		t.Fatalf("sink saw %d events, want %d", got, want)
	}
}
