package trace

import (
	"sort"
	"sync"
	"time"

	"dsspy/internal/obs"
)

// Multi-tenant admission control. A collector daemon shared by a fleet must
// keep one misbehaving tenant — a runaway producer, a slowloris, a poison
// stream — from starving its neighbors. Each tenant gets a quota: a
// connection cap, an events/sec token bucket, and a bounded event store (in
// store mode). A tenant that exceeds its rate is degraded through a ladder
// instead of punished all at once:
//
//	block → sample:N → drop
//
// At block, the tenant's connections are slowed by withholding reads (TCP
// backpressure does the rest) up to a per-second block budget. If blocking is
// not enough, the tenant is demoted to sampling: every N-th event is kept,
// the rest are counted sampled-out. If even the sampled trickle overruns the
// bucket, the tenant is demoted to drop. Sustained good behavior promotes the
// tenant back up one rung at a time. Every outcome is counted, so the
// per-tenant conservation identity holds at all times:
//
//	received == delivered + sampled-out + dropped
//
// Neighbor tenants never see any of this: admission state is per tenant, and
// delivery into the sink happens on the offending tenant's connection
// goroutines.

// DegradeLevel is a rung of the graceful-degradation ladder.
type DegradeLevel int32

const (
	// LevelBlock slows the producer down by withholding reads (lossless).
	LevelBlock DegradeLevel = iota
	// LevelSample keeps every N-th event and counts the rest sampled-out.
	LevelSample
	// LevelDrop discards the tenant's events (counted) until it recovers.
	LevelDrop
)

func (l DegradeLevel) String() string {
	switch l {
	case LevelBlock:
		return "block"
	case LevelSample:
		return "sample"
	case LevelDrop:
		return "drop"
	}
	return "unknown"
}

// TenantQuota bounds one tenant's use of a shared collector daemon. The zero
// value means unlimited: no connection cap, no rate limit, no store bound —
// exactly the single-tenant behavior before multiplexing existed.
type TenantQuota struct {
	// MaxConns caps the tenant's concurrent producer connections. Zero means
	// unlimited (the server-wide ServerOptions.MaxConns still applies).
	MaxConns int
	// EventsPerSec is the sustained admission rate; the token bucket refills
	// at this rate. Zero disables rate limiting for the tenant.
	EventsPerSec int
	// Burst is the token-bucket capacity. Defaults to the larger of
	// EventsPerSec and MaxBatch so a single full frame always fits.
	Burst int
	// MaxBlock is the per-second budget of producer blocking tolerated at
	// LevelBlock before the tenant is demoted to sampling. Default 250ms.
	MaxBlock time.Duration
	// SampleN is the sampling divisor at LevelSample: every N-th event is
	// kept. Default 8.
	SampleN int
	// RecoverAfter is how long a tenant must stay under half its burst
	// before being promoted one rung back up. Default 2s.
	RecoverAfter time.Duration
	// ConnTimeout overrides the server-wide per-frame read deadline for this
	// tenant's connections. Zero inherits ServerOptions.ConnTimeout.
	ConnTimeout time.Duration
	// MaxStoredEvents bounds the tenant's retained event store (store mode
	// only; sink mode never retains). Events beyond the bound are dropped
	// and counted. Zero means unbounded.
	MaxStoredEvents int
	// QuarantineAfter quarantines the tenant after this many consecutive
	// poisoned connections (deadline timeouts or malformed streams): new
	// connections are rejected for Quarantine. Zero disables quarantining.
	QuarantineAfter int
	// Quarantine is the rejection window after QuarantineAfter poisoned
	// connections. Default 5s.
	Quarantine time.Duration
}

func (q TenantQuota) withDefaults() TenantQuota {
	if q.Burst <= 0 {
		q.Burst = q.EventsPerSec
		if q.Burst < MaxBatch {
			q.Burst = MaxBatch
		}
	}
	if q.SampleN <= 1 {
		q.SampleN = 8
	}
	if q.MaxBlock <= 0 {
		q.MaxBlock = 250 * time.Millisecond
	}
	if q.RecoverAfter <= 0 {
		q.RecoverAfter = 2 * time.Second
	}
	if q.Quarantine <= 0 {
		q.Quarantine = 5 * time.Second
	}
	return q
}

// TenantSink receives a tenant's admitted traffic. The daemon implements it
// with per-tenant streaming analyzers; tests implement it with plain
// accumulators. Calls for one connection arrive in stream order; calls for
// different connections (even of one tenant) may be concurrent — the sink
// synchronizes.
type TenantSink interface {
	// TenantEvents delivers admitted events. The slice is owned by the
	// caller and must not be retained: the server decodes every frame of a
	// connection into one column batch and inflates the kept events into
	// one slice, both reused for the connection's next frame, so the
	// contents are overwritten once the call returns.
	TenantEvents(tenant string, events []Event)
	// TenantInstance delivers one registry record shipped by a producer.
	TenantInstance(tenant string, inst Instance)
}

// TenantAggregateSink is an optional TenantSink extension for sinks that
// consume shipped lazy-aggregation records (v3 aggregate frames). Sinks
// without it simply lose the bound tightening — aggregates are advisory,
// never load-bearing for conservation, which was settled producer-side.
type TenantAggregateSink interface {
	TenantAggregate(tenant string, rec AggRecord)
}

// TenancyOptions turns a CollectorServer into a multiplexing daemon: streams
// are bound to tenants by their hello frame (DefaultTenant without one),
// admission control applies per tenant, and — when Sink is set — admitted
// events flow to the sink instead of the retained store.
type TenancyOptions struct {
	// Default is the quota for tenants without a PerTenant entry.
	Default TenantQuota
	// PerTenant overrides the default quota for named tenants.
	PerTenant map[string]TenantQuota
	// Sink, when non-nil, receives admitted events and registry records; the
	// server retains nothing. Nil keeps per-tenant retained stores.
	Sink TenantSink
	// Now and Sleep are test seams for deterministic admission tests. Nil
	// uses the real clock.
	Now   func() time.Time
	Sleep func(time.Duration)
}

func (t *TenancyOptions) now() time.Time {
	if t.Now != nil {
		return t.Now()
	}
	return time.Now()
}

func (t *TenancyOptions) sleep(d time.Duration) {
	if t.Sleep != nil {
		t.Sleep(d)
		return
	}
	time.Sleep(d)
}

func (t *TenancyOptions) quotaFor(name string) TenantQuota {
	if q, ok := t.PerTenant[name]; ok {
		return q.withDefaults()
	}
	return t.Default.withDefaults()
}

// TenantStats is the observable state of one tenant: admission counters, the
// current ladder rung, and connection outcomes.
type TenantStats struct {
	Tenant string
	Level  DegradeLevel

	Conns         int    // currently open connections
	ConnsServed   uint64 // connections ever bound to the tenant
	ConnsRejected uint64 // rejected by the tenant conn cap or quarantine
	Timeouts      uint64 // connections ended by a read deadline

	Received   uint64 // events decoded off the tenant's connections
	Delivered  uint64 // events admitted to the sink or store
	SampledOut uint64 // events shed by sample:N degradation
	Dropped    uint64 // events shed at LevelDrop or by the store bound

	BlockedFor  time.Duration // cumulative producer blocking at LevelBlock
	Demotions   uint64        // ladder demotions
	Promotions  uint64        // ladder promotions
	Quarantined bool          // currently refusing new connections

	StoredEvents int // retained events (store mode only)
}

// Conserved reports the per-tenant conservation identity: every decoded
// event is delivered, sampled out, or dropped — never silently lost.
func (ts TenantStats) Conserved() bool {
	return ts.Received == ts.Delivered+ts.SampledOut+ts.Dropped
}

// tenantState is the live admission state of one tenant. The mutex guards
// everything; connection goroutines hold it only to account a batch, never
// while sleeping or delivering to the sink.
type tenantState struct {
	name  string
	quota TenantQuota

	mu         sync.Mutex
	level      DegradeLevel
	tokens     float64
	lastRefill time.Time
	epochStart time.Time     // block-budget epoch (resets each second)
	blocked    time.Duration // block time spent in the current epoch
	blockedAll time.Duration
	underSince time.Time // start of the current under-quota streak

	conns       int
	connsServed uint64
	rejected    uint64
	timeouts    uint64

	received   uint64
	delivered  uint64
	sampledOut uint64
	dropped    uint64

	demotions  uint64
	promotions uint64
	skip       uint64 // sample:N cursor

	badConns         int // consecutive poisoned connections
	quarantinedUntil time.Time

	// Store mode: retained events and registry, bounded by the quota.
	events    ColumnBatch
	instances map[InstanceID]Instance
}

func newTenantState(name string, quota TenantQuota, now time.Time) *tenantState {
	return &tenantState{
		name:       name,
		quota:      quota,
		tokens:     float64(quota.Burst),
		lastRefill: now,
		epochStart: now,
		underSince: now,
		instances:  make(map[InstanceID]Instance),
	}
}

// admission is the ladder's verdict on one batch: keep every stride-th event
// from index first on (stride 1 keeps the whole batch, stride 0 none), after
// the producer has been blocked for wait.
type admission struct {
	first, stride int
	wait          time.Duration
}

// admit decides one decoded batch's fate under the tenant's quota and
// applies it to b's columns in place: the block rung keeps them whole, the
// sample rung compacts them to every N-th event, the drop rung empties them.
// Only counts are taken under the lock. The returned wait is producer
// blocking the caller must serve (outside any lock) before delivering.
func (t *tenantState) admit(b *ColumnBatch, now time.Time) time.Duration {
	n := b.Len()
	t.mu.Lock()
	t.received += uint64(n)
	v := t.admitLocked(n, now)
	t.mu.Unlock()
	b.keepStrided(v.first, v.stride)
	return v.wait
}

func (t *tenantState) admitLocked(n int, now time.Time) admission {
	t.refillLocked(now)
	q := t.quota
	if q.EventsPerSec <= 0 {
		t.delivered += uint64(n)
		return admission{stride: 1}
	}
	if t.level == LevelBlock {
		need := float64(n) - t.tokens
		if need <= 0 {
			t.tokens -= float64(n)
			t.delivered += uint64(n)
			t.creditLocked(now)
			return admission{stride: 1}
		}
		wait := time.Duration(need / float64(q.EventsPerSec) * float64(time.Second))
		if t.blocked+wait <= q.MaxBlock {
			// Within the block budget: admit everything and make the
			// producer pay the bucket debt in wall time.
			t.blocked += wait
			t.blockedAll += wait
			t.tokens -= float64(n)
			t.delivered += uint64(n)
			return admission{stride: 1, wait: wait}
		}
		t.demoteLocked(now)
	}
	if t.level == LevelSample {
		// The cursor counts every event offered at this rung; event i of the
		// batch is kept when the cursor reaches a multiple of N on it. The
		// cursor advances even if the batch is then dropped.
		every := uint64(q.SampleN)
		skip := t.skip
		t.skip += uint64(n)
		kept := int(t.skip/every - skip/every)
		if float64(kept) <= t.tokens {
			t.tokens -= float64(kept)
			t.sampledOut += uint64(n - kept)
			t.delivered += uint64(kept)
			t.creditLocked(now)
			return admission{first: int(every - 1 - skip%every), stride: q.SampleN}
		}
		// Even the sampled trickle overruns the bucket: last rung. The whole
		// batch is dropped (not split) so the accounting stays obvious.
		t.demoteLocked(now)
	}
	// Drop rung. Shed batches cost no tokens, so headroom accrues only while
	// the offered load would itself fit the bucket — a tenant still blasting
	// past quota keeps resetting its recovery streak.
	if float64(n) <= t.tokens {
		t.creditLocked(now)
	} else {
		t.underSince = now
	}
	t.dropped += uint64(n)
	return admission{}
}

// refillLocked advances the token bucket and the block-budget epoch.
func (t *tenantState) refillLocked(now time.Time) {
	q := t.quota
	if q.EventsPerSec > 0 {
		el := now.Sub(t.lastRefill)
		if el > 0 {
			t.tokens += el.Seconds() * float64(q.EventsPerSec)
			if t.tokens > float64(q.Burst) {
				t.tokens = float64(q.Burst)
			}
		}
	}
	t.lastRefill = now
	if now.Sub(t.epochStart) >= time.Second {
		t.epochStart = now
		t.blocked = 0
	}
}

// creditLocked tracks the under-quota streak and promotes the tenant one
// rung after RecoverAfter of sustained headroom.
func (t *tenantState) creditLocked(now time.Time) {
	if t.tokens < float64(t.quota.Burst)/2 {
		t.underSince = now
		return
	}
	if t.underSince.IsZero() {
		t.underSince = now
		return
	}
	if t.level > LevelBlock && now.Sub(t.underSince) >= t.quota.RecoverAfter {
		t.level--
		t.promotions++
		t.underSince = now
	}
}

func (t *tenantState) demoteLocked(now time.Time) {
	if t.level < LevelDrop {
		t.level++
		t.demotions++
	}
	t.blocked = 0
	t.underSince = now
}

// store appends admitted events to the retained per-tenant store, enforcing
// the memory bound: only the prefix that fits is kept, the overflow is
// dropped and counted.
func (t *tenantState) store(b *ColumnBatch) {
	n := b.Len()
	t.mu.Lock()
	if limit := t.quota.MaxStoredEvents; limit > 0 {
		if room := max(limit-t.events.Len(), 0); room < n {
			over := n - room
			t.dropped += uint64(over)
			t.delivered -= uint64(over) // reclassified: admitted but not storable
			n = room
		}
	}
	t.events.AppendRange(b, 0, n)
	t.mu.Unlock()
}

// admitConn reserves a connection slot, enforcing the tenant conn cap and
// any active quarantine. ok=false means the connection must be rejected with
// the given reason.
func (t *tenantState) admitConn(now time.Time) (ok bool, reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if now.Before(t.quarantinedUntil) {
		t.rejected++
		return false, "tenant quarantined"
	}
	if t.quota.MaxConns > 0 && t.conns >= t.quota.MaxConns {
		t.rejected++
		return false, "tenant connection cap reached"
	}
	t.conns++
	t.connsServed++
	return true, ""
}

// connDone retires a connection slot and feeds the quarantine heuristic:
// a clean stream resets the poison streak, a timed-out or malformed one
// extends it.
func (t *tenantState) connDone(now time.Time, timedOut, poisoned bool) {
	t.mu.Lock()
	t.conns--
	if timedOut {
		t.timeouts++
	}
	if timedOut || poisoned {
		t.badConns++
		if q := t.quota; q.QuarantineAfter > 0 && t.badConns >= q.QuarantineAfter {
			t.quarantinedUntil = now.Add(q.Quarantine)
			t.badConns = 0
		}
	} else {
		t.badConns = 0
	}
	t.mu.Unlock()
}

func (t *tenantState) deadline(server time.Duration) time.Duration {
	if t.quota.ConnTimeout > 0 {
		return t.quota.ConnTimeout
	}
	return server
}

func (t *tenantState) stats(now time.Time) TenantStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TenantStats{
		Tenant:        t.name,
		Level:         t.level,
		Conns:         t.conns,
		ConnsServed:   t.connsServed,
		ConnsRejected: t.rejected,
		Timeouts:      t.timeouts,
		Received:      t.received,
		Delivered:     t.delivered,
		SampledOut:    t.sampledOut,
		Dropped:       t.dropped,
		BlockedFor:    t.blockedAll,
		Demotions:     t.demotions,
		Promotions:    t.promotions,
		Quarantined:   now.Before(t.quarantinedUntil),
		StoredEvents:  t.events.Len(),
	}
}

// tenantTable is the server's tenant registry.
type tenantTable struct {
	opts *TenancyOptions

	mu      sync.Mutex
	tenants map[string]*tenantState
}

func newTenantTable(opts *TenancyOptions) *tenantTable {
	return &tenantTable{opts: opts, tenants: make(map[string]*tenantState)}
}

func (tt *tenantTable) get(name string) *tenantState {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	t := tt.tenants[name]
	if t == nil {
		t = newTenantState(name, tt.opts.quotaFor(name), tt.opts.now())
		tt.tenants[name] = t
	}
	return t
}

func (tt *tenantTable) all() []*tenantState {
	tt.mu.Lock()
	out := make([]*tenantState, 0, len(tt.tenants))
	for _, t := range tt.tenants {
		out = append(out, t)
	}
	tt.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// writeMetrics exports the per-tenant admission counters as labeled rows.
func (tt *tenantTable) writeMetrics(w *obs.PromWriter) {
	now := tt.opts.now()
	for _, t := range tt.all() {
		ts := t.stats(now)
		lbl := []string{"tenant", ts.Tenant}
		w.Counter("dsspy_tenant_events_received_total",
			"Events decoded off the tenant's connections.", float64(ts.Received), lbl...)
		w.Counter("dsspy_tenant_events_delivered_total",
			"Events admitted to the sink or store.", float64(ts.Delivered), lbl...)
		w.Counter("dsspy_tenant_events_sampled_out_total",
			"Events shed by sample:N degradation.", float64(ts.SampledOut), lbl...)
		w.Counter("dsspy_tenant_events_dropped_total",
			"Events shed at the drop rung or by the store bound.", float64(ts.Dropped), lbl...)
		w.Gauge("dsspy_tenant_degrade_level",
			"Degradation rung: 0 block, 1 sample, 2 drop.", float64(ts.Level), lbl...)
		w.Gauge("dsspy_tenant_conns_active",
			"Tenant connections currently open.", float64(ts.Conns), lbl...)
		w.Counter("dsspy_tenant_conns_rejected_total",
			"Connections refused by the tenant cap or quarantine.", float64(ts.ConnsRejected), lbl...)
		w.Counter("dsspy_tenant_conn_timeouts_total",
			"Connections ended by the read deadline.", float64(ts.Timeouts), lbl...)
		w.Counter("dsspy_tenant_demotions_total",
			"Ladder demotions.", float64(ts.Demotions), lbl...)
		w.Counter("dsspy_tenant_promotions_total",
			"Ladder promotions.", float64(ts.Promotions), lbl...)
		w.Counter("dsspy_tenant_blocked_seconds_total",
			"Cumulative producer blocking imposed at the block rung.", ts.BlockedFor.Seconds(), lbl...)
	}
}
