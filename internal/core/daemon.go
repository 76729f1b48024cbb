package core

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dsspy/internal/obs"
	"dsspy/internal/sample"
	"dsspy/internal/trace"
)

// Daemon is the fleet-scale collection backend: the trace.TenantSink a
// multiplexing CollectorServer delivers into. Each tenant gets its own
// replay session (registry shipped by producers) and its own StreamAnalyzer;
// the analyzer state rolls over into a closed-window Report every
// WindowEvents events, so memory stays bounded no matter how long the
// daemon runs. Closed windows are ordinary reports with origin "tenant#N",
// which makes every fleet view a MergeReports call:
//
//	TenantReport = merge(closed windows..., open-window snapshot)
//	FleetReport  = merge(every tenant's windows)
//
// Checkpoint persists each tenant's merged closed-window state as one
// snapshot file; Restore folds it back in as a pre-closed window, so a
// restarted daemon resumes with everything the previous incarnation had
// closed — the SIGTERM contract of the failure model.

// DaemonConfig bounds the daemon's per-tenant state.
type DaemonConfig struct {
	// WindowEvents rotates a tenant's open window after this many events.
	// Default 1<<20.
	WindowEvents int
	// MaxWindows caps the closed-window ring per tenant; the oldest window
	// is evicted (and counted) beyond it. Default 8.
	MaxWindows int
	// CheckpointDir is where Checkpoint/Restore keep per-tenant snapshots.
	// Empty disables checkpointing.
	CheckpointDir string
	// Shards is the per-tenant analyzer shard count. 0 means GOMAXPROCS.
	Shards int
	// Logger receives window-rotation and checkpoint diagnostics. Nil
	// disables.
	Logger *slog.Logger
	// TenantSampling reports the collector's per-tenant delivery counters:
	// events received from producers and events actually delivered to the
	// sink. When set, windows closed while the collector was shedding load
	// for the tenant are stamped "degraded", with every detection bound
	// widened to the shed fraction. Nil means delivery is assumed lossless.
	TenantSampling func(tenant string) (received, delivered uint64)
}

func (c DaemonConfig) withDefaults() DaemonConfig {
	if c.WindowEvents <= 0 {
		c.WindowEvents = 1 << 20
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = 8
	}
	return c
}

// tenantWindows is one tenant's analysis state: the open window (a live
// analyzer over a persistent registry session) plus the ring of closed
// windows.
type tenantWindows struct {
	mu       sync.Mutex
	name     string
	session  *trace.Session
	analyzer *StreamAnalyzer
	live     int // events folded into the open window
	seq      int // next window number
	closed   []*Report
	evicted  int
	rotated  int
	// Collector delivery counters as of the last rotation; the delta to the
	// current reading attributes shed events to the window being closed.
	lastReceived  uint64
	lastDelivered uint64
}

// Daemon implements trace.TenantSink over per-tenant rolling windows.
type Daemon struct {
	d   *DSspy
	cfg DaemonConfig
	log *slog.Logger

	mu      sync.Mutex
	tenants map[string]*tenantWindows

	checkpoints int
}

// NewDaemon returns a daemon analyzing with d's configuration.
func (d *DSspy) NewDaemon(cfg DaemonConfig) *Daemon {
	dm := &Daemon{
		d:       d,
		cfg:     cfg.withDefaults(),
		tenants: make(map[string]*tenantWindows),
	}
	dm.log = cfg.Logger
	if dm.log == nil {
		dm.log = slog.New(slog.DiscardHandler)
	}
	return dm
}

func (dm *Daemon) tenant(name string) *tenantWindows {
	dm.mu.Lock()
	defer dm.mu.Unlock()
	tw := dm.tenants[name]
	if tw == nil {
		tw = dm.newTenantWindowsLocked(name)
		dm.tenants[name] = tw
	}
	return tw
}

func (dm *Daemon) newTenantWindowsLocked(name string) *tenantWindows {
	tw := &tenantWindows{name: name}
	tw.session = trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}})
	tw.analyzer = dm.d.NewStreamAnalyzer(dm.cfg.Shards)
	tw.analyzer.Attach(tw.session)
	return tw
}

// TenantEvents hands admitted events to the tenant's open window, rotating
// it when full. The analyzer's Feed copies the events and returns before
// they are folded, so the connection decodes its next frame while the
// shards fold this one; the caller may reuse the slice at once. Calls for
// one connection arrive in stream order; the per-tenant mutex serializes
// concurrent connections of one tenant.
func (dm *Daemon) TenantEvents(tenant string, events []trace.Event) {
	tw := dm.tenant(tenant)
	tw.mu.Lock()
	tw.analyzer.Feed(events...)
	tw.live += len(events)
	if tw.live >= dm.cfg.WindowEvents {
		dm.rotateLocked(tw)
	}
	tw.mu.Unlock()
}

// TenantInstance lands a shipped registry record in the tenant's session at
// its original ID, so window reports name instances exactly as the producer
// registered them.
func (dm *Daemon) TenantInstance(tenant string, inst trace.Instance) {
	tw := dm.tenant(tenant)
	tw.mu.Lock()
	tw.session.RestoreInstance(inst)
	tw.mu.Unlock()
}

// TenantAggregate folds a shipped lazy-aggregation record into the tenant's
// open window (trace.TenantAggregateSink). The record widens the instance's
// sampling row in the window report; it never feeds the event reducers.
func (dm *Daemon) TenantAggregate(tenant string, rec trace.AggRecord) {
	tw := dm.tenant(tenant)
	tw.mu.Lock()
	tw.analyzer.FoldAggregate(rec)
	tw.mu.Unlock()
}

// windowOrigin stamps window n of a tenant: "tenant#N".
func windowOrigin(tenant string, n int) string {
	return fmt.Sprintf("%s#%d", tenant, n)
}

// rotateLocked closes the open window into the ring and opens a fresh one.
// The registry session persists across windows — instance identity within a
// tenant is stable; the window origin is what keeps rows from different
// windows distinct under merge.
func (dm *Daemon) rotateLocked(tw *tenantWindows) {
	if tw.live == 0 {
		return
	}
	rep := tw.analyzer.Close()
	if n := len(tw.closed); n > 0 && slices.Equal(tw.closed[n-1].Registered, rep.Registered) {
		// The registry rarely changes between windows: the ring keeps one
		// copy of it while it does not. Reports never write to theirs.
		rep.Registered = tw.closed[n-1].Registered
	}
	stampOrigin(rep, windowOrigin(tw.name, tw.seq))
	if b := dm.shedBoundLocked(tw, true); b > 0 {
		stampDegraded(rep, b)
		dm.log.Warn("daemon: window degraded by collector shedding",
			"tenant", tw.name, "window", tw.seq, "bound", b)
	}
	tw.closed = append(tw.closed, rep)
	tw.rotated++
	if len(tw.closed) > dm.cfg.MaxWindows {
		drop := len(tw.closed) - dm.cfg.MaxWindows
		tw.evicted += drop
		tw.closed = append(tw.closed[:0:0], tw.closed[drop:]...)
	}
	dm.log.Info("daemon: window rotated",
		"tenant", tw.name, "window", tw.seq, "events", tw.live, "retained", len(tw.closed))
	tw.seq++
	tw.live = 0
	tw.analyzer = dm.d.NewStreamAnalyzer(dm.cfg.Shards)
	tw.analyzer.Attach(tw.session)
}

// shedBoundLocked derives the confidence bound the collector's load shedding
// imposes on the tenant's current window: the fraction of events received
// since the last rotation that never reached the sink. Rotation advances the
// counter cursors so each drop is attributed to exactly one closed window;
// snapshots of the open window peek without advancing.
func (dm *Daemon) shedBoundLocked(tw *tenantWindows, advance bool) float64 {
	if dm.cfg.TenantSampling == nil {
		return 0
	}
	received, delivered := dm.cfg.TenantSampling(tw.name)
	dRecv := received - tw.lastReceived
	dDeliv := delivered - tw.lastDelivered
	if advance {
		tw.lastReceived, tw.lastDelivered = received, delivered
	}
	if dRecv == 0 || dDeliv >= dRecv {
		return 0
	}
	return sample.Bound(dRecv, dRecv-dDeliv, 0)
}

// stampDegraded widens every detection bound in a window report to at least
// b, marking rows that carried no sampling record as "degraded" — the window
// analyzed a lossy delivery, so nothing in it may print as exact. Each row is
// replaced by a widened copy, since a snapshot's rows may be shared.
func stampDegraded(rep *Report, b float64) {
	if b <= 0 {
		return
	}
	for i, ir := range rep.Instances {
		rec := ir.Sampling
		if rec == nil {
			rec = &sample.InstanceSampling{State: "degraded"}
		}
		cp := *ir
		widenRow(&cp, b, rec)
		rep.Instances[i] = &cp
	}
}

// stampOrigin marks a report and all its rows as belonging to one window.
func stampOrigin(rep *Report, origin string) {
	rep.Origin = origin
	for _, ir := range rep.Instances {
		ir.Origin = origin
	}
	if len(rep.Registered) > 0 {
		rep.RegisteredFrom = make([]string, len(rep.Registered))
		for i := range rep.RegisteredFrom {
			rep.RegisteredFrom[i] = origin
		}
	}
}

// TenantReport merges one tenant's closed windows with a snapshot of its
// open window: the tenant's complete current view, buildable at any time
// without disturbing the live reducers. The tenant lock is held only to
// capture the open window (settle, clone, copy the registry) and to copy the
// closed-window ring, whose reports never change once closed; finalizing,
// merging and the caller's rendering run after it is released, so a read
// does not hold up TenantEvents.
func (dm *Daemon) TenantReport(tenant string) *Report {
	tw := dm.tenant(tenant)
	tw.mu.Lock()
	parts := make([]*Report, 0, len(tw.closed)+1)
	parts = append(parts, tw.closed...)
	var open *snapshotState
	var origin string
	var bound float64
	if tw.live > 0 {
		open = tw.analyzer.capture()
		origin = windowOrigin(tw.name, tw.seq)
		bound = dm.shedBoundLocked(tw, false)
	}
	tw.mu.Unlock()
	if open != nil {
		// The snapshot's rows may be shared with later snapshots, so they
		// are not stamped: the merge gives each the report's origin.
		snap := open.build()
		snap.Origin = origin
		stampDegraded(snap, bound)
		parts = append(parts, snap)
	}
	merged, _ := MergeReports(parts...)
	return merged
}

// Tenants lists the tenants the daemon has seen, sorted.
func (dm *Daemon) Tenants() []string {
	dm.mu.Lock()
	names := make([]string, 0, len(dm.tenants))
	for name := range dm.tenants {
		names = append(names, name)
	}
	dm.mu.Unlock()
	sort.Strings(names)
	return names
}

// FleetReport merges every tenant's complete view into one report.
func (dm *Daemon) FleetReport() *Report {
	var parts []*Report
	for _, name := range dm.Tenants() {
		parts = append(parts, dm.TenantReport(name))
	}
	merged, _ := MergeReports(parts...)
	return merged
}

// DaemonTenantStatus is one tenant's window state for /statusz.
type DaemonTenantStatus struct {
	Tenant     string
	OpenEvents int // events in the open window
	Windows    int // closed windows retained
	Rotated    int // windows ever closed
	Evicted    int // closed windows dropped by the ring bound
	// ShedBound is the confidence bound collector shedding currently imposes
	// on the open window; 0 when delivery is lossless (or untracked).
	ShedBound float64
}

// Status snapshots every tenant's window state, sorted by tenant.
func (dm *Daemon) Status() []DaemonTenantStatus {
	names := dm.Tenants()
	out := make([]DaemonTenantStatus, 0, len(names))
	for _, name := range names {
		tw := dm.tenant(name)
		tw.mu.Lock()
		out = append(out, DaemonTenantStatus{
			Tenant:     name,
			OpenEvents: tw.live,
			Windows:    len(tw.closed),
			Rotated:    tw.rotated,
			Evicted:    tw.evicted,
			ShedBound:  dm.shedBoundLocked(tw, false),
		})
		tw.mu.Unlock()
	}
	return out
}

// WriteMetrics exports per-tenant window state for /metrics.
func (dm *Daemon) WriteMetrics(w *obs.PromWriter) {
	for _, st := range dm.Status() {
		lbl := []string{"tenant", st.Tenant}
		w.Gauge("dsspy_daemon_open_window_events",
			"Events folded into the tenant's open window.", float64(st.OpenEvents), lbl...)
		w.Gauge("dsspy_daemon_closed_windows",
			"Closed windows retained in the tenant's ring.", float64(st.Windows), lbl...)
		w.Counter("dsspy_daemon_windows_rotated_total",
			"Windows ever closed for the tenant.", float64(st.Rotated), lbl...)
		w.Counter("dsspy_daemon_windows_evicted_total",
			"Closed windows dropped by the ring bound.", float64(st.Evicted), lbl...)
		w.Gauge("dsspy_daemon_shed_bound",
			"Confidence bound collector shedding imposes on the tenant's open window.",
			st.ShedBound, lbl...)
	}
	dm.mu.Lock()
	cps := dm.checkpoints
	dm.mu.Unlock()
	w.Counter("dsspy_daemon_checkpoints_total", "Checkpoint passes completed.", float64(cps))
}

// checkpointFile names a tenant's snapshot, with the tenant sanitized into a
// safe filename component.
func checkpointFile(dir, tenant string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, tenant)
	return filepath.Join(dir, "checkpoint-"+safe+".json")
}

// Checkpoint rotates every open window and persists each tenant's merged
// closed-window state to CheckpointDir — the SIGTERM path. The write is
// atomic per tenant (temp file + rename), so a crash mid-checkpoint leaves
// the previous checkpoint intact, never a torn one.
func (dm *Daemon) Checkpoint() error {
	dir := dm.cfg.CheckpointDir
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: creating checkpoint dir: %w", err)
	}
	var first error
	for _, name := range dm.Tenants() {
		tw := dm.tenant(name)
		tw.mu.Lock()
		dm.rotateLocked(tw)
		merged, _ := MergeReports(tw.closed...)
		tw.mu.Unlock()
		merged.Origin = name
		if err := SaveReportFile(checkpointFile(dir, name), merged); err != nil {
			dm.log.Warn("daemon: checkpoint failed", "tenant", name, "err", err)
			if first == nil {
				first = err
			}
			continue
		}
		dm.log.Info("daemon: tenant checkpointed", "tenant", name, "instances", len(merged.Instances))
	}
	if first == nil {
		dm.mu.Lock()
		dm.checkpoints++
		dm.mu.Unlock()
	}
	return first
}

// Restore folds checkpoints from CheckpointDir back in: each tenant's saved
// state becomes a pre-closed window, and window numbering resumes past the
// highest saved window so origins never collide across incarnations.
// Missing directory or no checkpoints is a clean cold start, not an error.
func (dm *Daemon) Restore() (tenants int, err error) {
	dir := dm.cfg.CheckpointDir
	if dir == "" {
		return 0, nil
	}
	matches, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.json"))
	if err != nil {
		return 0, err
	}
	for _, path := range matches {
		rep, err := LoadReportFile(path)
		if err != nil {
			dm.log.Warn("daemon: skipping unreadable checkpoint", "path", path, "err", err)
			continue
		}
		name := rep.Origin
		if name == "" {
			name = trace.DefaultTenant
		}
		rep.Origin = "" // the merged view spans windows; rows keep their own origins
		tw := dm.tenant(name)
		tw.mu.Lock()
		tw.closed = append(tw.closed, rep)
		if next := maxWindowSeq(rep, name) + 1; next > tw.seq {
			tw.seq = next
		}
		tw.mu.Unlock()
		tenants++
		dm.log.Info("daemon: tenant restored", "tenant", name, "instances", len(rep.Instances))
	}
	return tenants, nil
}

// maxWindowSeq scans a restored report for the highest "tenant#N" window
// number, so new windows continue past it.
func maxWindowSeq(rep *Report, tenant string) int {
	max := -1
	scan := func(origin string) {
		if !strings.HasPrefix(origin, tenant+"#") {
			return
		}
		if n, err := strconv.Atoi(origin[len(tenant)+1:]); err == nil && n > max {
			max = n
		}
	}
	for _, ir := range rep.Instances {
		scan(ir.Origin)
	}
	for _, origin := range rep.RegisteredFrom {
		scan(origin)
	}
	return max
}

// Close rotates every open window and returns the final fleet report.
func (dm *Daemon) Close() *Report {
	for _, name := range dm.Tenants() {
		tw := dm.tenant(name)
		tw.mu.Lock()
		dm.rotateLocked(tw)
		tw.mu.Unlock()
	}
	return dm.FleetReport()
}
