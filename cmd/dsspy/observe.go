package main

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dsspy/internal/core"
	"dsspy/internal/metrics"
	"dsspy/internal/obs"
	"dsspy/internal/sample"
	"dsspy/internal/trace"
)

// newLogger builds the process logger from -v/-quiet: debug with -v, errors
// only with -quiet, info otherwise. Diagnostics go to stderr so stdout stays
// the report.
func newLogger(o *options) *slog.Logger {
	level := slog.LevelInfo
	if o.verbose {
		level = slog.LevelDebug
	}
	if o.quiet {
		level = slog.LevelError
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
}

// newTracer builds the self-tracer when -trace-out or -http wants one, laned
// by the trace package's dense goroutine ids.
func newTracer(o *options) *obs.Tracer {
	if o.traceOut == "" && o.httpAddr == "" {
		return nil
	}
	t := obs.NewTracer(1 << 16)
	t.TIDFunc = func() uint64 { return uint64(trace.CurrentThreadID()) }
	return t
}

// startObsServer starts the -http surface and announces it. Returns nil when
// -http is off.
func startObsServer(o *options, tracer *obs.Tracer) *obs.Server {
	if o.httpAddr == "" {
		return nil
	}
	srv := obs.NewServer()
	if tracer != nil {
		srv.AddSource(tracer)
	}
	addr, err := srv.Start(o.httpAddr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("observability server on http://%s (/metrics /statusz /healthz /debug/pprof)\n", addr)
	return srv
}

// exportTrace writes the Chrome trace-event JSON at exit.
func exportTrace(o *options, tracer *obs.Tracer) {
	if o.traceOut == "" || tracer == nil {
		return
	}
	f, err := os.Create(o.traceOut)
	if err != nil {
		fatal(err)
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("pipeline trace written to %s (%d spans, %d dropped) — load in ui.perfetto.dev or chrome://tracing\n",
		o.traceOut, tracer.Len(), tracer.Dropped())
}

// sampleInterval picks the occupancy-sampling period: the default interval
// when -stats or -http wants the figures, zero (disabled) otherwise.
func sampleInterval(on bool) time.Duration {
	if on {
		return obs.DefaultSampleInterval
	}
	return 0
}

// runLabel names the run for status pages and report titles.
func runLabel(o *options) string {
	switch {
	case o.appName != "":
		return o.appName
	case o.demo != "":
		return "demo " + o.demo
	case o.replay != "":
		return "replay " + o.replay
	case o.recoverPath != "":
		return "recover " + o.recoverPath
	case o.listen != "":
		return "collector " + o.listen
	}
	return "dsspy"
}

// streamStatus builds the /statusz model for a live streaming run: run info,
// the largest instances with their patterns and findings, every use case so
// far, and the collector's per-shard queue figures. Each call takes a fresh
// analyzer snapshot, so the page tracks the run as it refreshes.
func streamStatus(label string, start time.Time, s *trace.Session, sa *core.StreamAnalyzer, scol *trace.ShardedCollector, ctrl *sample.Controller) *obs.Status {
	rep := sa.Snapshot()
	ss := rep.Stats.Streaming
	aggFlushes, aggEvents := s.AggregateStats()

	st := &obs.Status{Title: "dsspy — " + label}
	st.Sections = append(st.Sections, obs.StatusSection{
		Title: "Run",
		KV: []obs.StatusKV{
			{Key: "workload", Value: label},
			{Key: "running", Value: time.Since(start).Round(time.Millisecond).String()},
			{Key: "events folded", Value: fmt.Sprint(ss.Folded)},
			{Key: "instances", Value: fmt.Sprint(ss.Instances)},
			{Key: "open runs", Value: fmt.Sprint(ss.OpenRuns)},
			{Key: "out-of-order", Value: fmt.Sprint(ss.OutOfOrder)},
			{Key: "shards", Value: fmt.Sprint(ss.Shards)},
			{Key: "aggregate flushes", Value: fmt.Sprint(aggFlushes)},
			{Key: "aggregated events", Value: fmt.Sprint(aggEvents)},
		},
	})

	st.Sections = append(st.Sections, instanceSection(rep))
	st.Sections = append(st.Sections, useCaseSection(rep))
	if ctrl != nil {
		st.Sections = append(st.Sections, samplingSection(ctrl))
	}
	if scol != nil {
		st.Sections = append(st.Sections, shardSection(scol.Stats()))
	}
	return st
}

// samplingSection tables the adaptive-sampling controller's per-instance
// state: who is backed off, at what rate, and with what confidence bound.
func samplingSection(ctrl *sample.Controller) obs.StatusSection {
	insts := ctrl.Instances()
	table := &obs.StatusTable{Header: []string{
		"instance", "state", "rate", "observed", "folded", "aggregated", "sampled out", "windows", "re-promotions", "bound",
	}}
	for _, is := range insts {
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(is.ID), is.State.String(), fmt.Sprintf("1:%d", is.Rate),
			fmt.Sprint(is.Observed), fmt.Sprint(is.Kept), fmt.Sprint(is.Aggregated), fmt.Sprint(is.Dropped),
			fmt.Sprintf("%d (%d agree)", is.Windows, is.Agree),
			fmt.Sprint(is.RePromotions),
			fmt.Sprintf("%.4f", is.Bound),
		})
	}
	t := ctrl.Totals()
	return obs.StatusSection{
		Title: fmt.Sprintf("Sampling (%s: %d instance(s), %d backed off)",
			ctrl.Config().Mode, t.Instances, t.BackedOff),
		Table: table,
	}
}

// instanceSection tables the largest profiles first, like -live.
func instanceSection(rep *core.Report) obs.StatusSection {
	instances := make([]*core.InstanceResult, len(rep.Instances))
	copy(instances, rep.Instances)
	sort.Slice(instances, func(i, j int) bool { return instances[i].Profile.Len() > instances[j].Profile.Len() })
	table := &obs.StatusTable{Header: []string{"kind", "instance", "events", "patterns", "use cases"}}
	const maxRows = 20
	for i, ir := range instances {
		if i == maxRows {
			break
		}
		inst := ir.Profile.Instance
		name := inst.TypeName
		if inst.Label != "" {
			name += " " + inst.Label
		}
		var shorts []string
		for _, u := range ir.UseCases {
			shorts = append(shorts, u.Kind.Short())
		}
		table.Rows = append(table.Rows, []string{
			inst.Kind.String(), name,
			fmt.Sprint(ir.Profile.Len()),
			fmt.Sprint(len(ir.Patterns())),
			strings.Join(shorts, ","),
		})
	}
	title := "Instances"
	if len(instances) > maxRows {
		title = fmt.Sprintf("Instances (top %d of %d)", maxRows, len(instances))
	}
	return obs.StatusSection{Title: title, Table: table}
}

// useCaseSection tables the findings so far.
func useCaseSection(rep *core.Report) obs.StatusSection {
	table := &obs.StatusTable{Header: []string{"#", "use case", "position", "data structure", "evidence"}}
	for i, u := range rep.UseCases() {
		site := u.Instance.Site
		pos := "<unknown>"
		if site.File != "" {
			pos = fmt.Sprintf("%s:%d", filepath.Base(site.File), site.Line)
		}
		name := u.Instance.TypeName
		if u.Instance.Label != "" {
			name += " " + u.Instance.Label
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(i + 1), u.Kind.String(), pos, name, u.Evidence,
		})
	}
	return obs.StatusSection{Title: fmt.Sprintf("Use-case findings (%d)", len(table.Rows)), Table: table}
}

// shardSection tables the collector's live queue figures.
func shardSection(cs trace.CollectorStats) obs.StatusSection {
	table := &obs.StatusTable{Header: []string{"shard", "events", "dropped", "high-water", "block", "depth p50", "depth p99"}}
	for i := range cs.ShardRecorded {
		p50, p99 := "-", "-"
		if i < len(cs.ShardQueueDepth) && cs.ShardQueueDepth[i].Count > 0 {
			p50 = fmt.Sprintf("%.0f", cs.ShardQueueDepth[i].Quantile(0.50))
			p99 = fmt.Sprintf("%.0f", cs.ShardQueueDepth[i].Quantile(0.99))
		}
		dropped := uint64(0)
		if i < len(cs.ShardDropped) {
			dropped = cs.ShardDropped[i]
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(i), fmt.Sprint(cs.ShardRecorded[i]), fmt.Sprint(dropped),
			fmt.Sprintf("%d/%d", cs.ShardHighWater[i], cs.Buffer),
			cs.ShardBlock[i].Round(time.Microsecond).String(), p50, p99,
		})
	}
	return obs.StatusSection{
		Title: fmt.Sprintf("Collector shards (policy %s)", cs.Policy),
		Table: table,
	}
}

// listenStatus builds the /statusz model for the collector side of a
// cross-process run: accept counters plus a per-connection table.
func listenStatus(addr string, start time.Time, cs *trace.CollectorServer) *obs.Status {
	ss := cs.ServerStats()
	st := &obs.Status{Title: "dsspy — collector " + addr}
	kv := []obs.StatusKV{
		{Key: "listening", Value: addr},
		{Key: "running", Value: time.Since(start).Round(time.Millisecond).String()},
		{Key: "conns accepted", Value: fmt.Sprint(ss.Accepted)},
		{Key: "conns rejected", Value: fmt.Sprint(ss.Rejected)},
		{Key: "accept retries", Value: fmt.Sprint(ss.AcceptRetries)},
		{Key: "salvaged events", Value: fmt.Sprint(ss.SalvagedEvents())},
	}
	if ss.StoreDepth.Count > 0 {
		kv = append(kv, obs.StatusKV{
			Key:   "store depth p50/p99",
			Value: fmt.Sprintf("%.0f / %.0f", ss.StoreDepth.Quantile(0.50), ss.StoreDepth.Quantile(0.99)),
		})
	}
	st.Sections = append(st.Sections, obs.StatusSection{Title: "Server", KV: kv})

	table := &obs.StatusTable{Header: []string{"#", "remote", "events", "complete", "error"}}
	for i, c := range ss.Conns {
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(i + 1), c.Remote, fmt.Sprint(c.Events), fmt.Sprint(c.Complete), c.Err,
		})
	}
	st.Sections = append(st.Sections, obs.StatusSection{
		Title: fmt.Sprintf("Producer streams (%d)", len(table.Rows)), Table: table,
	})
	return st
}

// daemonStatus is the /statusz page of `dsspy -listen -daemon`: the server
// section plus a per-tenant row set — admission level, quota accounting, and
// window state — so one glance shows who is degraded and why.
func daemonStatus(addr string, start time.Time, cs *trace.CollectorServer, daemon *core.Daemon) *obs.Status {
	st := listenStatus(addr, start, cs)
	st.Title = "dsspy — daemon " + addr

	windows := map[string]core.DaemonTenantStatus{}
	for _, ds := range daemon.Status() {
		windows[ds.Tenant] = ds
	}
	table := &obs.StatusTable{Header: []string{
		"tenant", "level", "conns", "received", "delivered", "sampled out", "dropped",
		"timeouts", "open window", "closed windows", "shed bound",
	}}
	for _, ts := range cs.TenantStats() {
		ds := windows[ts.Tenant]
		level := ts.Level.String()
		if ts.Quarantined {
			level += " (quarantined)"
		}
		table.Rows = append(table.Rows, []string{
			ts.Tenant, level,
			fmt.Sprintf("%d (%d rejected)", ts.Conns, ts.ConnsRejected),
			fmt.Sprint(ts.Received), fmt.Sprint(ts.Delivered),
			fmt.Sprint(ts.SampledOut), fmt.Sprint(ts.Dropped),
			fmt.Sprint(ts.Timeouts),
			fmt.Sprint(ds.OpenEvents),
			fmt.Sprintf("%d (%d rotated, %d evicted)", ds.Windows, ds.Rotated, ds.Evicted),
			fmt.Sprintf("%.4f", ds.ShedBound),
		})
	}
	st.Sections = append(st.Sections, obs.StatusSection{
		Title: fmt.Sprintf("Tenants (%d)", len(table.Rows)), Table: table,
	})
	return st
}

// overheadStats assembles the §V self-overhead accounting from the timed
// recorder's sampled Record costs and the measured workload clocks.
func overheadStats(timed *trace.TimedRecorder, wall, plainWall time.Duration) *metrics.OverheadStats {
	h := timed.Hist()
	return &metrics.OverheadStats{
		WorkloadWall:      wall,
		PlainWall:         plainWall,
		Events:            int64(timed.Count()),
		Sampled:           int64(h.Count),
		SampleEvery:       timed.SampleEvery(),
		RecordMean:        h.MeanDuration(),
		RecordP50:         h.QuantileDuration(0.50),
		RecordP99:         h.QuantileDuration(0.99),
		EstimatedOverhead: time.Duration(h.Mean() * float64(timed.Count())),
	}
}
