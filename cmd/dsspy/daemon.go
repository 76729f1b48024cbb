package main

// The fleet side of the CLI: `dsspy -listen -daemon` runs the multi-tenant
// collector daemon, `dsspy -merge` folds saved report snapshots into one
// fleet view, and producerHello stamps -collect streams with their tenant
// identity.

import (
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dsspy/internal/core"
	"dsspy/internal/obs"
	"dsspy/internal/trace"
)

// producerHello is the identity a -collect producer announces: the -tenant
// flag, host:pid, and the process start time — enough for the daemon to bind
// every (re)connected incarnation of this stream to one tenant and tell runs
// apart in its logs.
func producerHello(o *options) *trace.Hello {
	host, _ := os.Hostname()
	return &trace.Hello{
		Tenant:  o.tenant,
		Process: fmt.Sprintf("%s:%d", host, os.Getpid()),
		Run:     time.Now().UTC().Format(time.RFC3339),
	}
}

// runMerge folds saved report snapshots (written by -save-report or the
// daemon's checkpoints) into one fleet report. Snapshots without an origin
// get their filename, so same-ID instances from different files stay
// distinct.
func runMerge(o *options) {
	reports := make([]*core.Report, 0, len(o.mergeFiles))
	for _, path := range o.mergeFiles {
		rep, err := core.LoadReportFile(path)
		if err != nil {
			fatal(err)
		}
		if rep.Origin == "" {
			rep.Origin = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		}
		reports = append(reports, rep)
	}
	merged, ms := core.MergeReports(reports...)
	fmt.Fprintf(stdout, "merged %d report(s): %d instance(s), %d duplicate(s) folded, %d conflict(s) resolved\n\n",
		ms.Reports, ms.Instances, ms.Duplicates, ms.Conflicts)
	if err := merged.Write(stdout); err != nil {
		fatal(err)
	}
	if o.saveReport != "" {
		if err := core.SaveReportFile(o.saveReport, merged); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "\nmerged snapshot written to %s\n", o.saveReport)
	}
	if o.jsonPath != "" {
		f, err := os.Create(o.jsonPath)
		if err != nil {
			fatal(err)
		}
		if err := merged.WriteJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "\nJSON findings written to %s\n", o.jsonPath)
	}
}

// runDaemon is `dsspy -listen <addr> -daemon`: a durable multi-tenant
// collector. Producers with hello frames are admitted under their tenant's
// quota; admitted events fold into per-tenant rolling analysis windows;
// SIGTERM drains connections (bounded by -drain-timeout), checkpoints every
// tenant to -checkpoint-dir, and prints per-tenant plus fleet reports. A
// restart with the same -checkpoint-dir resumes from the checkpoints.
func runDaemon(analyzer *core.DSspy, o *options, tracer *obs.Tracer, srv *obs.Server, sampling bool) {
	// The collector server is built after the daemon (it needs the daemon as
	// its sink), so the delivery-counter hook binds late through this var.
	var tenantCounters func(tenant string) (received, delivered uint64)
	daemon := analyzer.NewDaemon(core.DaemonConfig{
		WindowEvents:  o.windowEv,
		CheckpointDir: o.ckptDir,
		Shards:        o.shards,
		Logger:        slog.Default(),
		TenantSampling: func(tenant string) (uint64, uint64) {
			if tenantCounters == nil {
				return 0, 0
			}
			return tenantCounters(tenant)
		},
	})
	if n, err := daemon.Restore(); err != nil {
		fatal(err)
	} else if n > 0 {
		fmt.Fprintf(stdout, "restored %d tenant(s) from %s\n", n, o.ckptDir)
	}

	tenancy := &trace.TenancyOptions{Sink: daemon}
	if o.quotas != "" {
		parsed, err := parseQuotas(o.quotas)
		if err != nil {
			fatal(err)
		}
		tenancy.Default = parsed.Default
		tenancy.PerTenant = parsed.PerTenant
	}
	cs, err := trace.ListenCollectorOpts("tcp", o.listen, trace.ServerOptions{
		ConnTimeout:    o.connTO,
		Logger:         slog.Default(),
		Tracer:         tracer,
		SampleInterval: sampleInterval(sampling),
		Tenancy:        tenancy,
	})
	if err != nil {
		fatal(err)
	}
	tenantCounters = func(tenant string) (uint64, uint64) {
		for _, ts := range cs.TenantStats() {
			if ts.Tenant == tenant {
				return ts.Received, ts.Delivered
			}
		}
		return 0, 0
	}
	if srv != nil {
		srv.AddSource(cs)
		srv.AddSource(daemon)
		start := time.Now()
		srv.SetStatus(func() *obs.Status { return daemonStatus(o.listen, start, cs, daemon) })
	}
	fmt.Fprintf(stdout, "daemon collecting on %s (SIGTERM drains and checkpoints)\n", cs.Addr())
	flushStdout()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	signal.Stop(sig)
	fmt.Fprintf(stdout, "\n%s: draining in-flight streams (up to %s)...\n", got, o.drainTO)
	flushStdout()
	cut, err := cs.Drain(o.drainTO)
	if err != nil {
		slog.Warn("drain finished with errors", "err", err)
	}
	if cut > 0 {
		fmt.Fprintf(stdout, "drain timeout: cut %d still-open stream(s); events decoded before the cut are kept\n", cut)
	}
	if o.ckptDir != "" {
		if err := daemon.Checkpoint(); err != nil {
			slog.Error("checkpoint failed", "err", err)
		} else {
			fmt.Fprintf(stdout, "checkpointed %d tenant(s) to %s\n", len(daemon.Tenants()), o.ckptDir)
		}
	}

	for _, ts := range cs.TenantStats() {
		fmt.Fprintf(stdout, "tenant %s: level %s, %d conn(s) served (%d rejected, %d timed out), %d received = %d delivered + %d sampled out + %d dropped\n",
			ts.Tenant, ts.Level, ts.ConnsServed, ts.ConnsRejected, ts.Timeouts,
			ts.Received, ts.Delivered, ts.SampledOut, ts.Dropped)
	}

	for _, tenant := range daemon.Tenants() {
		fmt.Fprintf(stdout, "\n=== tenant %s ===\n", tenant)
		if err := daemon.TenantReport(tenant).Write(stdout); err != nil {
			fatal(err)
		}
	}
	if names := daemon.Tenants(); len(names) > 1 {
		fmt.Fprintf(stdout, "\n=== fleet (%d tenants) ===\n", len(names))
		if err := daemon.FleetReport().Write(stdout); err != nil {
			fatal(err)
		}
	}
	if o.stats {
		fmt.Fprintln(stdout)
		if err := cs.ServerStats().Write(stdout); err != nil {
			fatal(err)
		}
	}
}
