package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"dsspy/internal/sample"
)

// options is the parsed command line. Parsing is separated from main so the
// conflict rules are testable without forking the process.
type options struct {
	listApps    bool
	appName     string
	demo        string
	chart       bool
	svgPath     string
	htmlPath    string
	jsonPath    string
	advise      bool
	cores       int
	logPath     string
	replay      string
	recoverPath string
	collect     string
	spillDir    string
	listen      string
	conns       int
	connTO      time.Duration
	overload    string
	daemon      bool
	drainTO     time.Duration
	ckptDir     string
	windowEv    int
	tenant      string
	quotas      string
	merge       bool
	mergeFiles  []string
	saveReport  string
	live        time.Duration
	stats       bool
	shards      int
	workers     int
	sampleMode  string
	sampleCfg   sample.Config // parsed form of sampleMode, set by validate
	minConf     float64

	httpAddr string
	traceOut string
	verbose  bool
	quiet    bool
}

// parseFlags parses args (not including the program name) into options.
// Output (usage text, errors) goes to errw.
func parseFlags(args []string, errw io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("dsspy", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.BoolVar(&o.listApps, "list", false, "list available programs and demos")
	fs.StringVar(&o.appName, "app", "", "evaluation program to profile")
	fs.StringVar(&o.demo, "demo", "", "demo workload: figure2, figure3, queue, stack")
	fs.BoolVar(&o.chart, "chart", false, "print an ASCII profile chart per instance with findings")
	fs.StringVar(&o.svgPath, "svg", "", "write an SVG profile chart of the first flagged instance")
	fs.StringVar(&o.htmlPath, "html", "", "write a self-contained HTML report")
	fs.StringVar(&o.jsonPath, "json", "", "write the findings as JSON")
	fs.BoolVar(&o.advise, "advise", false, "print ranked transformation plans with Amdahl estimates")
	fs.IntVar(&o.cores, "cores", 8, "core count for the advisor's Amdahl estimates")
	fs.StringVar(&o.logPath, "log", "", "save the session (registry + events) to this file for -replay")
	fs.StringVar(&o.replay, "replay", "", "re-analyze a session log written with -log instead of running a workload")
	fs.StringVar(&o.recoverPath, "recover", "", "salvage a damaged or truncated session log and analyze what was recovered")
	fs.StringVar(&o.collect, "collect", "", "ship events to a collector at host:port instead of in-process")
	fs.StringVar(&o.spillDir, "spill-dir", "", "with -collect: spill events to a WAL in this directory while the collector is unreachable")
	fs.StringVar(&o.listen, "listen", "", "run as the collector: accept producer streams on host:port and analyze them")
	fs.BoolVar(&o.daemon, "daemon", false, "with -listen: run forever as a multi-tenant daemon (sessions come and go; SIGTERM drains and checkpoints)")
	fs.DurationVar(&o.drainTO, "drain-timeout", 5*time.Second, "with -listen: how long SIGTERM/SIGINT waits for in-flight streams before cutting them")
	fs.StringVar(&o.ckptDir, "checkpoint-dir", "", "with -daemon: persist per-tenant snapshots here on SIGTERM and restore them on start")
	fs.IntVar(&o.windowEv, "window-events", 0, "with -daemon: rotate a tenant's analysis window after this many events (0 = 1<<20)")
	fs.StringVar(&o.tenant, "tenant", "", "with -collect: tenant identity sent in the stream hello (default tenant when empty)")
	fs.StringVar(&o.quotas, "quotas", "", "with -daemon: per-tenant quotas, e.g. 'alpha:rate=500,conns=2;beta:rate=100' (keys: rate, burst, conns, sample, timeout, memory)")
	fs.BoolVar(&o.merge, "merge", false, "merge report snapshots (positional args) into one fleet report")
	fs.StringVar(&o.saveReport, "save-report", "", "write the final report as a snapshot loadable by -merge")
	fs.IntVar(&o.conns, "conns", 1, "with -listen: number of producer streams to wait for before analyzing")
	fs.DurationVar(&o.connTO, "conn-timeout", 0, "with -listen: per-frame read deadline on producer connections (0 = none); with -collect: write deadline per batch")
	fs.StringVar(&o.overload, "overload", "block", "in-process overload policy: block (lossless), drop, or sample:N")
	fs.DurationVar(&o.live, "live", 0, "print a live snapshot table at this interval while the workload runs")
	fs.BoolVar(&o.stats, "stats", false, "print pipeline observability: streaming fold counters, per-shard queue statistics, delivery accounting, and self-overhead")
	fs.IntVar(&o.shards, "shards", 0, "collector and analyzer shards (events partitioned by instance); 0 = GOMAXPROCS, 1 = the paper's single-channel collector")
	fs.IntVar(&o.workers, "workers", 0, "per-instance finalization worker-pool size; 0 = GOMAXPROCS, 1 = sequential")
	fs.StringVar(&o.sampleMode, "sample", "full", "per-instance sampling: full (lossless), adaptive (back off once classification stabilizes), or 1:N (static burst rate)")
	fs.Float64Var(&o.minConf, "min-confidence", 0, "with -sample: suppress findings whose sampling confidence is below this (0..1)")
	fs.StringVar(&o.httpAddr, "http", "", "serve live observability on this address: /metrics, /statusz, /healthz, /debug/pprof")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event JSON of DSspy's own pipeline spans (load in Perfetto)")
	fs.BoolVar(&o.verbose, "v", false, "verbose diagnostics (debug-level logging)")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress diagnostics below error level")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.mergeFiles = fs.Args()
	if err := o.validate(); err != nil {
		fmt.Fprintln(errw, "dsspy:", err)
		return nil, err
	}
	return o, nil
}

// isSet reports whether the named flag was given a non-default value, for
// the conflict table below.
func (o *options) isSet(name string) bool {
	switch name {
	case "app":
		return o.appName != ""
	case "demo":
		return o.demo != ""
	case "replay":
		return o.replay != ""
	case "recover":
		return o.recoverPath != ""
	case "collect":
		return o.collect != ""
	case "listen":
		return o.listen != ""
	case "spill-dir":
		return o.spillDir != ""
	case "live":
		return o.live > 0
	case "v":
		return o.verbose
	case "quiet":
		return o.quiet
	case "daemon":
		return o.daemon
	case "checkpoint-dir":
		return o.ckptDir != ""
	case "window-events":
		return o.windowEv != 0
	case "tenant":
		return o.tenant != ""
	case "quotas":
		return o.quotas != ""
	case "merge":
		return o.merge
	case "save-report":
		return o.saveReport != ""
	case "sample":
		return o.sampleMode != "" && o.sampleMode != "full"
	case "min-confidence":
		return o.minConf != 0
	}
	return false
}

// flagConflict names two flags that contradict each other.
type flagConflict struct {
	a, b   string
	reason string
}

// conflicts is the pairwise incompatibility table. A run is one of: workload
// (app/demo), replay, recovery, or collector side — the flags selecting them
// are mutually exclusive, and mode-specific flags reject the wrong mode.
var conflicts = []flagConflict{
	{"app", "demo", "pick one workload"},
	{"replay", "app", "a replay analyzes a log instead of running a workload"},
	{"replay", "demo", "a replay analyzes a log instead of running a workload"},
	{"replay", "recover", "pick one log to analyze"},
	{"replay", "collect", "a replay has no producer to ship events from"},
	{"replay", "listen", "a process replays a log or collects streams, not both"},
	{"recover", "app", "recovery analyzes a damaged log instead of running a workload"},
	{"recover", "demo", "recovery analyzes a damaged log instead of running a workload"},
	{"recover", "collect", "recovery analyzes a local WAL; there is nothing to ship"},
	{"recover", "listen", "a process recovers a log or collects streams, not both"},
	{"sample", "replay", "the sampling gate runs in the live producer; a replay analyzes a finished log"},
	{"sample", "recover", "the sampling gate runs in the live producer; recovery analyzes a finished log"},
	{"sample", "collect", "the gate's classification feedback lives in the analyzer, which -collect runs remotely"},
	{"sample", "listen", "the collector side runs no workload to sample"},
	{"sample", "merge", "a merge folds saved reports; their bounds already combine conservatively"},
	{"listen", "app", "the collector side runs no workload"},
	{"listen", "demo", "the collector side runs no workload"},
	{"listen", "collect", "a process is producer or collector, not both"},
	{"collect", "live", "live snapshots fold in the collector process, not the producer"},
	{"merge", "app", "a merge folds saved reports instead of running a workload"},
	{"merge", "demo", "a merge folds saved reports instead of running a workload"},
	{"merge", "replay", "a merge folds saved report snapshots, not session logs"},
	{"merge", "recover", "a merge folds saved report snapshots, not session logs"},
	{"merge", "listen", "a process merges saved reports or collects streams, not both"},
	{"merge", "collect", "a merge has no producer to ship events from"},
	{"daemon", "merge", "the daemon serves live fleet reports; -merge folds saved ones"},
	{"v", "quiet", "pick one verbosity"},
}

// requires lists flags that only make sense alongside another flag.
var requires = []flagConflict{
	{"spill-dir", "collect", "the spill WAL absorbs events while a -collect link is down"},
	{"daemon", "listen", "the daemon is the long-lived collector side"},
	{"checkpoint-dir", "daemon", "checkpoints are the daemon's restart state"},
	{"window-events", "daemon", "analysis windows are per-tenant daemon state"},
	{"quotas", "daemon", "quotas guard the daemon's tenants"},
	{"tenant", "collect", "the tenant identity travels in the producer's hello frame"},
	{"min-confidence", "sample", "confidence bounds exist only under sampling"},
}

// validate applies the conflict and requirement tables, returning a one-line
// error for the first violation.
func (o *options) validate() error {
	for _, c := range conflicts {
		if o.isSet(c.a) && o.isSet(c.b) {
			return fmt.Errorf("-%s and -%s are incompatible: %s", c.a, c.b, c.reason)
		}
	}
	for _, r := range requires {
		if o.isSet(r.a) && !o.isSet(r.b) {
			return fmt.Errorf("-%s requires -%s: %s", r.a, r.b, r.reason)
		}
	}
	if o.merge && len(o.mergeFiles) == 0 {
		return fmt.Errorf("-merge needs at least one report snapshot argument")
	}
	if o.quotas != "" {
		if _, err := parseQuotas(o.quotas); err != nil {
			return err
		}
	}
	if o.sampleMode != "" {
		cfg, err := sample.ParseConfig(o.sampleMode)
		if err != nil {
			return err
		}
		o.sampleCfg = cfg
	}
	if o.minConf < 0 || o.minConf > 1 {
		return fmt.Errorf("-min-confidence must be in [0,1], got %g", o.minConf)
	}
	return nil
}
