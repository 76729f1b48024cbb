// Command dsspy runs one of the evaluation programs (or a demo workload)
// under instrumentation and prints the DSspy report: detected use cases with
// evidence, recommended actions, and optional profile charts.
//
// Usage:
//
//	dsspy -list
//	dsspy -app Gpdotnet [-chart] [-svg out.svg] [-html report.html]
//	dsspy -app Mandelbrot -advise -cores 8
//	dsspy -demo figure3 [-chart] [-log run.dslog]
//	dsspy -app Mandelbrot -live 500ms
//	dsspy -app Mandelbrot -http 127.0.0.1:6060 -trace-out run.trace.json
//	dsspy -replay run.dslog
//	dsspy -recover crashed.dslog
//	dsspy -listen 127.0.0.1:7777 -conns 1 -stats
//	dsspy -app Algorithmia -collect 127.0.0.1:7777 -spill-dir /var/tmp/dsspy
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"dsspy/internal/advisor"
	"dsspy/internal/apps"
	"dsspy/internal/core"
	"dsspy/internal/dstruct"
	"dsspy/internal/obs"
	"dsspy/internal/sample"
	"dsspy/internal/trace"
	"dsspy/internal/viz"
)

// stdout buffers everything the command prints, so a table goes out in a
// few writes rather than one per line. It is flushed before the command
// waits on anything outside itself (producers, a signal, the next -live
// tick) and on every way out: the end of main, exit and fatal.
var stdout = bufio.NewWriter(os.Stdout)

// flushStdout writes out what stdout holds; output that cannot be written
// ends the command with status 1.
func flushStdout() {
	if err := stdout.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "dsspy:", err)
		os.Exit(1)
	}
}

// exit flushes stdout and ends the process with code.
func exit(code int) {
	flushStdout()
	os.Exit(code)
}

// fatal prints err and ends the process with status 1.
func fatal(err error) {
	stdout.Flush() // best effort: the command is failing with err anyway
	fmt.Fprintln(os.Stderr, "dsspy:", err)
	os.Exit(1)
}

func main() {
	defer flushStdout()
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			exit(0)
		}
		exit(2) // parseFlags already printed the one-line reason
	}
	slog.SetDefault(newLogger(o))

	if o.listApps {
		fmt.Fprintln(stdout, "Evaluation programs (-app):")
		for _, a := range apps.All() {
			// Apps with an uninstrumented twin support the sampled-overhead
			// methodology end to end, so -sample runs can be validated on them.
			mark := ""
			if a.PlainTwin != nil {
				mark = " [sample-ok]"
			}
			if a.PaperLOC > 0 {
				fmt.Fprintf(stdout, "  %-16s %s (paper: %d LOC)%s\n", a.Name, a.Domain, a.PaperLOC, mark)
			} else {
				fmt.Fprintf(stdout, "  %-16s %s (concurrency study)%s\n", a.Name, a.Domain, mark)
			}
		}
		fmt.Fprintln(stdout, "Demos (-demo): figure2, figure3, queue, stack")
		return
	}

	policy, err := trace.ParseOverloadPolicy(o.overload)
	if err != nil {
		fatal(err)
	}

	tracer := newTracer(o)
	srv := startObsServer(o, tracer)
	sampling := o.stats || srv != nil

	// The adaptive-sampling controller: nil in full-fidelity mode, so the
	// default path installs no gate and reports stay byte-identical.
	var ctrl *sample.Controller
	if o.sampleCfg.Mode != sample.ModeFull {
		ctrl = sample.NewController(o.sampleCfg)
		ctrl.SetTracer(tracer)
	}

	cfg := core.DefaultConfig()
	cfg.Workers = o.workers
	cfg.Tracer = tracer
	analyzer := core.NewWith(cfg)

	if o.merge {
		runMerge(o)
		return
	}

	if o.listen != "" {
		if o.daemon {
			runDaemon(analyzer, o, tracer, srv, sampling)
		} else {
			runListen(analyzer, o, tracer, srv, sampling)
		}
		exportTrace(o, tracer)
		stopObsServer(srv)
		return
	}

	// Every path below ends in the one analysis engine: the workload's
	// collector drains into it, and a replayed or salvaged log and
	// -collect's local copy are fed to it as column batches.
	sa := analyzer.NewStreamAnalyzer(o.shards)
	// The trace renderers draw the run's events, so only they (and -log)
	// make the run retain them.
	charts := o.chart || o.svgPath != "" || o.htmlPath != ""
	var (
		s         *trace.Session
		events    *trace.ColumnBatch // retained events in Seq order, for -log and the trace renderers
		scol      *trace.ShardedCollector
		resilient *trace.ResilientRecorder
		timed     *trace.TimedRecorder
		wall      time.Duration // instrumented workload wall time
		plainWall time.Duration // uninstrumented twin wall time (with -stats)
	)
	switch {
	case o.replay != "" || o.recoverPath != "":
		// Replay and recovery go columnar: v3 frames reach the reducers
		// without ever inflating []Event.
		var cols []*trace.ColumnBatch
		var err error
		if o.replay != "" {
			s, cols, err = trace.LoadSessionColumns(o.replay)
			if err != nil {
				fatal(err)
			}
			n := 0
			for _, b := range cols {
				n += b.Len()
			}
			fmt.Fprintf(stdout, "replaying %s: %d instances, %d events\n\n", o.replay, s.NumInstances(), n)
		} else {
			var rec *trace.Recovery
			s, cols, rec, err = trace.RecoverSessionColumns(o.recoverPath)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(stdout, "recovering %s: %s\n\n", o.recoverPath, rec)
		}
		sa.Attach(s)
		for _, b := range cols {
			sa.FeedColumns(b)
		}
		if charts {
			// The normalized runs are ascending and disjoint, so appended
			// in order they are the run in Seq order.
			events = &trace.ColumnBatch{}
			for _, b := range cols {
				events.AppendRange(b, 0, b.Len())
			}
		}
	default:
		app, workload := pickWorkload(o.appName, o.demo)
		if workload == nil {
			fmt.Fprintln(os.Stderr, "nothing to run: pass -app <name>, -demo <name>, -replay <file>, -recover <file>, -listen <addr>, or -list")
			exit(2)
		}
		runWorkload := func(s *trace.Session) {
			sp := tracer.Begin("workload", "run")
			t0 := time.Now()
			// The -app/-demo workloads are single-goroutine by construction,
			// so route their per-event Emit calls through the session's sole
			// producer: thread id cached once, sequence numbers reserved in
			// blocks, each shard's events handed over 1024 at a time.
			p := s.BindDefault()
			workload(s)
			p.Close()
			wall = time.Since(t0)
			sp.End("workload", runLabel(o))
		}

		if o.collect != "" {
			var err error
			resilient, err = trace.NewResilientRecorder(trace.ResilientOptions{
				Network:        "tcp",
				Addr:           o.collect,
				SpillDir:       o.spillDir,
				WriteTimeout:   o.connTO,
				Logger:         slog.Default(),
				Tracer:         tracer,
				SampleInterval: sampleInterval(sampling),
				Hello:          producerHello(o),
			})
			if err != nil {
				fatal(err)
			}
			// Keep a local copy for the report; the remote collector gets
			// the same stream.
			mem := trace.NewMemRecorder()
			timed = trace.NewTimedRecorder(trace.TeeRecorder{resilient, mem}, 0)
			s = trace.NewSessionWith(trace.Options{Recorder: timed, CaptureSites: true})
			sa.Attach(s)
			if srv != nil {
				srv.AddSource(resilient)
				srv.AddSource(timed)
				srv.AddSource(s)
			}
			runWorkload(s)
			events = &trace.ColumnBatch{}
			events.AppendEvents(mem.Events())
			if err := resilient.FinishSession(s); err != nil {
				slog.Warn("collector link failed; report uses the local copy", "err", err)
			}
			sa.FeedColumns(events)
		} else {
			// The collector's drain goroutines feed the analyzer's reducers
			// directly; the event stores stay empty unless -log or a trace
			// renderer asks for the events, which the collector then merges
			// into one batch at Close.
			scol = sa.Collector(trace.DefaultAsyncBuffer, policy, o.logPath != "" || charts)
			scol.SetTracer(tracer)
			if sampling {
				scol.EnableQueueSampling(0)
			}
			timed = trace.NewTimedRecorder(scol, 0)
			sessOpts := trace.Options{Recorder: timed, CaptureSites: true}
			if ctrl != nil {
				sessOpts.Gate = ctrl
				sa.SetSampling(ctrl)
			}
			s = trace.NewSessionWith(sessOpts)
			sa.Attach(s)
			if srv != nil {
				srv.AddSource(scol)
				srv.AddSource(sa)
				srv.AddSource(timed)
				srv.AddSource(s) // dsspy_batch_* (producer batching effectiveness)
				if ctrl != nil {
					srv.AddSource(ctrl) // dsspy_sample_* (gate and per-instance bounds)
				}
				label, start := runLabel(o), time.Now()
				srv.SetStatus(func() *obs.Status { return streamStatus(label, start, s, sa, scol, ctrl) })
			}

			stop := make(chan struct{})
			ticked := make(chan struct{})
			if o.live > 0 {
				go func() {
					defer close(ticked)
					t := time.NewTicker(o.live)
					defer t.Stop()
					for {
						select {
						case <-stop:
							return
						case <-t.C:
							printLive(sa.Snapshot())
						}
					}
				}()
			} else {
				close(ticked)
			}
			runWorkload(s)
			scol.Close()
			if o.live > 0 {
				close(stop)
				<-ticked
			}
			events = scol.MergedColumns()
		}
		if o.stats && app != nil && app.PlainTwin != nil {
			// Paper §V baseline: the same workload at the same input size on
			// raw containers, timed without any instrumentation in the path.
			slog.Debug("timing uninstrumented twin for the overhead baseline", "app", app.Name)
			t0 := time.Now()
			app.PlainTwin()
			plainWall = time.Since(t0)
		}
		if o.logPath != "" {
			if err := trace.SaveSessionColumns(o.logPath, s, events); err != nil {
				fatal(err)
			}
			fmt.Fprintf(stdout, "session log written to %s (%d events) — re-analyze with -replay\n\n", o.logPath, events.Len())
		}
	}

	rep := sa.Close()
	if scol != nil {
		cs := scol.Stats()
		rep.Stats.Collector = &cs
	}
	if timed != nil && rep.Stats != nil {
		rep.Stats.Overhead = overheadStats(timed, wall, plainWall)
	}
	if o.minConf > 0 {
		if dropped := rep.FilterMinConfidence(o.minConf); dropped > 0 {
			fmt.Fprintf(stdout, "suppressed %d finding(s) below confidence %.2f\n\n", dropped, o.minConf)
		}
	}

	rsp := tracer.Begin("report", "run")
	err = rep.Write(stdout)
	rsp.End()
	if err != nil {
		fatal(err)
	}
	if o.saveReport != "" {
		if rep.Origin == "" {
			rep.Origin = runLabel(o)
		}
		if err := core.SaveReportFile(o.saveReport, rep); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "\nreport snapshot written to %s — combine shards with dsspy -merge\n", o.saveReport)
	}
	if o.stats {
		fmt.Fprintln(stdout)
		if err := rep.Stats.Write(stdout); err != nil {
			fatal(err)
		}
		if resilient != nil {
			if err := resilient.Stats().Write(stdout); err != nil {
				fatal(err)
			}
		}
	}

	if o.advise {
		fmt.Fprintln(stdout, "\nTransformation plans (ranked by Amdahl estimate):")
		if err := advisor.Write(stdout, advisor.Advise(rep, o.cores), o.cores); err != nil {
			fatal(err)
		}
	}
	if o.jsonPath != "" {
		f, err := os.Create(o.jsonPath)
		if err != nil {
			fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "\nJSON findings written to %s\n", o.jsonPath)
	}
	if o.htmlPath != "" {
		f, err := os.Create(o.htmlPath)
		if err != nil {
			fatal(err)
		}
		title := "DSspy report"
		if o.appName != "" {
			title = "DSspy report — " + o.appName
		} else if o.demo != "" {
			title = "DSspy report — demo " + o.demo
		}
		if err := viz.WriteHTMLReport(f, rep, events, viz.HTMLOptions{Title: title}); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "\nHTML report written to %s\n", o.htmlPath)
	}

	if o.chart {
		byInstance := viz.ByInstance(events)
		for _, ir := range rep.Instances {
			if len(ir.UseCases) == 0 {
				continue
			}
			fmt.Fprintf(stdout, "\nProfile of %s %q (%d events):\n",
				ir.Profile.Instance.TypeName, ir.Profile.Instance.Label, ir.Profile.Len())
			fmt.Fprint(stdout, viz.ASCIIChart(byInstance.Events(ir.Profile.Instance.ID), viz.DefaultChartOptions()))
		}
	}
	if o.svgPath != "" {
		for _, ir := range rep.Instances {
			if len(ir.UseCases) == 0 {
				continue
			}
			f, err := os.Create(o.svgPath)
			if err != nil {
				fatal(err)
			}
			if err := viz.WriteSVG(f, viz.ByInstance(events).Events(ir.Profile.Instance.ID), 1000, 320); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(stdout, "\nSVG profile written to %s\n", o.svgPath)
			break
		}
	}

	exportTrace(o, tracer)
	stopObsServer(srv)
}

// runListen is the collector side of a cross-process run: accept producer
// streams, wait for the expected number to finish (complete or salvaged),
// rebuild the replay session from the shipped registry frames, and analyze.
func runListen(analyzer *core.DSspy, o *options, tracer *obs.Tracer, srv *obs.Server, sampling bool) {
	cs, err := trace.ListenCollectorOpts("tcp", o.listen, trace.ServerOptions{
		ConnTimeout:    o.connTO,
		Logger:         slog.Default(),
		Tracer:         tracer,
		SampleInterval: sampleInterval(sampling),
	})
	if err != nil {
		fatal(err)
	}
	if srv != nil {
		srv.AddSource(cs)
		start := time.Now()
		srv.SetStatus(func() *obs.Status { return listenStatus(o.listen, start, cs) })
	}
	fmt.Fprintf(stdout, "collecting on %s, waiting for %d producer stream(s)...\n", cs.Addr(), o.conns)
	flushStdout()

	// SIGTERM/SIGINT while collecting: a bounded drain, not an abort. The
	// listener closes immediately, in-flight streams get -drain-timeout to
	// finish, stragglers are cut — and everything decoded up to the cut is
	// salvaged into the analysis below.
	done := make(chan struct{})
	go func() {
		cs.WaitStreams(o.conns)
		close(done)
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-done:
		signal.Stop(sig)
		if err := cs.Close(); err != nil {
			fatal(err)
		}
	case s := <-sig:
		signal.Stop(sig)
		fmt.Fprintf(stdout, "\n%s: draining in-flight streams (up to %s)...\n", s, o.drainTO)
		flushStdout()
		cut, err := cs.Drain(o.drainTO)
		if err != nil {
			slog.Warn("drain finished with errors", "err", err)
		}
		if cut > 0 {
			fmt.Fprintf(stdout, "drain timeout: cut %d still-open stream(s); events decoded before the cut are kept\n", cut)
		}
	}

	s := cs.Session()
	cols := cs.Columns()
	fmt.Fprintf(stdout, "received %d events\n\n", cols.Len())
	if o.logPath != "" {
		if err := trace.SaveSessionColumns(o.logPath, s, cols); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "session log written to %s — re-analyze with -replay\n\n", o.logPath)
	}

	sa := analyzer.NewStreamAnalyzer(o.shards)
	sa.Attach(s)
	sa.FeedColumns(cols)
	rep := sa.Close()
	rsp := tracer.Begin("report", "run")
	err = rep.Write(stdout)
	rsp.End()
	if err != nil {
		fatal(err)
	}
	if o.saveReport != "" {
		rep.Origin = o.listen
		if err := core.SaveReportFile(o.saveReport, rep); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "\nreport snapshot written to %s — combine shards with dsspy -merge\n", o.saveReport)
	}
	if o.stats {
		fmt.Fprintln(stdout)
		if err := cs.ServerStats().Write(stdout); err != nil {
			fatal(err)
		}
	}
}

// stopObsServer shuts the -http surface down, nil-safe.
func stopObsServer(srv *obs.Server) {
	if srv != nil {
		srv.Stop()
	}
}

// pickWorkload resolves -app/-demo into the instrumented workload. The app is
// returned too (nil for demos) so -stats can time its uninstrumented twin.
func pickWorkload(appName, demo string) (*apps.App, func(*trace.Session)) {
	if appName != "" {
		app := apps.ByName(appName)
		if app == nil {
			// Forgiving lookup.
			for _, a := range apps.All() {
				if strings.EqualFold(a.Name, appName) {
					app = a
					break
				}
			}
		}
		if app == nil {
			fmt.Fprintf(os.Stderr, "unknown app %q (try -list)\n", appName)
			exit(2)
		}
		return app, app.Instrumented
	}
	switch demo {
	case "figure2":
		return nil, func(s *trace.Session) {
			l := dstruct.NewListCap[int](s, 10)
			for i := 0; i < 10; i++ {
				l.Add(i)
			}
			for i := 9; i >= 0; i-- {
				l.Get(i)
			}
		}
	case "figure3":
		return nil, func(s *trace.Session) {
			l := dstruct.NewListLabeled[int](s, "producer/scanner")
			for c := 0; c < 12; c++ {
				for i := 0; i < 150; i++ {
					l.Add(i)
				}
				for i := 0; i < l.Len(); i++ {
					l.Get(i)
				}
				l.Clear()
			}
		}
	case "queue":
		return nil, func(s *trace.Session) {
			l := dstruct.NewListLabeled[int](s, "hand-rolled FIFO")
			for c := 0; c < 20; c++ {
				for i := 0; i < 10; i++ {
					l.Add(i)
				}
				for i := 0; i < 10; i++ {
					l.RemoveAt(0)
				}
			}
		}
	case "stack":
		return nil, func(s *trace.Session) {
			l := dstruct.NewListLabeled[int](s, "hand-rolled LIFO")
			for c := 0; c < 20; c++ {
				for i := 0; i < 10; i++ {
					l.Add(i)
				}
				for i := 0; i < 10; i++ {
					l.RemoveAt(l.Len() - 1)
				}
			}
		}
	case "":
		return nil, nil
	default:
		fmt.Fprintf(os.Stderr, "unknown demo %q\n", demo)
		exit(2)
		return nil, nil
	}
}

// printLive renders one -live snapshot: a compact per-instance table over
// everything folded so far, largest profiles first.
func printLive(rep *core.Report) {
	ss := rep.Stats.Streaming
	fmt.Fprintf(stdout, "-- live %s: %d events folded, %d instance(s), %d open run(s) --\n",
		time.Now().Format("15:04:05"), ss.Folded, ss.Instances, ss.OpenRuns)
	instances := make([]*core.InstanceResult, len(rep.Instances))
	copy(instances, rep.Instances)
	sort.Slice(instances, func(i, j int) bool { return instances[i].Profile.Len() > instances[j].Profile.Len() })
	const maxRows = 10
	fmt.Fprintf(stdout, "   %-8s %-22s %10s %9s  %s\n", "kind", "instance", "events", "patterns", "use cases")
	for i, ir := range instances {
		if i == maxRows {
			fmt.Fprintf(stdout, "   ... %d more instance(s)\n", len(instances)-maxRows)
			break
		}
		inst := ir.Profile.Instance
		name := inst.TypeName
		if inst.Label != "" {
			name += " " + inst.Label
		}
		if len(name) > 22 {
			name = name[:21] + "…"
		}
		var shorts []string
		for _, u := range ir.UseCases {
			shorts = append(shorts, u.Kind.Short())
		}
		fmt.Fprintf(stdout, "   %-8s %-22s %10d %9d  %s\n",
			inst.Kind, name, ir.Profile.Len(), len(ir.Patterns()), strings.Join(shorts, ","))
	}
	flushStdout()
}
