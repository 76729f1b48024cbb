// IPC demonstrates the paper's collector architecture (§IV): the dynamic
// analysis runs in a separate process fed over asynchronous communication.
// This example starts a collector server on a local TCP port, ships a
// workload's events to it over the socket, and analyzes them on the
// receiving side — the same wire path an out-of-process collector uses.
//
//	go run ./examples/ipc
package main

import (
	"fmt"
	"os"

	"dsspy"
	"dsspy/internal/core"
	"dsspy/internal/trace"
)

func main() {
	// Receiving side: the collector process.
	srv, err := trace.ListenCollector("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("collector listening on %s\n", srv.Addr())

	// Producing side: the instrumented program dials the collector and
	// streams batched events while it runs.
	sock, err := trace.DialCollector("tcp", srv.Addr().String())
	if err != nil {
		fatal(err)
	}
	s := trace.NewSessionWith(trace.Options{Recorder: sock, CaptureSites: true})

	inbox := dsspy.NewListLabeled[int](s, "inbox (list as FIFO)")
	for c := 0; c < 30; c++ {
		for i := 0; i < 10; i++ {
			inbox.Add(c*10 + i)
		}
		for i := 0; i < 10; i++ {
			inbox.RemoveAt(0)
		}
	}
	if err := sock.Close(); err != nil {
		fatal(err)
	}
	// Close cuts a connection still waiting in the listen backlog, so wait
	// for the producer stream to be accepted and finished first.
	srv.WaitStreams(1)
	if err := srv.Close(); err != nil {
		fatal(err)
	}

	events := srv.Columns()
	fmt.Printf("collector received %d events over the wire\n\n", events.Len())

	// Post-mortem analysis on the collector side.
	rep := core.New().Analyze(s, events)
	if err := rep.Write(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ipc:", err)
	os.Exit(1)
}
