package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"dsspy/internal/core"
	"dsspy/internal/corpus"
	"dsspy/internal/trace"
)

// corpusUnit is one unit of corpus mix: 165 instances (81,020 events) of
// the corpus behaviours with known detection signatures, classic and
// multi-thread. replay-corpus uses 6 units (990 instances, 486,120
// events), daemon-fleet 2 units per tenant stream (330 instances, 162,040
// events).
var corpusUnit = corpus.Mix{
	LI: 20, IQ: 20, FS: 5, FLR: 20, SAIDual: 10, LIFLR: 10,
	RegularOnly: 20, Irregular: 20,
	CM: 10, MQ: 10, RMT: 10, PRW: 10,
}

func mixOf(units int) corpus.Mix {
	u := corpusUnit
	return corpus.Mix{
		LI: u.LI * units, IQ: u.IQ * units, FS: u.FS * units, FLR: u.FLR * units,
		SAIDual: u.SAIDual * units, LIFLR: u.LIFLR * units,
		RegularOnly: u.RegularOnly * units, Irregular: u.Irregular * units,
		CM: u.CM * units, MQ: u.MQ * units, RMT: u.RMT * units, PRW: u.PRW * units,
	}
}

// recordMix runs the mix's behaviours in a seed-shuffled order — the seed
// sets the order, never the composition — and returns the session registry
// and the Seq-ordered event columns.
func recordMix(mix corpus.Mix, program string, seed int64) (*trace.Session, *trace.ColumnBatch) {
	bs := mix.Behaviors(program)
	rand.New(rand.NewSource(seed)).Shuffle(len(bs), func(i, j int) { bs[i], bs[j] = bs[j], bs[i] })
	col := trace.NewShardedCollectorOpts(runtime.GOMAXPROCS(0), trace.DefaultAsyncBuffer, trace.Block())
	s := trace.NewSessionWith(trace.Options{Recorder: col, CaptureSites: true})
	for _, b := range bs {
		b(s)
	}
	col.Close()
	return s, col.MergedColumns()
}

// checkUseCases is the corpus referee: the report's per-kind use-case counts
// equal the mix's expectation.
func checkUseCases(rep *core.Report, mix corpus.Mix) error {
	got, want := rep.CountByKind(), mix.UseCases()
	for k, n := range want {
		if got[k] != n {
			return fmt.Errorf("%s: %d use cases, want %d", k, got[k], n)
		}
	}
	for k, n := range got {
		if want[k] != n {
			return fmt.Errorf("%s: %d unexpected use cases", k, n)
		}
	}
	return nil
}
