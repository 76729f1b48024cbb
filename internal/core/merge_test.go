package core_test

// Merge algebra property tests, run over the full 39-workload corpus: the
// fleet merge must be associative, order-insensitive (commutative), and
// idempotent, and merging shards of one session must reproduce the
// single-collector report byte for byte. External test package so the corpus
// (which imports core) can drive the workloads.

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"dsspy/internal/core"
	"dsspy/internal/corpus"
	"dsspy/internal/sample"
	"dsspy/internal/trace"
)

// reportBytes is the byte-identity witness: the human rendering plus the
// JSON rendering, concatenated.
func reportBytes(t *testing.T, rep *core.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func corpusPrograms() []corpus.DynamicProgram {
	progs := append(corpus.PatternStudyPrograms(), corpus.UseCaseStudyPrograms()...)
	// The multi-thread study programs put the per-instance contention
	// summaries (episodes, phases, thread windows) under the same merge
	// algebra as every other per-instance figure.
	return append(progs, corpus.ContentionStudyPrograms()...)
}

// corpusReports analyzes every corpus program once, stamping each report with
// a distinct origin so the merge treats them as distinct processes.
func corpusReports(t *testing.T) []*core.Report {
	t.Helper()
	progs := corpusPrograms()
	reports := make([]*core.Report, len(progs))
	for i, p := range progs {
		rep := p.Run(core.New())
		rep.Origin = fmt.Sprintf("%s#%d", p.Name, i)
		reports[i] = rep
	}
	return reports
}

func TestMergeOrderInsensitiveOverCorpus(t *testing.T) {
	reports := corpusReports(t)
	base, baseStats := core.MergeReports(reports...)
	want := reportBytes(t, base)
	if baseStats.Instances == 0 {
		t.Fatal("merged corpus view is empty")
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		perm := make([]*core.Report, len(reports))
		for i, j := range rng.Perm(len(reports)) {
			perm[i] = reports[j]
		}
		merged, stats := core.MergeReports(perm...)
		if got := reportBytes(t, merged); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: merge over a permutation diverged (%d vs %d bytes)", trial, len(got), len(want))
		}
		if stats != baseStats {
			t.Fatalf("trial %d: merge stats order-dependent: %+v vs %+v", trial, stats, baseStats)
		}
	}
}

func TestMergeAssociativeOverCorpus(t *testing.T) {
	reports := corpusReports(t)
	flat, _ := core.MergeReports(reports...)
	want := reportBytes(t, flat)

	// Arbitrary groupings: left fold, right fold, and a 3-way split, each
	// merged pairwise before the final fold.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4; trial++ {
		cut1 := 1 + rng.Intn(len(reports)-2)
		cut2 := cut1 + 1 + rng.Intn(len(reports)-cut1-1)
		a, _ := core.MergeReports(reports[:cut1]...)
		b, _ := core.MergeReports(reports[cut1:cut2]...)
		c, _ := core.MergeReports(reports[cut2:]...)
		left, _ := core.MergeReports(a, b)
		leftThenC, _ := core.MergeReports(left, c)
		right, _ := core.MergeReports(b, c)
		aThenRight, _ := core.MergeReports(a, right)
		if got := reportBytes(t, leftThenC); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (cuts %d,%d): ((a·b)·c) != flat merge", trial, cut1, cut2)
		}
		if got := reportBytes(t, aThenRight); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (cuts %d,%d): (a·(b·c)) != flat merge", trial, cut1, cut2)
		}
	}
}

func TestMergeIdempotentOverCorpus(t *testing.T) {
	reports := corpusReports(t)
	once, _ := core.MergeReports(reports...)
	twice, stats := core.MergeReports(append(reports, reports...)...)
	if !bytes.Equal(reportBytes(t, once), reportBytes(t, twice)) {
		t.Fatal("merging every report twice changed the view")
	}
	if stats.Conflicts != 0 {
		t.Fatalf("duplicate inputs produced %d conflicts, want 0", stats.Conflicts)
	}
	// Every row arrives exactly twice, so each merged row folds exactly one
	// duplicate.
	if stats.Duplicates != len(twice.Instances) {
		t.Fatalf("duplicates = %d, want one per merged row (%d)", stats.Duplicates, len(twice.Instances))
	}
	// Merging the merged view with itself is also a fixpoint.
	again, _ := core.MergeReports(once, once)
	if !bytes.Equal(reportBytes(t, once), reportBytes(t, again)) {
		t.Fatal("merge(m, m) != m")
	}
}

// TestMergeKeepsContention: the fleet merge must carry the per-instance
// contention summaries through — a merged view of the contention programs
// still knows which instances were contended.
func TestMergeKeepsContention(t *testing.T) {
	var reports []*core.Report
	for i, p := range corpus.ContentionStudyPrograms() {
		rep := p.Run(core.New())
		rep.Origin = fmt.Sprintf("%s#%d", p.Name, i)
		reports = append(reports, rep)
	}
	merged, _ := core.MergeReports(reports...)
	contended := 0
	for _, ir := range merged.Instances {
		if ir.Contention.Contended() {
			contended++
		}
	}
	if contended == 0 {
		t.Fatal("merge dropped every contention summary")
	}
	// Round-tripping the merged view preserves them too.
	var buf bytes.Buffer
	if err := merged.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"episodes"`)) {
		t.Fatal("merged JSON rendering lost the contention fields")
	}
}

// TestMergeShardsMatchesSingleCollector splits one session's analysis across
// N shard reports (same origin, disjoint instances, shared registry) and
// checks the merge reproduces the single-collector report byte for byte.
func TestMergeShardsMatchesSingleCollector(t *testing.T) {
	for _, p := range corpusPrograms()[:6] {
		t.Run(p.Name, func(t *testing.T) {
			whole := p.Run(core.New())
			want := reportBytes(t, whole)

			const shards = 3
			parts := make([]*core.Report, shards)
			for s := 0; s < shards; s++ {
				part := &core.Report{
					Origin:     whole.Origin,
					Registered: whole.Registered, // every shard sees the registry
					Stats:      whole.Stats,
				}
				for i, ir := range whole.Instances {
					if i%shards == s {
						part.Instances = append(part.Instances, ir)
					}
				}
				parts[s] = part
			}
			merged, stats := core.MergeReports(parts...)
			if got := reportBytes(t, merged); !bytes.Equal(got, want) {
				t.Fatalf("merged shards != single collector (%d vs %d bytes; stats %+v)", len(got), len(want), stats)
			}
			if stats.Conflicts != 0 {
				t.Fatalf("shard merge saw %d conflicts, want 0", stats.Conflicts)
			}
		})
	}
}

// TestMergeConflictDeterministic: same identity, different content — the
// total order must pick one winner regardless of argument order.
func TestMergeConflictDeterministic(t *testing.T) {
	progs := corpusPrograms()
	a := progs[2].Run(core.New())
	b := progs[4].Run(core.New())
	a.Origin = "same"
	b.Origin = "same"
	ab, abStats := core.MergeReports(a, b)
	ba, baStats := core.MergeReports(b, a)
	if !bytes.Equal(reportBytes(t, ab), reportBytes(t, ba)) {
		t.Fatal("conflict resolution depends on merge order")
	}
	if abStats != baStats {
		t.Fatalf("merge stats depend on merge order: %+v vs %+v", abStats, baStats)
	}
	if abStats.Conflicts == 0 && abStats.Duplicates == 0 {
		t.Fatal("expected colliding identities between two programs sharing an origin")
	}

	// One more registry row under the same key on both sides, with different
	// content: exactly one more conflict, whichever side comes first.
	const extra = trace.InstanceID(1 << 30)
	a.Registered = append(append([]trace.Instance(nil), a.Registered...),
		trace.Instance{ID: extra, Kind: trace.KindList, TypeName: "List[int]"})
	b.Registered = append(append([]trace.Instance(nil), b.Registered...),
		trace.Instance{ID: extra, Kind: trace.KindArray, TypeName: "int[]"})
	ab, abReg := core.MergeReports(a, b)
	ba, baReg := core.MergeReports(b, a)
	if abReg != baReg {
		t.Fatalf("merge stats depend on merge order: %+v vs %+v", abReg, baReg)
	}
	if abReg.Conflicts != abStats.Conflicts+1 {
		t.Fatalf("conflicts = %d after one conflicting registry row, want %d", abReg.Conflicts, abStats.Conflicts+1)
	}
	if !bytes.Equal(reportBytes(t, ab), reportBytes(t, ba)) {
		t.Fatal("registry conflict resolution depends on merge order")
	}
}

func TestSnapshotRoundTripPreservesRendering(t *testing.T) {
	for _, p := range corpusPrograms()[:4] {
		t.Run(p.Name, func(t *testing.T) {
			rep := p.Run(core.New())
			rep.Origin = "solo"
			want := reportBytes(t, rep)

			path := filepath.Join(t.TempDir(), "snap.json")
			if err := core.SaveReportFile(path, rep); err != nil {
				t.Fatal(err)
			}
			back, err := core.LoadReportFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if back.Origin != "solo" {
				t.Fatalf("origin lost in round trip: %q", back.Origin)
			}
			if got := reportBytes(t, back); !bytes.Equal(got, want) {
				t.Fatalf("snapshot round trip changed rendering (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// degradedTenantView streams a corpus program through a daemon tenant in
// small windows. With shed set, the collector counters it is given report
// half of every delivery as shed, so every window is stamped degraded and
// carries bounds and sampling records.
func degradedTenantView(t *testing.T, tenant string, p corpus.DynamicProgram, shed bool) *core.Report {
	t.Helper()
	s, events := recordProgram(p)
	var delivered uint64
	cfg := core.DaemonConfig{WindowEvents: len(events)/3 + 1, MaxWindows: 8}
	if shed {
		cfg.TenantSampling = func(string) (uint64, uint64) { return 2 * delivered, delivered }
	}
	dm := core.New().NewDaemon(cfg)
	for _, inst := range s.Instances() {
		dm.TenantInstance(tenant, inst)
	}
	for lo := 0; lo < len(events); lo += 256 {
		part := events[lo:min(lo+256, len(events))]
		delivered += uint64(len(part))
		dm.TenantEvents(tenant, part)
	}
	return dm.TenantReport(tenant)
}

// TestMergeMatchesKeyedOverCorpus: the map-free path MergeReports takes when
// no key repeats must produce what the keyed path produces — rendering,
// snapshot encoding and stats — over the corpus, sampled runs, and daemon
// tenant views whose windows are degraded (bounds and sampling records).
func TestMergeMatchesKeyedOverCorpus(t *testing.T) {
	reports := corpusReports(t)
	lossy := sample.Config{Mode: sample.ModeStatic, StaticRate: 4, Window: 32, Burst: 4, MaxCredit: 64}
	progs := corpusPrograms()
	for i, p := range progs[:6] {
		rep := streamGated(t, p, sample.NewController(lossy))
		rep.Origin = fmt.Sprintf("sampled-%s#%d", p.Name, i)
		reports = append(reports, rep)
	}
	degraded := degradedTenantView(t, "shed", progs[19], true)
	sampled := 0
	for _, ir := range degraded.Instances {
		if ir.Sampling != nil && ir.Sampling.State == "degraded" {
			sampled++
		}
	}
	if sampled == 0 {
		t.Fatal("the shedding tenant's windows carry no degraded rows")
	}
	reports = append(reports, degraded, degradedTenantView(t, "clean", progs[19], false))

	snapshot := func(rep *core.Report) []byte {
		var buf bytes.Buffer
		if err := core.SaveReport(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	check := func(name string, disjoint bool, in []*core.Report) {
		t.Helper()
		if got := core.MergesDisjoint(in...); got != disjoint {
			t.Fatalf("%s: map-free path taken = %v, want %v", name, got, disjoint)
		}
		got, gotStats := core.MergeReports(in...)
		want, wantStats := core.MergeKeyed(in...)
		if gotStats != wantStats {
			t.Fatalf("%s: stats %+v, keyed path %+v", name, gotStats, wantStats)
		}
		if !bytes.Equal(reportBytes(t, got), reportBytes(t, want)) {
			t.Fatalf("%s: rendering differs from the keyed path", name)
		}
		if !bytes.Equal(snapshot(got), snapshot(want)) {
			t.Fatalf("%s: snapshot encoding differs from the keyed path", name)
		}
	}
	check("corpus", true, reports)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 3; trial++ {
		perm := make([]*core.Report, len(reports))
		for i, j := range rng.Perm(len(reports)) {
			perm[i] = reports[j]
		}
		check(fmt.Sprintf("permutation %d", trial), true, perm)
	}
	// Merged views are inputs too. Halves split by origin keep disjoint key
	// ranges and stay map-free; halves whose origins interleave take the
	// keyed path.
	byOrigin := append([]*core.Report(nil), reports...)
	origin := func(rep *core.Report) string {
		if rep.Origin == "" && len(rep.Instances) > 0 {
			return rep.Instances[0].Origin
		}
		return rep.Origin
	}
	sort.Slice(byOrigin, func(i, j int) bool { return origin(byOrigin[i]) < origin(byOrigin[j]) })
	lo, _ := core.MergeReports(byOrigin[:len(byOrigin)/2]...)
	hi, _ := core.MergeReports(byOrigin[len(byOrigin)/2:]...)
	check("merged halves", true, []*core.Report{hi, lo})
	var halves [2][]*core.Report
	for i, rep := range reports {
		halves[i%2] = append(halves[i%2], rep)
	}
	even, _ := core.MergeReports(halves[0]...)
	odd, _ := core.MergeReports(halves[1]...)
	check("interleaved halves", false, []*core.Report{odd, even})
	// Repeated keys take the keyed path, and so must agree with it.
	check("duplicates", false, append(reports[:5:5], reports[:5]...))
	clash := *reports[3]
	clash.Origin = reports[2].Origin
	check("conflicts", false, []*core.Report{reports[2], &clash})
}

// TestMergeSharesUnchangedRows: a row that already names its origin and
// carries no bound — every row of a closed daemon window — enters the merged
// view as is, and the row mutators replace a merged row instead of changing
// it, so filtering the merged view leaves its inputs' bytes alone.
func TestMergeSharesUnchangedRows(t *testing.T) {
	reports := corpusReports(t)[:4]
	for _, rep := range reports[:2] {
		for _, ir := range rep.Instances {
			ir.Origin = rep.Origin
		}
	}
	before := make([][]byte, len(reports))
	for i, rep := range reports {
		before[i] = reportBytes(t, rep)
	}
	merged, _ := core.MergeReports(reports...)
	shared := make(map[*core.InstanceResult]bool)
	for _, ir := range merged.Instances {
		shared[ir] = true
	}
	for i, rep := range reports {
		for _, ir := range rep.Instances {
			if got, want := shared[ir], i < 2; got != want {
				t.Fatalf("report %d (%s): row %d shared = %v, want %v", i, rep.Origin, ir.Profile.Instance.ID, got, want)
			}
		}
	}
	if merged.FilterMinConfidence(2) == 0 {
		t.Fatal("a confidence floor above 1 dropped nothing")
	}
	for i, rep := range reports {
		if !bytes.Equal(reportBytes(t, rep), before[i]) {
			t.Fatalf("report %d (%s) changed when the merged view was filtered", i, rep.Origin)
		}
	}
}
