package dsspy_test

// Renderer parity: Report.Write sizes the Table V text with a length walk,
// renders it with strconv appends into one buffer of that size and hands it
// over in one Write call. fmtWrite below is the fmt renderer it replaced,
// kept verbatim as the reference; the two must agree byte for byte, and the
// computed size must equal the text's length, on every golden report and on
// generated reports that reach every branch of the layout.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"dsspy/internal/core"
	"dsspy/internal/profile"
	"dsspy/internal/trace"
	"dsspy/internal/usecase"
)

// fmtWrite is the fmt-based renderer Report.Write replaced.
func fmtWrite(r *core.Report, w io.Writer) error {
	n := 0
	for _, ir := range r.Instances {
		for k := range ir.UseCases {
			n++
			if err := fmtWriteUseCase(w, n, &ir.UseCases[k]); err != nil {
				return err
			}
		}
	}
	if n == 0 {
		_, err := fmt.Fprintln(w, "No use cases detected.")
		return err
	}
	for _, ir := range r.Instances {
		if ir.Shared.Contended() {
			if _, err := fmt.Fprintf(w,
				"Note: %s%s is accessed by %d threads including %d writer(s); any parallelization must use a synchronized container.\n",
				ir.Profile.Instance.TypeName, fmtLabelSuffix(ir.Profile.Instance.Label),
				ir.Shared.Threads, ir.Shared.WritingThreads); err != nil {
				return err
			}
			if ct := ir.Contention; ct.Contended() {
				if _, err := fmt.Fprintf(w,
					"  Contention: %d episode(s) cover %d of %d events (longest %d, %d with writes); %d read / %d write phase(s); %d of %d thread pair(s) potentially concurrent.\n",
					ct.Episodes, ct.EpisodeEvents, ct.Total, ct.MaxEpisode, ct.WriterEpisodes,
					ct.ReadPhases, ct.WritePhases,
					ct.ConcurrentPairs, ct.ConcurrentPairs+ct.OrderedPairs); err != nil {
					return err
				}
			}
		}
	}
	ss := r.SearchSpace()
	_, err := fmt.Fprintf(w, "Search space: %d of %d list/array instances remain (reduction %.2f%%).\n",
		ss.Flagged, ss.Total, 100*ss.Reduction())
	return err
}

func fmtWriteUseCase(w io.Writer, i int, u *usecase.UseCase) error {
	site := u.Instance.Site
	if _, err := fmt.Fprintf(w,
		"Use Case %d\n  Function:       %s\n  Position:       %s:%d\n  Data structure: %s%s\n  Use Case:       %s\n  Evidence:       %s\n  Recommendation: %s\n",
		i,
		fmtOrUnknown(site.Function),
		filepath.Base(fmtOrUnknown(site.File)), site.Line,
		u.Instance.TypeName, fmtLabelSuffix(u.Instance.Label),
		u.Kind,
		u.Evidence,
		u.Recommendation,
	); err != nil {
		return err
	}
	if u.Bound > 0 {
		if _, err := fmt.Fprintf(w,
			"  Confidence:     %.1f%% (sampling error bound %.4f)\n",
			100*u.Confidence(), u.Bound); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func fmtOrUnknown(s string) string {
	if s == "" {
		return "<unknown>"
	}
	return s
}

func fmtLabelSuffix(label string) string {
	if label == "" {
		return ""
	}
	return fmt.Sprintf(" (%q)", label)
}

// countingWriter counts Write calls and keeps what they wrote, and the
// capacity of the last slice handed to it. It is not a bytes.Buffer, so
// Write takes its general path.
type countingWriter struct {
	calls   int
	lastCap int
	buf     bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	w.lastCap = cap(p)
	return w.buf.Write(p)
}

// checkRenderParity renders rep through Write into a bytes.Buffer (the
// in-place path) and into a plain writer, and compares both with fmtWrite.
func checkRenderParity(t *testing.T, name string, rep *core.Report) {
	t.Helper()
	var want bytes.Buffer
	if err := fmtWrite(rep, &want); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.WriteString("prefix kept: ")
	if err := rep.Write(&got); err != nil {
		t.Fatal(err)
	}
	if g := bytes.TrimPrefix(got.Bytes(), []byte("prefix kept: ")); !bytes.Equal(g, want.Bytes()) {
		t.Fatalf("%s: Write into a bytes.Buffer differs from the fmt renderer:\n got: %q\nwant: %q", name, g, want.Bytes())
	}
	var cw countingWriter
	if err := rep.Write(&cw); err != nil {
		t.Fatal(err)
	}
	if cw.calls != 1 {
		t.Fatalf("%s: Write made %d Write calls, want 1", name, cw.calls)
	}
	if !bytes.Equal(cw.buf.Bytes(), want.Bytes()) {
		t.Fatalf("%s: Write into a plain writer differs from the fmt renderer", name)
	}
	// Write allocates the text at the size its length walk computed and
	// renders into it without growing it, so the slice it hands over is as
	// long as it was made: a walk that miscounts leaves spare capacity or
	// makes the render reallocate.
	if cw.lastCap != cw.buf.Len() {
		t.Fatalf("%s: Write sized the text at %d bytes, rendered %d", name, cw.lastCap, cw.buf.Len())
	}
}

func TestRenderParityGolden(t *testing.T) {
	for _, gc := range goldenCases() {
		checkRenderParity(t, gc.name, gc.run())
	}
}

// renderLabels are instance labels %q must quote: plain, quotes and
// backslashes, non-ASCII, control bytes, invalid UTF-8 and a DEL byte.
var renderLabels = []string{
	"", "", "queue", `say "hi"`, `back\slash`, "Größe", "日本語 list", "tab\there",
	"nl\nbell\a", "nul\x00byte", "bad\xffutf8", "del\x7f", "emoji 🙂", "​",
}

// generatedReport builds a report of random rows that reach every branch of
// the layout: labelled and unknown sites, every use-case kind plus an
// out-of-range one, sampled detections with Bound > 0, and contended
// instances with and without a contention summary.
func generatedReport(rng *rand.Rand, rows int) *core.Report {
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	rep := &core.Report{}
	kinds := []trace.Kind{trace.KindList, trace.KindArray, trace.KindDictionary, trace.KindQueue, trace.KindLinkedList}
	for i := 0; i < rows; i++ {
		inst := trace.Instance{
			ID:       trace.InstanceID(i + 1),
			Kind:     kinds[rng.Intn(len(kinds))],
			TypeName: pick([]string{"List[int]", "[]string", "map[string]int", "Queue[T]"}),
			Label:    pick(renderLabels),
		}
		if rng.Intn(4) > 0 {
			inst.Site = trace.Site{
				File:     pick([]string{"/src/app/main.go", "worker.go", "a/b/c/d.go", ""}),
				Line:     rng.Intn(5000),
				Function: pick([]string{"main.run", "pkg.(*T).Method", "", "λ.fn"}),
			}
		}
		rep.Registered = append(rep.Registered, inst)
		ir := &core.InstanceResult{Profile: profile.NewStreamed(inst, rng.Intn(1000), &profile.Stats{})}
		for k := rng.Intn(4); k > 0; k-- {
			u := usecase.UseCase{
				Kind:           usecase.Kind(rng.Intn(14)),
				Instance:       inst,
				Evidence:       pick([]string{"3 insert phases cover 81% of events", "", "ratio 0.50 ≥ 0.30"}),
				Recommendation: pick([]string{"Use a concurrent queue.", "Parallelize the search.", ""}),
			}
			switch rng.Intn(4) {
			case 0:
				u.Bound = rng.Float64()
			case 1:
				u.Bound = []float64{0.00005, 0.05, 0.99995, 1}[rng.Intn(4)]
			}
			ir.UseCases = append(ir.UseCases, u)
		}
		if rng.Intn(3) == 0 {
			ir.Shared = profile.SharedAccess{Threads: 2 + rng.Intn(6), WritingThreads: rng.Intn(3)}
			if rng.Intn(2) == 0 {
				ir.Contention = &profile.Contention{
					Total: rng.Intn(1e6), Episodes: rng.Intn(50), EpisodeEvents: rng.Intn(1e5),
					MaxEpisode: rng.Intn(1000), WriterEpisodes: rng.Intn(3),
					ReadPhases: rng.Intn(20), WritePhases: rng.Intn(20),
					OrderedPairs: rng.Intn(10), ConcurrentPairs: rng.Intn(10),
				}
			}
		}
		rep.Instances = append(rep.Instances, ir)
	}
	return rep
}

func TestRenderParityGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		checkRenderParity(t, fmt.Sprintf("trial %d", trial), generatedReport(rng, rng.Intn(40)))
	}
	// A report without use cases takes the "No use cases detected." path,
	// even when its instances are contended.
	empty := generatedReport(rng, 10)
	for _, ir := range empty.Instances {
		ir.UseCases = nil
		ir.Shared = profile.SharedAccess{Threads: 3, WritingThreads: 1}
	}
	checkRenderParity(t, "no use cases", empty)
	checkRenderParity(t, "empty report", &core.Report{})
}

// failingWriter fails every write.
type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

func TestRenderReturnsWriterError(t *testing.T) {
	errFull := errors.New("disk full")
	rng := rand.New(rand.NewSource(5))
	for _, rep := range []*core.Report{generatedReport(rng, 20), {}} {
		if err := rep.Write(failingWriter{errFull}); !errors.Is(err, errFull) {
			t.Fatalf("Write returned %v, want the writer's error", err)
		}
	}
}
