package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the tools read.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// specPath is the benchmark spec, read from the repository root.
const specPath = "BENCHMARK.json"

// setRun is one run of a set: its coordinates and its printed result.
type setRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	result
}

type setFile struct {
	Runs []setRun `json:"runs"`
}

// runSet runs every workload of the spec -runs times per seed, seeds
// alternating, each run untraced in its own child process for the spec's
// run_seconds, and writes every result to -out.
func runSet(args []string) error {
	fs := flag.NewFlagSet("set", flag.ExitOnError)
	seeds := fs.String("seeds", "1,2", "comma-separated seeds, alternated")
	runs := fs.Int("runs", 5, "runs per workload and seed")
	out := fs.String("out", "", "set file to write")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("set: -out is required")
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	var seedList []int64
	for _, s := range strings.Split(*seeds, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("set: bad seed %q", s)
		}
		seedList = append(seedList, n)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var set setFile
	for r := 0; r < *runs; r++ {
		for _, seed := range seedList {
			for _, w := range sp.Workloads {
				res, err := runChild(self, []string{"--workload", w.Name, "--seed", fmt.Sprint(seed),
					"--seconds", fmt.Sprint(sp.RunSeconds), "--trace", "0"})
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
				set.Runs = append(set.Runs, setRun{Workload: w.Name, Seed: seed, result: *res})
				fmt.Fprintf(os.Stderr, "set: %s seed %d run %d: correct=%t failed=%d\n", w.Name, seed, r+1, res.Correct, res.Failed)
			}
		}
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(data, '\n'), 0o644)
}

// runChild runs one benchmark run in a child process and parses the result
// from the last line of its standard output.
func runChild(self string, args []string) (*result, error) {
	var stdout bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("parsing result line %q: %w", last, err)
	}
	return &res, nil
}

// summary is one side of a comparison row.
type summary struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Value: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Value
}

type compareRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound"`
	Base     summary `json:"base"`
	Head     summary `json:"head"`
	Change   float64 `json:"change"`
	Verdict  string  `json:"verdict"`
}

// runCompare compares two set files, one row per (workload, end-to-end
// metric), judged against the spec's bounds.
func runCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	jsonOut := fs.String("json", "", "also write the rows as JSON to this file")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [-json rows.json] base.json head.json")
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	base, err := loadSet(fs.Arg(0))
	if err != nil {
		return err
	}
	head, err := loadSet(fs.Arg(1))
	if err != nil {
		return err
	}
	rows, failures := compareSets(sp, base, head)
	if err := writeRows(os.Stdout, rows); err != nil {
		return err
	}
	for _, f := range failures {
		fmt.Println("FAILED:", f)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(map[string]any{"rows": rows}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d run(s) failed verification", len(failures))
	}
	return nil
}

func loadSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading set: %w", err)
	}
	var s setFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// compareSets builds the rows and lists every run that failed verification.
func compareSets(sp *spec, base, head *setFile) ([]compareRow, []string) {
	var failures []string
	for side, set := range map[string]*setFile{"base": base, "head": head} {
		for _, r := range set.Runs {
			if !r.Correct || r.Failed > 0 {
				failures = append(failures, fmt.Sprintf("%s %s seed %d: %d of %d failed", side, r.Workload, r.Seed, r.Failed, r.Attempted))
			}
		}
	}
	values := func(set *setFile, workload, metric string) []float64 {
		var xs []float64
		for _, r := range set.Runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	var rows []compareRow
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			b, h := values(base, w.Name, m.Name), values(head, w.Name, m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			row := compareRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Better: m.Better,
				Bound: m.Bound, Base: summarize(b), Head: summarize(h)}
			row.Change = row.Head.Value/row.Base.Value - 1
			row.Verdict = verdict(row, b, h)
			rows = append(rows, row)
		}
	}
	return rows, failures
}

// verdict judges one row. A row whose run-to-run spread exceeds its bound on
// either side is unresolved, unless every head run beats every base run.
func verdict(row compareRow, base, head []float64) string {
	gain := row.Change // positive is better for "higher"
	if row.Better == "lower" {
		gain = -gain
	}
	if row.Base.spread() > row.Bound || row.Head.spread() > row.Bound {
		if allBetter(row.Better, base, head) {
			return "improved"
		}
		return "unresolved"
	}
	switch {
	case gain < -row.Bound:
		return "regressed"
	case gain > row.Bound:
		return "improved"
	}
	return "unchanged"
}

func allBetter(better string, base, head []float64) bool {
	for _, h := range head {
		for _, b := range base {
			if (better == "lower" && h >= b) || (better != "lower" && h <= b) {
				return false
			}
		}
	}
	return true
}

func writeRows(w io.Writer, rows []compareRow) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase (q1..q3, n)\thead (q1..q3, n)\tchange\tbound\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4g (%.4g..%.4g, %d)\t%.4g (%.4g..%.4g, %d)\t%+.1f%%\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.Base.Value, r.Base.Q1, r.Base.Q3, r.Base.N,
			r.Head.Value, r.Head.Q1, r.Head.Q3, r.Head.N, 100*r.Change, 100*r.Bound, r.Verdict)
	}
	return tw.Flush()
}
