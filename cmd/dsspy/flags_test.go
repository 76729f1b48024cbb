package main

import (
	"io"
	"strings"
	"testing"

	"dsspy/internal/sample"
)

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the error, "" for valid
	}{
		{"app alone", []string{"-app", "Mandelbrot"}, ""},
		{"demo alone", []string{"-demo", "figure3"}, ""},
		{"replay alone", []string{"-replay", "run.dslog"}, ""},
		{"stream run", []string{"-app", "Mandelbrot", "-live", "500ms", "-http", ":0"}, ""},
		{"collect with spill", []string{"-app", "Algorithmia", "-collect", "h:1", "-spill-dir", "/tmp"}, ""},
		{"listen alone", []string{"-listen", ":7777", "-conns", "2"}, ""},
		{"replay streamed", []string{"-replay", "run.dslog", "-shards", "2"}, ""},
		{"daemon run", []string{"-listen", ":7777", "-daemon", "-checkpoint-dir", "/tmp/ck",
			"-window-events", "100000", "-quotas", "alpha:rate=500,conns=2;beta:sample=16"}, ""},
		{"tenant producer", []string{"-app", "Algorithmia", "-collect", "h:1", "-tenant", "alpha"}, ""},
		{"merge snapshots", []string{"-merge", "a.json", "b.json"}, ""},
		{"save report", []string{"-app", "Mandelbrot", "-save-report", "out.json"}, ""},
		{"sample adaptive", []string{"-app", "Mandelbrot", "-sample", "adaptive"}, ""},
		{"sample static", []string{"-app", "Mandelbrot", "-sample", "1:64"}, ""},
		{"sample full is lossless", []string{"-replay", "run.dslog", "-sample", "full"}, ""},
		{"min confidence", []string{"-app", "a", "-sample", "adaptive", "-min-confidence", "0.9"}, ""},

		{"app and demo", []string{"-app", "a", "-demo", "d"}, "-app and -demo"},
		{"replay and app", []string{"-replay", "f", "-app", "a"}, "-replay and -app"},
		{"replay and demo", []string{"-replay", "f", "-demo", "d"}, "-replay and -demo"},
		{"replay and recover", []string{"-replay", "f", "-recover", "g"}, "-replay and -recover"},
		{"replay and collect", []string{"-replay", "f", "-collect", "h:1"}, "-replay and -collect"},
		{"recover and collect", []string{"-recover", "f", "-collect", "h:1"}, "-recover and -collect"},
		{"recover and app", []string{"-recover", "f", "-app", "a"}, "-recover and -app"},
		{"listen and app", []string{"-listen", ":1", "-app", "a"}, "-listen and -app"},
		{"listen and collect", []string{"-listen", ":1", "-collect", "h:1"}, "-listen and -collect"},
		{"collect and live", []string{"-app", "a", "-collect", "h:1", "-live", "1s"}, "-collect and -live"},
		{"spill without collect", []string{"-app", "a", "-spill-dir", "/tmp"}, "-spill-dir requires -collect"},
		{"v and quiet", []string{"-app", "a", "-v", "-quiet"}, "-v and -quiet"},

		{"daemon without listen", []string{"-daemon"}, "-daemon requires -listen"},
		{"daemon and merge", []string{"-listen", ":1", "-daemon", "-merge", "a.json"}, "-merge and -listen"},
		{"checkpoint without daemon", []string{"-listen", ":1", "-checkpoint-dir", "/tmp/ck"}, "-checkpoint-dir requires -daemon"},
		{"window-events without daemon", []string{"-listen", ":1", "-window-events", "100"}, "-window-events requires -daemon"},
		{"quotas without daemon", []string{"-listen", ":1", "-quotas", "alpha:rate=5"}, "-quotas requires -daemon"},
		{"tenant without collect", []string{"-app", "a", "-tenant", "alpha"}, "-tenant requires -collect"},
		{"merge and app", []string{"-merge", "-app", "a", "x.json"}, "-merge and -app"},
		{"merge and replay", []string{"-merge", "-replay", "run.dslog", "x.json"}, "-merge and -replay"},
		{"merge without files", []string{"-merge"}, "at least one report snapshot"},
		{"bad quotas pair", []string{"-listen", ":1", "-daemon", "-quotas", "alpha:rate"}, "not key=value"},
		{"bad quotas key", []string{"-listen", ":1", "-daemon", "-quotas", "alpha:speed=9"}, "unknown key"},
		{"bad quotas rate", []string{"-listen", ":1", "-daemon", "-quotas", "alpha:rate=fast"}, "rate"},

		{"sample and replay", []string{"-replay", "f", "-sample", "adaptive"}, "-sample and -replay"},
		{"sample and recover", []string{"-recover", "f", "-sample", "1:8"}, "-sample and -recover"},
		{"sample and collect", []string{"-app", "a", "-collect", "h:1", "-sample", "adaptive"}, "-sample and -collect"},
		{"sample and listen", []string{"-listen", ":1", "-sample", "adaptive"}, "-sample and -listen"},
		{"sample and merge", []string{"-merge", "-sample", "1:4", "x.json"}, "-sample and -merge"},
		{"min confidence without sample", []string{"-app", "a", "-min-confidence", "0.5"}, "-min-confidence requires -sample"},
		{"min confidence out of range", []string{"-app", "a", "-sample", "adaptive", "-min-confidence", "1.5"}, "min-confidence"},
		{"bad sample rate", []string{"-app", "a", "-sample", "1:0"}, "sample"},
		{"bad sample mode", []string{"-app", "a", "-sample", "sometimes"}, "sample"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags(tc.args, io.Discard)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("error is not one line: %q", err)
			}
		})
	}
}

// TestSampleConfigParsed checks that -sample's mode string is parsed into the
// controller config during validation.
func TestSampleConfigParsed(t *testing.T) {
	o, err := parseFlags([]string{"-app", "a", "-sample", "adaptive"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.sampleCfg.Mode != sample.ModeAdaptive {
		t.Fatalf("parsed sample config mode = %v, want adaptive", o.sampleCfg.Mode)
	}

	o, err = parseFlags([]string{"-app", "a", "-sample", "1:16"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.sampleCfg.Mode != sample.ModeStatic || o.sampleCfg.StaticRate != 16 {
		t.Fatalf("-sample=1:16 parsed as %+v", o.sampleCfg)
	}

	o, err = parseFlags([]string{"-app", "a", "-sample", "full"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.sampleCfg.Mode != sample.ModeFull {
		t.Fatalf("-sample=full parsed as %+v", o.sampleCfg)
	}
}
