package main

import (
	"bytes"
	"strings"
	"testing"

	"sei/internal/experiments"
)

func TestParseFlagsDefaults(t *testing.T) {
	var buf bytes.Buffer
	opt, err := parseFlags([]string{"table5"}, &buf)
	if err != nil {
		t.Fatalf("parseFlags: %v", err)
	}
	if opt.what != "table5" {
		t.Errorf("what = %q, want table5", opt.what)
	}
	if opt.cfg.Workers != 0 {
		t.Errorf("workers = %d, want 0", opt.cfg.Workers)
	}
	if got, want := opt.sizes, []int{512, 256}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("sizes = %v, want %v", got, want)
	}
	if opt.obs.Enabled() {
		t.Error("observability enabled by default")
	}
}

func TestParseFlagsObservability(t *testing.T) {
	var buf bytes.Buffer
	opt, err := parseFlags([]string{"-metrics", "out.json", "-trace", "-progress", "-prom", "m.prom", "-pprof", "localhost:0", "table4"}, &buf)
	if err != nil {
		t.Fatalf("parseFlags: %v", err)
	}
	if opt.obs.Metrics != "out.json" || !opt.obs.Trace || !opt.obs.Progress ||
		opt.obs.Prom != "m.prom" || opt.obs.PProf != "localhost:0" {
		t.Errorf("obs flags = %+v", opt.obs)
	}
	if !opt.obs.Enabled() {
		t.Error("Enabled() = false with -metrics set")
	}
}

// TestParseFlagsWorkersValidation pins the unified -workers error the
// CLIs share through internal/cliutil.
func TestParseFlagsWorkersValidation(t *testing.T) {
	var buf bytes.Buffer
	_, err := parseFlags([]string{"-workers", "-2", "table5"}, &buf)
	if err == nil {
		t.Fatal("parseFlags accepted -workers -2")
	}
	want := "invalid -workers -2: must be 0 (all cores), 1 (serial), or a positive worker count"
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err.Error(), want)
	}
}

func TestParseFlagsBadSize(t *testing.T) {
	var buf bytes.Buffer
	if _, err := parseFlags([]string{"-sizes", "512,zero", "table4"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "bad size") {
		t.Errorf("error = %v, want bad size", err)
	}
}

func TestParseFlagsMissingExperiment(t *testing.T) {
	var buf bytes.Buffer
	if _, err := parseFlags(nil, &buf); err == nil {
		t.Fatal("parseFlags accepted zero arguments")
	}
	if !strings.Contains(buf.String(), "usage: seisim") {
		t.Errorf("usage not printed, got %q", buf.String())
	}
}

// TestRunRejectsRetiredExperiments pins that sections outside the usage
// line fail before the context synthesizes its data set: a negative
// Workers makes experiments.NewContext panic, so reaching it fails the
// test.
func TestRunRejectsRetiredExperiments(t *testing.T) {
	cfg := experiments.QuickConfig()
	cfg.Workers = -1
	for _, what := range []string{"verilog", "bounded", "noisy", "tabel4"} {
		err := run(what, cfg, 1, nil)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("run(%q) = %v, want unknown experiment", what, err)
		}
	}
}
