package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// SchemaVersion identifies the bench-report JSON layout; bump on
// incompatible changes so gate/compare can refuse mixed histories.
// Schema 1 held seibench's own suites (bench-reports/history/);
// schema 2 holds perfbench's output lines verbatim.
const SchemaVersion = 2

// DefaultReportDir is where `seibench run` writes and the other
// subcommands read.
const DefaultReportDir = "bench-reports"

// Machine identifies the hardware/toolchain a report was produced on.
// Host-time metrics are only compared between reports from the same
// machine — a laptop's images/s regressing against a CI runner's is
// noise, not signal.
type Machine struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPU       string `json:"cpu,omitempty"`
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
}

// Lines is one workload's perfbench output, kept verbatim.
type Lines struct {
	// Digest is "digest <workload> seed=<n> <hash>", printed by both
	// runs (run refuses to write a report where they differ).
	Digest string `json:"digest"`
	// Result is the --trace 0 result line: the end-to-end metrics.
	Result string `json:"result"`
	// Traced is the --trace 1 result line: the per-layer metrics.
	Traced string `json:"traced"`
}

// Report is one `seibench run` outcome: machine identity plus every
// workload's perfbench lines. DESIGN.md §14 documents the schema.
type Report struct {
	Schema    int              `json:"schema"`
	StartedAt time.Time        `json:"started_at"`
	GitSHA    string           `json:"git_sha,omitempty"`
	Seconds   float64          `json:"seconds"`
	Machine   Machine          `json:"machine"`
	Workloads map[string]Lines `json:"workloads"`

	path string              // where the report was loaded from
	outs map[string]*outcome // decoded Workloads, set by decode
}

// resultLine is the part of perfbench's result line seibench reads.
type resultLine struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// outcome is one workload's lines, decoded.
type outcome struct {
	digest  string
	correct bool               // both runs' correct flags
	metrics map[string]float64 // both result lines' metrics
}

// decode decodes every workload of rep into rep.outs; a line that is
// not what perfbench prints for seed 1 is an error.
func (rep *Report) decode() error {
	rep.outs = map[string]*outcome{}
	for name, l := range rep.Workloads {
		o := &outcome{correct: true, metrics: map[string]float64{}}
		var w, rest string
		if n, _ := fmt.Sscanf(l.Digest, "digest %s seed=1 %s%s", &w, &o.digest, &rest); n != 2 || w != name {
			return fmt.Errorf("%s: %s: malformed digest line %q", rep.path, name, l.Digest)
		}
		for _, line := range []string{l.Result, l.Traced} {
			var r resultLine
			if err := json.Unmarshal([]byte(line), &r); err != nil || r.Metrics == nil {
				return fmt.Errorf("%s: %s: malformed result line %q", rep.path, name, line)
			}
			o.correct = o.correct && r.Correct
			for k, m := range r.Metrics {
				o.metrics[k] = m.Value
			}
		}
		rep.outs[name] = o
	}
	return nil
}

// hostMachine collects the current process's machine identity; the CPU
// model comes from /proc/cpuinfo (empty off Linux).
func hostMachine() Machine {
	m := Machine{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			m.CPU = strings.TrimSpace(v)
			break
		}
	}
	return m
}

// writeReport persists rep under dir as <date>-<sha>.json; a second
// run of the same commit on the same day gets a time suffix instead of
// clobbering the earlier report.
func writeReport(dir string, rep *Report) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	base := filepath.Join(dir, rep.StartedAt.Format("2006-01-02")+"-"+rep.GitSHA)
	path := base + ".json"
	if _, err := os.Stat(path); err == nil {
		path = base + rep.StartedAt.Format("-150405") + ".json"
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// loadReport reads one report file.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{path: path}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != SchemaVersion {
		return nil, fmt.Errorf("%s: schema %d, this seibench reads %d", path, rep.Schema, SchemaVersion)
	}
	return rep, nil
}

// loadReports reads every report in dir, oldest first (by embedded
// StartedAt, not filename, so same-day re-runs order correctly).
// Unreadable or foreign-schema files are skipped with a warning on
// stderr rather than poisoning the whole history.
func loadReports(dir string) ([]*Report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var reps []*Report
	for _, path := range paths {
		rep, err := loadReport(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "seibench: skipping", err)
			continue
		}
		reps = append(reps, rep)
	}
	sort.SliceStable(reps, func(i, j int) bool { return reps[i].StartedAt.Before(reps[j].StartedAt) })
	return reps, nil
}

// baselineFor returns the most recent report older than cur from the
// same machine (platform, CPU model, core count and Go version) with
// the same -seconds, or nil when cur is the first of its kind: its
// host-time metrics are then not gated.
func baselineFor(cur *Report, history []*Report) *Report {
	var base *Report
	for _, r := range history {
		if r.StartedAt.Before(cur.StartedAt) && r.Seconds == cur.Seconds && r.Machine == cur.Machine &&
			(base == nil || r.StartedAt.After(base.StartedAt)) {
			base = r
		}
	}
	return base
}

// gitSHA returns the current short commit hash ("nogit" outside a repo).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "nogit"
	}
	return strings.TrimSpace(string(out))
}
