package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeBenchmark points seibench at a BENCHMARK.json whose command is a
// shell script that prints, for --workload W --trace T, the file W.T
// from dir, and restores the real declaration when the test ends.
func fakeBenchmark(t *testing.T, workloads []string) string {
	t.Helper()
	dir := t.TempDir()
	script := filepath.Join(dir, "perfbench.sh")
	// Arguments: --workload W --seed 1 --seconds S --trace T.
	body := "#!/bin/sh\n[ \"$4\" = 1 ] || exit 3\necho progress >&2\ncat \"" + dir + "/$2.$8\"\n"
	if err := os.WriteFile(script, []byte(body), 0o755); err != nil {
		t.Fatal(err)
	}
	decl := map[string]any{"command": []string{"sh", script}, "run_seconds": 1}
	var ws []map[string]string
	for _, w := range workloads {
		ws = append(ws, map[string]string{"name": w})
	}
	decl["workloads"] = ws
	data, err := json.Marshal(decl)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	old := benchmarkFile
	benchmarkFile = path
	t.Cleanup(func() { benchmarkFile = old })
	return dir
}

// printLines makes the fake perfbench print a progress line, digest
// and result for workload at trace.
func printLines(t *testing.T, dir, workload string, trace int, digest, result string) {
	t.Helper()
	out := "some progress\n" + digest + "\n" + result + "\n"
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s.%d", workload, trace)), []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunKeepsPerfbenchLinesVerbatim(t *testing.T) {
	want := fixture(t)
	var names []string
	for name := range want.Workloads {
		names = append(names, name)
	}
	dir := fakeBenchmark(t, names)
	for name, l := range want.Workloads {
		printLines(t, dir, name, 0, l.Digest, l.Result)
		printLines(t, dir, name, 1, l.Digest, l.Traced)
	}
	reports := t.TempDir()
	code, out, errb := gateArgs(t, "run", "-dir", reports)
	if code != 0 {
		t.Fatalf("run exit code %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	history, err := loadReports(reports)
	if err != nil || len(history) != 1 {
		t.Fatalf("want one report, got %d (%v)", len(history), err)
	}
	got := history[0]
	if got.Seconds != 1 || got.Machine != hostMachine() {
		t.Errorf("report seconds %g machine %+v, want 1 and this host", got.Seconds, got.Machine)
	}
	for name, l := range want.Workloads {
		if got.Workloads[name] != l {
			t.Errorf("%s: report holds %+v, perfbench printed %+v", name, got.Workloads[name], l)
		}
	}
}

func TestRunRefusesDifferingDigestsAndFailedRuns(t *testing.T) {
	l := fixture(t).Workloads["net2-ideal"]
	dir := fakeBenchmark(t, []string{"net2-ideal"})
	printLines(t, dir, "net2-ideal", 0, l.Digest, l.Result)
	printLines(t, dir, "net2-ideal", 1, strings.Replace(l.Digest, "ac42", "ac43", 1), l.Traced)
	reports := t.TempDir()
	if code, _, errb := gateArgs(t, "run", "-dir", reports); code != 2 || !strings.Contains(errb, "traced run printed") {
		t.Errorf("differing digests: exit code %d, want 2\n%s", code, errb)
	}
	// A perfbench that exits non-zero (here: no output file) fails the run.
	if err := os.Remove(filepath.Join(dir, "net2-ideal.0")); err != nil {
		t.Fatal(err)
	}
	if code, _, errb := gateArgs(t, "run", "-dir", reports); code != 2 {
		t.Errorf("failed perfbench: exit code %d, want 2\n%s", code, errb)
	}
	if entries, _ := os.ReadDir(reports); len(entries) != 0 {
		t.Errorf("a failed run wrote %d report(s)", len(entries))
	}
}
