package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The tests run in cmd/seibench; seibench reads BENCHMARK.json from the
// checkout root.
func init() { benchmarkFile = filepath.Join("..", "..", "BENCHMARK.json") }

// gateArgs runs the CLI entry point and returns (exit code, stdout,
// stderr) — the contract CI depends on.
func gateArgs(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// fixture loads testdata/report.json: the output of `seibench run
// -seconds 1` at the commit expected.json was measured on, so its
// lines are real perfbench lines that match expected.json.
func fixture(t *testing.T) *Report {
	t.Helper()
	rep, err := loadReport(filepath.Join("testdata", "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// later is rep as a comparable report taken an hour later: a baseline's
// successor.
func later(t *testing.T, rep *Report) *Report {
	t.Helper()
	cur := *rep
	cur.StartedAt = rep.StartedAt.Add(time.Hour)
	cur.Workloads = map[string]Lines{}
	for k, v := range rep.Workloads {
		cur.Workloads[k] = v
	}
	return &cur
}

// editLine rewrites whichever of workload's result lines holds metric
// (or the untraced one for metric "") through edit.
func editLine(t *testing.T, rep *Report, workload, metric string, edit func(*resultLine)) {
	t.Helper()
	l := rep.Workloads[workload]
	for _, line := range []*string{&l.Result, &l.Traced} {
		var r resultLine
		if err := json.Unmarshal([]byte(*line), &r); err != nil {
			t.Fatal(err)
		}
		if _, ok := r.Metrics[metric]; !ok && metric != "" {
			continue
		}
		edit(&r)
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		*line = string(data)
		rep.Workloads[workload] = l
		return
	}
	t.Fatalf("%s: no result line holds %s", workload, metric)
}

// setMetric sets one metric of one workload.
func setMetric(t *testing.T, rep *Report, workload, metric string, v float64) {
	t.Helper()
	editLine(t, rep, workload, metric, func(r *resultLine) {
		m := r.Metrics[metric]
		m.Value = v
		r.Metrics[metric] = m
	})
}

func metric(t *testing.T, rep *Report, workload, name string) float64 {
	t.Helper()
	if err := rep.decode(); err != nil {
		t.Fatal(err)
	}
	return rep.outs[workload].metrics[name]
}

// gateReports gates cur: alone in a report directory when base is nil,
// else against base through explicit paths.
func gateReports(t *testing.T, base, cur *Report) (int, string, string) {
	t.Helper()
	if base == nil {
		dir := t.TempDir()
		if _, err := writeReport(dir, cur); err != nil {
			t.Fatal(err)
		}
		return gateArgs(t, "gate", "-dir", dir)
	}
	return runReports(t, "gate", base, cur)
}

// runReports runs command on base and cur, written to two files.
func runReports(t *testing.T, command string, base, cur *Report) (int, string, string) {
	t.Helper()
	args := []string{command}
	for _, rep := range []*Report{base, cur} {
		path, err := writeReport(t.TempDir(), rep)
		if err != nil {
			t.Fatal(err)
		}
		args = append(args, path)
	}
	return gateArgs(t, args...)
}

func TestExpectedCoversBenchmarkWorkloads(t *testing.T) {
	b, err := loadBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	exp := expected
	if exp.GOARCH == "" {
		t.Error("expected.json records no GOARCH")
	}
	if len(exp.Workloads) != len(b.Workloads) {
		t.Errorf("expected.json has %d workloads, BENCHMARK.json %d", len(exp.Workloads), len(b.Workloads))
	}
	for _, w := range b.Workloads {
		want, ok := exp.Workloads[w.Name]
		if !ok || want.Digest == "" || len(want.Metrics) != 2 {
			t.Errorf("expected.json lacks digest, pj_per_inference and nn.error_rate for %s: %+v", w.Name, want)
		}
	}
}

func TestGateFirstRunHasNoBaselineAndPasses(t *testing.T) {
	dir := t.TempDir()
	if _, err := writeReport(dir, fixture(t)); err != nil {
		t.Fatal(err)
	}
	code, out, errb := gateArgs(t, "gate", "-dir", dir)
	if code != 0 {
		t.Fatalf("matching report: exit code %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if !strings.Contains(out, "no comparable baseline") || strings.Contains(out, "FAIL") {
		t.Errorf("stdout lacks the no-baseline note or reports a failure:\n%s", out)
	}
	// 4 workloads × (digest, pJ, error rate, correct).
	if n := strings.Count(out, "ok   "); n != 16 {
		t.Errorf("%d passing checks, want 16:\n%s", n, out)
	}
}

func TestGateExactMismatchExitsOne(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		edit       func(t *testing.T, rep *Report)
	}{
		{"digest", "net2-noisy: digest 75654ce4418bdd78", func(t *testing.T, rep *Report) {
			l := rep.Workloads["net2-noisy"]
			l.Digest = strings.Replace(l.Digest, "bdd77", "bdd78", 1)
			rep.Workloads["net2-noisy"] = l
		}},
		{"pj_per_inference", "net1-bounded: pj_per_inference", func(t *testing.T, rep *Report) {
			pj := metric(t, rep, "net1-bounded", "pj_per_inference")
			setMetric(t, rep, "net1-bounded", "pj_per_inference", math.Nextafter(pj, 0))
		}},
		{"nn.error_rate", "net2-ideal: nn.error_rate", func(t *testing.T, rep *Report) {
			setMetric(t, rep, "net2-ideal", "nn.error_rate", 0.0927734375)
		}},
		{"correct", "net2-serve: correct false", func(t *testing.T, rep *Report) {
			editLine(t, rep, "net2-serve", "", func(r *resultLine) { r.Correct = false })
		}},
		{"missing-workload", "net2-ideal: missing", func(t *testing.T, rep *Report) {
			delete(rep.Workloads, "net2-ideal")
		}},
		{"missing-metric", "net2-noisy: nn.error_rate", func(t *testing.T, rep *Report) {
			editLine(t, rep, "net2-noisy", "nn.error_rate", func(r *resultLine) { delete(r.Metrics, "nn.error_rate") })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := fixture(t)
			tc.edit(t, rep)
			code, out, errb := gateReports(t, nil, rep)
			if code != 1 {
				t.Fatalf("exit code %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errb)
			}
			if n := strings.Count(out, "FAIL"); n != 1 || !strings.Contains(out, "FAIL "+tc.want) {
				t.Errorf("want exactly one failure %q, got %d:\n%s", tc.want, n, out)
			}
			if !strings.Contains(errb, "gate failed") {
				t.Errorf("stderr lacks the gate failure:\n%s", errb)
			}
		})
	}
}

func TestGateMalformedLineExitsTwo(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Lines)
	}{
		{"digest-truncated", func(l *Lines) { l.Digest = "digest net2-ideal seed=1" }},
		{"digest-trailing", func(l *Lines) { l.Digest += " extra" }},
		{"digest-other-seed", func(l *Lines) { l.Digest = strings.Replace(l.Digest, "seed=1", "seed=7", 1) }},
		{"digest-other-workload", func(l *Lines) { l.Digest = strings.Replace(l.Digest, "net2-ideal", "net2-noisy", 1) }},
		{"result-not-json", func(l *Lines) { l.Result = l.Result[:len(l.Result)/2] }},
		{"traced-empty", func(l *Lines) { l.Traced = "" }},
		{"result-no-metrics", func(l *Lines) { l.Result = `{"correct":true}` }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := fixture(t)
			l := rep.Workloads["net2-ideal"]
			tc.edit(&l)
			rep.Workloads["net2-ideal"] = l
			code, out, errb := gateReports(t, nil, rep)
			if code != 2 || !strings.Contains(errb, "malformed") {
				t.Fatalf("exit code %d, want 2 with a malformed-line error\nstdout:\n%s\nstderr:\n%s", code, out, errb)
			}
		})
	}
}

func TestGateOtherGOARCHCannotCheck(t *testing.T) {
	rep := fixture(t)
	rep.Machine.GOARCH = "arm64"
	code, out, errb := gateReports(t, nil, rep)
	if code != 2 || !strings.Contains(errb, "cannot check") {
		t.Fatalf("exit code %d, want 2 with \"cannot check\"\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
}

func TestGateExactThresholdBoundaryPasses(t *testing.T) {
	b, err := loadBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	base := fixture(t)
	// Every host-time metric of every workload worse by exactly its
	// bound passes.
	cur := later(t, base)
	for name := range cur.Workloads {
		for _, m := range b.EndToEnd {
			if m.Name == "pj_per_inference" {
				continue
			}
			v := metric(t, base, name, m.Name)
			if m.Better == "higher" {
				v *= 1 - m.Bound
			} else {
				v *= 1 + m.Bound
			}
			setMetric(t, cur, name, m.Name, v)
		}
	}
	code, out, errb := gateReports(t, base, cur)
	if code != 0 {
		t.Fatalf("exact-boundary gate exit code %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	// One representable step beyond the bound fails, in either
	// direction of "worse".
	for _, tc := range []struct {
		metric string
		toward float64
	}{{"images_per_s", 0}, {"latency_p99_ms", math.Inf(1)}} {
		beyond := later(t, cur)
		v := metric(t, cur, "net2-serve", tc.metric)
		setMetric(t, beyond, "net2-serve", tc.metric, math.Nextafter(v, tc.toward))
		code, out, _ = gateReports(t, base, beyond)
		if code != 1 || strings.Count(out, "FAIL") != 1 || !strings.Contains(out, "FAIL net2-serve: "+tc.metric) {
			t.Fatalf("%s just beyond its bound: exit code %d, want 1 with one failure\n%s", tc.metric, code, out)
		}
	}
}

// regressed is the fixture with net2-ideal's throughput halved and its
// p50 doubled: far beyond their bounds.
func regressed(t *testing.T, base *Report) *Report {
	cur := later(t, base)
	setMetric(t, cur, "net2-ideal", "images_per_s", metric(t, base, "net2-ideal", "images_per_s")/2)
	setMetric(t, cur, "net2-ideal", "latency_p50_ms", metric(t, base, "net2-ideal", "latency_p50_ms")*2)
	return cur
}

func TestGateRegressionFixtureExitsNonZero(t *testing.T) {
	base := fixture(t)
	cur := regressed(t, base)
	code, out, errb := gateReports(t, base, cur)
	if code != 1 || !strings.Contains(errb, "gate failed") {
		t.Fatalf("exit code %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	for _, m := range []string{"images_per_s", "latency_p50_ms"} {
		if !strings.Contains(out, "FAIL net2-ideal: "+m) {
			t.Errorf("stdout does not fail %s:\n%s", m, out)
		}
	}
	if n := strings.Count(out, "FAIL"); n != 2 {
		t.Errorf("%d failures, want 2:\n%s", n, out)
	}
	// Without the baseline the same report passes: only the exact
	// values are gated.
	if code, out, _ := gateReports(t, nil, cur); code != 0 {
		t.Errorf("regressed report alone: exit code %d, want 0\n%s", code, out)
	}
}

func TestCompareReportsButNeverFails(t *testing.T) {
	base := fixture(t)
	code, out, errb := runReports(t, "compare", base, regressed(t, base))
	if code != 0 {
		t.Fatalf("compare exit code %d, want 0 (compare informs, gate enforces)\n%s%s", code, out, errb)
	}
	b, err := loadBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	// Every end-to-end and per-layer metric of every workload is listed.
	for _, m := range b.metrics() {
		if n := strings.Count(out, "  "+m.Name+" "); n != len(b.Workloads) {
			t.Errorf("%s listed %d times, want %d", m.Name, n, len(b.Workloads))
		}
	}
	if !strings.Contains(out, "-50.0%") || !strings.Contains(out, "+100.0%") {
		t.Errorf("compare does not show the halved throughput and doubled p50:\n%s", out)
	}
}

func TestGateMissingMetricWarnsButPasses(t *testing.T) {
	// A host-time metric the baseline lacks (say, one BENCHMARK.json
	// added after it was recorded) warns and is not gated.
	base := fixture(t)
	cur := later(t, base)
	editLine(t, base, "net2-serve", "latency_p99_ms", func(r *resultLine) { delete(r.Metrics, "latency_p99_ms") })
	code, out, errb := gateReports(t, base, cur)
	if code != 0 {
		t.Fatalf("missing-metric gate exit code %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if !strings.Contains(errb, "warning: net2-serve latency_p99_ms missing") {
		t.Errorf("stderr lacks the missing-metric warning:\n%s", errb)
	}
}

func TestGateEmptyDirIsAnError(t *testing.T) {
	code, _, errb := gateArgs(t, "gate", "-dir", t.TempDir())
	if code != 2 {
		t.Fatalf("empty-dir gate exit code %d, want 2\nstderr:\n%s", code, errb)
	}
	if !strings.Contains(errb, "seibench run") {
		t.Errorf("error does not tell the user to run first:\n%s", errb)
	}
}

func TestBaselineSkipsOtherMachinesAndModes(t *testing.T) {
	at := func(day int) time.Time { return time.Date(2026, 8, day, 10, 0, 0, 0, time.UTC) }
	cur := testReport("cur0000", at(10))
	otherCPU := testReport("aaa0001", at(9))
	otherCPU.Machine.CPU = "Different CPU"
	otherSeconds := testReport("aaa0002", at(8))
	otherSeconds.Seconds = 20
	match := testReport("aaa0003", at(7))
	newerMatch := testReport("aaa0004", at(9))
	future := testReport("aaa0005", at(11))
	history := []*Report{match, otherSeconds, otherCPU, newerMatch, cur, future}
	if got := baselineFor(cur, history); got != newerMatch {
		t.Fatalf("baselineFor picked %+v, want the newest comparable older report (aaa0004)", got)
	}
	// A machine with no comparable history gates against nothing.
	lone := testReport("lone000", at(12))
	lone.Machine.GOARCH = "arm64"
	if got := baselineFor(lone, append(history, lone)); got != nil {
		t.Fatalf("baselineFor found %+v for a foreign machine, want nil", got)
	}
}

func TestEvaluateGateDirections(t *testing.T) {
	ips := metricDecl{Name: "images_per_s", Better: "higher", Bound: 0.2}
	p99 := metricDecl{Name: "latency_p99_ms", Better: "lower", Bound: 0.25}
	// Throughput up and latency down are improvements, never failures,
	// no matter how large.
	if beyondBound(ips, 1000, 5000) || beyondBound(p99, 10, 2) {
		t.Error("an improvement counted as beyond the bound")
	}
	// The bad direction fails past the bound.
	if !beyondBound(ips, 1000, 700) || !beyondBound(p99, 10, 13) {
		t.Error("a regression past the bound passed")
	}
	if beyondBound(ips, 1000, 850) || beyondBound(p99, 10, 12) {
		t.Error("a regression within the bound failed")
	}
}

func TestReportRoundTripAndOrdering(t *testing.T) {
	dir := t.TempDir()
	newer := testReport("new0000", time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC))
	older := testReport("old0000", time.Date(2026, 8, 4, 10, 0, 0, 0, time.UTC))
	// Write newest first: ordering must come from StartedAt, not
	// directory listing order.
	for _, rep := range []*Report{newer, older} {
		if _, err := writeReport(dir, rep); err != nil {
			t.Fatal(err)
		}
	}
	// A schema-1 report is skipped, not misread.
	if err := os.WriteFile(filepath.Join(dir, "old-schema.json"), []byte(`{"schema": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	history, err := loadReports(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 2 {
		t.Fatalf("loaded %d reports, want 2", len(history))
	}
	if history[0].GitSHA != "old0000" || history[1].GitSHA != "new0000" {
		t.Fatalf("history order %s, %s; want old0000, new0000", history[0].GitSHA, history[1].GitSHA)
	}
	got := history[1]
	if got.Schema != SchemaVersion || !got.StartedAt.Equal(newer.StartedAt) || got.Machine != newer.Machine {
		t.Errorf("round-trip mangled the report: %+v", got)
	}
	if got.Seconds != newer.Seconds || got.Workloads["net2-ideal"] != newer.Workloads["net2-ideal"] {
		t.Errorf("lines did not survive the round trip")
	}
	if got.path == "" || filepath.Dir(got.path) != dir {
		t.Errorf("loaded report path %q not under %s", got.path, dir)
	}
}

func TestSameDayRerunDoesNotClobber(t *testing.T) {
	dir := t.TempDir()
	first := testReport("same000", time.Date(2026, 8, 6, 10, 0, 0, 0, time.UTC))
	second := testReport("same000", time.Date(2026, 8, 6, 11, 30, 0, 0, time.UTC))
	p1, err := writeReport(dir, first)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := writeReport(dir, second)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatalf("second same-day run reused %s", p1)
	}
	history, err := loadReports(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 2 {
		t.Fatalf("loaded %d reports, want 2", len(history))
	}
}

// testReport builds an in-memory report matching the testdata machine.
func testReport(sha string, at time.Time) *Report {
	return &Report{
		Schema:    SchemaVersion,
		StartedAt: at,
		GitSHA:    sha,
		Seconds:   1,
		Machine: Machine{
			GOOS: "linux", GOARCH: "amd64",
			CPU: "Test CPU @ 2.00GHz", NumCPU: 1, GoVersion: "go1.24.0",
		},
		Workloads: map[string]Lines{"net2-ideal": {Digest: "digest net2-ideal seed=1 0123456789abcdef"}},
	}
}
