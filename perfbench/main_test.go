package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to the metric and
// workload tables the benchmark reports: every listed name is
// measured, with the listed unit, and nothing measured is unlisted.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", got, want)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code reports %d", kind, len(listed), len(defs))
		}
		units := map[string]string{}
		for _, m := range defs {
			units[m.name] = m.unit
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s (%s) is not reported with that unit (code: %q)", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.99, 3.97}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestCoverageOverlap(t *testing.T) {
	c := newCoverage([]span{{start: 10, end: 20}, {start: 15, end: 25}, {start: 40, end: 50}})
	for _, tc := range []struct{ s, e, want int64 }{
		{0, 100, 25}, // merged [10,25) plus [40,50)
		{12, 45, 18}, // clipped at both ends
		{25, 40, 0},  // the gap
		{0, 10, 0},   // before everything
		{20, 22, 2},  // inside one interval
	} {
		if got := c.overlap(tc.s, tc.e); got != tc.want {
			t.Errorf("overlap(%d, %d) = %d, want %d", tc.s, tc.e, got, tc.want)
		}
	}
}
