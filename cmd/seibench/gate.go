package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the benchmark declaration, read from the checkout
// root seibench runs in.
var benchmarkFile = "BENCHMARK.json"

// metricDecl is one metric of BENCHMARK.json. Bound is the share by
// which an end-to-end metric may worsen; per-layer metrics have none.
type metricDecl struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmark is the part of BENCHMARK.json seibench uses.
type benchmark struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// metrics is every declared metric, end-to-end first.
func (b *benchmark) metrics() []metricDecl {
	return append(append([]metricDecl{}, b.EndToEnd...), b.PerLayer...)
}

func loadBenchmark() (*benchmark, error) {
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, fmt.Errorf("%w (run seibench from the checkout root)", err)
	}
	b := &benchmark{}
	if err := json.Unmarshal(data, b); err != nil || len(b.Command) == 0 || len(b.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no command or no workloads (%v)", benchmarkFile, err)
	}
	return b, nil
}

// expected.json holds every workload's seed-1 digest and the metrics
// that do not depend on the host (pJ, error rate), measured on GOARCH.
// Other architectures may fuse multiply-adds and legitimately print
// other digests, so gate cannot check them.
//
//go:embed expected.json
var expectedJSON []byte

var expected = func() (e struct {
	GOARCH    string `json:"goarch"`
	Workloads map[string]struct {
		Digest  string             `json:"digest"`
		Metrics map[string]float64 `json:"metrics"`
	} `json:"workloads"`
}) {
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		panic("seibench: expected.json: " + err.Error())
	}
	return e
}()

// errGateFailed distinguishes "the gate found a difference" (exit 1,
// the signal CI keys on) from operational errors and reports the gate
// cannot check (exit 2).
var errGateFailed = errors.New("gate failed")

// beyondBound reports whether cur is worse than base by strictly more
// than m's bound. The limit is computed as base·(1±bound), so a metric
// worse by exactly the bound passes.
func beyondBound(m metricDecl, base, cur float64) bool {
	if m.Better == "higher" {
		return cur < base*(1-m.Bound)
	}
	return cur > base*(1+m.Bound)
}

// gate checks cur against expected.json and, when base is non-nil,
// cur's host-time end-to-end metrics against base with BENCHMARK.json's
// bounds. It prints one line per check.
func gate(stdout, stderr io.Writer, b *benchmark, base, cur *Report) error {
	if cur.Machine.GOARCH != expected.GOARCH {
		return fmt.Errorf("cannot check %s: expected.json holds %s values and %s may round differently",
			cur.path, expected.GOARCH, cur.Machine.GOARCH)
	}
	fmt.Fprintf(stdout, "current: %s\n", describe(cur))
	failed := 0
	check := func(ok bool, format string, args ...any) {
		status := "ok  "
		if !ok {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(stdout, "%s %s\n", status, fmt.Sprintf(format, args...))
	}
	for _, w := range b.Workloads {
		o, want := cur.outs[w.Name], expected.Workloads[w.Name]
		switch {
		case want.Digest == "":
			return fmt.Errorf("cannot check %s: not in expected.json", w.Name)
		case o == nil:
			check(false, "%s: missing from the report", w.Name)
			continue
		}
		check(o.digest == want.Digest, "%s: digest %s (expected %s)", w.Name, o.digest, want.Digest)
		for _, m := range b.metrics() {
			if v, exact := want.Metrics[m.Name]; exact {
				got, ok := o.metrics[m.Name]
				check(ok && got == v, "%s: %s %v (expected %v)", w.Name, m.Name, got, v)
			}
		}
		check(o.correct, "%s: correct %v", w.Name, o.correct)
	}
	if base == nil {
		fmt.Fprintln(stdout, "note: no comparable baseline (same machine and -seconds): host-time metrics not gated")
	} else {
		fmt.Fprintf(stdout, "baseline: %s\n", describe(base))
		for _, w := range b.Workloads {
			bo, co := base.outs[w.Name], cur.outs[w.Name]
			for _, m := range b.EndToEnd {
				if _, exact := expected.Workloads[w.Name].Metrics[m.Name]; exact || bo == nil || co == nil {
					continue
				}
				bv, bok := bo.metrics[m.Name]
				cv, cok := co.metrics[m.Name]
				if !bok || !cok {
					fmt.Fprintf(stderr, "seibench gate: warning: %s %s missing from one report\n", w.Name, m.Name)
					continue
				}
				check(!beyondBound(m, bv, cv), "%s: %s %.4g -> %.4g (%+.1f%%, bound %g)",
					w.Name, m.Name, bv, cv, delta(bv, cv), m.Bound)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%w: %d check(s) failed", errGateFailed, failed)
	}
	return nil
}

// compare prints every workload's end-to-end and per-layer metrics side
// by side; it informs and never fails.
func compare(w io.Writer, b *benchmark, base, cur *Report) {
	fmt.Fprintf(w, "baseline: %s\ncurrent:  %s\n", describe(base), describe(cur))
	for _, wl := range b.Workloads {
		bo, co := base.outs[wl.Name], cur.outs[wl.Name]
		if bo == nil || co == nil {
			fmt.Fprintf(w, "\n%s: missing from one report\n", wl.Name)
			continue
		}
		fmt.Fprintf(w, "\n%s  digest %s -> %s  correct %v -> %v\n", wl.Name, bo.digest, co.digest, bo.correct, co.correct)
		fmt.Fprintf(w, "  %-32s %14s %14s %9s\n", "metric", "baseline", "current", "delta")
		for _, m := range b.metrics() {
			bv, bok := bo.metrics[m.Name]
			cv, cok := co.metrics[m.Name]
			if !bok || !cok {
				continue
			}
			fmt.Fprintf(w, "  %-32s %14.6g %14.6g %+8.1f%%\n", m.Name, bv, cv, delta(bv, cv))
		}
	}
}

// delta is the signed change from base to cur in percent.
func delta(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base * 100
}

// describe renders one report's identity for compare/gate headers.
func describe(rep *Report) string {
	return fmt.Sprintf("%s  (%s, %s, %g s)", rep.path, rep.StartedAt.Format("2006-01-02 15:04"), rep.GitSHA, rep.Seconds)
}
