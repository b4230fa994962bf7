// Package cliutil holds the flag handling shared by cmd/seisim and
// cmd/seiserve: the unified -workers validation, and the observability
// flag set (-metrics, -trace, -progress, -prom, -pprof) wired to
// internal/obs that seisim exposes.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"time"

	"sei/internal/obs"
	"sei/internal/par"
)

// ErrUsage marks a flag-parsing failure whose message the flag package
// already printed; mains exit 2 without printing it again.
var ErrUsage = errors.New("usage")

// WorkersUsage is the shared -workers help text.
const WorkersUsage = "parallel evaluation workers (0 = all cores, 1 = serial); results are identical for any value"

// CheckWorkers validates a -workers value with the engine's rule and
// wraps the failure in the one actionable message every CLI prints.
func CheckWorkers(workers int) error {
	if err := par.Validate(workers); err != nil {
		return fmt.Errorf("invalid -workers %d: must be 0 (all cores), 1 (serial), or a positive worker count", workers)
	}
	return nil
}

// ObsFlags is the observability flag set shared by the CLIs.
type ObsFlags struct {
	// Metrics is the JSON run-report path ("" = off, "-" = stdout).
	Metrics string
	// Prom is the Prometheus text-format metrics path ("" = off).
	Prom string
	// Trace prints the human-readable span/counter report to stderr.
	Trace bool
	// Progress prints rate-limited progress lines to stderr.
	Progress bool
	// PProf is a listen address (e.g. "localhost:6060") serving
	// net/http/pprof for the duration of the run.
	PProf string
}

// Register installs the observability flags on fs.
func (f *ObsFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Metrics, "metrics", "", "write a JSON run report to this path (\"-\" = stdout)")
	fs.StringVar(&f.Prom, "prom", "", "write Prometheus text-format metrics to this path")
	fs.BoolVar(&f.Trace, "trace", false, "print the span/counter report to stderr when done")
	fs.BoolVar(&f.Progress, "progress", false, "print rate-limited progress lines to stderr")
	fs.StringVar(&f.PProf, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
}

// Enabled reports whether any observability output was requested.
func (f *ObsFlags) Enabled() bool {
	return f.Metrics != "" || f.Prom != "" || f.Trace || f.Progress
}

// Recorder returns a new recorder when any observability output is
// enabled, nil otherwise — so undecorated runs keep the zero-cost
// disabled path. It also starts the pprof server when requested.
func (f *ObsFlags) Recorder() *obs.Recorder {
	if f.PProf != "" {
		go func() {
			if err := http.ListenAndServe(f.PProf, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
	}
	if !f.Enabled() {
		return nil
	}
	rec := obs.New()
	if f.Progress {
		rec.EnableProgress(os.Stderr, 2*time.Second)
	}
	return rec
}

// Finish writes the requested reports from rec. name labels the JSON
// report (typically the experiment or sweep name).
func (f *ObsFlags) Finish(rec *obs.Recorder, name string, stderr io.Writer) error {
	if rec == nil {
		return nil
	}
	if f.Trace {
		rec.WriteText(stderr)
	}
	if f.Metrics == "-" {
		if err := rec.WriteJSON(os.Stdout, name); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	} else if f.Metrics != "" {
		out, err := os.Create(f.Metrics)
		if err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
		if err := rec.WriteJSON(out, name); err != nil {
			out.Close()
			return fmt.Errorf("writing metrics: %w", err)
		}
		if err := out.Close(); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	if f.Prom != "" {
		out, err := os.Create(f.Prom)
		if err != nil {
			return fmt.Errorf("writing prometheus metrics: %w", err)
		}
		rec.WritePrometheus(out)
		if err := out.Close(); err != nil {
			return fmt.Errorf("writing prometheus metrics: %w", err)
		}
	}
	return nil
}
