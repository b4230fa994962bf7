package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// Report is the machine-readable form of one run's instrumentation —
// the schema behind `-metrics <path>` (README documents it with jq
// examples).
type Report struct {
	Name        string                     `json:"name,omitempty"`
	StartedAt   time.Time                  `json:"started_at"`
	WallSeconds float64                    `json:"wall_seconds"`
	Spans       []SpanReport               `json:"spans,omitempty"`
	Counters    map[string]int64           `json:"counters"`
	Gauges      map[string]float64         `json:"gauges,omitempty"`
	Histograms  map[string]HistogramReport `json:"histograms,omitempty"`
}

// SpanReport is one phase span with wall time and throughput.
type SpanReport struct {
	Name          string       `json:"name"`
	Seconds       float64      `json:"seconds"`
	Samples       int64        `json:"samples,omitempty"`
	SamplesPerSec float64      `json:"samples_per_sec,omitempty"`
	Children      []SpanReport `json:"children,omitempty"`
}

// HistogramReport is one histogram's buckets; Counts has one entry per
// upper bound plus a final +Inf bucket.
type HistogramReport struct {
	UpperBounds []float64 `json:"upper_bounds"`
	Counts      []int64   `json:"counts"`
	Count       int64     `json:"count"`
	Sum         float64   `json:"sum"`
}

// Quantile estimates the q-th quantile from the snapshotted buckets
// with the same deterministic interpolation as Histogram.Quantile, so
// quantiles can be re-derived from persisted JSON run reports.
func (h HistogramReport) Quantile(q float64) float64 {
	return quantile(h.UpperBounds, h.Counts, q)
}

// Report snapshots the recorder. Unended spans report their wall time
// so far.
func (r *Recorder) Report(name string) Report {
	if r == nil {
		return Report{Name: name, Counters: map[string]int64{}}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	rep := Report{
		Name:        name,
		StartedAt:   r.start,
		WallSeconds: now.Sub(r.start).Seconds(),
		Counters:    make(map[string]int64, len(r.counters)),
	}
	for _, sp := range r.root.children {
		rep.Spans = append(rep.Spans, spanReport(sp, now))
	}
	for name, c := range r.counters {
		rep.Counters[name] = c.Value()
	}
	if len(r.gauges) > 0 {
		rep.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			rep.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		rep.Histograms = make(map[string]HistogramReport, len(r.hists))
		for name, h := range r.hists {
			rep.Histograms[name] = HistogramReport{
				UpperBounds: h.Bounds(),
				Counts:      h.Counts(),
				Count:       h.Count(),
				Sum:         h.Sum(),
			}
		}
	}
	return rep
}

func spanReport(s *Span, now time.Time) SpanReport {
	d := s.durationLocked(now)
	sr := SpanReport{
		Name:    s.Name,
		Seconds: d.Seconds(),
		Samples: s.Samples(),
	}
	if sr.Samples > 0 && d > 0 {
		sr.SamplesPerSec = float64(sr.Samples) / d.Seconds()
	}
	for _, c := range s.children {
		sr.Children = append(sr.Children, spanReport(c, now))
	}
	return sr
}

// WriteJSON writes the run report as indented JSON.
func (r *Recorder) WriteJSON(w io.Writer, name string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Report(name))
}

// WriteText writes the human-readable form: the span tree with wall
// times and throughput, then counters, gauges and histograms.
func (r *Recorder) WriteText(w io.Writer) {
	rep := r.Report("")
	fmt.Fprintf(w, "run: %.3fs wall\n", rep.WallSeconds)
	if len(rep.Spans) > 0 {
		fmt.Fprintln(w, "spans:")
		for _, sp := range rep.Spans {
			writeSpanText(w, sp, 1)
		}
	}
	if len(rep.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, name := range sortedNames(rep.Counters) {
			fmt.Fprintf(w, "  %-28s %d\n", name, rep.Counters[name])
		}
	}
	if len(rep.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, name := range sortedNames(rep.Gauges) {
			fmt.Fprintf(w, "  %-28s %g\n", name, rep.Gauges[name])
		}
	}
	if len(rep.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:")
		for _, name := range sortedNames(rep.Histograms) {
			h := rep.Histograms[name]
			fmt.Fprintf(w, "  %s: n=%d sum=%g\n", name, h.Count, h.Sum)
			for i, c := range h.Counts {
				if c == 0 {
					continue
				}
				if i < len(h.UpperBounds) {
					fmt.Fprintf(w, "    le %g: %d\n", h.UpperBounds[i], c)
				} else {
					fmt.Fprintf(w, "    le +Inf: %d\n", c)
				}
			}
		}
	}
}

func writeSpanText(w io.Writer, sp SpanReport, depth int) {
	indent := strings.Repeat("  ", depth)
	line := fmt.Sprintf("%s%s %.3fs", indent, sp.Name, sp.Seconds)
	if sp.Samples > 0 {
		line += fmt.Sprintf(" (%d samples", sp.Samples)
		if sp.SamplesPerSec > 0 {
			line += fmt.Sprintf(", %.0f/s", sp.SamplesPerSec)
		}
		line += ")"
	}
	fmt.Fprintln(w, line)
	for _, c := range sp.Children {
		writeSpanText(w, c, depth+1)
	}
}

// WritePrometheus writes counters, gauges and histograms in the
// Prometheus text exposition format, metric names prefixed "sei_".
// Spans are report-only (scrape targets want aggregates, not trees).
func (r *Recorder) WritePrometheus(w io.Writer) {
	rep := r.Report("")
	for _, name := range sortedNames(rep.Counters) {
		fmt.Fprintf(w, "# TYPE sei_%s counter\n", name)
		fmt.Fprintf(w, "sei_%s %d\n", name, rep.Counters[name])
	}
	for _, name := range sortedNames(rep.Gauges) {
		fmt.Fprintf(w, "# TYPE sei_%s gauge\n", name)
		fmt.Fprintf(w, "sei_%s %g\n", name, rep.Gauges[name])
	}
	for _, name := range sortedNames(rep.Histograms) {
		h := rep.Histograms[name]
		fmt.Fprintf(w, "# TYPE sei_%s histogram\n", name)
		cum := int64(0)
		for i, c := range h.Counts {
			cum += c
			if i < len(h.UpperBounds) {
				fmt.Fprintf(w, "sei_%s_bucket{le=\"%g\"} %d\n", name, h.UpperBounds[i], cum)
			} else {
				fmt.Fprintf(w, "sei_%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			}
		}
		fmt.Fprintf(w, "sei_%s_sum %g\n", name, h.Sum)
		fmt.Fprintf(w, "sei_%s_count %d\n", name, h.Count)
	}
}
