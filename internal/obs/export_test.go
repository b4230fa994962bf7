package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the exporter golden files")

// goldenRecorder builds one fixed instrumentation state under the test
// clock, so every exporter's output is byte-stable.
func goldenRecorder() *Recorder {
	r := New()
	withTestClock(r)
	sp := r.StartSpan("train") // t+1
	sp.AddSamples(300)
	sp.End()                       // t+2
	sp = r.StartSpan("evaluate")   // t+3
	inner := r.StartSpan("table5") // t+4
	inner.AddSamples(600)
	inner.End() // t+5
	sp.End()    // t+6
	r.Counter("eval_images").Add(600)
	r.Counter("hw_mvm_ops").Add(1234)
	r.Gauge("workers").Set(8)
	h := r.Histogram("batch_size", []float64{0, 1, 2, 4})
	h.Observe(0)
	h.Observe(2)
	h.Observe(2)
	h.Observe(7)
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteJSON(&buf, "golden"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.json", buf.Bytes())
}

func TestWriteTextGolden(t *testing.T) {
	var buf bytes.Buffer
	goldenRecorder().WriteText(&buf)
	checkGolden(t, "report.txt", buf.Bytes())
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	goldenRecorder().WritePrometheus(&buf)
	checkGolden(t, "metrics.prom", buf.Bytes())
}

// The report must be identical however the same logical events were
// interleaved — the exporter-level face of the determinism contract.
func TestReportIgnoresEventOrder(t *testing.T) {
	a := goldenRecorder().Report("x")
	b := goldenRecorder().Report("x")
	var ab, bb bytes.Buffer
	if err := goldenRecorder().WriteJSON(&ab, "x"); err != nil {
		t.Fatal(err)
	}
	if err := goldenRecorder().WriteJSON(&bb, "x"); err != nil {
		t.Fatal(err)
	}
	if ab.String() != bb.String() {
		t.Error("two identical recorders serialized differently")
	}
	if a.Counters["hw_mvm_ops"] != b.Counters["hw_mvm_ops"] {
		t.Error("counter snapshots differ")
	}
}
