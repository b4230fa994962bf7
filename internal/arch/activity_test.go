package arch

import (
	"bytes"
	"strings"
	"testing"

	"sei/internal/seicore"
)

func TestApplyActivityScalesDataDependentCounts(t *testing.T) {
	geoms := netGeometry(t, 1)
	m, _ := mapNetwork(geoms, seicore.StructSEI, 512)
	cellsBefore := m.TotalCounts().CellReads
	adcBefore := m.TotalCounts().ADCConversions
	drivesL0 := m.Layers[0].Counts.RowDrives
	if err := m.ApplyActivity([]float64{1, 0.1, 0.1}); err != nil {
		t.Fatal(err)
	}
	after := m.TotalCounts()
	if after.CellReads >= cellsBefore {
		t.Fatalf("cell reads did not shrink: %d vs %d", after.CellReads, cellsBefore)
	}
	if after.ADCConversions != adcBefore {
		t.Fatal("activity must not change ADC conversions")
	}
	// Analog input layer's drives unchanged; deeper layers scaled.
	if m.Layers[0].Counts.RowDrives != drivesL0 {
		t.Fatal("analog layer drives changed")
	}
	if m.Layers[1].Counts.RowDrives*9 > m.Layers[1].Geom.Ops() {
		// loose sanity: drives scaled down by 10×
	}
	_, e := m.Energy()
	fresh, _ := mapNetwork(geoms, seicore.StructSEI, 512)
	_, e0 := fresh.Energy()
	if e.RRAM >= e0.RRAM {
		t.Fatalf("RRAM energy did not shrink: %v vs %v", e.RRAM, e0.RRAM)
	}
	if e.ADC != e0.ADC || e.DAC != e0.DAC {
		t.Fatal("interface energy changed under activity scaling")
	}
}

func TestApplyActivityValidation(t *testing.T) {
	geoms := netGeometry(t, 2)
	m, _ := mapNetwork(geoms, seicore.StructSEI, 512)
	if err := m.ApplyActivity([]float64{1}); err == nil {
		t.Fatal("accepted wrong-length activity")
	}
	if err := m.ApplyActivity([]float64{1, 0, 1}); err == nil {
		t.Fatal("accepted zero activity")
	}
	if err := m.ApplyActivity([]float64{1, 2, 1}); err == nil {
		t.Fatal("accepted activity > 1")
	}
}

func TestDescribeOutput(t *testing.T) {
	geoms := netGeometry(t, 1)
	m, _ := mapNetwork(geoms, seicore.StructSEI, 512)
	var buf bytes.Buffer
	m.Describe(&buf)
	out := buf.String()
	for _, want := range []string{"Conv 1", "Conv 2", "FC", "totals:", "energy", "300x64"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Describe output missing %q:\n%s", want, out)
		}
	}
}
