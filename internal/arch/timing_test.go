package arch

import (
	"testing"

	"sei/internal/seicore"
)

func TestTimingValidation(t *testing.T) {
	bad := []TimingConfig{
		{CrossbarReadNS: 0, ADCConversionNS: 1, SAEvalNS: 1, DigitalCycleNS: 1, Replicas: 1},
		{CrossbarReadNS: 10, ADCConversionNS: 1, SAEvalNS: 1, DigitalCycleNS: 1, Replicas: 0},
	}
	geoms := netGeometry(t, 2)
	m, _ := mapNetwork(geoms, seicore.StructSEI, 512)
	for i, cfg := range bad {
		if _, err := m.Timing(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestTimingLatencyComposition(t *testing.T) {
	geoms := netGeometry(t, 1)
	m, _ := mapNetwork(geoms, seicore.StructDACADC, 512)
	tm, err := m.Timing(DefaultTimingConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range tm.Layers {
		if l.Waves != l.Geom.Uses {
			t.Fatalf("layer %s waves %d, want uses %d (1 replica)", l.Geom.Name, l.Waves, l.Geom.Uses)
		}
		sum += l.LatencyNS
	}
	if sum != tm.LatencyNS {
		t.Fatalf("latency %v != layer sum %v", tm.LatencyNS, sum)
	}
	// Conv 1 runs 576 waves — it must be the bottleneck.
	if tm.Bottleneck != 0 {
		t.Fatalf("bottleneck layer %d, want 0 (conv1)", tm.Bottleneck)
	}
	if tm.ThroughputPicsPerSec <= 0 {
		t.Fatal("no throughput computed")
	}
}

func TestTimingSEIFasterPerEval(t *testing.T) {
	// SA readout beats ADC conversion, so an SEI conv evaluation is
	// never slower than the merged design's.
	geoms := netGeometry(t, 1)
	base, _ := mapNetwork(geoms, seicore.StructDACADC, 512)
	sei, _ := mapNetwork(geoms, seicore.StructSEI, 512)
	cfg := DefaultTimingConfig()
	tb, _ := base.Timing(cfg)
	ts, _ := sei.Timing(cfg)
	for i := range ts.Layers {
		if ts.Layers[i].Geom.IsFC {
			continue
		}
		if ts.Layers[i].EvalNS > tb.Layers[i].EvalNS {
			t.Fatalf("layer %d: SEI eval %v ns > merged %v ns", i, ts.Layers[i].EvalNS, tb.Layers[i].EvalNS)
		}
	}
}

func TestTimingReplicasTradeTimeForArea(t *testing.T) {
	geoms := netGeometry(t, 1)
	m, _ := mapNetwork(geoms, seicore.StructSEI, 512)
	cfg := DefaultTimingConfig()
	t1, _ := m.Timing(cfg)
	cfg.Replicas = 4
	t4, _ := m.Timing(cfg)
	if t4.LatencyNS >= t1.LatencyNS {
		t.Fatalf("4 replicas latency %v not below 1 replica %v", t4.LatencyNS, t1.LatencyNS)
	}
	// Conv waves shrink ~4×; FC stays at 1 wave.
	if t4.Layers[0].Waves != (t1.Layers[0].Waves+3)/4 {
		t.Fatalf("conv1 waves %d, want ceil(%d/4)", t4.Layers[0].Waves, t1.Layers[0].Waves)
	}
	if t4.Layers[2].Waves != 1 {
		t.Fatal("FC should stay at one wave")
	}

	a1, err := m.ReplicaArea(1)
	if err != nil {
		t.Fatal(err)
	}
	a4, err := m.ReplicaArea(4)
	if err != nil {
		t.Fatal(err)
	}
	if a4.Total() <= a1.Total() {
		t.Fatalf("replica area %v not above base %v", a4.Total(), a1.Total())
	}
	// The single-replica path must agree with the plain Area sum.
	_, plain := m.Area()
	if a1.Total() != plain.Total() {
		t.Fatalf("ReplicaArea(1) %v != Area %v", a1.Total(), plain.Total())
	}
	if _, err := m.ReplicaArea(0); err == nil {
		t.Fatal("accepted zero replicas")
	}
}

func TestTimingRowBlocksSerializeMerge(t *testing.T) {
	// More row blocks → longer digital merge → slower evaluation, once
	// the merge exceeds the readout.
	geoms := netGeometry(t, 1)
	big, _ := mapNetwork(geoms, seicore.StructDACADC, 512)
	cfg512 := DefaultTimingConfig()
	tBig, _ := big.Timing(cfg512)

	m128, _ := mapNetwork(geoms, seicore.StructDACADC, 128)
	tSmall, _ := m128.Timing(cfg512)
	// FC at 128 rows: 8 row blocks → merge 8 ns > 1 ns readout.
	if tSmall.Layers[2].EvalNS <= tBig.Layers[2].EvalNS {
		t.Fatalf("FC eval at 128 (%v ns) not slower than at 512 (%v ns)",
			tSmall.Layers[2].EvalNS, tBig.Layers[2].EvalNS)
	}
}
