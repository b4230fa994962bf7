package arch

import (
	"fmt"

	"sei/internal/power"
	"sei/internal/seicore"
)

// TimingConfig holds the circuit-level timing constants for the
// latency/throughput model. The paper trades buffer amounts against
// time ("we can use buffer amounts to trade-off the power with time",
// Section 5.3); Replicas expresses that trade-off: a conv layer with R
// crossbar replicas evaluates R feature-map positions per cycle at R×
// the array area.
type TimingConfig struct {
	// CrossbarReadNS is one analog evaluation (settle + sense), ~10 ns
	// for a 512×512 array at low read voltage.
	CrossbarReadNS float64
	// ADCConversionNS is one 8-bit conversion of a per-column ADC.
	ADCConversionNS float64
	// SAEvalNS is one sense-amplifier decision.
	SAEvalNS float64
	// DigitalCycleNS is one digital merge/count cycle (pipelined with
	// the array, so it binds only when longer than the read).
	DigitalCycleNS float64
	// Replicas is how many copies of each conv layer's crossbars are
	// built; Uses positions are processed in ceil(Uses/Replicas)
	// waves.
	Replicas int
}

// DefaultTimingConfig uses the literature numbers behind the power
// library.
func DefaultTimingConfig() TimingConfig {
	return TimingConfig{
		CrossbarReadNS:  10,
		ADCConversionNS: 1,
		SAEvalNS:        0.5,
		DigitalCycleNS:  1,
		Replicas:        1,
	}
}

// Validate rejects non-physical timing configs.
func (c TimingConfig) Validate() error {
	if c.CrossbarReadNS <= 0 || c.ADCConversionNS <= 0 || c.SAEvalNS <= 0 || c.DigitalCycleNS <= 0 {
		return fmt.Errorf("arch: timing constants must be positive: %+v", c)
	}
	if c.Replicas < 1 {
		return fmt.Errorf("arch: replicas %d < 1", c.Replicas)
	}
	return nil
}

// LayerTiming is one layer's latency contribution.
type LayerTiming struct {
	Geom LayerGeom
	// EvalNS is the time of one evaluation wave (analog read plus the
	// slower of readout and digital merge).
	EvalNS float64
	// Waves is how many evaluation waves the layer needs per picture.
	Waves int
	// LatencyNS is Waves·EvalNS.
	LatencyNS float64
}

// Timing is the mapped network's latency/throughput summary.
type Timing struct {
	Layers []LayerTiming
	// LatencyNS is the end-to-end single-picture latency (layers run
	// sequentially for one picture).
	LatencyNS float64
	// ThroughputPicsPerSec assumes layer-level pipelining across
	// pictures: the slowest layer binds.
	ThroughputPicsPerSec float64
	// Bottleneck is the index of the slowest layer.
	Bottleneck int
}

// Timing evaluates the mapped network under the timing constants.
func (m *Mapping) Timing(cfg TimingConfig) (Timing, error) {
	if err := cfg.Validate(); err != nil {
		return Timing{}, err
	}
	var t Timing
	worst := 0.0
	for i, l := range m.Layers {
		lt := LayerTiming{Geom: l.Geom}
		// Readout time per evaluation: merged structures convert every
		// column with its own ADC in parallel (one conversion), but the
		// four sign/precision crossbars of a row-block read
		// simultaneously, so only the row-block accumulation serializes
		// digitally. SEI conv stages use SAs.
		readout := cfg.ADCConversionNS
		mergeCycles := float64(l.RowBlocks) // multi-bit adder chain
		if m.Structure == seicore.StructSEI && !l.Geom.IsFC {
			readout = cfg.SAEvalNS
			mergeCycles = 1 // K-input popcount tree, single cycle
		}
		merge := cfg.DigitalCycleNS * mergeCycles
		post := readout
		if merge > post {
			post = merge
		}
		lt.EvalNS = cfg.CrossbarReadNS + post

		replicas := cfg.Replicas
		if l.Geom.IsFC {
			replicas = 1 // the FC runs once; replicas buy nothing
		}
		lt.Waves = (l.Geom.Uses + replicas - 1) / replicas
		lt.LatencyNS = float64(lt.Waves) * lt.EvalNS
		t.Layers = append(t.Layers, lt)
		t.LatencyNS += lt.LatencyNS
		if lt.LatencyNS > worst {
			worst = lt.LatencyNS
			t.Bottleneck = i
		}
	}
	if worst > 0 {
		t.ThroughputPicsPerSec = 1e9 / worst
	}
	return t, nil
}

// ReplicaArea returns the total area breakdown when every conv layer's
// crossbars (and their interfaces) are replicated — the other side of
// the buffer/time trade-off. The FC layer is never replicated. Areas
// are priced with power.DefaultLibrary().
func (m *Mapping) ReplicaArea(replicas int) (power.Breakdown, error) {
	if replicas < 1 {
		return power.Breakdown{}, fmt.Errorf("arch: replicas %d < 1", replicas)
	}
	lib := power.DefaultLibrary()
	var total power.Breakdown
	for _, l := range m.Layers {
		inv := l.Inventory
		if !l.Geom.IsFC && replicas > 1 {
			inv = power.Inventory{
				DACs:          inv.DACs * int64(replicas),
				ADCs:          inv.ADCs * int64(replicas),
				SAs:           inv.SAs * int64(replicas),
				Cells:         inv.Cells * int64(replicas),
				DriverRows:    inv.DriverRows * int64(replicas),
				Crossbars:     inv.Crossbars * int64(replicas),
				DigitalBlocks: inv.DigitalBlocks * int64(replicas),
				BufferBytes:   inv.BufferBytes, // the feature map is shared
			}
		}
		total.Add(lib.Area(inv))
	}
	return total, nil
}
