package sei

import (
	"fmt"
	"math/rand"

	"sei/internal/arch"
	"sei/internal/homog"
	"sei/internal/obs"
	"sei/internal/power"
	"sei/internal/rram"
	"sei/internal/seicore"
)

// DefaultDeviceModel returns the paper's 4-bit RRAM device with mild
// programming variation.
func DefaultDeviceModel() DeviceModel { return rram.DefaultDeviceModel() }

// IdealDeviceModel returns a noiseless device with the given
// programming precision, for what-if studies.
func IdealDeviceModel(bits int) DeviceModel { return rram.IdealDeviceModel(bits) }

// BuildOptions configures BuildDesign.
type BuildOptions struct {
	// Device is the RRAM model (defaults to DefaultDeviceModel).
	Device DeviceModel
	// MaxCrossbar is the physical array limit (default 512).
	MaxCrossbar int
	// Unipolar selects the Section-4.2 linear-transform realization for
	// devices that cannot take negative inputs.
	Unipolar bool
	// DynamicThreshold enables the Section-4.3 split compensation
	// (requires a training set).
	DynamicThreshold bool
	// Order selects how split layers' rows are arranged across blocks.
	Order OrderStrategy
	Seed  int64
}

// OrderStrategy selects the row ordering for split layers.
type OrderStrategy int

const (
	// OrderHomogenized runs the GA homogenization (the paper's method).
	OrderHomogenized OrderStrategy = iota
	// OrderNatural keeps the training-time row order.
	OrderNatural
	// OrderRandom draws a seeded random permutation — the Table-4
	// "Random Order Splitting" condition.
	OrderRandom
)

// DefaultBuildOptions mirrors the paper's SEI setup.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{
		Device:           rram.DefaultDeviceModel(),
		MaxCrossbar:      rram.MaxCrossbarSize,
		DynamicThreshold: true,
		Order:            OrderHomogenized,
		Seed:             1,
	}
}

// BuildDesign maps a quantized network onto SEI hardware with explicit
// options. train may be nil when DynamicThreshold is false.
func BuildDesign(q *QuantizedNet, train *Dataset, opt BuildOptions) (*SEIDesign, error) {
	return buildDesign(q, train, opt, 0, nil)
}

// buildDesign is BuildDesign on a bounded parallel engine (workers as
// in PipelineConfig) with an optional recorder; RunPipeline builds
// through it too.
func buildDesign(q *QuantizedNet, train *Dataset, opt BuildOptions, workers int, rec *obs.Recorder) (*SEIDesign, error) {
	if opt.MaxCrossbar == 0 {
		opt.MaxCrossbar = rram.MaxCrossbarSize
	}
	if opt.Device.Bits == 0 {
		opt.Device = rram.DefaultDeviceModel()
	}
	cfg := seicore.DefaultSEIBuildConfig()
	cfg.Layer.Model = opt.Device
	cfg.Layer.MaxCrossbar = opt.MaxCrossbar
	if opt.Unipolar {
		cfg.Layer.Mode = seicore.ModeUnipolarDynamic
	}
	cfg.DynamicThreshold = opt.DynamicThreshold
	cfg.Workers = workers
	cfg.Obs = rec
	if opt.DynamicThreshold && train == nil {
		return nil, fmt.Errorf("sei: dynamic threshold calibration needs a training set")
	}
	switch opt.Order {
	case OrderHomogenized:
		split, err := homog.SplitOrders(q, cfg.Layer, opt.Seed)
		if err != nil {
			return nil, err
		}
		cfg.Orders = split.Orders(len(q.Convs))
	case OrderRandom:
		orders, err := homog.RandomSplitOrders(q, cfg.Layer, rand.New(rand.NewSource(opt.Seed)))
		if err != nil {
			return nil, err
		}
		cfg.Orders = orders
	case OrderNatural:
		// nil orders: natural.
	default:
		return nil, fmt.Errorf("sei: unknown order strategy %d", opt.Order)
	}
	return seicore.BuildSEI(q, train, cfg, rand.New(rand.NewSource(opt.Seed)))
}

// DeploymentCost estimates the one-time energy of programming a
// quantized network's weights onto SEI crossbars under the
// program-and-verify write model (the paper's [13]): total µJ, mean
// pulses per cell, and the cell count. Each weight takes the cells
// its bipolar seicore.LayoutFor gives it: pos/neg × ceil(8/model.Bits)
// slices. An invalid model or network costs nothing.
func DeploymentCost(q *QuantizedNet, model DeviceModel) (energyUJ, pulsesPerCell float64, cells int64) {
	geoms, err := arch.GeometryOf(q)
	if err != nil {
		return 0, 0, 0
	}
	lopt := seicore.DefaultLayerOptions()
	lopt.Model = model
	for _, g := range geoms {
		lay, err := seicore.LayoutFor(g.N, g.M, lopt)
		if err != nil {
			return 0, 0, 0
		}
		cells += int64(lay.Cells) * int64(g.N) * int64(g.M)
	}
	cfg := rram.DefaultWriteConfig()
	pulsesPerCell = rram.ExpectedPulses(model, cfg)
	energyUJ = rram.DeploymentEnergyPJ(cells, model, cfg) * 1e-6
	return energyUJ, pulsesPerCell, cells
}

// DesignCosts summarizes the mapper's energy/area result for one
// structure.
type DesignCosts struct {
	Structure Structure
	EnergyUJ  float64
	AreaMM2   float64
	GOPsPerJ  float64
	// InterfaceEnergyFraction is the DAC+ADC share of the energy.
	InterfaceEnergyFraction float64
	// EnergySaving and AreaSaving are relative to the DAC+ADC entry
	// (zero for that entry itself).
	EnergySaving, AreaSaving float64
}

// MapCosts computes a network's per-picture energy, area and
// efficiency under each of the three structures at the given crossbar
// size, in Table-5 order (DAC+ADC, 1-bit-input+ADC, SEI).
func MapCosts(q *QuantizedNet, maxCrossbar int) ([]DesignCosts, error) {
	geoms, err := arch.GeometryOf(q)
	if err != nil {
		return nil, err
	}
	costs, err := arch.Compare(geoms, maxCrossbar)
	if err != nil {
		return nil, err
	}
	out := make([]DesignCosts, len(costs))
	for i, c := range costs {
		out[i] = DesignCosts{
			Structure:               c.Mapping.Structure,
			EnergyUJ:                power.MicroJoules(c.Energy),
			AreaMM2:                 power.SquareMM(c.Area),
			GOPsPerJ:                c.GOPsPerJ,
			InterfaceEnergyFraction: c.Energy.InterfaceFraction(),
			EnergySaving:            c.EnergySaving,
			AreaSaving:              c.AreaSaving,
		}
	}
	return out, nil
}
