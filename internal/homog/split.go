package homog

import (
	"fmt"
	"math/rand"

	"sei/internal/quant"
	"sei/internal/seicore"
)

// SplitStage is one conv stage that needs splitting under a layer
// mapping, and its block count.
type SplitStage struct{ Stage, K int }

// SplitStages returns the conv stages (index ≥ 1) of q that split into
// more than one block under opt, the seicore.LayerOptions the design
// is built with, with their block counts. The counts come from
// seicore.LayoutFor, so they follow the device's bits per cell, the
// signed mode and the crossbar size exactly as the built design does.
// Stages are in ascending order: callers draw from shared RNG streams
// and fold floats over the result, so its order is part of their
// output.
func SplitStages(q *quant.QuantizedNet, opt seicore.LayerOptions) ([]SplitStage, error) {
	var out []SplitStage
	for l := 1; l < len(q.Convs); l++ {
		lay, err := seicore.LayoutFor(q.Convs[l].FanIn(), q.Convs[l].Filters(), opt)
		if err != nil {
			return nil, fmt.Errorf("homog: stage %d: %w", l, err)
		}
		if lay.K > 1 {
			out = append(out, SplitStage{l, lay.K})
		}
	}
	return out, nil
}

// StageOrder is the homogenized row order of one split conv stage,
// with its Equ.-10 distance and the natural order's.
type StageOrder struct {
	SplitStage
	Result
}

// Splits holds the homogenized orders of a network's split conv
// stages, in ascending stage order.
type Splits []StageOrder

// SplitOrders runs the GA on every conv stage of q that splits under
// opt (see SplitStages), seeding stage l at seed+l, so each order is
// homogenized for the block count the design's device, signed mode and
// crossbar size give it. It is the one place the design flow
// homogenizes.
func SplitOrders(q *quant.QuantizedNet, opt seicore.LayerOptions, seed int64) (Splits, error) {
	stages, err := SplitStages(q, opt)
	if err != nil {
		return nil, err
	}
	var out Splits
	for _, s := range stages {
		cfg := DefaultGAConfig()
		cfg.Seed = seed + int64(s.Stage)
		res, err := Homogenize(q.ConvMatrix(s.Stage), s.K, cfg)
		if err != nil {
			return nil, fmt.Errorf("homog: stage %d: %w", s.Stage, err)
		}
		out = append(out, StageOrder{s, res})
	}
	return out, nil
}

// Orders lays the split orders out as seicore.SEIBuildConfig.Orders
// for a network of n conv stages: nil for the stages that do not
// split.
func (s Splits) Orders(n int) [][]int {
	orders := make([][]int, n)
	for _, so := range s {
		orders[so.Stage] = so.Order
	}
	return orders
}

// MeanReduction returns the mean distance reduction vs natural order
// over the split stages (0 when none splits).
func (s Splits) MeanReduction() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, so := range s {
		sum += so.Reduction()
	}
	return sum / float64(len(s))
}

// RandomSplitOrders draws a random permutation from rng for every conv
// stage of q that splits under opt (see SplitStages), in ascending
// stage order — the Table-4 "Random Order Splitting" condition.
func RandomSplitOrders(q *quant.QuantizedNet, opt seicore.LayerOptions, rng *rand.Rand) ([][]int, error) {
	stages, err := SplitStages(q, opt)
	if err != nil {
		return nil, err
	}
	orders := make([][]int, len(q.Convs))
	for _, s := range stages {
		orders[s.Stage] = RandomOrder(q.Convs[s.Stage].FanIn(), rng)
	}
	return orders, nil
}
