package homog

import (
	"fmt"
	"math/rand"

	"sei/internal/quant"
	"sei/internal/seicore"
)

// SplitStage is one conv stage that needs splitting at a crossbar
// size, and its block count.
type SplitStage struct{ Stage, K int }

// SplitStages returns the conv stages (index ≥ 1) of q that need
// splitting at the given crossbar size under mode, with their block
// counts, in ascending stage order — callers draw from shared RNG
// streams and fold floats over the result, so its order is part of
// their output.
func SplitStages(q *quant.QuantizedNet, maxSize int, mode seicore.SignedMode) []SplitStage {
	var out []SplitStage
	for l := 1; l < len(q.Convs); l++ {
		n := q.Convs[l].FanIn()
		if k := seicore.BlocksFor(n, mode.CellsPerWeight(), maxSize); k > 1 {
			out = append(out, SplitStage{l, k})
		}
	}
	return out
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

// SplitOrders runs the GA on every conv stage of q that splits at the
// given crossbar size under mode, seeding stage l at seed+l, so each
// order is homogenized for the block count the design uses. It is the
// one place the design flow homogenizes.
func SplitOrders(q *quant.QuantizedNet, maxSize int, mode seicore.SignedMode, seed int64) (Splits, error) {
	var out Splits
	for _, s := range SplitStages(q, maxSize, mode) {
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
// stage of q that splits at the given crossbar size under mode, in
// ascending stage order — the Table-4 "Random Order Splitting"
// condition.
func RandomSplitOrders(q *quant.QuantizedNet, maxSize int, mode seicore.SignedMode, rng *rand.Rand) [][]int {
	orders := make([][]int, len(q.Convs))
	for _, s := range SplitStages(q, maxSize, mode) {
		orders[s.Stage] = RandomOrder(q.Convs[s.Stage].FanIn(), rng)
	}
	return orders
}
