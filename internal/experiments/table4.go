package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync/atomic"

	"sei/internal/homog"
	"sei/internal/nn"
	"sei/internal/par"
	"sei/internal/quant"
	"sei/internal/seicore"
	"sei/internal/tensor"
)

// Table4Column is the splitting study at one maximum crossbar size.
type Table4Column struct {
	MaxCrossbar int
	// Original and Quantization repeat the Table-3 reference points.
	Original     float64
	Quantization float64
	// RandomMin/RandomMax bound the error over sampled random row
	// orders with static split thresholds (paper: 3.90–45.89% at 512).
	RandomMin, RandomMax float64
	RandomOrdersSampled  int
	// Clustered is the error when rows are sorted by row sum before
	// splitting — the worst-case arrangement the paper's random-order
	// experiment brushes against. Our trained networks have larger
	// decision margins than the paper's Caffe models, so uniformly
	// random orders rarely reach the catastrophic tail; the clustered
	// order exhibits the failure mode deterministically.
	Clustered float64
	// Homogenized is the error with GA-homogenized orders and static
	// thresholds; DynamicThreshold adds the calibrated input-dynamic
	// compensation.
	Homogenized      float64
	DynamicThreshold float64
	// HomogReduction is the Equ.-10 distance reduction of the split
	// conv stage(s) vs natural order (paper: 80–90%).
	HomogReduction float64
	// SplitStages records which conv stages split and into how many
	// blocks, in ascending stage order.
	SplitStages []homog.SplitStage
}

// Table4Result reproduces Table 4 for one network.
type Table4Result struct {
	NetworkID int
	Columns   []Table4Column
}

// sortedOrder returns the matrix's rows sorted by decreasing row sum —
// the clustered arrangement that concentrates weight mass into one
// block.
func sortedOrder(w *tensor.Tensor) []int {
	n, m := w.Dim(0), w.Dim(1)
	sums := make([]float64, n)
	for r := 0; r < n; r++ {
		for _, v := range w.Data()[r*m : (r+1)*m] {
			sums[r] += v
		}
	}
	order := seicore.NaturalOrder(n)
	sort.Slice(order, func(a, b int) bool { return sums[order[a]] > sums[order[b]] })
	return order
}

// seiError builds an SEI design with the given orders and dynamic
// setting and evaluates it on the test set. workers bounds the build's
// calibration and the evaluation; callers fanning out over designs
// pass 1 and parallelize the outer loop instead.
func seiError(c *Context, q *quant.QuantizedNet, maxSize int, orders [][]int, dynamic bool, seed int64, workers int) float64 {
	cfg := seicore.DefaultSEIBuildConfig()
	cfg.Layer.MaxCrossbar = maxSize
	cfg.Orders = orders
	cfg.DynamicThreshold = dynamic
	cfg.CalibImages = c.Cfg.CalibImages
	cfg.Workers = workers
	cfg.Obs = c.Cfg.Obs
	var train = c.Train
	if !dynamic {
		train = nil
	}
	design, err := seicore.BuildSEI(q, train, cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(fmt.Sprintf("experiments: building SEI design: %v", err))
	}
	return nn.ErrorRate(c.Cfg.Obs, design, c.Test, workers)
}

// Table4 runs the splitting study (paper: Network 1 at 512 and 256).
func Table4(c *Context, networkID int, sizes []int) *Table4Result {
	q := c.QuantizedCalibrated(networkID)
	sp := c.Cfg.Obs.StartSpan("evaluate/table4")
	defer sp.End()
	res := &Table4Result{NetworkID: networkID}
	for _, size := range sizes {
		opt := seicore.DefaultLayerOptions()
		opt.MaxCrossbar = size
		stages, err := homog.SplitStages(q, opt)
		if err != nil {
			panic(fmt.Sprintf("experiments: table4 net%d @%d: %v", networkID, size, err))
		}
		col := Table4Column{
			MaxCrossbar:  size,
			Original:     c.FloatError(networkID),
			Quantization: c.QuantCalibratedError(networkID),
			SplitStages:  stages,
		}

		// Random order sampling with static thresholds. The orders are
		// drawn serially from one stream (identical to the serial run);
		// the independent design evaluations then fan out, each on the
		// serial inner path, and min/max fold over the indexed results.
		rng := rand.New(rand.NewSource(c.Cfg.Seed + int64(size)))
		col.RandomMin, col.RandomMax = 1.0, 0.0
		col.RandomOrdersSampled = c.Cfg.RandomOrders
		randOrders := make([][][]int, c.Cfg.RandomOrders)
		for r := range randOrders {
			// SplitStages accepted opt, so the draw cannot fail.
			randOrders[r], _ = homog.RandomSplitOrders(q, opt, rng)
		}
		randErr := make([]float64, c.Cfg.RandomOrders)
		var done atomic.Int64
		par.ForEachChunkRec(c.Cfg.Obs, c.Cfg.Workers, c.Cfg.RandomOrders, 1, func(ch par.Chunk) {
			r := ch.Lo
			randErr[r] = seiError(c, q, size, randOrders[r], false, c.Cfg.Seed+int64(r), 1)
			c.logf("experiments: table4 net%d @%d random order %d/%d: err %.4f\n",
				networkID, size, r+1, c.Cfg.RandomOrders, randErr[r])
			c.Cfg.Obs.Progress(fmt.Sprintf("table4@%d random orders", size),
				int(done.Add(1)), c.Cfg.RandomOrders)
		})
		for _, e := range randErr {
			if e < col.RandomMin {
				col.RandomMin = e
			}
			if e > col.RandomMax {
				col.RandomMax = e
			}
		}

		// Clustered (sorted-by-row-sum) order: the deterministic bad case.
		clustered := make([][]int, len(q.Convs))
		for _, s := range col.SplitStages {
			clustered[s.Stage] = sortedOrder(q.ConvMatrix(s.Stage))
		}
		col.Clustered = seiError(c, q, size, clustered, false, c.Cfg.Seed+500, c.Cfg.Workers)

		split := c.splitOrders(networkID, size)
		col.HomogReduction = split.MeanReduction()
		orders := split.Orders(len(q.Convs))
		col.Homogenized = seiError(c, q, size, orders, false, c.Cfg.Seed+1000, c.Cfg.Workers)
		col.DynamicThreshold = seiError(c, q, size, orders, true, c.Cfg.Seed+1000, c.Cfg.Workers)
		c.logf("experiments: table4 net%d @%d: homog %.4f dynamic %.4f\n",
			networkID, size, col.Homogenized, col.DynamicThreshold)
		res.Columns = append(res.Columns, col)
	}
	return res
}

// Print renders the result like the paper's Table 4.
func (r *Table4Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Table 4: error rate of the proposed methods on Network %d\n", r.NetworkID)
	fmt.Fprintf(w, "  %-26s", "Max Crossbar Size")
	for _, col := range r.Columns {
		fmt.Fprintf(w, " %14d", col.MaxCrossbar)
	}
	fmt.Fprintln(w)
	line := func(name string, get func(Table4Column) string) {
		fmt.Fprintf(w, "  %-26s", name)
		for _, col := range r.Columns {
			fmt.Fprintf(w, " %14s", get(col))
		}
		fmt.Fprintln(w)
	}
	pct := func(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
	line("Original CNN", func(c Table4Column) string { return pct(c.Original) })
	line("Quantization", func(c Table4Column) string { return pct(c.Quantization) })
	line("Random Order Splitting", func(c Table4Column) string {
		return fmt.Sprintf("%.2f-%.2f%%", 100*c.RandomMin, 100*c.RandomMax)
	})
	line("Clustered Order Splitting", func(c Table4Column) string { return pct(c.Clustered) })
	line("Matrix Homogenization", func(c Table4Column) string { return pct(c.Homogenized) })
	line("Dynamic Threshold", func(c Table4Column) string { return pct(c.DynamicThreshold) })
	line("Homog distance reduction", func(c Table4Column) string {
		return fmt.Sprintf("%.0f%%", 100*c.HomogReduction)
	})
}
