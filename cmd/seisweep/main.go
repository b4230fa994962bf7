// Command seisweep explores the SEI design space and emits CSV:
// structure × crossbar size × device precision × programming
// variation, with energy, area, efficiency, and (optionally)
// simulated classification error per point.
//
// Usage:
//
//	seisweep [flags] > sweep.csv
//
// Examples:
//
//	seisweep -net 2 -sizes 512,256,128 -bits 3,4,5
//	seisweep -net 1 -accuracy -train 2500 -test 300
//
// Observability mirrors seisim: -metrics writes a JSON run report
// whose "skipped" section lists the grid points the mapper rejected,
// -trace dumps the report as text, -progress prints live progress,
// -prom writes Prometheus text format, -pprof serves net/http/pprof.
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync/atomic"

	"sei"
	"sei/internal/arch"
	"sei/internal/cliutil"
	"sei/internal/experiments"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/par"
	"sei/internal/power"
	"sei/internal/rram"
	"sei/internal/seicore"
)

// options is the parsed command line.
type options struct {
	netID    int
	train    int
	test     int
	epochs   int
	seed     int64
	sizes    []int
	bits     []int
	sigmas   []float64
	accuracy bool
	workers  int
	obs      cliutil.ObsFlags
}

// parseFlags parses args (without the program name) into options. It
// returns cliutil.ErrUsage for failures the flag package has already
// reported on stderr, flag.ErrHelp for -h, and a descriptive error —
// including the unified -workers message — otherwise.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	opt := &options{}
	fs := flag.NewFlagSet("seisweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		netID    = fs.Int("net", 2, "Table-2 network id (1-3)")
		train    = fs.Int("train", 2000, "training samples")
		test     = fs.Int("test", 300, "test samples (accuracy mode)")
		epochs   = fs.Int("epochs", 4, "training epochs")
		seed     = fs.Int64("seed", 1, "random seed")
		sizes    = fs.String("sizes", "512,256,128", "crossbar sizes to sweep")
		bits     = fs.String("bits", "4", "device bits to sweep")
		sigmas   = fs.String("sigmas", "0.02", "programming sigmas to sweep")
		accuracy = fs.Bool("accuracy", false, "also simulate classification error (slower)")
		workers  = fs.Int("workers", 0, cliutil.WorkersUsage)
	)
	opt.obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, cliutil.ErrUsage
	}
	if err := cliutil.CheckWorkers(*workers); err != nil {
		return nil, err
	}
	var err error
	if opt.sizes, err = parseInts(*sizes); err != nil {
		return nil, err
	}
	if opt.bits, err = parseInts(*bits); err != nil {
		return nil, err
	}
	if opt.sigmas, err = parseFloats(*sigmas); err != nil {
		return nil, err
	}
	opt.netID, opt.train, opt.test = *netID, *train, *test
	opt.epochs, opt.seed = *epochs, *seed
	opt.accuracy, opt.workers = *accuracy, *workers
	return opt, nil
}

func main() {
	opt, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		if !errors.Is(err, cliutil.ErrUsage) {
			fmt.Fprintf(os.Stderr, "seisweep: %v\n", err)
		}
		os.Exit(2)
	}
	rec := opt.obs.Recorder()
	if err := sweep(opt, rec, os.Stdout, os.Stderr); err != nil {
		fail(err)
	}
	if err := opt.obs.Finish(rec, "sweep", os.Stderr); err != nil {
		fail(err)
	}
}

func sweep(opt *options, rec *obs.Recorder, stdout, stderr io.Writer) error {
	trainSet, testSet := sei.SyntheticSplit(opt.train, opt.test, opt.seed)
	fmt.Fprintf(stderr, "seisweep: training network %d on %d samples\n", opt.netID, trainSet.Len())
	sp := rec.StartSpan("train")
	net := sei.TrainTableNetworkObs(rec, opt.netID, trainSet, opt.epochs, opt.seed)
	sp.AddSamples(int64(trainSet.Len() * opt.epochs))
	sp.End()
	sp = rec.StartSpan("quantize")
	q, err := sei.QuantizeObs(rec, net, trainSet, opt.workers)
	sp.End()
	if err != nil {
		return err
	}
	geoms, err := arch.GeometryOf(q)
	if err != nil {
		return err
	}
	lib := power.DefaultLibrary()

	w := csv.NewWriter(stdout)
	header := []string{"network", "structure", "crossbar", "device_bits", "sigma",
		"energy_uJ", "area_mm2", "gops_per_j", "latency_us", "throughput_kpics"}
	if opt.accuracy {
		header = append(header, "error_pct")
	}
	if err := w.Write(header); err != nil {
		return err
	}

	// Enumerate the sweep grid up front so the expensive accuracy
	// simulations can fan out over independent points while the CSV
	// rows still stream in grid order.
	type sweepPoint struct {
		size, bits int
		sigma      float64
		s          seicore.Structure
	}
	var pts []sweepPoint
	for _, size := range opt.sizes {
		for _, b := range opt.bits {
			for _, sigma := range opt.sigmas {
				for _, s := range []seicore.Structure{seicore.StructDACADC, seicore.StructOneBitADC, seicore.StructSEI} {
					pts = append(pts, sweepPoint{size, b, sigma, s})
				}
			}
		}
	}

	// Serial pass: the cheap mapper/timing columns. Map failures skip
	// the row — logged to stderr in grid order and recorded in the run
	// report's skipped section.
	rows := make([][]string, len(pts))
	for i, pt := range pts {
		cfg := arch.DefaultConfig(pt.s)
		cfg.MaxCrossbar = pt.size
		m, err := arch.Map(geoms, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "seisweep: skipping %v@%d: %v\n", pt.s, pt.size, err)
			rec.Skip(fmt.Sprintf("%v@%d", pt.s, pt.size), err.Error())
			continue
		}
		_, e := m.Energy(lib)
		_, a := m.Area(lib)
		tm, err := m.Timing(arch.DefaultTimingConfig())
		if err != nil {
			return err
		}
		rows[i] = []string{
			strconv.Itoa(opt.netID), pt.s.String(), strconv.Itoa(pt.size),
			strconv.Itoa(pt.bits), fmt.Sprintf("%g", pt.sigma),
			fmt.Sprintf("%.4f", power.MicroJoules(e)),
			fmt.Sprintf("%.5f", power.SquareMM(a)),
			fmt.Sprintf("%.1f", m.Efficiency(lib)),
			fmt.Sprintf("%.2f", tm.LatencyNS/1000),
			fmt.Sprintf("%.1f", tm.ThroughputPicsPerSec/1000),
		}
	}

	// Parallel pass: the functional hardware simulations. Each point is
	// an independent design with its own seeded RNG, so fanning out and
	// filling indexed slots reproduces the serial column exactly.
	if opt.accuracy {
		sp := rec.StartSpan("evaluate")
		live := 0
		for _, row := range rows {
			if row != nil {
				live++
			}
		}
		inner := 1
		if live > 0 {
			if inner = par.Resolve(opt.workers) / live; inner < 1 {
				inner = 1
			}
		}
		simErrs := make([]error, len(pts))
		var done atomic.Int64
		par.ForEachChunkRec(rec, opt.workers, len(pts), 1, func(ch par.Chunk) {
			i := ch.Lo
			if rows[i] == nil {
				return
			}
			pt := pts[i]
			errRate, err := simulateError(rec, net, q, trainSet, testSet, pt.s, pt.size, pt.bits, pt.sigma, opt.seed, inner)
			if err != nil {
				simErrs[i] = err
				return
			}
			rows[i] = append(rows[i], fmt.Sprintf("%.2f", 100*errRate))
			rec.Progress("sweep points", int(done.Add(1)), live)
		})
		sp.AddSamples(int64(live * testSet.Len()))
		sp.End()
		for _, err := range simErrs {
			if err != nil {
				return err
			}
		}
	}

	for _, row := range rows {
		if row != nil {
			if err := w.Write(row); err != nil {
				return err
			}
		}
	}
	w.Flush()
	return w.Error()
}

// simulateError runs the functional hardware simulation for one design
// point. workers bounds the evaluation's inner parallelism; the sweep
// fans out over points and hands each a share of the budget.
func simulateError(rec *obs.Recorder, net *sei.Network, q *sei.QuantizedNet, trainSet, testSet *sei.Dataset,
	s seicore.Structure, size, bits int, sigma float64, seed int64, workers int) (float64, error) {
	model := rram.IdealDeviceModel(bits)
	model.ProgramSigma = sigma
	rng := rand.New(rand.NewSource(seed))
	switch s {
	case seicore.StructDACADC:
		d, err := seicore.BuildDACADC(net, []int{1, 28, 28}, model, rng)
		if err != nil {
			return 0, err
		}
		d.Instrument(rec)
		return nn.ErrorRate(rec, d, testSet, workers), nil
	case seicore.StructOneBitADC:
		d, err := seicore.BuildOneBitADC(q, model, rng)
		if err != nil {
			return 0, err
		}
		d.Instrument(rec)
		return nn.ErrorRate(rec, d, testSet, workers), nil
	case seicore.StructSEI:
		cfg := seicore.DefaultSEIBuildConfig()
		cfg.Layer.Model = model
		cfg.Layer.MaxCrossbar = size
		cfg.Orders = experiments.HomogenizedOrdersFor(q, size, seed)
		cfg.Workers = workers
		cfg.Obs = rec
		d, err := seicore.BuildSEI(q, trainSet, cfg, rng)
		if err != nil {
			return 0, err
		}
		return nn.ErrorRate(rec, d, testSet, workers), nil
	}
	return 0, fmt.Errorf("unknown structure %v", s)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad int %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "seisweep: %v\n", err)
	os.Exit(1)
}
