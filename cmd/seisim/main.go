// Command seisim regenerates the tables and figures of "Switched by
// Input: Power Efficient Structure for RRAM-based Convolutional Neural
// Network" (DAC 2016).
//
// Usage:
//
//	seisim [flags] <experiment>
//
// Experiments:
//
//	fig1        power/area breakdown of the DAC+ADC baseline (Fig. 1)
//	table1      intermediate-data distribution (Table 1)
//	table2      network setup and complexity (Table 2)
//	table3      quantization error rates (Table 3)
//	table4      matrix-splitting study (Table 4)
//	table5      energy/area of the three structures (Table 5)
//	homog       homogenization ordering study (Section 4.3)
//	efficiency  GOPs/J vs FPGA/GPU (Section 5.3)
//	timing      latency/throughput and the replica trade-off (Section 5.3)
//	map         per-layer floorplan with measured-activity energy
//	vgg         VGG-19 motivation numbers (Section 2.3)
//	pipeline    one end-to-end train→quantize→SEI run
//	all         every table and figure, in paper order
//
// Observability: -metrics writes a JSON run report (phase spans and
// hardware counters), -trace dumps the same report as text to stderr,
// -progress prints live progress lines, -prom writes Prometheus text
// format, -pprof serves net/http/pprof. Calibration
// cost shows up alongside the inference counters: per-layer
// `search/convN` spans carry the threshold-search wall time, the
// `quant_search_skip_rate` gauge and the `quant_remainder_skipped` /
// `quant_remainder_evals` / `quant_fc_delta_updates` counters expose
// how much remainder work the lane engine avoided. Counter
// values are identical for any -workers setting.
//
// The synthetic MNIST substitute is used unless $MNIST_DIR points at
// the real IDX files. Results are deterministic for a fixed -seed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sei"
	"sei/internal/arch"
	"sei/internal/cliutil"
	"sei/internal/experiments"
	"sei/internal/rram"
)

// options is the parsed command line.
type options struct {
	what  string
	cfg   experiments.Config
	netID int
	sizes []int
	quiet bool
	obs   cliutil.ObsFlags
}

// parseFlags parses args (without the program name) into options. It
// returns cliutil.ErrUsage for failures the flag package has already
// reported on stderr, flag.ErrHelp for -h, and a descriptive error —
// including the unified -workers message — otherwise.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	opt := &options{cfg: experiments.DefaultConfig()}
	fs := flag.NewFlagSet("seisim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &opt.cfg
	fs.IntVar(&c.TrainSamples, "train", c.TrainSamples, "training samples")
	fs.IntVar(&c.TestSamples, "test", c.TestSamples, "test samples")
	fs.IntVar(&c.Epochs, "epochs", c.Epochs, "training epochs")
	fs.Int64Var(&c.Seed, "seed", c.Seed, "global random seed")
	fs.IntVar(&c.SearchSamples, "search", c.SearchSamples, "Algorithm-1 threshold-search samples")
	fs.IntVar(&c.RandomOrders, "orders", c.RandomOrders, "random orders sampled in table4 (paper: 500)")
	fs.IntVar(&c.CalibImages, "calib", c.CalibImages, "dynamic-threshold calibration images")
	var (
		cache   = fs.String("cache", "", "model cache directory (empty = no cache)")
		quick   = fs.Bool("quick", false, "use the small smoke-test sizing")
		net     = fs.Int("net", 1, "network id for fig1/table4/homog/timing/map/pipeline (1-3)")
		sizes   = fs.String("sizes", "512,256", "comma-separated crossbar sizes for table4")
		quiet   = fs.Bool("quiet", false, "suppress progress logging")
		workers = fs.Int("workers", 0, cliutil.WorkersUsage)
	)
	opt.obs.Register(fs)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: seisim [flags] <fig1|table1..5|homog|efficiency|timing|map|vgg|pipeline|all>\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, cliutil.ErrUsage
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return nil, cliutil.ErrUsage
	}
	if err := cliutil.CheckWorkers(*workers); err != nil {
		return nil, err
	}
	parsedSizes, err := parseSizes(*sizes)
	if err != nil {
		return nil, err
	}

	if *quick {
		opt.cfg = experiments.QuickConfig()
	}
	opt.cfg.CacheDir = *cache
	opt.cfg.Workers = *workers
	opt.what = fs.Arg(0)
	opt.netID = *net
	opt.sizes = parsedSizes
	opt.quiet = *quiet
	return opt, nil
}

func main() {
	opt, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		if !errors.Is(err, cliutil.ErrUsage) {
			fmt.Fprintf(os.Stderr, "seisim: %v\n", err)
		}
		os.Exit(2)
	}
	if !opt.quiet {
		opt.cfg.Log = os.Stderr
	}
	rec := opt.obs.Recorder()
	opt.cfg.Obs = rec

	if err := run(opt.what, opt.cfg, opt.netID, opt.sizes); err != nil {
		fmt.Fprintf(os.Stderr, "seisim: %v\n", err)
		os.Exit(1)
	}
	if err := opt.obs.Finish(rec, opt.what, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "seisim: %v\n", err)
		os.Exit(1)
	}
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func run(what string, cfg experiments.Config, netID int, sizes []int) error {
	w := os.Stdout
	if what == "all" {
		return sei.RunAllExperiments(cfg, w)
	}
	if what == "pipeline" {
		pcfg := sei.DefaultPipelineConfig()
		pcfg.NetworkID = netID
		pcfg.TrainSamples = cfg.TrainSamples
		pcfg.TestSamples = cfg.TestSamples
		pcfg.Epochs = cfg.Epochs
		pcfg.Seed = cfg.Seed
		pcfg.Log = cfg.Log
		pcfg.Workers = cfg.Workers
		pcfg.Obs = cfg.Obs
		res, err := sei.RunPipeline(pcfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "pipeline (Network %d):\n", netID)
		fmt.Fprintf(w, "  error: float %.2f%%  quantized %.2f%%  SEI hardware %.2f%%\n",
			100*res.FloatError, 100*res.QuantError, 100*res.SEIError)
		fmt.Fprintf(w, "  energy: %.3f uJ/pic vs %.3f uJ/pic baseline (%.1f%% saving)\n",
			res.EnergyUJ, res.BaseEnergyUJ, 100*res.EnergySaving)
		fmt.Fprintf(w, "  area:   %.4f mm2 vs %.4f mm2 baseline (%.1f%% saving)\n",
			res.AreaMM2, res.BaseAreaMM2, 100*res.AreaSaving)
		fmt.Fprintf(w, "  efficiency: %.0f GOPs/J\n", res.GOPsPerJ)
		return nil
	}

	// The context synthesizes the whole data set, so it is made when a
	// section first needs it: an unknown name fails before that.
	var ctx *experiments.Context
	c := func() *experiments.Context {
		if ctx == nil {
			ctx = experiments.NewContext(cfg)
		}
		return ctx
	}
	switch what {
	case "fig1":
		res, err := experiments.Figure1(c(), netID)
		if err != nil {
			return err
		}
		res.Print(w)
	case "table1":
		experiments.Table1(c(), 1, 2, 3).Print(w)
	case "table2":
		experiments.PrintTable2(w, experiments.Table2(c()))
	case "table3":
		experiments.PrintTable3(w, experiments.Table3(c(), 1, 2, 3))
	case "table4":
		experiments.Table4(c(), netID, sizes).Print(w)
	case "table5":
		res, err := experiments.Table5(c(), experiments.PaperTable5Points())
		if err != nil {
			return err
		}
		res.Print(w)
	case "homog":
		size := 512
		if len(sizes) > 0 {
			size = sizes[0]
		}
		experiments.PrintHomogStudy(w, netID, experiments.HomogenizationStudy(c(), netID, size))
	case "efficiency":
		experiments.PrintEfficiency(w, experiments.EfficiencyComparison(c(), 1, 2, 3))
	case "timing":
		rows, err := experiments.TimingStudy(c(), netID, 8)
		if err != nil {
			return err
		}
		experiments.PrintTiming(w, netID, rows)
	case "map":
		// Per-layer floorplan of each structure with measured-activity
		// energy refinement.
		q := c().QuantizedCalibrated(netID)
		geoms, err := arch.GeometryOf(q)
		if err != nil {
			return err
		}
		activity := q.ActivityFactors(c().Test.Subset(50))
		fmt.Fprintf(w, "measured input activity per layer: %.3f\n", activity)
		costs, err := arch.Compare(geoms, rram.MaxCrossbarSize)
		if err != nil {
			return err
		}
		for _, cost := range costs {
			if err := cost.Mapping.ApplyActivity(activity); err != nil {
				return err
			}
			cost.Mapping.Describe(w)
			fmt.Fprintln(w)
		}
	case "vgg":
		res, err := experiments.VGGAnalysis()
		if err != nil {
			return err
		}
		experiments.PrintVGG(w, res)
	default:
		return fmt.Errorf("unknown experiment %q", what)
	}
	return nil
}
