// Device faults: the paper's future work calls for "considering the
// non-ideal factors of RRAM and circuit". This example sweeps the
// behavioural device model's non-idealities — programming variation,
// read noise, and stuck-at faults — and measures how the SEI design's
// classification degrades.
//
// Run with: go run ./examples/device_faults
//
// Its standard output is pinned byte for byte by
// testdata/stdout.golden; CI and `make ci` diff a fresh run against it.
package main

import (
	"fmt"
	"log"
	"os"

	"sei"
)

func main() {
	train, test := sei.SyntheticSplit(2000, 300, 5)
	fmt.Fprintln(os.Stderr, "training and quantizing network 2...")
	net := sei.TrainTableNetwork(2, train, 4, 9)
	q, err := sei.Quantize(net, train)
	if err != nil {
		log.Fatal(err)
	}

	eval := func(m sei.DeviceModel) float64 {
		opt := sei.DefaultBuildOptions()
		opt.Device = m
		opt.DynamicThreshold = false
		d, err := sei.BuildDesign(q, nil, opt)
		if err != nil {
			log.Fatal(err)
		}
		return sei.EvaluateDesign(d, test)
	}

	fmt.Println("SEI robustness to device non-idealities (Network 2)")

	fmt.Println("  programming variation (lognormal sigma):")
	for _, sigma := range []float64{0, 0.02, 0.05, 0.1, 0.2, 0.4} {
		m := sei.DefaultDeviceModel()
		m.ProgramSigma = sigma
		fmt.Printf("    sigma %.2f  error %6.2f%%\n", sigma, 100*eval(m))
	}

	fmt.Println("  read noise (relative sigma per column read):")
	for _, sigma := range []float64{0, 0.01, 0.05, 0.1} {
		m := sei.DefaultDeviceModel()
		m.ReadNoiseSigma = sigma
		fmt.Printf("    sigma %.2f  error %6.2f%%\n", sigma, 100*eval(m))
	}

	fmt.Println("  stuck-at faults (fraction of cells stuck on/off):")
	for _, rate := range []float64{0, 0.001, 0.01, 0.05} {
		m := sei.DefaultDeviceModel()
		m.StuckOnRate = rate / 2
		m.StuckOffRate = rate / 2
		fmt.Printf("    rate %.3f  error %6.2f%%\n", rate, 100*eval(m))
	}

	fmt.Println("  device precision (bits per cell; paper default 4):")
	for bits := 2; bits <= 6; bits++ {
		m := sei.IdealDeviceModel(bits)
		m.ProgramSigma = 0.02
		fmt.Printf("    %d bits    error %6.2f%%\n", bits, 100*eval(m))
	}

	fmt.Println("  sinh I-V nonlinearity (VRead/V0; 1-bit inputs are immune):")
	for _, r := range []float64{0, 0.5, 1, 2, 3} {
		m := sei.DefaultDeviceModel()
		m.IVNonlinearity = r
		fmt.Printf("    r = %.1f    error %6.2f%%\n", r, 100*eval(m))
	}
	fmt.Println("\nNote how the 1-bit data path shrugs off the I-V nonlinearity that")
	fmt.Println("would distort an analog-input design — every input is either 0 or")
	fmt.Println("full swing, so the curve contributes only a uniform gain.")
}
