package main

import "time"

// Host speed. The benchmark runs on shared 2-vCPU VMs whose speed moves
// by up to 40% for minutes at a time with the load of other tenants —
// longer than a run, so no median inside a run removes it. Every host-
// time measurement is therefore taken between two samples of a fixed
// reference kernel, and reported at reference speed: durations are
// multiplied, and rates divided, by the kernel's speed relative to
// refNominal. A code change cannot move the kernel, so the scaling
// cancels the host and keeps the code's effect; run on one host, the
// parent and a change are scaled alike.

// refNominal is the reference kernel's speed, in million iterations
// per second, on an idle Intel Xeon 2-vCPU VM (the host the bounds in
// BENCHMARK.json were measured on).
const refNominal = 460.0

// refIters is one kernel run: about 0.6 ms at refNominal.
const refIters = 1 << 18

var (
	refBuf  [4096]float64 // 32 KiB: stays in L1, so the kernel measures the core, not memory
	refSink float64
)

// refKernel runs the reference loop once and returns its speed in
// million iterations per second: a xorshift index stream into a
// float read-modify-write, the mix of integer, branch-free and
// dependent float work the engine's kernels do.
func refKernel() float64 {
	start := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	s := 0.0
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (uint64(len(refBuf)) - 1)
		s += refBuf[j] * 1.0000001
		refBuf[j] = s * 0.5
	}
	refSink = s
	return refIters / time.Since(start).Seconds() / 1e6
}

// hostSpeed samples the host's speed relative to refNominal (above 1
// is faster): the median of three kernel runs, so one interrupted run
// does not count.
func hostSpeed() float64 {
	return median([]float64{refKernel(), refKernel(), refKernel()}) / refNominal
}
