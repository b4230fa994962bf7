// Command seibench is the repository's benchmark front door. It runs
// perfbench (the one measurement, declared in BENCHMARK.json), keeps
// its output lines in dated reports, diffs two reports and gates one.
//
// Usage, from the checkout root:
//
//	seibench run [-seconds S] [-dir bench-reports]
//	seibench compare [-dir bench-reports] [baseline.json current.json]
//	seibench gate [-dir bench-reports] [baseline.json current.json]
//
// `run` runs BENCHMARK.json's command (`bash perfbench/run.sh`) with
// --seed 1 and --trace 0, then --trace 1, for every workload, and
// writes one report to the directory: each workload's digest line and
// both result lines verbatim, plus the machine identity. -seconds
// defaults to BENCHMARK.json's run_seconds.
//
// `compare` lists the end-to-end and per-layer metrics of two reports
// (by default the newest and its most recent comparable baseline: same
// machine, same -seconds) side by side and never fails.
//
// `gate` exits 1 when a workload is missing, a run was not correct, or
// a digest, pj_per_inference or nn.error_rate differs from the values
// committed in expected.json. Against a comparable baseline it also
// exits 1 when a host-time end-to-end metric is worse by more than its
// BENCHMARK.json bound; without one it says so and gates only the
// exact values. Malformed reports, and reports from a GOARCH other than
// expected.json's, exit 2.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: seibench run [-seconds S] [-dir D]
       seibench compare [-dir D] [baseline.json current.json]
       seibench gate [-dir D] [baseline.json current.json]`

// run dispatches to a subcommand and returns the process exit code:
// 1 when the gate finds a difference, 2 on any other error.
func run(args []string, stdout, stderr io.Writer) int {
	cmd := ""
	if len(args) > 0 {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "run":
		err = cmdRun(args, stdout, stderr)
	case "compare", "gate":
		err = cmdCompareGate(args, stdout, stderr, cmd == "gate")
	default:
		fmt.Fprintln(stderr, usage)
		return 2
	}
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintln(stderr, "seibench:", err)
	if errors.Is(err, errGateFailed) {
		return 1
	}
	return 2
}

func cmdRun(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("seibench run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seconds := fs.Float64("seconds", 0, "measuring time of each perfbench run (0 = BENCHMARK.json's run_seconds)")
	dir := fs.String("dir", DefaultReportDir, "report directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("run takes no arguments, got %q", fs.Args())
	}
	b, err := loadBenchmark()
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = b.RunSeconds
	}
	rep := &Report{
		Schema:    SchemaVersion,
		StartedAt: time.Now().UTC(),
		GitSHA:    gitSHA(),
		Seconds:   *seconds,
		Machine:   hostMachine(),
		Workloads: map[string]Lines{},
	}
	for _, w := range b.Workloads {
		digest, result, err := perfbench(b.Command, w.Name, *seconds, 0, stderr)
		if err != nil {
			return err
		}
		traceDigest, traced, err := perfbench(b.Command, w.Name, *seconds, 1, stderr)
		if err != nil {
			return err
		}
		if traceDigest != digest {
			return fmt.Errorf("%s: traced run printed %q, untraced %q", w.Name, traceDigest, digest)
		}
		rep.Workloads[w.Name] = Lines{Digest: digest, Result: result, Traced: traced}
	}
	path, err := writeReport(*dir, rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "report: %s\n", path)
	return nil
}

// perfbench runs one workload with seed 1 and returns the last two
// lines it prints: the digest line and the result line. Its progress
// goes to stderr.
func perfbench(command []string, workload string, seconds float64, trace int, stderr io.Writer) (string, string, error) {
	args := append(command[1:len(command):len(command)], "--workload", workload, "--seed", "1",
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	var out bytes.Buffer
	cmd := exec.Command(command[0], args...)
	cmd.Stdout, cmd.Stderr = &out, stderr
	fmt.Fprintln(stderr, "seibench:", strings.Join(cmd.Args, " "))
	if err := cmd.Run(); err != nil {
		return "", "", fmt.Errorf("%s: %w", strings.Join(cmd.Args, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		return "", "", fmt.Errorf("%s: want a digest and a result line, got %q", workload, lines)
	}
	return lines[len(lines)-2], lines[len(lines)-1], nil
}

// cmdCompareGate implements compare and gate. Reports come from the
// arguments or, without any, from dir: the newest one and its most
// recent comparable baseline.
func cmdCompareGate(args []string, stdout, stderr io.Writer, gating bool) error {
	fs := flag.NewFlagSet("seibench compare/gate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", DefaultReportDir, "report directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := loadBenchmark()
	if err != nil {
		return err
	}
	var base, cur *Report
	switch n := fs.NArg(); {
	case n == 0:
		history, err := loadReports(*dir)
		if err != nil {
			return err
		}
		if len(history) == 0 {
			return fmt.Errorf("no reports in %s — run `seibench run` first", *dir)
		}
		cur = history[len(history)-1]
		base = baselineFor(cur, history)
	case n == 2:
		if base, err = loadReport(fs.Arg(0)); err == nil {
			cur, err = loadReport(fs.Arg(1))
		}
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("want zero or two report paths, got %d", n)
	}
	for _, rep := range []*Report{base, cur} {
		if rep == nil {
			continue
		}
		if err := rep.decode(); err != nil {
			return err
		}
	}
	if gating {
		return gate(stdout, stderr, b, base, cur)
	}
	if base == nil {
		fmt.Fprintf(stdout, "current: %s\nno comparable baseline (same machine and -seconds): nothing to compare\n", describe(cur))
	} else {
		compare(stdout, b, base, cur)
	}
	return nil
}
