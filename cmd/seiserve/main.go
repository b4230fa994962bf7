// Command seiserve is the batched inference service: it loads SEI
// design snapshots (sei.SaveDesignFile) into a sharded registry and
// answers HTTP predicts, coalescing concurrent requests into
// per-design micro-batches on the deterministic parallel engine.
// Served labels are bit-identical to the offline sei.EvaluateDesign /
// sei.PredictBatch paths per design generation.
//
// Usage:
//
//	seiserve [flags]
//
// Endpoints:
//
//	POST /v1/predict          {"design":"<name>","images":[[784 pixels]...]}
//	                          (?generation=N pins one live generation)
//	GET  /v1/designs          resolvable design names + live generations
//	POST /v1/admin/reload     swap a design to a fresh generation from disk
//	                          (?design=, ?canary=W for a weighted split)
//	POST /v1/admin/canary     adjust/promote/rollback a canary split
//	POST /v1/admin/unregister retire a design, tear down its queue
//	GET  /healthz             liveness and drain state
//	GET  /metrics             Prometheus counters and histograms
//
// Robustness: malformed requests answer 4xx, a full per-design queue
// answers 429 without touching other designs' queues, requests whose
// deadline is below the observed flush latency are shed at admission
// (429), per-image library panics are contained into per-image errors,
// SIGHUP reloads every disk-backed design as a new generation while
// in-flight batches drain on the old one, and SIGTERM/SIGINT drains
// in-flight requests before exiting (bounded by -drain).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sei/internal/cliutil"
	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/serve"
)

type options struct {
	addr     string
	designs  string
	seed     int64
	demo     bool
	maxBatch int
	queueCap int
	workers  int
	retain   int
	timeout  time.Duration
	drain    time.Duration
}

// parseFlags parses args (without the program name) into options,
// following the seisim conventions: cliutil.ErrUsage for failures the
// flag package already reported, flag.ErrHelp for -h.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	opt := &options{}
	fs := flag.NewFlagSet("seiserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.addr, "addr", ":8080", "listen address")
	fs.StringVar(&opt.designs, "designs", "", "directory of *.design snapshots (see sei.SaveDesignFile)")
	fs.Int64Var(&opt.seed, "seed", 1, "read-noise seed for loaded noisy designs")
	fs.BoolVar(&opt.demo, "demo", false, "register a small built-in classifier under the name \"demo\"")
	fs.IntVar(&opt.maxBatch, "max-batch", 64, "most images coalesced into one engine batch")
	fs.IntVar(&opt.queueCap, "queue", 256, "pending-predict queue bound; beyond it requests get 429")
	fs.IntVar(&opt.workers, "workers", 0, cliutil.WorkersUsage)
	fs.IntVar(&opt.retain, "retain", serve.DefaultRetain,
		"live generations kept per design: the two newest route traffic, older ones stay pinnable via ?generation=")
	fs.DurationVar(&opt.timeout, "timeout", serve.DefaultTimeout, "per-request predict deadline")
	fs.DurationVar(&opt.drain, "drain", 10*time.Second, "shutdown drain bound after SIGTERM/SIGINT")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, cliutil.ErrUsage
	}
	if err := cliutil.CheckWorkers(opt.workers); err != nil {
		return nil, err
	}
	if !opt.demo && opt.designs == "" {
		return nil, errors.New("nothing to serve: pass -designs and/or -demo")
	}
	return opt, nil
}

// buildDemo trains a small deterministic classifier so the service can
// be exercised without design snapshots on disk.
func buildDemo(seed int64) nn.Classifier {
	net := nn.NewTableNetwork(1, seed)
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = 1
	cfg.Seed = seed
	nn.Train(net, mnist.Synthetic(400, seed), cfg)
	return net
}

// run starts the service and blocks until SIGTERM/SIGINT (clean drain,
// nil) or a server failure. SIGHUP reloads every disk-backed design as
// a fresh full-swap generation without interrupting traffic. ready,
// when non-nil, is called with the bound listen address once the
// service accepts connections.
func run(opt *options, stdout io.Writer, ready func(addr string)) error {
	rec := obs.New()
	reg := serve.NewRegistry(opt.designs, opt.seed)
	reg.SetRetain(opt.retain)
	if opt.demo {
		fmt.Fprintln(stdout, "seiserve: training demo classifier")
		reg.Register("demo", buildDemo(opt.seed))
	}
	pool, err := serve.NewPool(serve.BatcherConfig{
		MaxBatch: opt.maxBatch,
		QueueCap: opt.queueCap,
		Workers:  opt.workers,
		Obs:      rec,
	})
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: serve.NewHandler(serve.Options{
		Registry: reg,
		Pool:     pool,
		Obs:      rec,
		Timeout:  opt.timeout,
	})}
	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		pool.Close()
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(stdout, "seiserve: listening on %s (designs: %v)\n", ln.Addr(), reg.Names())
	if ready != nil {
		ready(ln.Addr().String())
	}
serving:
	for {
		select {
		case err := <-errc:
			pool.Close()
			return err
		case <-hup:
			reloaded, err := reg.ReloadAll()
			if err != nil {
				fmt.Fprintf(stdout, "seiserve: SIGHUP reload: %v\n", err)
			}
			rec.Counter(serve.MetricReloads).Add(int64(len(reloaded)))
			fmt.Fprintf(stdout, "seiserve: SIGHUP reloaded %v\n", reloaded)
		case <-ctx.Done():
			break serving
		}
	}
	stop() // restore default signal handling: a second SIGTERM kills
	fmt.Fprintln(stdout, "seiserve: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), opt.drain)
	defer cancel()
	err = srv.Shutdown(drainCtx) // in-flight handlers finish first,
	pool.Close()                 // then the queued predicts drain
	if err != nil {
		return fmt.Errorf("seiserve: drain: %w", err)
	}
	fmt.Fprintln(stdout, "seiserve: drained")
	return nil
}

func main() {
	opt, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		if !errors.Is(err, cliutil.ErrUsage) {
			fmt.Fprintln(os.Stderr, "seiserve:", err)
		}
		os.Exit(2)
	}
	if err := run(opt, os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "seiserve:", err)
		os.Exit(1)
	}
}
