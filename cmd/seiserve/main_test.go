package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"sei/internal/cliutil"
	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/quant"
	"sei/internal/seicore"
	"sei/internal/serve"
)

func TestParseFlags(t *testing.T) {
	if _, err := parseFlags([]string{"-demo", "-workers", "4"}, io.Discard); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	if _, err := parseFlags([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	if _, err := parseFlags([]string{"-nope"}, io.Discard); !errors.Is(err, cliutil.ErrUsage) {
		t.Fatalf("unknown flag: err = %v, want ErrUsage", err)
	}
	if _, err := parseFlags([]string{"-demo", "-workers", "-3"}, io.Discard); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := parseFlags(nil, io.Discard); err == nil {
		t.Fatal("empty registry (no -designs, no -demo) accepted")
	}
}

// TestServeSmokeSIGTERM is the end-to-end smoke test: start the
// service on an ephemeral port, predict against the demo classifier,
// verify labels match the offline classifier bit-for-bit, then SIGTERM
// the process and require a clean drain.
func TestServeSmokeSIGTERM(t *testing.T) {
	opt, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-demo", "-drain", "5s"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	readyc := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(opt, io.Discard, func(addr string) { readyc <- addr })
	}()
	var addr string
	select {
	case addr = <-readyc:
	case err := <-runErr:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("service not ready in 30s")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	// Predict ten images and compare with the identically seeded
	// offline classifier.
	offline := buildDemo(opt.seed)
	data := mnist.Synthetic(10, 77)
	var req struct {
		Design string      `json:"design"`
		Images [][]float64 `json:"images"`
	}
	req.Design = "demo"
	for _, img := range data.Images {
		req.Images = append(req.Images, img.Data())
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	presp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Results []struct {
			Label int    `json:"label"`
			Error string `json:"error"`
		} `json:"results"`
	}
	err = json.NewDecoder(presp.Body).Decode(&out)
	presp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d", presp.StatusCode)
	}
	if len(out.Results) != data.Len() {
		t.Fatalf("got %d results, want %d", len(out.Results), data.Len())
	}
	for i, r := range out.Results {
		if r.Error != "" {
			t.Fatalf("image %d: %s", i, r.Error)
		}
		if want := offline.Predict(data.Images[i]); r.Label != want {
			t.Fatalf("image %d: served %d, offline %d", i, r.Label, want)
		}
	}

	// A malformed request must not kill the service.
	bresp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader([]byte(`{broken`)))
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed predict: status %d, want 400", bresp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("drain failed: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("service did not drain within 15s of SIGTERM")
	}
}

// liveGenerations reads one design's live generation list from
// GET /v1/designs.
func liveGenerations(t *testing.T, base, name string) []int {
	t.Helper()
	resp, err := http.Get(base + "/v1/designs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Live []struct {
			Name        string `json:"name"`
			Generations []int  `json:"generations"`
		} `json:"live"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for _, d := range out.Live {
		if d.Name == name {
			return d.Generations
		}
	}
	return nil
}

// TestServeSmokeSIGHUPAndAdminReload exercises the live-reload surface
// end to end against a running service: SIGHUP republishes the
// disk-backed design as a new generation without interrupting traffic,
// the admin endpoints start and promote a canary, and the service
// drains cleanly afterwards.
func TestServeSmokeSIGHUPAndAdminReload(t *testing.T) {
	// One small real design on disk.
	train, test := mnist.SyntheticSplit(300, 20, 5)
	net := nn.NewTableNetwork(1, 3)
	tcfg := nn.DefaultTrainConfig()
	tcfg.Epochs = 1
	nn.Train(net, train, tcfg)
	qcfg := quant.DefaultSearchConfig()
	qcfg.Samples = 100
	q, _, err := quant.QuantizeNetwork(net, train, []int{1, 28, 28}, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := seicore.DefaultSEIBuildConfig()
	bcfg.DynamicThreshold = false
	design, err := seicore.BuildSEI(q, nil, bcfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := design.SaveFile(filepath.Join(dir, "net"+serve.DesignExt)); err != nil {
		t.Fatal(err)
	}

	opt, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-designs", dir, "-drain", "5s"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	readyc := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(opt, io.Discard, func(addr string) { readyc <- addr })
	}()
	var addr string
	select {
	case addr = <-readyc:
	case err := <-runErr:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("service not ready in 30s")
	}
	base := "http://" + addr

	predict := func(wantLabels bool) int {
		t.Helper()
		var req struct {
			Design string      `json:"design"`
			Images [][]float64 `json:"images"`
		}
		req.Design = "net"
		for _, img := range test.Images[:4] {
			req.Images = append(req.Images, img.Data())
		}
		body, _ := json.Marshal(req)
		resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Generation int `json:"generation"`
			Results    []struct {
				Label int    `json:"label"`
				Error string `json:"error"`
			} `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict: status %d", resp.StatusCode)
		}
		if wantLabels {
			for i, r := range out.Results {
				if r.Error != "" {
					t.Fatalf("image %d: %s", i, r.Error)
				}
				if want := design.Predict(test.Images[i]); r.Label != want {
					t.Fatalf("image %d: served %d, offline %d", i, r.Label, want)
				}
			}
		}
		return out.Generation
	}

	// Cold-load generation 1 and check bit-identity.
	if gen := predict(true); gen != 1 {
		t.Fatalf("initial predict generation = %d, want 1", gen)
	}

	// SIGHUP: the disk-backed design republishes as generation 2.
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		gens := liveGenerations(t, base, "net")
		if len(gens) == 1 && gens[0] == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("generations after SIGHUP = %v, want [2]", gens)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if gen := predict(true); gen != 2 {
		t.Fatalf("post-SIGHUP predict generation = %d, want 2", gen)
	}

	// Admin reload as a canary, then promote it.
	resp, err := http.Post(base+"/v1/admin/reload?design=net&canary=0.5", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin reload: status %d", resp.StatusCode)
	}
	if gens := liveGenerations(t, base, "net"); len(gens) != 2 || gens[0] != 2 || gens[1] != 3 {
		t.Fatalf("generations after canary reload = %v, want [2 3]", gens)
	}
	resp, err = http.Post(base+"/v1/admin/canary?design=net&weight=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	if gens := liveGenerations(t, base, "net"); len(gens) != 1 || gens[0] != 3 {
		t.Fatalf("generations after promote = %v, want [3]", gens)
	}
	if gen := predict(true); gen != 3 {
		t.Fatalf("post-promote predict generation = %d, want 3", gen)
	}

	// Health stayed green through every swap; then drain.
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after reloads: status %d", hresp.StatusCode)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("drain failed: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("service did not drain within 15s of SIGTERM")
	}
}
