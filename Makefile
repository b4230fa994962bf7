# Standard entry points; `make ci` mirrors .github/workflows/ci.yml.

GO ?= go

.PHONY: build test race bench bench-smoke bench-scaling bench-report vet staticcheck fmt ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over every package, including the shared-design
# concurrency stress test in internal/seicore. The root package's
# end-to-end determinism suite runs several full pipelines; under the
# race detector on few cores that exceeds go test's default 10m
# per-package timeout, so give it headroom.
race:
	$(GO) test -race -timeout 45m ./...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# One iteration of every benchmark in every package — including the
# quant calibration benches: a compile-and-run smoke that keeps
# the bench suite from rotting without paying full measurement time.
# CI runs this on every push.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The benchmark front door: run every BENCHMARK.json workload through
# perfbench (untraced and traced, BENCHMARK.json's run_seconds each),
# write bench-reports/<date>-<sha>.json, then diff it against the most
# recent report from this machine with the same -seconds. `seibench
# gate` checks the same report against cmd/seibench/expected.json; CI
# runs it after a 1-second run on every push.
bench-report:
	$(GO) run ./cmd/seibench run
	$(GO) run ./cmd/seibench compare

# Parallel-scaling row: the same deterministic workload at 1, 2 and 4
# workers (Workers=0 tracks GOMAXPROCS, which -cpu sets).
bench-scaling:
	$(GO) test -bench='Parallel|Table5' -cpu 1,2,4 -run='^$$' .

vet:
	$(GO) vet ./...

# Runs staticcheck when it is on PATH and is a no-op otherwise, so
# `make ci` works on machines without it while CI (which installs it)
# always gets the full check.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

fmt:
	gofmt -l -w .

# Exactly what the GitHub Actions workflow runs. perfbench is its own
# module (root ./... skips it), so it is vetted and tested separately.
ci:
	$(GO) vet ./...
	$(MAKE) staticcheck
	$(GO) build ./...
	$(GO) test ./...
	cd perfbench && GOWORK=off GOPROXY=off $(GO) vet ./... && GOWORK=off GOPROXY=off $(GO) test ./...
	$(GO) test -race ./internal/obs ./internal/par ./internal/serve ./internal/load ./internal/seicore ./internal/nn ./internal/vecf
	$(GO) test -race ./internal/experiments
	$(GO) test -race -short ./internal/quant
	$(GO) test -run=NONE -fuzz=FuzzLoadDesign -fuzztime=10s -fuzzminimizetime=100x ./internal/seicore
	$(GO) test -count=1 -run TestServeSmokeSIGTERM ./cmd/seiserve
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) run ./cmd/seibench run -seconds 1
	$(GO) run ./cmd/seibench gate
