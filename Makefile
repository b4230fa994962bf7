# Standard entry points; `make ci` mirrors .github/workflows/ci.yml.

GO ?= go

.PHONY: build test race bench bench-smoke bench-scaling bench-report vet staticcheck fmt golden lines ci

build:
	$(GO) build ./...

# A hung package fails with a goroutine dump after 5 minutes instead
# of waiting out go test's 10-minute default; the slowest package, the
# root, takes about 90 s.
test:
	$(GO) test -timeout 5m ./...

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
	$(GO) test -bench='Parallel' -cpu 1,2,4 -run='^$$' .

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

# Rewrites files in place; `make ci` only checks (gofmt -l).
fmt:
	gofmt -l -w .

# Byte-for-byte diffs of what the programs print against their
# goldens: seisim's tables (all) and facade pipeline (pipeline) under
# -quick, and every example that has a testdata/stdout.golden. They run
# only where CI does (amd64): float rounding may differ on other
# GOARCHes, so there they report "cannot check", as `seibench gate`
# does.
golden:
	@if [ "$$($(GO) env GOARCH)" = amd64 ]; then \
		out="$${TMPDIR:-/tmp}/golden.out"; \
		for s in all pipeline; do \
			env -u MNIST_DIR $(GO) run ./cmd/seisim -quick -quiet $$s > "$$out" && \
			diff -u cmd/seisim/testdata/quick-$$s.golden "$$out" || exit 1; \
		done; \
		for g in examples/*/testdata/stdout.golden; do \
			env -u MNIST_DIR $(GO) run ./$${g%/testdata/stdout.golden} > "$$out" && \
			diff -u "$$g" "$$out" || exit 1; \
		done; \
	else \
		echo "golden: cannot check on $$($(GO) env GOARCH): the goldens hold linux/amd64 output"; \
	fi

# Non-test Go lines, comments and blank lines excluded: the module
# outside perfbench, then each internal/ package. ROADMAP's "less
# code" figures come from here.
lines:
	@printf '%-22s %6d\n' module $$(find . -name '*.go' -not -path './perfbench/*' | grep -v _test.go | xargs cat | grep -Ev '^\s*(//|$$)' | wc -l)
	@for d in internal/*/; do \
		printf '%-22s %6d\n' $${d%/} $$(cat $$(ls $$d*.go | grep -v _test.go) | grep -Ev '^\s*(//|$$)' | wc -l); \
	done

# Exactly what the GitHub Actions workflow runs. perfbench is its own
# module (root ./... skips it), so it is vetted and tested separately.
ci:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"
	$(MAKE) staticcheck
	$(GO) build ./...
	$(GO) test -timeout 5m ./...
	$(MAKE) golden
	cd perfbench && GOWORK=off GOPROXY=off $(GO) vet ./... && GOWORK=off GOPROXY=off $(GO) test ./...
	$(GO) test -race ./internal/obs ./internal/par ./internal/serve ./internal/load ./internal/seicore ./internal/nn ./internal/vecf
	$(GO) test -race ./internal/experiments
	$(GO) test -race -short ./internal/quant
	$(GO) test -run=NONE -fuzz=FuzzLoadDesign -fuzztime=10s -fuzzminimizetime=100x ./internal/seicore
	$(GO) test -run=NONE -fuzz=FuzzLoadQuantized -fuzztime=10s -fuzzminimizetime=100x ./internal/quant
	$(GO) test -run=NONE -fuzz=FuzzDecodePredict -fuzztime=10s -fuzzminimizetime=100x ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzParseNumber -fuzztime=10s -fuzzminimizetime=100x ./internal/serve
	$(GO) test -count=1 -run TestServeSmokeSIGTERM ./cmd/seiserve
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) run ./cmd/seibench run -seconds 1
	$(GO) run ./cmd/seibench gate
