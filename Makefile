# SnapBPF reproduction — convenience targets.

GO ?= go

.PHONY: all build test vet lint vendorcheck fmtcheck check race cover bench bench-json fitness repro clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific analyzers (internal/analysis) run through go vet's
# unitchecker protocol: detnondet, clusterepoch, maporder, simtime,
# unitsafety, allowcheck. Zero unsuppressed diagnostics is the bar;
# see DESIGN.md §9 for the contracts and the //lint:allow syntax.
lint:
	@mkdir -p bin
	$(GO) build -o bin/snapbpf-lint ./cmd/snapbpf-lint
	$(GO) vet -vettool=bin/snapbpf-lint ./...

# Offline stand-in for `go mod tidy -diff` / `go mod vendor` drift
# detection; see the script header for what it pins.
vendorcheck:
	./scripts/check_vendor.sh

# gofmt everything except vendored code and analyzer golden files
# (testdata is deliberately not gofmt-clean: misformatted sources are
# part of what the analyzers must handle).
fmtcheck:
	@out="$$(find . -name '*.go' -not -path './vendor/*' -not -path '*/testdata/*' -exec gofmt -l {} +)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Full hygiene gate: build, vet, lint, vendoring, formatting, tests,
# and the calibration fitness gate against the paper's numbers.
check: build vet lint vendorcheck fmtcheck test fitness

# Calibration drift alarm: regenerate the referenced figures on the
# full suite with the invariant checker armed and score them against
# the paper's numbers and claims (internal/calib); any figure outside
# its tolerance band or failing claim exits nonzero. Verdicts land in
# results/fitness.json. CI's fitness job adds fig3b and fig3c, which
# carry claims but no reference figure.
fitness:
	$(GO) run ./cmd/snapbpf-bench -check -fitness -parallel 0 -exp table1,fig3a,fig4,overheads -fitness-out results/fitness.json

test:
	$(GO) test ./...

# The race detector slows the suite ~4x; the explicit timeout keeps the
# experiments package clear of go test's 10-minute default.
race:
	$(GO) test -race -timeout 25m ./...

cover:
	$(GO) test -cover ./...

# Every package's microbenchmarks, one iteration each. The end-to-end
# ledger over both clocks is bench/ (bash bench/run.sh).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# Machine-readable microbenchmark snapshot (ns/op, allocs/op per hot
# path), stamped with git state. See scripts/bench_json.sh.
bench-json:
	./scripts/bench_json.sh results/bench.json

# Regenerate every table and figure on the full 15-function suite,
# score them against the paper's figures and claims (nonzero exit on
# any failure), and write CSV, results/fitness.json and a markdown
# report. Cells run on one worker per CPU; add e.g. `-parallel 1` for
# serial.
repro:
	$(GO) run ./cmd/snapbpf-bench -fitness -csv results -report results/report.md

clean:
	rm -rf results bin test_output.txt bench_output.txt
