# Developer workflow for the GCX reproduction. CI calls these targets
# (.github/workflows/ci.yml), so a green `make check fuzz-smoke` locally
# predicts a green pipeline. Numbers come from two places only: `make
# paper` reproduces the paper's tables with `go test -bench`, and gcxperf
# (`make perf`, `make perf-baseline`, `make perf-gate`) produces every
# committed or gated one. `make profile BENCH=<regexp>` answers "where
# does the time go" for any root-package benchmark: 20 iterations under
# the CPU profiler, then pprof's top 30 (BenchmarkSkipQ1,
# BenchmarkEmitE1 and BenchmarkFilterJ1 are gcxperf's xml-skip, xml-emit
# and ndjson-filter workloads in that form, BenchmarkShardQ6 xml-shard's
# (sequential and at two shards), BenchmarkStreamQ6 the engine half of
# serve-stream, BenchmarkJoinQ8 xml-join's query Q8 over 4 MiB without
# the DOM cells).
# `make profile-allocs BENCH=<regexp>` answers "who allocates": the same
# benchmarks, 5 iterations with every allocation sampled, then pprof's
# top 30 by allocated objects (FOCUS=<regexp> keeps only stacks through a
# matching function, e.g. FOCUS=Execute to leave the set-up out).

GO ?= go

.PHONY: all build test race check lint golden paper profile profile-allocs perf perf-build perf-compare perf-baseline perf-gate perf-pairs loc fuzz-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

check: build race lint perf-build
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; fi

# lint runs the repo's architectural passes (internal/lint): the
# tokenizer import boundary, the cancellation-polling contract and the
# observability naming/logging conventions (obsnames).
# staticcheck and govulncheck ride along warn-only when installed —
# the build container has no module proxy, so they cannot be hard
# dependencies.
lint:
	$(GO) run ./cmd/gcxlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./... \
		|| echo "warning: staticcheck reported issues (non-blocking)" >&2; \
	else echo "staticcheck not installed; skipping (non-blocking)" >&2; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./... \
		|| echo "warning: govulncheck reported issues (non-blocking)" >&2; \
	else echo "govulncheck not installed; skipping (non-blocking)" >&2; fi

# golden rewrites the four golden files — every run statistic over
# the execution matrix (testdata/stats.golden), Q1's Explain text
# (testdata/explain_q1.golden), every static verdict over the query
# catalog and generated queries (testdata/explain_catalog.golden) and
# gcxd's wire names (internal/gcxd/testdata/wire.golden) — from the
# working tree, then prints which of them changed. Only for a change
# made on purpose; review the diff before committing it.
golden:
	UPDATE_GOLDEN=1 $(GO) test -count=1 -run 'TestStatsGolden|TestExplainGolden|TestExplainCatalogGolden' .
	UPDATE_GOLDEN=1 $(GO) test -count=1 -run TestWireGolden ./internal/gcxd
	@git diff --stat -- testdata internal/gcxd/testdata

# paper reproduces the paper's evaluation: the Fig. 3/4 buffer plots'
# watermarks, the Fig. 5 table (queries × 1 and 4 MB × gcx / projection
# / dom, with peak_nodes and peak_KB next to ns/op, MB/s and allocs/op)
# and the ablations, subtree skipping on and off among them (skipped_KB
# and tokens/op), in benchstat's input format. The paper's own column
# set: go test -run xxx -bench Fig5 -fig5.mb 10,50,100,200 .
paper:
	$(GO) test -run xxx -bench 'Fig|Ablation|SkippingExecute' -benchmem .

# profile prints the CPU profile of the benchmarks matching BENCH. The
# test binary and the profile stay in PROFILE_DIR, outside the tree, for
# `go tool pprof -list <func> $(PROFILE_DIR)/gcx.test $(PROFILE_DIR)/cpu.prof`.
PROFILE_DIR ?= /tmp/gcx-profile
profile:
	@test -n "$(BENCH)" || { echo "usage: make profile BENCH=<regexp> [PROFILE_DIR=dir]" >&2; exit 2; }
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run xxx -bench '$(BENCH)' -benchtime 20x -o $(PROFILE_DIR)/gcx.test -cpuprofile $(PROFILE_DIR)/cpu.prof .
	$(GO) tool pprof -top -nodecount 30 $(PROFILE_DIR)/gcx.test $(PROFILE_DIR)/cpu.prof

# profile-allocs prints who allocates in the benchmarks matching BENCH:
# -memprofilerate 1 records every allocation, so the object counts are
# exact (and the run slow: 5 iterations). The untimed set-up — document
# generation, compilation — is in the profile too; FOCUS=Execute keeps
# only the stacks of the runs themselves.
FOCUS ?= .
profile-allocs:
	@test -n "$(BENCH)" || { echo "usage: make profile-allocs BENCH=<regexp> [FOCUS=<regexp>] [PROFILE_DIR=dir]" >&2; exit 2; }
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run xxx -bench '$(BENCH)' -benchtime 5x -o $(PROFILE_DIR)/gcx.test -memprofile $(PROFILE_DIR)/mem.prof -memprofilerate 1 .
	$(GO) tool pprof -sample_index=alloc_objects -focus '$(FOCUS)' -top -nodecount 30 $(PROFILE_DIR)/gcx.test $(PROFILE_DIR)/mem.prof

# perf runs the repository's benchmark (BENCHMARK.json, gcxperf/README.md):
# all seven workloads end to end with tracing off, results in
# gcxperf/out/results.json. perf-compare is the comparison perf-gate ends
# with, for two result files you already have: it exits 1 when any
# end-to-end metric of NEW is worse than BASE by more than its bound.
# Produce the files with `go run -C gcxperf . run -n 3 -out out/a.json`
# on each commit (that -out is relative to gcxperf/; BASE and NEW are
# relative to this directory).
perf:
	$(GO) run -C gcxperf . run

# perf-build vets and tests the benchmark module. gcxperf/ has its own
# go.mod, so `go build ./...` and `go test ./...` never reach it, yet it
# compiles against internal packages (DESIGN.md, "Execution surface",
# lists the symbols): a rename there must fail here, not first in the
# benchmark gate.
perf-build:
	cd gcxperf && $(GO) vet . && $(GO) test .

perf-compare:
	@test -n "$(BASE)" -a -n "$(NEW)" || { echo "usage: make perf-compare BASE=a.json NEW=b.json" >&2; exit 2; }
	$(GO) run -C gcxperf . compare $(abspath $(BASE)) $(abspath $(NEW))

# perf-baseline regenerates the two committed result files, each stamped
# by gcxperf with the commit, cores, GOMAXPROCS and Go version it ran on:
# three repetitions of the seven workloads end to end, and the per-layer
# metrics of one traced pass (~7 min together). They record where the
# numbers stood on one named machine; the gate never reads them.
perf-baseline:
	$(GO) run -C gcxperf . run -n 3 -out ../BENCH_gcxperf.json
	$(GO) run -C gcxperf . trace -out ../BENCH_gcxperf_layers.json

# perf-gate is the regression gate CI runs on every pull request: check
# BASE_REF out beside the working tree, measure base and head with the
# same protocol on this machine, one after the other, and compare. Exit
# status 1 means some end-to-end metric is worse than base by more than
# its bound and its spread, or more operations failed; `unresolved`
# verdicts (spread wider than the bound) are printed and do not fail.
# The checkout is a clone so that gcxperf stamps it with its own commit,
# and it lives outside the tree, where gcxlint would otherwise walk it.
GATE_DIR ?= /tmp/gcxperf-gate
perf-gate:
	@test -n "$(BASE_REF)" || { echo "usage: make perf-gate BASE_REF=<commit> [GATE_DIR=dir]" >&2; exit 2; }
	rm -rf $(GATE_DIR)/base
	git clone -q . $(GATE_DIR)/base
	git -C $(GATE_DIR)/base checkout -q --detach $$(git rev-parse --verify '$(BASE_REF)^{commit}')
	$(GO) run -C $(GATE_DIR)/base/gcxperf . run -n 3 -out $(abspath $(GATE_DIR))/base.json
	$(GO) run -C gcxperf . run -n 3 -out $(abspath $(GATE_DIR))/head.json
	$(GO) run -C gcxperf . compare $(abspath $(GATE_DIR))/base.json $(abspath $(GATE_DIR))/head.json

# perf-pairs is the ten-pair protocol behind every speed claim: clone
# BASE_REF as perf-gate does, then run one workload PAIRS times on each
# side, alternating which side goes first (odd pairs base first, even
# pairs head first), so drift of the host over minutes falls on both
# sides alike. Each run is BENCHMARK.json's single-workload command; its
# final JSON line is appended to $(GATE_DIR)/pairs.jsonl as
# {"pair":i,"side":"base"|"head","result":<line>}.
PAIRS ?= 10
SEED ?= 1
perf-pairs:
	@test -n "$(BASE_REF)" -a -n "$(WORKLOAD)" || { echo "usage: make perf-pairs BASE_REF=<commit> WORKLOAD=<name> [PAIRS=10 SEED=1 GATE_DIR=dir]" >&2; exit 2; }
	rm -rf $(GATE_DIR)/base
	git clone -q . $(GATE_DIR)/base
	git -C $(GATE_DIR)/base checkout -q --detach $$(git rev-parse --verify '$(BASE_REF)^{commit}')
	@out=$(abspath $(GATE_DIR))/pairs.jsonl; \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			if [ $$side = base ]; then dir=$(abspath $(GATE_DIR))/base/gcxperf; else dir=gcxperf; fi; \
			run=$$($(GO) run -C $$dir . --workload $(WORKLOAD) --seed $(SEED)) || exit 1; \
			line=$$(printf '%s\n' "$$run" | tail -n 1); \
			echo "{\"pair\":$$i,\"side\":\"$$side\",\"result\":$$line}" >> $$out; \
			echo "pair $$i $$side: $$line"; \
		done; \
	done

# loc prints the size the "Quality of design" aim is measured by: Go
# lines outside tests, the benchmark module and lint fixtures. CI prints
# it in every run's log. LOC_PATH narrows it to one package's size
# criterion: make loc LOC_PATH=internal/jsontok.
LOC_PATH ?=
loc:
	@git ls-files '*.go' ':!*_test.go' ':!gcxperf' ':!internal/lint/testdata' | grep '^$(LOC_PATH)' | xargs cat | wc -l

# fuzz-smoke is the one list of fuzz targets; ci.yml calls it, so a new
# target is added here and nowhere else.
# FuzzSkipParity's inputs are whole queries and documents: minimizing
# each new one for the default 60 s would use up the smoke's time, so
# its minimization stops after 100 runs.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzTokenizer -fuzztime 10s ./internal/xmltok
	$(GO) test -run xxx -fuzz FuzzSplitter -fuzztime 10s ./internal/xmltok
	$(GO) test -run xxx -fuzz FuzzSkipSubtree -fuzztime 10s ./internal/xmltok
	$(GO) test -run xxx -fuzz FuzzJSONTokenizer -fuzztime 10s ./internal/jsontok
	$(GO) test -run xxx -fuzz FuzzJSONSkipSubtree -fuzztime 10s ./internal/jsontok
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime 10s ./internal/xqparse
	$(GO) test -run xxx -fuzz FuzzStreamBound -fuzztime 10s .
	$(GO) test -run xxx -fuzz FuzzJoinKeys -fuzztime 10s .
	$(GO) test -run xxx -fuzz FuzzSkipParity -fuzztime 10s -fuzzminimizetime 100x .
	$(GO) test -run xxx -fuzz FuzzCursor -fuzztime 10s ./internal/cursor
	$(GO) test -run xxx -fuzz FuzzBytesReaderParity -fuzztime 10s ./internal/xmltok
	$(GO) test -run xxx -fuzz FuzzJSONBytesReaderParity -fuzztime 10s ./internal/jsontok
	$(GO) test -run xxx -fuzz FuzzNDJSONSplitter -fuzztime 10s ./internal/jsontok
	$(GO) test -run xxx -fuzz FuzzSerializer -fuzztime 10s ./internal/core
