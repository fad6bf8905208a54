GO ?= go
# The size the tree is held to (scripts/loc.sh): lower it when a PR deletes.
# Last raised by 159 lines, for plan.Compile's filter pushdown (push.go, 151
# lines: a filter written beside an ∃ runs before the join it filters, which
# took miss-direct's rss_peak_mib from 168 to 125 MiB) and a join's probe of
# a stored side's layout; queryopt's minimisation, which now learns the width
# before it writes a formula, got 5 lines shorter. Lowered by 301 lines when
# every evaluation moved onto its caller's goroutine (the wave scheduler, the
# parallel PFP sweep and Options.Parallelism deleted), and by 233 when the
# plan cache came to hold compiled plans only, bvq to read every answer
# through its enumerator and bvqbench to lose -stream. The total counts the
# surface gate's 38-line fixture module under testdata/surfacefix.
LOC_CEILING = 25883

.PHONY: all build test vet docs race loc bench bench-json bench-sparse bench-stream bench-smoke smoke-stream fleet-smoke sweep sweep-quick crossover examples cover clean check serve

all: vet test build

# check is the pre-merge gate: static analysis, the documentation checks,
# the full suite under the race detector (evaluations beside each other on one
# node store and its spaces' pools — each evaluation runs on one goroutine —
# the bvqd single-flight path and the update/maintenance path make -race
# meaningful), the differential
# harnesses — including the randomized churn differential, which drives
# hundreds of mutation steps through delta-restart maintenance, its wire-level
# twin (TestChurnWireDifferential: three served databases, every cached answer
# against its no_cache recompute after every update), the straddling-evaluation
# tests of the read path's resume rule, which restarts a miss only from the
# content just before the update that made its own (TestUpdateStraddling*), and the
# streaming differential, which checks ~200 random formulas enumerate
# byte-identically to their materialized answers across backends and
# engines — the compiled scheduler called out by name so a regression
# there is visible by name, the metrics-documentation lint so the
# OPERATIONS.md family reference cannot drift from what the server
# registers, a single-iteration benchmark smoke pass so the benchmarks
# themselves cannot rot (the server's pairs are a cached 4,096-row answer and a
# no_cache 15,000-row closure, each read as JSON and drained as NDJSON over
# loopback; eval's BenchmarkSparseFix is the sparse stage loop whose allocations
# TestSparseFixAllocs holds down, BenchmarkPlanAnswer the engine half of a miss,
# BenchmarkFilteredHop miss-direct's sparse texts over a warm node store,
# BenchmarkDenseFamilies its dense ones and BenchmarkTwoHopStream the first
# tuple of a stream over an unfiltered two-hop beside its materialised answer, relation's BenchmarkSemijoin the kernel
# under the first beside the loop it replaced and BenchmarkAxisKernels the
# quantifier, stage-extraction and cylinder operators under the second on 64³,
# database's BenchmarkDatabaseParse and BenchmarkDatabaseApply a load into
# stored form and a one-edge update of an 18,000-tuple graph;
# the router's BenchmarkRingLookup fails if a ring lookup allocates and
# BenchmarkHop is a routed hop to a stub replica, an 8 KiB JSON answer and a
# 1,026-line NDJSON drain), five seconds of the row
# encoder's fuzz target against encoding/json, of the node-key target
# (equal closed-node keys, equal values), of the minimisation target (a
# conjunctive query through plan.Compile answers as the naive oracle does)
# of the /update body target (a rejection names a field, an accepted
# body lands where database.Apply takes a model), of the /query body target (a
# rejection names a field, an accepted body's JSON rows are its NDJSON rows),
# of the auto-route target
# (dense ≡ auto ≡ sparse whatever route the cost model takes and wherever a
# stage loop is handed from one backend to the other), of the parser target
# (no input panics, an accepted text prints to one that parses to the same print),
# of the semijoin target (relation.Blocks.Semijoin against the decode-and-look-up
# loop it replaced, every column subset, both polarities, operands untouched)
# of the axis-kernel target (ExistsAxis/ForallAxis against the bit-level
# references, ProjectAt and the From*Atom cylinders against enumeration, shape,
# density, axis and operator from the input, operands untouched, results trimmed)
# of the database-text target (Parse and DecodeEncoded never panic, what
# either accepts prints to text that reads back with equal fingerprint, RelIDs and
# stored codes, Apply stores what a build of the new content stores and an update
# followed by its inverse restores both), of the exposition target (ParseText never
# panics, what it accepts WriteText writes back to the same families, a registry
# with any label values writes text that parses), of the stream-relay target
# (the router passes upstream NDJSON bytes through exactly and appends one
# trailer exactly when the upstream did not close the stream with its own), of
# the stream-trailer target (bvqload counts a stream whole exactly when its
# last non-blank line is a trailer with no error) and of the connection-loop
# target (a raw client byte stream into internal/serve: no panic or hang, every
# byte written parses as responses, every request handed on is the one
# http.ReadRequest reads from the same bytes), the examples, which gate the
# §1 cross-check (naive = compiled on the employees query) and the §2.2 one
# (bottom-up chain ⊆ the compiled engine's LFP closure in reachability),
# a curl-level NDJSON smoke against a live bvqd so
# the streaming wire format cannot rot either, and a fleet smoke that
# boots three bvqd replicas behind bvqrouter, checks routed answers stay
# byte-identical to direct ones, drives a short bvqload run (non-zero
# routed queries, zero 5xx), and kills a replica mid-load to prove
# eviction + retry keeps failures off the client. The benchmark module
# (bench/, a nested module the root build never sees) is vetted and tested
# too: it imports the eval plan API directly, so a signature drift there
# must fail here, not in the next benchmark run; its -selfcheck boots the real
# binaries twice per workload and fails unless the server counters repeat, so
# anything that makes serving depend on more than the request sequence (an
# address in a cache key, say) stops here. internal/trace and internal/serve
# are held to leaves of the import graph (any tier may record spans or serve
# HTTP without linking the evaluator), internal/server may not import the root
# package (bvqd serves the compiled engine, not the public API's other
# engines), the surface gate in the race run
# (surface_test.go: an exported name of internal/ that no non-test file
# references fails unless testdata/surface_allow.txt gives it an oracle, paper
# or fixture reason, a bvqd, bvqrouter or bvqload flag that no script, Makefile
# target, example or bench/ sets fails unless testdata/flags_allow.txt names two
# deployments, every such flag has exactly one row in OPERATIONS.md, and so does
# every field of the /query and /update request bodies) keeps
# what no caller uses deleted, the one-goroutine guard beside it (a go
# statement or a sync or sync/atomic import in a non-test file of
# internal/eval or internal/plan fails, nodestore.go exempt) keeps an
# evaluation on its caller's goroutine, and the gate ends with the size report (loc),
# which fails above LOC_CEILING: the non-test line count is a gate, not a figure
# in prose.
check: docs
	$(GO) vet ./...
	@! $(GO) list -deps ./internal/trace | grep -v '^repro/internal/trace$$' | grep '^repro/' || { echo "internal/trace must import no other package of this module"; exit 1; }
	@! $(GO) list -deps ./internal/serve | grep -v '^repro/internal/serve$$' | grep '^repro/' || { echo "internal/serve must import no other package of this module"; exit 1; }
	@! $(GO) list -deps ./internal/server | grep -x 'repro' || { echo "internal/server must not import the root package repro"; exit 1; }
	$(GO) test -race ./...
	$(GO) test -race -count=1 ./internal/server/ ./internal/cache/ ./internal/metrics/
	$(GO) test -race -count=1 -run 'TestDifferential|TestCompiled|TestChurn|TestMaintain|TestUpdate|TestEnum|TestStream' ./internal/eval/ ./internal/server/
	$(GO) test -count=1 -run 'TestSparseLargeDomainTC' ./internal/eval/
	$(GO) test -count=1 -run 'TestMetricsDocumented' ./internal/server/
	$(GO) test -run=NONE -bench=. -benchtime=1x ./internal/eval/ ./internal/relation/ ./internal/bitset/ ./internal/database/ ./internal/server/ ./internal/router/
	$(GO) test -run=NONE -fuzz=FuzzAppendRows -fuzztime=5s ./internal/server/
	$(GO) test -run=NONE -fuzz=FuzzNodeKey -fuzztime=5s ./internal/eval/
	$(GO) test -run=NONE -fuzz=FuzzMinimizeWidth -fuzztime=5s ./internal/eval/
	$(GO) test -run=NONE -fuzz=FuzzUpdateBody -fuzztime=5s ./internal/server/
	$(GO) test -run=NONE -fuzz=FuzzQueryBody -fuzztime=5s ./internal/server/
	$(GO) test -run=NONE -fuzz=FuzzAutoRoute -fuzztime=5s ./internal/eval/
	$(GO) test -run=NONE -fuzz=FuzzParseQuery -fuzztime=5s ./internal/parser/
	$(GO) test -run=NONE -fuzz=FuzzSemijoin -fuzztime=5s ./internal/relation/
	$(GO) test -run=NONE -fuzz=FuzzAxisKernels -fuzztime=5s ./internal/relation/
	$(GO) test -run=NONE -fuzz=FuzzDatabaseText -fuzztime=5s ./internal/database/
	$(GO) test -run=NONE -fuzz=FuzzParseText -fuzztime=5s ./internal/metrics/
	$(GO) test -run=NONE -fuzz=FuzzStreamRelay -fuzztime=5s ./internal/router/
	$(GO) test -run=NONE -fuzz=FuzzStreamTrailer -fuzztime=5s ./cmd/bvqload/
	$(GO) test -run=NONE -fuzz=FuzzServeConn -fuzztime=5s ./internal/serve/
	$(MAKE) examples
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	$(GO) -C bench run repro/bench -selfcheck
	./scripts/stream_smoke.sh
	./scripts/fleet_smoke.sh
	./scripts/loc.sh $(LOC_CEILING)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "gofmt: files need formatting"; exit 1; }
	$(GO) vet ./...

# docs verifies the documentation surface: formatting, vet, the runnable
# godoc examples, and a `go doc` smoke pass over the public entry points.
docs:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "gofmt: files need formatting"; exit 1; }
	$(GO) vet ./...
	$(GO) test -run Example .
	@$(GO) doc . >/dev/null
	@$(GO) doc . EvalContext >/dev/null
	@$(GO) doc . FindCertificate >/dev/null
	@$(GO) doc . ModelCheck >/dev/null
	@$(GO) doc ./internal/server >/dev/null
	@$(GO) doc ./internal/cache >/dev/null
	@$(GO) doc ./internal/metrics >/dev/null
	@echo "docs: gofmt clean, examples pass, go doc smoke ok"

race:
	$(GO) test -race ./...

# loc prints non-test Go lines per package and in total, outside bench/ —
# the figure ROADMAP re-anchors quote.
loc:
	./scripts/loc.sh

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-json emits machine-readable engine-comparison records (JSON Lines):
# one object per (workload, engine, size) cell with ns/op and the engine's
# work counters. EXPERIMENTS.md quotes a run of this target.
bench-json:
	$(GO) run ./cmd/bvqbench -json

# bench-sparse is the sparse-backend smoke slice of bench-json: the quick
# sweeps include the n^k-wall scenarios (sparse-tc, sparse-2hop up to
# n=1000); the full n=10,000 run with its 1 GiB peak-memory assertion lives
# in `make check` as TestSparseLargeDomainTC.
bench-sparse:
	$(GO) run ./cmd/bvqbench -json -quick | grep '"bench":"sparse-'

# bench-stream prices the first tuple, a LIMIT 64 and a drain of a stream
# over the unfiltered two-hop join against materialising its answer, on the
# sparse route at n = 2,000 and 10,000, with allocations (eval's
# BenchmarkTwoHopStream; ROADMAP 7(f) reads its first-tuple line).
bench-stream:
	$(GO) test -run=NONE -bench=BenchmarkTwoHopStream -benchmem ./internal/eval/

# bench-smoke runs every benchmark exactly once — a compile-and-run
# existence check, not a measurement.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# smoke-stream boots bvqd on the example graph and curls a streamed /query,
# checking the NDJSON wire format end to end (scripts/stream_smoke.sh).
smoke-stream:
	./scripts/stream_smoke.sh

# fleet-smoke boots three bvqd replicas behind bvqrouter and checks the
# fleet contract: byte-identical routed answers (JSON and stream rows), a
# short bvqload run with non-zero routed queries and zero 5xx, a capacity
# point (1 vs 3 replicas), and a mid-load replica kill that the router
# absorbs with eviction + retries (scripts/fleet_smoke.sh).
fleet-smoke:
	./scripts/fleet_smoke.sh

# Regenerate the EXPERIMENTS.md sweeps (about a minute).
sweep:
	$(GO) run ./cmd/bvqbench

sweep-quick:
	$(GO) run ./cmd/bvqbench -quick

# crossover regenerates the grid the backend cost model is fitted on (the
# benchmark's query families × its database shapes × n = 16 … 256, each cell on
# the forced dense, forced sparse and auto routes; about six minutes) and
# refits plan.DenseCoef / plan.SparseCoef to it: the fit and the residuals the
# committed coefficients leave are printed, not written back.
crossover:
	$(GO) test ./internal/eval -run TestCrossoverSweep -crossover.sweep -v -timeout 30m | grep '^{' >CROSSOVER_22.jsonl
	$(GO) test ./internal/eval -run TestCrossoverFit -crossover.fit $(CURDIR)/CROSSOVER_22.jsonl -v

# serve runs the bvqd query daemon on the bundled example databases
# (OPERATIONS.md documents the endpoints; -ordered enables the fixpoint
# queries that need the built-in linear order).
serve:
	$(GO) run ./cmd/bvqd -ordered \
		-db graph=examples/data/graph.db \
		-db corp=examples/data/corporate.db

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/employees
	$(GO) run ./examples/reachability
	$(GO) run ./examples/modelcheck
	$(GO) run ./examples/qbfhardness
	$(GO) run ./examples/expression
	$(GO) run ./examples/largegraph
	$(GO) run ./examples/server

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

clean:
	rm -f coverage.out test_output.txt bench_output.txt
