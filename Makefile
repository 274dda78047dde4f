# Developer entry points. Everything is plain `go` — no external tools.

GO ?= go

.PHONY: all build test race fuzz-smoke spec-suite bench bench-sweep bench-all vet fmt cover examples experiments clean

all: build vet test

build:
	$(GO) build ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./internal/... ./rid/...

# Short fuzzing pass over the seven fuzz targets; CI runs the same budget.
# -fuzz is a regexp, so FuzzLexer is anchored to keep it from also matching
# FuzzLexerMatchesReference.
# -fuzzminimizetime=5x caps the minimization of each new interesting input
# at five runs; Go's default of 60 s each leaves most of the budget idle.
fuzz-smoke:
	$(GO) test ./internal/frontend/lexer -fuzz='^FuzzLexer$$' -fuzztime=20s -fuzzminimizetime=5x
	$(GO) test ./internal/frontend/lexer -fuzz=FuzzLexerMatchesReference -fuzztime=20s -fuzzminimizetime=5x
	$(GO) test ./internal/frontend/parser -fuzz=FuzzParser -fuzztime=20s -fuzzminimizetime=5x
	$(GO) test ./internal/frontend/parser -fuzz=FuzzLoadMatchesParseFile -fuzztime=20s -fuzzminimizetime=5x
	$(GO) test ./internal/solver -fuzz=FuzzSolver -fuzztime=20s -fuzzminimizetime=5x
	$(GO) test ./internal/store -fuzz=FuzzStoreLoad -fuzztime=20s -fuzzminimizetime=5x
	$(GO) test ./internal/spec -fuzz=FuzzSpecParser -fuzztime=20s -fuzzminimizetime=5x

# The spec-pack quality suite: detection matrices and cache differentials
# on the lock/fd corpora, plus the precision/recall gates (recall 1.0,
# precision >= 0.9) enforced through ridbench.
spec-suite:
	$(GO) test -count=1 ./internal/spec/ ./internal/corpus/lockgen/ ./internal/corpus/fdgen/ ./internal/experiments/ -run 'Spec|Pack|Detection|StaticCovers|Cache|Generate'
	$(GO) run ./cmd/ridbench -packs -min-precision 0.9 -min-recall 1

# §6.5 scaling benches with allocation stats; raw go-test JSON lands in
# bench.out.json (scratch) for before/after comparisons.
bench:
	$(GO) test -run '^$$' -bench 'Section65' -benchmem -json . | tee bench.out.json

# Regenerate the checked-in §6.5 worker-sweep trajectory point. The numbers
# are machine-dependent; refresh on a quiet multi-core box.
bench-sweep:
	$(GO) run ./cmd/ridbench -perf -workers 1,2,4,8 -perf-json BENCH_section65.json

bench-all:
	$(GO) test -bench=. -benchmem ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

cover:
	$(GO) test -cover ./...

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/linuxdpm
	$(GO) run ./examples/pythonc
	$(GO) run ./examples/wrappers
	$(GO) run ./examples/incremental

# Regenerate every table and statistic of the paper's evaluation.
experiments:
	$(GO) run ./cmd/ridbench -all

clean:
	$(GO) clean ./...
