# Development entry points. `make check` is what CI runs: vet, build,
# the full test suite under the race detector (the parallel stage-B
# worker pool in internal/solver must stay race-clean), the coverage
# ratchet on the fault-critical packages, one iteration of every
# benchmark, and a short smoke run of every native fuzz target. It
# writes only ignored files: `git status` is clean afterwards.

GO ?= go
FUZZTIME ?= 30s
COVER_FLOOR ?= 94.0
COVER_PKGS = ./internal/dist ./internal/solver
BENCH_PKGS = ./internal/dist ./internal/solver ./internal/mat ./internal/sparse ./internal/rng

.PHONY: check vet build test race bench bench-smoke bench-exact golden-fence cover fuzz-smoke staticcheck loc-guard loc reach serving-smoke

check: vet staticcheck loc-guard loc build race cover bench-smoke serving-smoke fuzz-smoke

vet:
	$(GO) vet ./...

# Static analysis beyond vet. The tool is optional locally (no network
# installs in the dev container); CI installs it and the gate is hard
# there.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
	  staticcheck ./... ; \
	else \
	  echo "staticcheck: not installed, skipping (CI runs it)"; \
	fi

# Source-size ratchet: no non-test Go file may exceed 500 lines. This
# is the pressure that keeps engines on the shared solvercore runtime
# instead of growing private copies of the round loop. Never raise the
# limit; split the file.
loc-guard:
	@bad=$$(find . -name '*.go' ! -name '*_test.go' -not -path './.git/*' \
	  -exec awk 'END { if (NR > 500) print FILENAME ": " NR " lines" }' {} \;); \
	if [ -n "$$bad" ]; then \
	  echo "loc-guard: files over 500 lines:" >&2; echo "$$bad" >&2; exit 1; \
	fi; \
	echo "loc-guard: all non-test Go files within 500 lines"

# Source-size report: non-test Go lines per package directory, then
# their total outside bench/ — the figures ROADMAP.md and CHANGES.md
# quote. Informational; loc-guard is the gate.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './.git/*' -not -path './.bench_build/*' \
	  -exec wc -l {} + | \
	awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1 } \
	  END { for (d in n) printf "%7d  %s\n", n[d], d }' | sort -k2 | \
	awk '{ print } $$2 !~ /^\.\/bench(\/|$$)/ { t += $$1 } END { printf "%7d  total outside bench/\n", t }'

# Reach report: which internal/ functions the consumers never run. The
# consumers are the root package, the commands, the repo benchmark and
# the two driver packages (serve, expt); their tests run with coverage
# counted over all of internal/, and every function that stays at 0 %
# is listed under its package with its position, followed by the
# covered share of internal/ statements. A listed function that no
# non-test code calls (examples/ count as callers; they have no tests)
# is a deletion candidate. Stdlib only; informational, like loc; writes
# only the ignored reach.out.
REACH_PKGS = . ./cmd/... ./bench ./internal/serve ./internal/expt
reach:
	@out=$$($(GO) test -count=1 -coverpkg=./internal/... -coverprofile=reach.out $(REACH_PKGS) 2>&1) || \
	  { echo "$$out"; exit 1; }
	@$(GO) tool cover -func=reach.out | \
	awk '$$1 != "total:" && $$NF == "0.0%" { f = $$1; sub(/^github.com\/hpcgo\/rcsfista\//, "", f); \
	  sub(/:$$/, "", f); p = f; sub(/\/[^\/]*$$/, "", p); print p, f, $$2 }' | sort -k1,1 -k2,2V | \
	awk '$$1 != p { if (p != "") printf "%s (%d unreached)\n%s", p, n, l; p = $$1; n = 0; l = "" } \
	  { n++; t++; l = l sprintf("    %-44s %s\n", $$2, $$3) } \
	  END { if (p != "") printf "%s (%d unreached)\n%s", p, n, l; printf "%d functions unreached\n", t }'
	@awk 'NR > 1 { split($$0, f, " "); s[f[1]] = f[2]; if (f[3] > 0) c[f[1]] = 1 } \
	  END { for (b in s) { t += s[b]; if (b in c) r += s[b] } \
	  printf "consumer coverage: %d of %d internal/ statements (%.1f%%)\n", r, t, 100 * r / t }' reach.out

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Coverage ratchet: the packages holding the fault-injection layer and
# the solver's degradation logic must stay at or above COVER_FLOOR.
# Raise the floor when coverage rises; never lower it.
cover:
	$(GO) test -coverprofile=cover.out $(COVER_PKGS)
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
	  { echo "coverage $$total% fell below the $(COVER_FLOOR)% floor" >&2; exit 1; }

# Each native fuzz target runs for FUZZTIME; any crasher fails the build.
fuzz-smoke:
	$(GO) test -run NONE -fuzz '^FuzzFaultPlan$$' -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run NONE -fuzz '^FuzzWireFrame$$' -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run NONE -fuzz '^FuzzI8Codec$$' -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run NONE -fuzz '^FuzzPackedCholesky$$' -fuzztime $(FUZZTIME) ./internal/mat
	$(GO) test -run NONE -fuzz '^FuzzMulVecSparse$$' -fuzztime $(FUZZTIME) ./internal/mat
	$(GO) test -run NONE -fuzz '^FuzzSampledGramPacked$$' -fuzztime $(FUZZTIME) ./internal/sparse
	$(GO) test -run NONE -fuzz '^FuzzSampledGramPackedActive$$' -fuzztime $(FUZZTIME) ./internal/sparse
	$(GO) test -run NONE -fuzz '^FuzzResidualPass$$' -fuzztime $(FUZZTIME) ./internal/sparse
	$(GO) test -run NONE -fuzz '^FuzzTripleBound$$' -fuzztime $(FUZZTIME) ./internal/solver
	$(GO) test -run NONE -fuzz '^FuzzSampledHessianPacked$$' -fuzztime $(FUZZTIME) ./internal/erm
	$(GO) test -run NONE -fuzz '^FuzzReadLIBSVM$$' -fuzztime $(FUZZTIME) ./internal/data
	$(GO) test -run NONE -fuzz '^FuzzLIBSVMIndices$$' -fuzztime $(FUZZTIME) ./internal/data
	$(GO) test -run NONE -fuzz '^FuzzParseGroups$$' -fuzztime $(FUZZTIME) ./internal/prox
	$(GO) test -run NONE -fuzz '^FuzzSampleWithoutReplacement$$' -fuzztime $(FUZZTIME) ./internal/rng

# serving-smoke is the service-level acceptance gate: loadgen drives an
# in-process server through the canonical 64-request lambda-path sweep
# and fails unless every request succeeds and the lambda-path warm-start
# cache clears a 50% hit rate. The latency-histogram report is the
# loadgen-report.json artifact CI archives per commit.
serving-smoke:
	$(GO) run ./cmd/loadgen -selfserve -n 64 -sweep -sweep-len 16 -conc 4 \
	  -seed 1 -procs 2 -min-hit-rate 0.5 -o loadgen-report.json

bench:
	$(GO) test -run NONE -bench . -benchtime=1x .

# One iteration of every per-package benchmark (dist, solver, the mat
# kernels, the sparse Gram fill on both sides of its dense/sparse
# selection, and the shared sample draw): a cheap end-to-end smoke of
# both round loops (the solver benchmarks pick each one through the
# engine's loop argument, since no option selects it) and the
# nonblocking collectives. Nothing gates on the timings — the benchmarks are tools
# that report `gflops`, `ns/draw` and words next to the code they
# measure; timing claims are made on bench/.
bench-smoke:
	$(GO) test -run NONE -bench . -benchtime=1x $(BENCH_PKGS)

# bench-exact is the refactor gate: `make bench-exact BASE=<git-ref>`
# runs the repo benchmark's quick form (all six workloads, both passes,
# ~12 s per tree) on BASE — its committed files, unpacked with git
# archive under the ignored .bench_build/, which writes nothing under
# .git and needs no cleanup trap — and on this tree, then fails if bench
# -compare reports that any exact-repeat count moved (perf.flops/msgs/
# words, solver.rounds/updates, dist.calls_per_solve,
# dist.words_in_per_solve; two runs of one commit print none), or that
# the work tree's run had failed ops. Timings from one -quick pass are
# noise, so the compare's bound verdict is stripped from the table it
# prints and nothing gates on a timing: a change that claims "same
# behaviour" shows it moved no count, a change that moves one on purpose
# says so in its PR, and timing claims are made on interleaved runs of
# bench/run.sh.
EXACT_DIR = .bench_build/exact
bench-exact:
	@test -n "$(BASE)" || { echo "usage: make bench-exact BASE=<git-ref>" >&2; exit 2; }
	@set -e; dir=$$(pwd)/$(EXACT_DIR); \
	rm -rf $$dir; mkdir -p $$dir/base; \
	git archive $(BASE) | tar -x -C $$dir/base; \
	(cd $$dir/base && $(GO) run ./bench -quick -seed 1 -out $$dir/base-out) >/dev/null; \
	rm -rf $$dir/base; \
	$(GO) run ./bench -quick -seed 1 -out $$dir/head-out >/dev/null; \
	$(GO) run ./bench -compare $$dir/base-out/result-seed1.json $$dir/head-out/result-seed1.json \
	  > $$dir/compare.txt 2> $$dir/compare.err || true; \
	grep -q ' op_p50_ms ' $$dir/compare.txt || { cat $$dir/compare.txt $$dir/compare.err >&2; exit 1; }; \
	echo "bench-exact: timings below come from one -quick pass each and are not gated"; \
	sed 's/  OUTSIDE BOUND$$//' $$dir/compare.txt; \
	if grep -q ' b has [0-9]* failed ops' $$dir/compare.txt; then \
	  echo "bench-exact: the work tree's run has failed ops" >&2; exit 1; \
	fi; \
	if grep -q ' moved: ' $$dir/compare.txt; then \
	  echo "bench-exact: exact-repeat counts moved against $(BASE)" >&2; exit 1; \
	fi; \
	echo "bench-exact: no exact-repeat count moved against $(BASE)"

# golden-fence is the fixture gate: `make golden-fence BASE=<git-ref>`
# fails when any record present both in BASE:testdata/golden.json and
# in the work tree's file differs by a byte. Records may be retired or
# added (both are listed); a record that survives must not move — so a
# PR that retires fixtures cannot also regenerate the rest unnoticed.
golden-fence:
	@test -n "$(BASE)" || { echo "usage: make golden-fence BASE=<git-ref>" >&2; exit 2; }
	$(GO) run ./cmd/goldenfence $(BASE)
