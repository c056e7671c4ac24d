GO ?= go

.PHONY: all build test race vet check bench bench-smoke bench-agg bench-recovery bench-rebalance chaos soak smoke

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# gofmt over the tracked files only, so build output such as .bench_build/
# is never checked; any file it names fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# Race-detector pass over every package.
race:
	$(GO) test -race -count=1 ./...

# The CI gate: vet + race over every package, then the full suite.
check: vet race test

# Seeded chaos sweep: every scenario under CHAOS_ITERS consecutive seeds
# starting at CHAOS_SEED. A failure prints the reproducing seed.
chaos:
	CHAOS_SEED=$${CHAOS_SEED:-1} CHAOS_ITERS=$${CHAOS_ITERS:-3} \
		$(GO) test ./internal/chaos/ -run TestChaos -count=1 -v

# Compound-chaos soak: rounds of the zipfian workload under partitions,
# crashes, lying fsyncs and torn pages until SOAK_DURATION expires (0 = one
# round), rotating commit protocols. A violation prints the reproducing
# seed and the executed fault schedule; replay one round with
# SOAK_SEED=<seed> SOAK_DURATION=0. SOAK_DUMP writes the violation report
# to a file for CI artifact upload.
soak:
	SOAK_SEED=$${SOAK_SEED:-1} SOAK_DURATION=$${SOAK_DURATION:-1m} \
		$(GO) test ./internal/chaos/ -run TestSoak -count=1 -v -timeout 40m

bench:
	$(GO) test -bench . -benchtime 2000x -run xxx .

# benchmark/ is a module of its own, so `go build ./... && go test ./...`
# never compiles it: vet it and run its smoke test (every workload, a few
# seconds) so a changed internal/* signature cannot silently break the
# yardstick.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Aggregate pushdown vs ship-every-row ablation: the 100k-row 4-site
# grouped sum. Regenerates BENCH_agg.json.
bench-agg:
	$(GO) run ./cmd/harbor-bench agg -iters 5 | tee BENCH_agg.json

# MTTR split of per-object recovery: time until the first historical query
# is answered by a recovering multi-object site vs time until full catch-up.
# Regenerates BENCH_recovery.json.
bench-recovery:
	$(GO) run ./cmd/harbor-bench recovery | tee BENCH_recovery.json

# Online scale-out through the segment-transfer engine: a packed 4-site
# placement rebalanced to 6 then 8 sites with core.Migrate, measuring
# scan and commit throughput at each stage. Regenerates
# BENCH_rebalance.json.
bench-rebalance:
	$(GO) run ./cmd/harbor-bench rebalance | tee BENCH_rebalance.json

# Boots a standalone worker with -debug-addr and validates the
# /debug/harbor observability endpoint's JSON shape.
smoke:
	./scripts/smoke_debug.sh
