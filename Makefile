GO ?= go

.PHONY: all build vet test race bench bench-test bench-smoke bench-smoke-baseline check clean panicgate fuzz-smoke chaos-soak serve-smoke serve-load shard-soak net-chaos-soak shard-bench

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The execution engine's concurrency is validated with the race detector
# over the packages that dispatch work across residues, plus the serving
# layer's scheduler.
race:
	$(GO) test -race ./internal/ring/... ./internal/ckks/... ./internal/serve/...

bench:
	$(GO) test -bench BenchmarkOp -benchtime 1x -run '^$$' .

# The repo's benchmark (bench/, see BENCHMARK.json) is a module of its
# own that imports internal/..., so `go test ./...` never compiles it: an
# internal rename would break it unnoticed. Its own suite builds it
# against the library and runs a quick pass of every workload.
bench-test:
	$(GO) -C bench test .

# Fused-kernel regression gate: at tiny parameters, check fused vs staged
# MulRescale agree exactly, then fail if the fused/staged time ratio
# regressed >10% against the checked-in baseline. The baseline is a
# ratio, not nanoseconds, so any machine can judge it.
bench-smoke:
	$(GO) run ./cmd/bpbench -smoke BENCH_SMOKE.json

bench-smoke-baseline:
	$(GO) run ./cmd/bpbench -smoke BENCH_SMOKE.json -smoke-update

# Error-taxonomy gate: the API layers (root package, internal/ckks,
# internal/engine, internal/fherr, internal/chaos) report failures as
# typed errors. panic( is allowed only in the documented Must* wrappers
# (must.go) and on lines marked "(unreachable)" — internal-corruption
# assertions that no input can trigger. Low-level kernels (ring, rns,
# nt, ntt, core) keep precondition panics by design; see DESIGN.md.
panicgate:
	@bad=$$(grep -rn "panic(" --include="*.go" *.go internal/ckks internal/engine internal/fherr internal/chaos internal/serve \
		| grep -v _test.go | grep -vE '(^|/)must\.go:' | grep -v unreachable; true); \
	if [ -n "$$bad" ]; then echo "untyped panic in API layer:"; echo "$$bad"; exit 1; fi

# Short native-fuzz runs over every target: a smoke pass for CI, not a
# campaign. Seed corpora live in testdata/fuzz/ next to each target;
# the deserialization targets carry hostile-length corpus cases.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzEncodeDecode -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzParams -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalCiphertext -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalSwitchingKey -fuzztime 20s ./internal/ckks
	$(GO) test -run '^$$' -fuzz FuzzDecodeWorkerMessage -fuzztime 20s ./internal/shard

# Serving-layer smoke: 100 mixed-tenant requests through the full HTTP
# stack under chaos bursts — zero 5xx, every answer verified, clean
# drain — with the race detector on.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke' -v ./internal/serve

# Serving-layer load comparison: packed vs one-request-per-ciphertext
# req/s and latency percentiles into BENCH_5.json.
serve-load:
	$(GO) run ./cmd/bpbench -serve-load BENCH_5.json

# Shard soak: the supervised worker-process suite under the race
# detector, repeated with shuffled order. TestShardSoak kills random
# workers mid-job with SIGKILL; every repetition must finish with zero
# lost or duplicated shards and outputs bit-identical to the serial run.
shard-soak:
	$(GO) test -race -count=3 -shuffle=on -run 'TestShard' -timeout 20m ./internal/shard/

# Network chaos soak: the TCP worker-fleet suite under the race
# detector, repeated with shuffled order. Connection drops, partitions,
# duplicate and stale-epoch deliveries, and full fleet loss must all
# recover with outputs bit-identical to the serial run and every
# stale-lease write fenced off.
net-chaos-soak:
	$(GO) test -race -count=3 -shuffle=on -run 'TestTCP|TestFleet' -timeout 20m ./internal/shard/

# Sharded-executor speedup bench: predicted (accelerator cost model) vs
# measured wall time for the fork fleet and the TCP fleet into
# BENCH_7.json (fork fields keep their BENCH_6 names).
shard-bench:
	$(GO) run ./cmd/bpbench -shard BENCH_7.json

# Chaos soak: run the fault-injection and self-healing suites (RRNS
# repair, op-level retry, checkpoint/resume) repeatedly with shuffled
# test order. Recovery bugs are often timing- and order-dependent; a
# soak of shuffled repetitions flushes out what a single pass misses.
chaos-soak:
	$(GO) test -race -count=5 -shuffle=on -short -run 'Chaos|SelfHeal|Fault|Retry|Burst|RRNS|Pipeline' \
		./internal/chaos/... ./internal/engine/... ./internal/pipeline/... ./internal/ckks/... .

# Tier-1 gate: everything must build, vet clean, pass tests, and the
# parallel hot paths must be race-free.
check: build vet test race panicgate

clean:
	$(GO) clean ./...
