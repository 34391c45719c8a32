GO ?= go

.PHONY: all build vet test race bench-test check clean panicgate opgate keygate framegate docs-check loc fuzz-smoke chaos-soak serve-smoke

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

# The repo's benchmark (bench/, see BENCHMARK.json) is a module of its
# own that imports internal/..., so `go test ./...` never compiles it: an
# internal rename would break it unnoticed. Its own suite builds it
# against the library and runs a quick pass of every workload.
bench-test:
	$(GO) -C bench test .

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

# One-definition gate: a program op (square, quartic, negate, offset,
# scale, rotate) is defined once, as a row of program.go's op table. A
# `case` on an op name anywhere else in non-test code is a second
# definition growing back. bench/ is frozen and reads the names only.
opgate:
	@bad=$$(grep -rnE 'case (bitpacker\.)?(ShardOp|Op)(Square|Quartic|Negate|Offset|Scale|Rotate)' --include='*.go' . \
		| grep -v _test.go | grep -vE '^\./(bench|\.bench_build)/' | grep -v '^\./program\.go:'; true); \
	if [ -n "$$bad" ]; then echo "program op switched on outside program.go:"; echo "$$bad"; exit 1; fi

# One-key-store gate: switching keys come from ckks.KeyManager alone (a
# closed set or a budgeted cache). A call of GenRelinKey, GenGaloisKey
# or the genSwitchingKey they wrap in non-test code anywhere but
# internal/ckks/keycache.go (and keys.go, where they are defined) is a
# second key source growing back. bench/ is frozen and measures keygen
# directly.
keygate:
	@bad=$$(grep -rnE '\.(Gen(Relin|Galois)|[Gg]enSwitching)Key\(' --include='*.go' . \
		| grep -v _test.go | grep -vE '^\./(bench|\.bench_build)/' | grep -vE '^\./internal/ckks/(keycache|keys)\.go:'; true); \
	if [ -n "$$bad" ]; then echo "switching key generated outside the key store:"; echo "$$bad"; exit 1; fi

# One-frame gate: every stream and stored blob (serve's eval streams,
# checkpoints, state batches, the shard wire and job file) is framed by
# internal/frame, the one place that writes or parses a length, a kind
# or a checksum. Non-test code elsewhere that imports encoding/binary, or
# reads delimited input with ReadSlice/ReadString/ReadBytes or a
# bufio.Scanner, is a second framing growing back. internal/ckks keeps
# the ciphertext encoding and its cache keys; bench/ is frozen.
framegate:
	@bad=$$(grep -rnE '"encoding/binary"|\.(ReadSlice|ReadString|ReadBytes)\(|bufio\.(Scanner|NewScanner)' --include='*.go' . \
		| grep -v _test.go | grep -vE '^\./(bench|\.bench_build|internal/frame|internal/ckks)/'; true); \
	if [ -n "$$bad" ]; then echo "framing outside internal/frame:"; echo "$$bad"; exit 1; fi

# Stale-reference gate: the prose names commands, and a deleted target,
# tool or flag otherwise lingers there unnoticed. Fails when README.md,
# DESIGN.md, EXPERIMENTS.md or the verify skill mention a backticked
# `make <target>` absent from this Makefile, a `go run ./<dir>` whose
# directory does not exist, or a `bpbench -<flag>` that cmd/bpbench does
# not define.
DOCS = README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md
docs-check:
	@bad=$$( \
	for t in $$(grep -ohE '`make [a-z][a-z0-9-]*`' $(DOCS) | tr -d '`' | cut -d' ' -f2 | sort -u); do \
		grep -q "^$$t:" Makefile || echo "  make $$t: no such target"; \
	done; \
	for d in $$(grep -ohE 'go run \./[A-Za-z0-9_/.-]+' $(DOCS) | cut -d' ' -f3 | sort -u); do \
		[ -d "$$d" ] || echo "  go run $$d: no such directory"; \
	done; \
	for f in $$(grep -ohE 'bpbench( +-[a-z][a-z-]*( +[^-` #][^` ]*)?)+' $(DOCS) | grep -oE ' -[a-z][a-z-]*' | sed 's/^ -//' | sort -u); do \
		grep -q "flag\.[A-Za-z0-9]*(\"$$f\"" cmd/bpbench/*.go || echo "  bpbench -$$f: no such flag"; \
	done); \
	if [ -n "$$bad" ]; then echo "stale reference in $(DOCS):"; echo "$$bad"; exit 1; fi

# Line counts, regenerated instead of quoted by hand: ROADMAP's items
# close on `wc -l` exits (non-test lines of a package or two), and a
# number copied into prose goes stale with the next PR. Non-test and
# test lines of every package outside bench/, which is listed apart: it
# is frozen between benchmark PRs and only read here.
loc:
	@count() { if [ $$# -eq 0 ]; then echo 0; else cat "$$@" | wc -l; fi; }; \
	row() { printf '%-28s %9d %7d\n' "$$@"; }; \
	printf '%-28s %9s %7s\n' package non-test test; \
	tn=0; tt=0; \
	for d in $$(find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs -n1 dirname | sort -u); do \
		n=$$(count $$(ls $$d/*.go | grep -v _test.go)); t=$$(count $$(ls $$d/*_test.go 2>/dev/null)); \
		row $$d $$n $$t; tn=$$((tn+n)); tt=$$((tt+t)); \
	done; \
	row 'total outside bench/' $$tn $$tt; \
	row 'bench/ (read only)' $$(count $$(ls bench/*.go | grep -v _test.go)) $$(count $$(ls bench/*_test.go 2>/dev/null))

# Short native-fuzz runs over every target: a smoke pass for CI, not a
# campaign. Seed corpora live in testdata/fuzz/ next to each target;
# the deserialization targets carry hostile-length corpus cases, and the
# supervisor state machine's corpus holds one model-fleet schedule per
# row of DESIGN.md's failure matrix (its seeded and exhaustive schedule
# search runs in plain `go test`, which is what replaced the shard soak).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzEncodeDecode -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzParams -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalCiphertext -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzProgram -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzDecodeWorkerMessage -fuzztime 20s ./internal/shard
	$(GO) test -run '^$$' -fuzz FuzzSupervisorMachine -fuzztime 20s ./internal/shard
	$(GO) test -run '^$$' -fuzz FuzzFrameRead -fuzztime 20s ./internal/frame

# Serving-layer smoke: 100 mixed-tenant requests through the full HTTP
# stack under chaos bursts — zero 5xx, every answer verified, clean
# drain — with the race detector on.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke' -v ./internal/serve

# Chaos soak: run the fault-injection and self-healing suites (RRNS
# repair, op-level retry, checkpoint/resume) repeatedly with shuffled
# test order. Recovery bugs are often timing- and order-dependent; a
# soak of shuffled repetitions flushes out what a single pass misses.
chaos-soak:
	$(GO) test -race -count=5 -shuffle=on -short -run 'Chaos|SelfHeal|Fault|Retry|Burst|RRNS|Pipeline' \
		./internal/chaos/... ./internal/engine/... ./internal/pipeline/... ./internal/ckks/... .

# Tier-1 gate: everything must build, vet clean, pass tests (bench/'s
# included), the parallel hot paths must be race-free, a program op must
# have one definition, switching keys one source, streams and blobs one
# frame format, and the docs may name only commands that exist.
check: build vet test bench-test race panicgate opgate keygate framegate docs-check

clean:
	$(GO) clean ./...
