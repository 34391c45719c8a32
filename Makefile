GO ?= go

.PHONY: all build vet test race bench-test check clean panicgate opgate keygate jobgate clientgate routegate framegate puregate rotgate divgate docs-check loc fuzz-smoke chaos-soak serve-smoke

all: check

build:
	$(GO) build ./...

# Vet, plus the formatting gate: gofmt must leave every Go file outside
# the benchmark's build directory as it is (gofmt -l lists the files it
# would rewrite, doc comments included).
vet:
	$(GO) vet ./...
	@bad=$$(gofmt -l $$(find . -name '*.go' -not -path './.bench_build/*')); \
	if [ -n "$$bad" ]; then echo "gofmt would rewrite:"; echo "$$bad"; exit 1; fi

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
# (must.go) and on lines that carry the "(unreachable)" marker, parentheses
# included — internal-corruption assertions that no input can trigger. Low-level kernels (ring, rns,
# nt, ntt, core) keep precondition panics by design; see DESIGN.md.
panicgate:
	@bad=$$(grep -rn "panic(" --include="*.go" *.go internal/ckks internal/engine internal/fherr internal/chaos internal/serve \
		| grep -v _test.go | grep -vE '(^|/)must\.go:' | grep -vF '(unreachable)'; true); \
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

# One-job gate: a served long job is one Context.RunSharded call, whose
# in-process route is its "no fleet" case. Non-test code in
# internal/serve that names RunProgram, RunPipeline or PipelineOptions is
# a second durable route (its own checkpoint directory and resume rule)
# growing back.
jobgate:
	@bad=$$(grep -rnE 'RunProgram|RunPipeline|PipelineOptions' --include='*.go' internal/serve \
		| grep -v _test.go; true); \
	if [ -n "$$bad" ]; then echo "second durable job route in internal/serve:"; echo "$$bad"; exit 1; fi

# Client gate: the paper reproduction (internal/experiments) is a client
# of the library — its functional experiments build a bitpacker.Context
# and run the public API. Non-test code there that imports internal/ckks
# is a second scheme setup growing back. The reverse edge needs no gate:
# the root importing internal/experiments would be an import cycle. The
# accelerator model (internal/accel) and the paper's workloads
# (internal/workloads) are the reproduction's too: if the runtime — the
# root, the serving layer, the shard packages and the two servers — links
# either, a price no host decision reads is growing back.
RUNTIME = . ./internal/serve ./internal/shard/... ./cmd/bpserve ./cmd/bpworker
clientgate:
	@bad=$$(grep -rn '"bitpacker/internal/ckks"' --include='*.go' internal/experiments \
		| grep -v _test.go; true); \
	if [ -n "$$bad" ]; then echo "internal/experiments builds its own scheme:"; echo "$$bad"; exit 1; fi
	@deps=$$($(GO) list -deps $(RUNTIME)) || exit 1; \
	bad=$$(echo "$$deps" | grep -xE 'bitpacker/internal/(accel|workloads)'; true); \
	if [ -n "$$bad" ]; then echo "the runtime links the accelerator model:"; echo "$$bad"; exit 1; fi

# Two-route gate: a sharded job has RunSharded's two routes — its
# in-process loop (no fleet, or the shards a lost fleet left unfinished)
# or a fleet member — and each runs a shard through ExecShard. A call of
# ExecShard in non-test code anywhere but sharded.go and
# internal/shard/worker is a third in-process route growing back. bench/
# is frozen and calls RunSharded only.
routegate:
	@bad=$$(grep -rn 'ExecShard(' --include='*.go' . \
		| grep -v _test.go | grep -vE '^\./(bench|\.bench_build)/' | grep -vE '^\./(sharded\.go|internal/shard/worker/[^/]+\.go):'; true); \
	if [ -n "$$bad" ]; then echo "shard run outside RunSharded's two routes:"; echo "$$bad"; exit 1; fi

# One-frame gate: every stream and stored blob (serve's eval streams and
# job files, checkpoints, state batches, the shard wire with its batches
# and the shard job file) is framed by
# internal/frame, the one place that writes or parses a length, a kind
# or a checksum. Non-test code elsewhere that imports encoding/binary, or
# reads delimited input with ReadSlice/ReadString/ReadBytes or a
# bufio.Scanner, is a second framing growing back. internal/ckks keeps
# the ciphertext encoding and its cache keys; bench/ is frozen.
framegate:
	@bad=$$(grep -rnE '"encoding/binary"|\.(ReadSlice|ReadString|ReadBytes)\(|bufio\.(Scanner|NewScanner)' --include='*.go' . \
		| grep -v _test.go | grep -vE '^\./(bench|\.bench_build|internal/frame|internal/ckks)/'; true); \
	if [ -n "$$bad" ]; then echo "framing outside internal/frame:"; echo "$$bad"; exit 1; fi

# Pure-core gate: three cores — the shard supervisor's state machine, the
# shard worker's (one per fleet slot) and the serving scheduler's — make
# every decision and carry none out — no lock, no process, file or
# socket, no clock, no goroutine — which is what lets their tests search
# them in virtual time. An import of sync, os or net, a clock or timer
# call of package time, or a go statement (comments aside) in any of the
# three files is the driver's work leaking into the core.
PURE = internal/shard/machine.go internal/shard/member.go internal/serve/core.go
puregate:
	@bad=$$(for f in $(PURE); do \
		sed 's://.*$$::' $$f | grep -nE '"(sync|os|net)(/[^"]*)?"|time\.(Now|Since|Sleep|NewTimer|AfterFunc|NewTicker|After)\(|(^|[^[:alnum:]_.])go +[[:alnum:]_(]' | sed "s|^|$$f:|"; \
	done); \
	if [ -n "$$bad" ]; then echo "impure core:"; echo "$$bad"; exit 1; fi

# One-rotation gate: every rotation (Rotate, Conjugate, RotateHoisted,
# the extraction, the BSGS babies and giants, InnerSum's steps) is
# internal/ckks's rotateExt, P·φ(ct) pending in the extended basis, and
# callers differ only in the decomposition they hand it; its division is
# whichever settle its consumer runs (divgate). Non-test internal/ckks
# code (comments aside) that names keySwitchExt outside rotateExt and
# the relinearization product relinExt, or PermuteNTTAdd outside
# rotateExt, is a second rotation route growing back. Any reference
# counts, not only a call: a method value (ks := ev.keySwitchExt) is a
# call made elsewhere.
rotgate:
	@bad=$$(for f in $$(ls internal/ckks/*.go | grep -v _test.go); do \
		sed 's://.*$$::' $$f | awk -v f=$$f ' \
			/^func / { fn = $$0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[[(].*/, "", fn) } \
			/keySwitchExt([^A-Za-z0-9_]|$$)/ && !/^func / && fn != "rotateExt" && fn != "relinExt" { print f ":" NR ": " fn ": " $$0 } \
			/PermuteNTTAdd([^A-Za-z0-9_]|$$)/ && fn != "rotateExt" { print f ":" NR ": " fn ": " $$0 }'; \
	done); \
	if [ -n "$$bad" ]; then echo "rotation or keyswitch outside the one rotation route:"; echo "$$bad"; exit 1; fi

# One-division gate: a pending component (P·c in the extended basis) is
# a state of the ciphertext, and every division — Rescale, AdjustTo, a
# keyswitch's ModDown, a decomposition's C1, Settle for a reader outside
# the evaluator — is internal/ckks's settle. Non-test internal/ckks code
# (comments aside) that names transition, ScaleDownNTTBatch or
# ScaleDownBatch outside settle is a second division route growing back.
# Any reference counts, not only a call (tr := ev.transition).
divgate:
	@bad=$$(for f in $$(ls internal/ckks/*.go | grep -v _test.go); do \
		sed 's://.*$$::' $$f | awk -v f=$$f ' \
			/^func / { fn = $$0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[[(].*/, "", fn); next } \
			/(transition|ScaleDownNTTBatch|ScaleDownBatch)([^A-Za-z0-9_]|$$)/ && fn != "settle" { print f ":" NR ": " fn ": " $$0 }'; \
	done); \
	if [ -n "$$bad" ]; then echo "division outside the one settle:"; echo "$$bad"; exit 1; fi

# Stale-reference gate: the prose names commands and knobs, and a
# deleted target, tool, flag, variable or option otherwise lingers there
# unnoticed. Fails when README.md, DESIGN.md, EXPERIMENTS.md or the verify
# skill mention a backticked `make <target>` absent from this Makefile, a
# `go run ./<dir>` whose directory does not exist, a `bpbench -<flag>`
# that cmd/bpbench does not define, a BITPACKER_* environment variable
# that no non-test Go file names, or a `ShardOptions.<Field>` that the
# declaration go doc prints does not list (ShardOptions is an alias of
# shard.Options, whose declaration carries the fields). The module map
# cannot go stale either: every directory under internal/ that holds a
# non-test Go file must be named, backticked, in DESIGN.md's "System
# inventory" section.
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
	done; \
	for v in $$(grep -ohE 'BITPACKER_[A-Z_]+' $(DOCS) | sort -u); do \
		grep -rlF "$$v" --include='*.go' --exclude-dir=.bench_build . | grep -v '_test\.go$$' | grep -q . || echo "  $$v: no non-test Go file names it"; \
	done; \
	fields=$$($(GO) doc ./internal/shard.Options | sed -n '/^type Options struct/,/^}/p' | grep -oE '^	[A-Z][A-Za-z0-9]*' | tr -d '\t'); \
	for f in $$(grep -ohE 'ShardOptions\.[A-Z][A-Za-z0-9]*' $(DOCS) | cut -d. -f2 | sort -u); do \
		echo "$$fields" | grep -qx "$$f" || echo "  ShardOptions.$$f: no such field"; \
	done; \
	inventory=$$(awk '/^## /{p=/^## System inventory/} p' DESIGN.md); \
	for d in $$(find internal -name '*.go' -not -name '*_test.go' | xargs -n1 dirname | sort -u); do \
		echo "$$inventory" | grep -qF "\`$$d\`" || echo "  $$d: missing from DESIGN.md's System inventory"; \
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
# the deserialization targets (the shard wire's batch reader among them)
# carry hostile-length corpus cases, and the
# supervisor state machine's corpus holds one model-fleet schedule per
# row of DESIGN.md's failure matrix, the scheduler core's one schedule
# per batching outcome (both cores' seeded and exhaustive schedule
# searches run in plain `go test`, which is what replaced the shard soak).
# FuzzSupervisorMachine steps the worker's core too: every model worker
# is a member.go Member under the supervisor's machine.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzEncodeDecode -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzParams -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalCiphertext -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzProgram -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzDecodeWorkerMessage -fuzztime 20s ./internal/shard
	$(GO) test -run '^$$' -fuzz FuzzReadBatch -fuzztime 20s ./internal/shard
	$(GO) test -run '^$$' -fuzz FuzzSupervisorMachine -fuzztime 20s ./internal/shard
	$(GO) test -run '^$$' -fuzz FuzzFrameRead -fuzztime 20s ./internal/frame
	$(GO) test -run '^$$' -fuzz FuzzDecodeState -fuzztime 20s ./internal/pipeline
	$(GO) test -run '^$$' -fuzz FuzzSchedulerCore -fuzztime 20s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 20s ./internal/ckks

# Serving-layer smoke: 100 mixed-tenant requests through the full HTTP
# stack under chaos bursts — zero 5xx, every answer verified, clean
# drain — and the scheduler core's schedule search and closed-loop model,
# so the policy's invariants are replayed where the scheduler runs under
# chaos; all with the race detector on.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke|TestSchedulerCore' -v ./internal/serve

# Chaos soak: run the fault-injection and self-healing suites (RRNS
# repair, op-level retry, checkpoint/resume) repeatedly with shuffled
# test order. Recovery bugs are often timing- and order-dependent; a
# soak of shuffled repetitions flushes out what a single pass misses.
# Checkpoint/resume is the root's stage runner (TestPipeline* in
# pipeline_test.go); internal/pipeline holds only the store and the
# codec, and none of its tests matches the pattern.
# The shard suites' process faults come second: a shard lost before its
# final checkpoint is recomputed from its input, and the shuffled
# repetitions put that path through every order.
chaos-soak:
	$(GO) test -race -count=5 -shuffle=on -short -run 'Chaos|SelfHeal|Fault|Retry|Burst|RRNS|Pipeline' \
		./internal/chaos/... ./internal/engine/... ./internal/ckks/... .
	$(GO) test -race -count=5 -shuffle=on -short -run 'Crash|Hang|Corrupt|Resume|Degraded|FleetLost' \
		./internal/shard/...

# Tier-1 gate: everything must build, vet clean, pass tests (bench/'s
# included), the parallel hot paths must be race-free, a program op must
# have one definition, switching keys one source, a served long job one
# route, the paper reproduction no scheme of its own and the runtime no
# accelerator model, a shard two routes, streams and blobs one frame
# format, the state-machine cores stay pure, a rotation and a division
# one route each, and the docs may name only commands that exist.
check: build vet test bench-test race panicgate opgate keygate jobgate clientgate routegate framegate puregate rotgate divgate docs-check

clean:
	$(GO) clean ./...
