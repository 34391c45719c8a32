#!/usr/bin/env bash
# The one command: builds the benchmark from source into .bench_build/
# (build cache and temporary files included, so nothing is written
# outside the checkout) and runs it with the arguments given.
#
#   bash bench/run.sh                                   all workloads, 3 rounds, then a traced pass
#   bash bench/run.sh --workload infer_bp28 --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -compare old.json new.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export TMPDIR="$build/tmp"

cd "$root"
# Build output goes to stderr so stdout carries only the benchmark's own lines.
go build -C bench -o "$build/bpbench" . 1>&2

# The benchmark, its shard workers and its fleet run on one processor, the
# last: the reference that every timing is scaled by (bench/reference.go)
# has to see the same core as the work. Without taskset it runs unpinned.
pin=()
cpu=$(($(nproc 2>/dev/null || echo 1) - 1))
if taskset -c "$cpu" true 2>/dev/null; then
	pin=(taskset -c "$cpu")
fi

# A child, not exec: a process that execs keeps the resource usage of the
# children it has reaped, and the build's would count as the benchmark's
# largest worker in peak_rss_mb. A signal to this shell goes on to the
# benchmark, and the shell still waits for it to end.
"${pin[@]}" "$build/bpbench" "$@" &
child=$!
trap 'kill "$child" 2>/dev/null' TERM INT HUP
status=0
wait "$child" || status=$?
while kill -0 "$child" 2>/dev/null; do
	wait "$child" || status=$?
done
exit "$status"
