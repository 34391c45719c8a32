// Command bpserve runs the multi-tenant FHE serving layer: an HTTP
// service over one bitpacker context profile with per-tenant slot
// windows, a slot-packing batch scheduler, bounded queues with 429
// backpressure, and durable checkpoint/resume long jobs.
//
// Quickstart:
//
//	bpserve -addr :8080 -jobdir /tmp/bpserve-jobs
//	curl -s -X POST localhost:8080/v1/register \
//	    -d '{"profile":"default","tenant":"alice"}'
//	curl -s localhost:8080/v1/stats
//
// Eval and job submissions are framed binary streams (see
// internal/serve and the README quickstart); bench/serve.go (the
// serve_mix workload of BENCHMARK.json) is the reference client.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bitpacker"
	"bitpacker/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	logN := flag.Int("logn", 11, "ring degree log2 for the default profile")
	levels := flag.Int("levels", 4, "multiplicative depth")
	scaleBits := flag.Float64("scale", 40, "CKKS scale bits")
	wordBits := flag.Int("word", 61, "hardware word size (BitPacker packing target)")
	scheme := flag.String("scheme", "bitpacker", "scheme: "+schemeValues)
	window := flag.Int("window", 0, "slots per tenant window (0 = Slots()/8)")
	maxBatch := flag.Int("maxbatch", 0, "max requests per packed batch (0 = window capacity)")
	flush := flag.Duration("flush", 3*time.Millisecond, "how long a lone batch waits for riders while nothing else is queued")
	queueDepth := flag.Int("queue", 64, "request queue depth (full = HTTP 429)")
	keyCache := flag.Int64("keycache", 32<<20, "switching-key cache budget in bytes")
	noPack := flag.Bool("nopack", false, "disable slot packing (solo evaluation)")
	jobDir := flag.String("jobdir", "", "durable job state directory (empty = jobs disabled)")
	retries := flag.Int("retries", 3, "op-level retry attempts for detected faults")
	shardWorkers := flag.Int("shard-workers", 0, "run long jobs on this many supervised bpworker processes (0 = in-process)")
	shardAddrs := flag.String("shard-addrs", "", "comma-separated bpworker -listen addresses: run long jobs on a standing TCP fleet (requires a shared jobdir filesystem)")
	flag.Parse()

	sc, err := parseScheme(*scheme)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bpserve:", err)
		os.Exit(2)
	}
	cfg := bitpacker.Config{
		Scheme:        sc,
		LogN:          *logN,
		Levels:        *levels,
		ScaleBits:     *scaleBits,
		WordBits:      *wordBits,
		KeyCacheBytes: *keyCache,
	}
	if *retries > 0 {
		cfg.Retry = &bitpacker.RetryPolicy{MaxAttempts: *retries}
	}
	srv, err := serve.NewServer(serve.Options{
		Profiles: []serve.ProfileConfig{{
			Name:          "default",
			Params:        cfg,
			Window:        *window,
			MaxBatch:      *maxBatch,
			FlushInterval: *flush,
			QueueDepth:    *queueDepth,
			Packing:       !*noPack,
		}},
		JobDir: *jobDir,
		Shard:  bitpacker.ShardOptions{Workers: *shardWorkers, Addrs: splitAddrs(*shardAddrs), Logf: log.Printf},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()

	log.Printf("bpserve listening on %s (scheme=%s logN=%d levels=%d packing=%v)",
		*addr, sc, *logN, *levels, !*noPack)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// HTTP intake is closed; drain the schedulers and cut in-flight long
	// jobs (sharded ones drain their worker fleet through the supervisor)
	// so they stay durably "running" and the next start resumes them,
	// keeping the shards whose final checkpoint landed.
	srv.Shutdown()
	log.Printf("bpserve drained cleanly")
}

// schemeValues are the -scheme spellings parseScheme accepts.
const schemeValues = "bitpacker, rnsckks or rns-ckks (case-insensitive)"

// parseScheme resolves the -scheme flag. Anything outside schemeValues is
// an error: serving a different scheme than the operator asked for is
// worse than not starting.
func parseScheme(s string) (bitpacker.Scheme, error) {
	switch strings.ToLower(s) {
	case "bitpacker":
		return bitpacker.BitPacker, nil
	case "rnsckks", "rns-ckks":
		return bitpacker.RNSCKKS, nil
	}
	return 0, fmt.Errorf("unknown -scheme %q: want %s", s, schemeValues)
}

// splitAddrs parses the comma-separated -shard-addrs value.
func splitAddrs(s string) []string {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}
