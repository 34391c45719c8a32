package serve

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"

	"bitpacker"
	"bitpacker/internal/chaos"
)

// packProfile builds a one-profile registry sized for the property
// tests: 256 slots, 32-slot windows (8 tenants per packed ciphertext). A
// batch submitted here flushes by filling, never by its deadline.
func packProfile(t testing.TB, scheme bitpacker.Scheme) (*Registry, *profile) {
	t.Helper()
	reg, err := NewRegistry([]ProfileConfig{{
		Name: "p",
		Params: bitpacker.Config{
			Scheme:        scheme,
			LogN:          9,
			Levels:        3,
			ScaleBits:     40,
			QMinBits:      48,
			WordBits:      61,
			Seed:          11,
			KeyCacheBytes: 8 << 20,
		},
		Window:        32,
		MaxBatch:      8,
		FlushInterval: time.Minute,
		QueueDepth:    64,
		Packing:       true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := reg.profile("p")
	if err != nil {
		t.Fatal(err)
	}
	return reg, p
}

// tenantInput builds tenant ti's plaintext: its values in its window,
// zero everywhere else (the placement contract registration hands out).
// A nil values slice is the all-zeros tenant used by the bleed check.
func tenantInput(p *profile, ti int, values []float64) []float64 {
	in := make([]float64, p.ctx.Slots())
	base := ti * p.cfg.Window
	for i, v := range values {
		in[base+i] = v
	}
	return in
}

// tenantValues is the deterministic per-tenant payload.
func tenantValues(ti, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.01 * float64(ti+1) * float64(i%7+1)
	}
	return out
}

// buildBatch registers tenants 0..n-1, encrypts each one's input, and
// returns the requests ready for the scheduler's internal entry points.
func buildBatch(t testing.TB, p *profile, op string, args []float64, inputs [][]float64) []*evalRequest {
	t.Helper()
	batch := make([]*evalRequest, len(inputs))
	for ti, in := range inputs {
		ten := p.register(tenantName(ti))
		ct, err := p.ctx.EncryptReal(tenantInput(p, ten.window, in))
		if err != nil {
			t.Fatal(err)
		}
		batch[ti] = &evalRequest{
			tenant: ten,
			op:     op,
			arg:    args[ti],
			ct:     ct,
			level:  ct.Level(),
			scale:  ct.ScaleLog2(),
			done:   make(chan evalOutcome, 1),
		}
	}
	return batch
}

func tenantName(i int) string {
	return string(rune('a' + i))
}

// expected applies op in the clear.
func expected(op string, arg float64, v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		switch op {
		case OpSquare:
			out[i] = x * x
		case OpQuartic:
			out[i] = x * x * x * x
		case OpScale:
			out[i] = arg * x
		case OpOffset:
			out[i] = x + arg
		case OpNegate:
			out[i] = -x
		}
	}
	return out
}

// TestPackedMatchesSoloAndPlain is the packing property test: for every
// op and both backends, a full 8-tenant packed batch must (a) agree
// with the solo one-request-per-ciphertext path per tenant, (b) agree
// with the plaintext computation, and (c) leak nothing across slot
// windows — co-tenant slots decrypt to zero, and a tenant that
// submitted zeros gets zeros back even when batch-mates carried data.
func TestPackedMatchesSoloAndPlain(t *testing.T) {
	for _, scheme := range []bitpacker.Scheme{bitpacker.BitPacker, bitpacker.RNSCKKS} {
		for _, op := range []string{OpSquare, OpQuartic, OpScale, OpOffset, OpNegate} {
			t.Run(schemeName(scheme)+"/"+op, func(t *testing.T) {
				reg, p := packProfile(t, scheme)
				defer reg.Close()
				w := p.cfg.Window

				args := make([]float64, 8)
				inputs := make([][]float64, 8)
				for ti := range inputs {
					args[ti] = 0.5 + 0.25*float64(ti)
					inputs[ti] = tenantValues(ti, w)
				}
				inputs[5] = make([]float64, w) // the all-zeros tenant

				// One batch of eight.
				outs, err := p.sched.eval(buildBatch(t, p, op, args, inputs))
				if err != nil {
					t.Fatalf("packed eval: %v", err)
				}
				packed := make([][]float64, 8)
				for ti, out := range outs {
					if packed[ti], err = p.ctx.DecryptReal(out); err != nil {
						t.Fatal(err)
					}
				}

				// Eight batches of one over fresh encryptions of the same inputs.
				solo := make([][]float64, 8)
				for ti, r := range buildBatch(t, p, op, args, inputs) {
					outs, err := p.sched.eval([]*evalRequest{r})
					if err != nil {
						t.Fatalf("solo tenant %d: %v", ti, err)
					}
					if solo[ti], err = p.ctx.DecryptReal(outs[0]); err != nil {
						t.Fatal(err)
					}
				}

				for ti := 0; ti < 8; ti++ {
					want := expected(op, args[ti], inputs[ti])
					for i := 0; i < w; i++ {
						if d := math.Abs(packed[ti][i] - want[i]); d > 1e-2 {
							t.Fatalf("tenant %d slot %d: packed %v, plain %v (|d|=%g)",
								ti, i, packed[ti][i], want[i], d)
						}
						if d := math.Abs(packed[ti][i] - solo[ti][i]); d > 1e-3 {
							t.Fatalf("tenant %d slot %d: packed %v, solo %v (|d|=%g)",
								ti, i, packed[ti][i], solo[ti][i], d)
						}
					}
					// No cross-tenant bleed: everything outside [0, w) is
					// masked to zero before the response leaves the scheduler.
					for i := w; i < len(packed[ti]); i++ {
						if math.Abs(packed[ti][i]) > 1e-4 {
							t.Fatalf("tenant %d: co-tenant slot %d leaked %v",
								ti, i, packed[ti][i])
						}
					}
				}
				// The zero-input tenant saw none of its batch-mates' data.
				if op != OpOffset { // offset legitimately writes arg into the window
					for i := 0; i < w; i++ {
						if math.Abs(packed[5][i]) > 1e-4 {
							t.Fatalf("zero tenant slot %d bled %v", i, packed[5][i])
						}
					}
				}
			})
		}
	}
}

// BenchmarkEvalBatch times one packed evaluation of six tenants'
// quartic requests — the packing adds, the op, and the one-division
// extraction of six replies — on the packing profile (BitPacker, LogN 9).
func BenchmarkEvalBatch(b *testing.B) {
	reg, p := packProfile(b, bitpacker.BitPacker)
	defer reg.Close()
	args, inputs := make([]float64, 6), make([][]float64, 6)
	for ti := range inputs {
		inputs[ti] = tenantValues(ti, p.cfg.Window)
	}
	batch := buildBatch(b, p, OpQuartic, args, inputs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.sched.eval(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func schemeName(s bitpacker.Scheme) string {
	if s == bitpacker.BitPacker {
		return "bitpacker"
	}
	return "rnsckks"
}

// TestPackedDeterministicAcrossWorkers: the packed evaluation of a
// fixed batch is byte-identical under 1 and 4 engine workers, for both
// backends — worker-count reproducibility survives the serving layer.
func TestPackedDeterministicAcrossWorkers(t *testing.T) {
	defer bitpacker.SetWorkers(0)
	for _, scheme := range []bitpacker.Scheme{bitpacker.BitPacker, bitpacker.RNSCKKS} {
		blobs := map[int][][]byte{}
		for _, workers := range []int{1, 4} {
			bitpacker.SetWorkers(workers)
			reg, p := packProfile(t, scheme)
			args := make([]float64, 4)
			inputs := make([][]float64, 4)
			for ti := range inputs {
				args[ti] = 1
				inputs[ti] = tenantValues(ti, p.cfg.Window)
			}
			outs, err := p.sched.eval(buildBatch(t, p, OpSquare, args, inputs))
			if err != nil {
				t.Fatal(err)
			}
			for _, out := range outs {
				blob, err := p.ctx.MarshalCiphertext(out)
				if err != nil {
					t.Fatal(err)
				}
				blobs[workers] = append(blobs[workers], blob)
			}
			reg.Close()
		}
		for i := range blobs[1] {
			if !bytes.Equal(blobs[1][i], blobs[4][i]) {
				t.Fatalf("%s: tenant %d packed result differs between 1 and 4 workers",
					schemeName(scheme), i)
			}
		}
	}
}

// TestCompatibleRejectsWindowCollision: two requests on the same slot
// window must never ride one batch (their adds would overlap), and
// mismatched op/level/scale must not coalesce either.
func TestCompatibleRejectsWindowCollision(t *testing.T) {
	a := &evalRequest{tenant: &tenant{window: 0}, op: OpSquare, level: 3, scale: 40}
	b := &evalRequest{tenant: &tenant{window: 1}, op: OpSquare, level: 3, scale: 40}
	if !compatible([]*evalRequest{a}, b) {
		t.Fatal("distinct windows, same shape: should be compatible")
	}
	sameWindow := &evalRequest{tenant: &tenant{window: 0}, op: OpSquare, level: 3, scale: 40}
	if compatible([]*evalRequest{a}, sameWindow) {
		t.Fatal("window collision accepted")
	}
	for _, r := range []*evalRequest{
		{tenant: &tenant{window: 2}, op: OpNegate, level: 3, scale: 40},
		{tenant: &tenant{window: 2}, op: OpSquare, level: 2, scale: 40},
		{tenant: &tenant{window: 2}, op: OpSquare, level: 3, scale: 41},
	} {
		if compatible([]*evalRequest{a}, r) {
			t.Fatalf("incompatible request coalesced: %+v", r)
		}
	}
}

// TestPackedBatchThroughScheduler: eight compatible requests submitted
// concurrently through profile.Eval fill one batch, which is one shared
// evaluation; every reply is right and marked packed.
func TestPackedBatchThroughScheduler(t *testing.T) {
	reg, p := packProfile(t, bitpacker.BitPacker)
	defer reg.Close()
	inputs, replies := evalSquares(t, p)
	checkSquares(t, p, inputs, replies, true)
	if s := p.sched.Stats(); s.PackedBatches != 1 || s.PackedReqs != 8 || s.SoloEvals != 0 || s.Fallbacks != 0 {
		t.Fatalf("stats %+v: want one packed batch of eight and no solo evaluation", s)
	}
}

// TestPackedFallback: a packed batch whose evaluation fails answers no
// one; its members re-run alone, and every reply is still right. The
// profile has no Retry, so the one dropped engine task fails the batch.
func TestPackedFallback(t *testing.T) {
	reg, p := packProfile(t, bitpacker.BitPacker)
	defer reg.Close()
	_, restore := chaos.New(7).Burst(0, 1)
	defer restore()
	inputs, replies := evalSquares(t, p)
	restore()
	checkSquares(t, p, inputs, replies, false)
	if s := p.sched.Stats(); s.Fallbacks != 1 || s.SoloEvals != 8 || s.PackedBatches != 0 {
		t.Fatalf("stats %+v: want one fallback and eight solo evaluations", s)
	}
}

// evalSquares submits eight tenants' squares concurrently through
// profile.Eval and returns their inputs and replies.
func evalSquares(t *testing.T, p *profile) ([][]float64, []evalOutcome) {
	t.Helper()
	args, inputs := make([]float64, 8), make([][]float64, 8)
	for ti := range inputs {
		inputs[ti] = tenantValues(ti, p.cfg.Window)
	}
	batch := buildBatch(t, p, OpSquare, args, inputs)
	replies := make([]evalOutcome, len(batch))
	var wg sync.WaitGroup
	for ti, r := range batch {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &replies[ti]
			out.ct, out.packed, out.err = p.Eval(r.tenant.name, OpSquare, 0, r.ct)
		}()
	}
	wg.Wait()
	return inputs, replies
}

// checkSquares asserts every reply decrypts to its tenant's squares and
// carries the wanted packed flag.
func checkSquares(t *testing.T, p *profile, inputs [][]float64, replies []evalOutcome, packed bool) {
	t.Helper()
	for ti, out := range replies {
		if out.err != nil || out.packed != packed {
			t.Fatalf("tenant %d: err %v, packed %v; want packed %v", ti, out.err, out.packed, packed)
		}
		got, err := p.ctx.DecryptReal(out.ct)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range expected(OpSquare, 0, inputs[ti]) {
			if math.Abs(got[i]-want) > 1e-2 {
				t.Fatalf("tenant %d slot %d: got %v, want %v", ti, i, got[i], want)
			}
		}
	}
}
