package bitpacker

import (
	"bytes"
	"context"
	"io/fs"
	"math/cmplx"
	"os"
	"path/filepath"
	"testing"

	"bitpacker/internal/pipeline"
	"bitpacker/internal/shard"
)

// testdata/parent-format holds bytes written by the encoder this one
// replaced (commit 60e4b69, with parentFormatCtx's Config and three
// ciphertexts encrypted from fixed values): one v2 blob (ct.bin), a 3-ciphertext EncodeCiphertexts batch
// (batch3.bin) and the kept exchange directory of a RunSharded job over
// that batch (3 shards of one ciphertext, parentProgram, Keep) — its
// job.json and every step's DirStore checkpoint.
const parentFormat = "testdata/parent-format"

var parentProgram = []ShardStep{{Op: ShardOpSquare}, {Op: ShardOpNegate}}

func parentFormatCtx(t *testing.T) *Context {
	t.Helper()
	ctx, err := New(Config{Scheme: BitPacker, LogN: 9, Levels: 3, ScaleBits: 40, WordBits: 61, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func readParentFormat(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(parentFormat, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParentFormatReencodes pins the layouts: a blob, a batch and a
// checkpoint file written before the one-pass codec decode and encode
// back to the same bytes.
func TestParentFormatReencodes(t *testing.T) {
	ctx := parentFormatCtx(t)

	blob := readParentFormat(t, "ct.bin")
	ct, err := ctx.UnmarshalCiphertext(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ctx.MarshalCiphertext(ct); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("blob re-encodes differently (err %v)", err)
	}
	if got, err := ct.ct.AppendBinary([]byte("prefix")); err != nil || !bytes.Equal(got, append([]byte("prefix"), blob...)) {
		t.Fatalf("AppendBinary after a prefix differs (err %v)", err)
	}
	if ct.ct.BinarySize() != len(blob) {
		t.Fatalf("BinarySize %d, blob is %d bytes", ct.ct.BinarySize(), len(blob))
	}

	batch := readParentFormat(t, "batch3.bin")
	cts, err := ctx.DecodeCiphertexts(batch)
	if err != nil || len(cts) != 3 {
		t.Fatalf("batch: %d ciphertexts, err %v", len(cts), err)
	}
	if got, err := ctx.EncodeCiphertexts(cts); err != nil || !bytes.Equal(got, batch) {
		t.Fatalf("batch re-encodes differently (err %v)", err)
	}

	for sh := 0; sh < 3; sh++ {
		for stage := range parentProgram {
			src := shard.CkptDir(filepath.Join(parentFormat, "exchange"), sh)
			store, err := pipeline.NewDirStore(src)
			if err != nil {
				t.Fatal(err)
			}
			name, payload, err := store.Get(stage)
			if err != nil {
				t.Fatalf("shard %d stage %d: %v", sh, stage, err)
			}
			state, err := ctx.DecodeCiphertexts(payload)
			if err != nil {
				t.Fatal(err)
			}
			again, err := ctx.EncodeCiphertexts(state)
			if err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("shard %d stage %d: checkpoint payload re-encodes differently (err %v)", sh, stage, err)
			}
			dst := t.TempDir()
			out, err := pipeline.NewDirStore(dst)
			if err != nil {
				t.Fatal(err)
			}
			if err := out.Put(stage, name, again); err != nil {
				t.Fatal(err)
			}
			want, _ := os.ReadFile(pipeline.DirStorePath(src, stage))
			got, _ := os.ReadFile(pipeline.DirStorePath(dst, stage))
			if len(want) == 0 || !bytes.Equal(got, want) {
				t.Fatalf("shard %d stage %d: checkpoint file re-written differently", sh, stage)
			}
		}
	}
}

// TestParentExchangeResumes reruns the job of a kept exchange directory
// the parent wrote: every shard's final checkpoint is accepted as it is
// (nothing recomputed), so the outputs are bit-identical to the parent's
// stored results, and a fresh in-process run decrypts to the same values
// within 2^-27 (they read 2^-29.9 apart at most). The fresh run's words
// differ from the stored ones since the division rounds and MulRescale
// (the square) divides once: the checkpoints pin the layout, not the
// arithmetic.
func TestParentExchangeResumes(t *testing.T) {
	ctx := parentFormatCtx(t)
	inputs, err := ctx.DecodeCiphertexts(readParentFormat(t, "batch3.bin"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := filepath.Join(parentFormat, "exchange")
	err = filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		b, err := os.ReadFile(path)
		if err == nil {
			err = os.MkdirAll(filepath.Dir(filepath.Join(dir, rel)), 0o755)
		}
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, rel), b, 0o600)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var stored []*Ciphertext
	for sh := range inputs {
		store, err := pipeline.NewDirStore(shard.CkptDir(dir, sh))
		if err != nil {
			t.Fatal(err)
		}
		_, payload, err := store.Get(len(parentProgram) - 1)
		if err != nil {
			t.Fatal(err)
		}
		cts, err := ctx.DecodeCiphertexts(payload)
		if err != nil {
			t.Fatal(err)
		}
		stored = append(stored, cts...)
	}

	got, report, err := ctx.RunSharded(context.Background(), parentProgram, inputs, ShardOptions{Dir: dir, ShardSize: 1, Keep: true})
	if err != nil {
		t.Fatal(err)
	}
	if report.Shards != 3 || report.Resumed != report.Shards {
		t.Fatalf("resumed %d of %d shards, want all 3", report.Resumed, report.Shards)
	}
	fresh := inputs
	for _, st := range parentProgram {
		if fresh, err = ctx.ApplyShardStep(st, fresh); err != nil {
			t.Fatal(err)
		}
	}
	for i := range got {
		g, _ := ctx.MarshalCiphertext(got[i])
		s, _ := ctx.MarshalCiphertext(stored[i])
		if !bytes.Equal(g, s) {
			t.Fatalf("output %d: not bit-identical to the parent's checkpoint", i)
		}
		want, got := ctx.MustDecrypt(stored[i]), ctx.MustDecrypt(fresh[i])
		for k := range want {
			if d := cmplx.Abs(got[k] - want[k]); d > 0x1p-27 {
				t.Fatalf("output %d slot %d: a fresh run decrypts %.3g away from the parent's checkpoint", i, k, d)
			}
		}
	}
}
