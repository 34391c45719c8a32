package bitpacker

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"bitpacker/internal/pipeline"
	"bitpacker/internal/shard"
)

// TestFramedBlobsRefuseEveryFlip: a small checkpoint blob, a state batch
// and a protocol message (a done with its output batch) each refuse every
// single-byte flip and every truncation — the three framings the library
// stores or sends, all behind internal/frame's checksum.
func TestFramedBlobsRefuseEveryFlip(t *testing.T) {
	refuseAll := func(name string, blob []byte, accept func([]byte) error) {
		t.Helper()
		if err := accept(blob); err != nil {
			t.Fatalf("%s: intact blob refused: %v", name, err)
		}
		for i := range blob {
			blob[i] ^= 0xff
			err := accept(blob)
			blob[i] ^= 0xff
			if err == nil {
				t.Fatalf("%s: flip of byte %d of %d accepted", name, i, len(blob))
			}
		}
		for n := 0; n < len(blob); n++ {
			if accept(blob[:n]) == nil {
				t.Fatalf("%s: truncation to %d of %d bytes accepted", name, n, len(blob))
			}
		}
	}

	dir := t.TempDir()
	store, err := pipeline.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(2, "square", []byte("a small checkpoint payload")); err != nil {
		t.Fatal(err)
	}
	path := pipeline.DirStorePath(dir, 2)
	ckpt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	refuseAll("checkpoint blob", ckpt, func(b []byte) error {
		if err := os.WriteFile(path, b, 0o600); err != nil {
			t.Fatal(err)
		}
		_, _, err := store.Get(2)
		return err
	})

	ctx := errCtx(t, BitPacker)
	batch, err := ctx.EncodeCiphertexts([]*Ciphertext{ctx.MustEncrypt([]complex128{1, 2}), ctx.MustEncrypt([]complex128{3})})
	if err != nil {
		t.Fatal(err)
	}
	refuseAll("state batch", batch, func(b []byte) error {
		cts, err := ctx.DecodeCiphertexts(b)
		if err == nil && len(cts) != 2 {
			t.Fatalf("state batch decoded to %d ciphertexts", len(cts))
		}
		return err
	})

	var msg bytes.Buffer
	if err := shard.WriteMessage(&msg, shard.Msg{Type: shard.MsgDone, Shard: 1, Epoch: 7, Batch: batch}); err != nil {
		t.Fatal(err)
	}
	lim := shard.Limit{Counts: []int{1, 2}, CiphertextBytes: ctx.MaxCiphertextBytes()}
	refuseAll("protocol message", msg.Bytes(), func(b []byte) error {
		_, err := shard.ReadMessage(bytes.NewReader(b), lim)
		return err
	})
	if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 1 {
		t.Fatalf("checkpoint directory holds %d files, want 1", len(entries))
	}
}
