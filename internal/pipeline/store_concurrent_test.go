package pipeline

// DirStore under concurrent writers: two workers checkpointing the same
// shard ID must never interleave into a torn file. Atomic temp+rename
// guarantees a reader sees exactly one writer's complete frame, and the
// checksum framing guarantees anything else (a genuinely corrupted blob)
// is rejected rather than returned.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bitpacker/internal/durable"
)

func TestDirStoreConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	payloadA := bytes.Repeat([]byte{0xaa}, 4096)
	payloadB := bytes.Repeat([]byte{0xbb}, 4096)
	const stage = 7
	const rounds = 200

	var wg sync.WaitGroup
	writer := func(name string, payload []byte) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := store.Put(stage, name, payload); err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
		}
	}
	wg.Add(2)
	go writer("worker-a", payloadA)
	go writer("worker-b", payloadB)

	// Read concurrently with the write storm: every successful Get must
	// return one writer's complete payload, never a mixture or a torn
	// frame. (A not-yet-existing file at the very start is the only
	// tolerated error.)
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		seen := 0
		for seen < 4*rounds {
			seen++
			name, payload, err := store.Get(stage)
			if err != nil {
				if os.IsNotExist(errUnwrapAll(err)) {
					continue // first rename has not landed yet
				}
				t.Errorf("concurrent Get: %v", err)
				return
			}
			switch name {
			case "worker-a":
				if !bytes.Equal(payload, payloadA) {
					t.Errorf("worker-a frame carries foreign payload")
					return
				}
			case "worker-b":
				if !bytes.Equal(payload, payloadB) {
					t.Errorf("worker-b frame carries foreign payload")
					return
				}
			default:
				t.Errorf("checkpoint carries unknown writer %q", name)
				return
			}
		}
	}()
	wg.Wait()
	rg.Wait()

	// After the storm: the surviving file is one complete frame.
	name, _, err := store.Get(stage)
	if err != nil {
		t.Fatal(err)
	}
	if name != "worker-a" && name != "worker-b" {
		t.Fatalf("final checkpoint from unknown writer %q", name)
	}

	// Checksum-reject: garble the surviving file in place; Get must
	// refuse to return it.
	path := DirStorePath(dir, stage)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x5a
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Get(stage); err == nil {
		t.Fatal("corrupted checkpoint was accepted")
	}

	// Truncation-reject: a partially-written file (no atomic rename would
	// produce one, but disks can) is also refused.
	if err := os.WriteFile(path, blob[:len(blob)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Get(stage); err == nil {
		t.Fatal("truncated checkpoint was accepted")
	}
}

// TestDirStorePutSyncsParentDir pins the power-loss half of durable
// publication: after the atomic rename, the directory must be fsynced (or
// the rename itself may not survive power loss), and a failing directory
// sync must surface as an error, not silence — for a checkpoint Put and
// for every other file acknowledged through durable.WriteFile.
func TestDirStorePutSyncsParentDir(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	orig := durable.SyncDir
	defer func() { durable.SyncDir = orig }()

	for name, write := range map[string]func(n int) error{
		"DirStore.Put": func(n int) error { return store.Put(n, "writer", []byte("payload")) },
		"durable.WriteFile": func(n int) error {
			return durable.WriteFile(filepath.Join(dir, fmt.Sprintf("job-%d.json", n)), []byte("{}"), 0o644)
		},
	} {
		var synced []string
		durable.SyncDir = func(d string) error {
			synced = append(synced, d)
			return orig(d)
		}
		if err := write(3); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(synced) != 1 || synced[0] != dir {
			t.Fatalf("%s synced %v, want exactly [%q]", name, synced, dir)
		}
		durable.SyncDir = func(string) error { return errors.New("injected dir sync failure") }
		if err := write(4); err == nil {
			t.Fatalf("%s swallowed a failed directory sync", name)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
	if fi, err := os.Stat(filepath.Join(dir, "job-3.json")); err != nil {
		t.Fatal(err)
	} else if fi.Mode().Perm() != 0o644 {
		t.Fatalf("published file mode %v, want the 0644 asked for, not the temp file's 0600", fi.Mode())
	}

	// The real hook works against a real directory.
	if err := orig(dir); err != nil {
		t.Fatalf("directory fsync: %v", err)
	}
}

// errUnwrapAll walks to the innermost error for os.IsNotExist checks
// (Get wraps the read error in fmt.Errorf with %w).
func errUnwrapAll(err error) error {
	for {
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return err
		}
		inner := u.Unwrap()
		if inner == nil {
			return err
		}
		err = inner
	}
}
