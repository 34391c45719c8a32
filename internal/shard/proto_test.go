package shard

import (
	"errors"
	"os"
	"testing"

	"bitpacker/internal/durable"
)

// TestWriteJobFileIsDurable: job.json — the file every fleet hello is
// authenticated against — is published through durable.WriteFile: the
// exchange directory is fsynced after the rename, a failed directory
// sync fails the publish instead of being swallowed, and neither outcome
// leaves a temporary file beside it.
func TestWriteJobFileIsDurable(t *testing.T) {
	dir := t.TempDir()
	orig := durable.SyncDir
	defer func() { durable.SyncDir = orig }()

	var synced []string
	durable.SyncDir = func(d string) error {
		synced = append(synced, d)
		return orig(d)
	}
	jf := JobFile{Version: JobFileVersion, Fingerprint: 42, Shards: []int{3, 3, 2}}
	if err := WriteJobFile(dir, jf); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("synced %v, want exactly [%q]", synced, dir)
	}
	if back, err := ReadJobFile(dir); err != nil || back.Fingerprint != 42 || len(back.Shards) != 3 {
		t.Fatalf("read back %+v, %v", back, err)
	}

	durable.SyncDir = func(string) error { return errors.New("injected dir sync failure") }
	jf.Fingerprint = 43
	if err := WriteJobFile(dir, jf); err == nil {
		t.Fatal("a failed directory sync was swallowed")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "job.json" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("exchange directory holds %v, want job.json alone", names)
	}
}
