// Package durable holds the one write every acknowledged artifact goes
// through: a checkpoint, an accepted job, a finished job's output, a
// sharded job's description. It imports nothing of the library, so the
// packages that must stay free of ciphertext types (internal/shard) can
// publish through it too.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
)

// SyncDir fsyncs a directory so a just-renamed entry survives power
// loss, not only process crash (POSIX: rename durability requires an
// fsync of the containing directory). A hook variable so tests can
// observe and fail it; nothing else assigns it.
var SyncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFile is os.WriteFile for what is acknowledged as stored: it
// replaces the file at path with the concatenation of pieces so that a
// crash or power loss at any point leaves either the previous content or
// the new, never a torn or empty file — the full publication sequence of
// temp file in the same directory, fsync, rename over path, fsync of the
// directory. The pieces are written one after another, so a caller whose
// file is a header and a payload it already holds (a frame, a checkpoint)
// never joins them into a copy first.
func WriteFile(path string, perm os.FileMode, pieces ...[]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: temp file for %s: %w", path, err)
	}
	for _, piece := range pieces {
		if _, err := tmp.Write(piece); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("durable: write %s: %w", path, err)
		}
	}
	if err := tmp.Chmod(perm); err != nil { // CreateTemp made it 0600
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("durable: chmod %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("durable: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("durable: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("durable: rename onto %s: %w", path, err)
	}
	if err := SyncDir(dir); err != nil {
		return fmt.Errorf("durable: dir sync for %s: %w", path, err)
	}
	return nil
}
