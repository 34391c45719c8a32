package pipeline

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"bitpacker/internal/durable"
	"bitpacker/internal/frame"
)

// Store persists stage checkpoints. Implementations must make Put
// atomic: a crash mid-write leaves either the previous checkpoint or
// none, never a torn one. Get must verify integrity and report a
// corrupted blob as an error — the resume scan treats any Get error as
// "fall back to the previous stage".
type Store interface {
	// Put atomically replaces the checkpoint for a stage.
	Put(stage int, name string, payload []byte) error
	// Get returns a stage's checkpoint. Missing, truncated, or
	// checksum-mismatched blobs are errors.
	Get(stage int) (name string, payload []byte, err error)
	// Stages lists the stage indices with a checkpoint present (valid or
	// not), ascending.
	Stages() ([]int, error)
	// Clear removes every checkpoint.
	Clear() error
}

// A checkpoint blob is two frames (internal/frame): a Meta head, the
// stage in decimal, a space and the stage's name, then a Body frame
// carrying the payload. Each frame's CRC-32C turns silent disk or DRAM
// corruption of a checkpoint into a detected one: resume skips the bad
// blob and falls back to the previous stage instead of reviving corrupted
// ciphertext state. checkpointHead is the Meta frame.
func checkpointHead(stage int, name string) []byte {
	head := append(strconv.AppendInt(nil, int64(stage), 10), ' ')
	return frame.Append(nil, frame.Meta, append(head, name...))
}

func decodeCheckpoint(stage int, blob []byte) (name string, payload []byte, err error) {
	kind, head, rest, err := frame.Cut(blob)
	if err != nil {
		return "", nil, fmt.Errorf("pipeline: checkpoint head: %w", err)
	}
	num, nameBytes, ok := bytes.Cut(head, []byte{' '})
	if got, err := strconv.Atoi(string(num)); kind != frame.Meta || !ok || err != nil || got != stage {
		return "", nil, fmt.Errorf("pipeline: checkpoint head %q stored under stage %d", num, stage)
	}
	if payload, err = frame.Only(rest, frame.Body); err != nil {
		return "", nil, fmt.Errorf("pipeline: checkpoint body: %w", err)
	}
	return string(nameBytes), payload, nil
}

// DirStore keeps one checkpoint file per stage in a directory, written
// atomically (temp file + rename) so a crash mid-checkpoint cannot
// destroy the previous one.
type DirStore struct {
	dir string
}

// NewDirStore creates the directory if needed.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint dir: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

func (s *DirStore) path(stage int) string {
	return filepath.Join(s.dir, fmt.Sprintf("stage-%06d.ckpt", stage))
}

// DirStorePath returns the checkpoint file a DirStore rooted at dir uses
// for a stage — exposed so fault injectors and inspection tools can
// address a durable artifact without reimplementing the naming scheme.
func DirStorePath(dir string, stage int) string {
	return (&DirStore{dir: dir}).path(stage)
}

// Put atomically and durably replaces the stage's checkpoint.
func (s *DirStore) Put(stage int, name string, payload []byte) error {
	if stage < 0 {
		return fmt.Errorf("pipeline: negative stage %d", stage)
	}
	// The payload goes to the file as it is, behind its frame header: a
	// checkpoint costs its bytes one write, not a copy and a write.
	body := frame.Header(frame.Body, payload)
	return durable.WriteFile(s.path(stage), 0o600, checkpointHead(stage, name), body[:], payload)
}

// Get reads and verifies a stage's checkpoint.
func (s *DirStore) Get(stage int) (string, []byte, error) {
	blob, err := os.ReadFile(s.path(stage))
	if err != nil {
		return "", nil, fmt.Errorf("pipeline: checkpoint read: %w", err)
	}
	return decodeCheckpoint(stage, blob)
}

// Stages scans the directory for checkpoint files.
func (s *DirStore) Stages() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint dir scan: %w", err)
	}
	var stages []int
	for _, e := range entries {
		var stage int
		if _, err := fmt.Sscanf(e.Name(), "stage-%d.ckpt", &stage); err == nil {
			stages = append(stages, stage)
		}
	}
	sort.Ints(stages)
	return stages, nil
}

// Clear removes every checkpoint file (leaves the directory).
func (s *DirStore) Clear() error {
	stages, err := s.Stages()
	if err != nil {
		return err
	}
	for _, stage := range stages {
		if err := os.Remove(s.path(stage)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("pipeline: checkpoint remove: %w", err)
		}
	}
	return nil
}

// MemStore is an in-memory Store for tests and single-process runs that
// want stage-rerun recovery without touching disk. Safe for concurrent
// use.
type MemStore struct {
	mu    sync.Mutex
	blobs map[int][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blobs: map[int][]byte{}}
}

func (s *MemStore) Put(stage int, name string, payload []byte) error {
	if stage < 0 {
		return fmt.Errorf("pipeline: negative stage %d", stage)
	}
	blob := frame.Append(checkpointHead(stage, name), frame.Body, payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs[stage] = blob
	return nil
}

func (s *MemStore) Get(stage int) (string, []byte, error) {
	s.mu.Lock()
	blob, ok := s.blobs[stage]
	s.mu.Unlock()
	if !ok {
		return "", nil, fmt.Errorf("pipeline: no checkpoint for stage %d", stage)
	}
	return decodeCheckpoint(stage, blob)
}

func (s *MemStore) Stages() ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stages := make([]int, 0, len(s.blobs))
	for stage := range s.blobs {
		stages = append(stages, stage)
	}
	sort.Ints(stages)
	return stages, nil
}

func (s *MemStore) Clear() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs = map[int][]byte{}
	return nil
}
