package pipeline

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"bitpacker/internal/durable"
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

// Checkpoint blob framing (little-endian):
//
//	magic "BPKP" | version u8 | stage u32 | name len u32 | name bytes
//	payload len u64 | payload | FNV-64a checksum u64 over all prior bytes
//
// The checksum turns silent disk or DRAM corruption of a checkpoint
// into a detected one: resume skips the bad blob and falls back to the
// previous stage instead of reviving corrupted ciphertext state.
const (
	ckptMagic   = "BPKP"
	ckptVersion = 1
)

func frame(stage int, name string, payload []byte) []byte {
	out := make([]byte, 0, 4+1+4+4+len(name)+8+len(payload)+8)
	out = append(out, ckptMagic...)
	out = append(out, ckptVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(stage))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(name)))
	out = append(out, name...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	h := fnv.New64a()
	h.Write(out)
	return binary.LittleEndian.AppendUint64(out, h.Sum64())
}

func unframe(stage int, blob []byte) (name string, payload []byte, err error) {
	if len(blob) < 4+1+4+4+8+8 {
		return "", nil, fmt.Errorf("pipeline: checkpoint truncated (%d bytes)", len(blob))
	}
	body, sum := blob[:len(blob)-8], binary.LittleEndian.Uint64(blob[len(blob)-8:])
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != sum {
		return "", nil, fmt.Errorf("pipeline: checkpoint checksum mismatch")
	}
	if string(body[:4]) != ckptMagic {
		return "", nil, fmt.Errorf("pipeline: bad checkpoint magic")
	}
	if body[4] != ckptVersion {
		return "", nil, fmt.Errorf("pipeline: unsupported checkpoint version %d", body[4])
	}
	if got := int(binary.LittleEndian.Uint32(body[5:9])); got != stage {
		return "", nil, fmt.Errorf("pipeline: checkpoint stage %d stored under stage %d", got, stage)
	}
	nameLen := int(binary.LittleEndian.Uint32(body[9:13]))
	if 13+nameLen+8 > len(body) {
		return "", nil, fmt.Errorf("pipeline: checkpoint name overruns blob")
	}
	name = string(body[13 : 13+nameLen])
	plen := binary.LittleEndian.Uint64(body[13+nameLen : 13+nameLen+8])
	payload = body[13+nameLen+8:]
	if uint64(len(payload)) != plen {
		return "", nil, fmt.Errorf("pipeline: checkpoint payload %d bytes, header says %d", len(payload), plen)
	}
	return name, payload, nil
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
	return durable.WriteFile(s.path(stage), frame(stage, name, payload), 0o600)
}

// Get reads and verifies a stage's checkpoint.
func (s *DirStore) Get(stage int) (string, []byte, error) {
	blob, err := os.ReadFile(s.path(stage))
	if err != nil {
		return "", nil, fmt.Errorf("pipeline: checkpoint read: %w", err)
	}
	return unframe(stage, blob)
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
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs[stage] = frame(stage, name, payload)
	return nil
}

func (s *MemStore) Get(stage int) (string, []byte, error) {
	s.mu.Lock()
	blob, ok := s.blobs[stage]
	s.mu.Unlock()
	if !ok {
		return "", nil, fmt.Errorf("pipeline: no checkpoint for stage %d", stage)
	}
	return unframe(stage, blob)
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

// Corrupt flips a byte inside a stored checkpoint's payload region —
// fault-injection support for resume tests.
func (s *MemStore) Corrupt(stage int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, ok := s.blobs[stage]
	if !ok || len(blob) < 32 {
		return false
	}
	blob[len(blob)/2] ^= 0xff
	return true
}
