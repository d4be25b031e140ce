// Package resultstore implements a persistent, content-addressed store of
// finished simulation results. Keys are hex sha256 digests the serve layer
// derives from everything that shapes a result — canonical circuit content,
// noise model, seed, shots, batch structure, and every decision-shaping
// option — so a lookup hit IS the result: the simulator's determinism
// contract makes the stored bytes identical to what a fresh run would
// produce, and the daemon serves exact replays without simulating.
//
// Layout: an in-memory LRU front (entry-capped) over an optional on-disk
// backing directory (byte-capped). Disk writes are atomic — the body lands
// in a temp file in the same directory and is renamed into place — so a
// crash mid-write never leaves a torn entry, and a restarted daemon rescans
// the directory to serve every previously stored result. Values are opaque
// byte blobs owned by the store after Put and read-only after Get.
package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tqsim/internal/lru"
)

// Config tunes a Store. The zero value is a memory-only store at the
// default entry cap.
type Config struct {
	// MaxEntries caps the in-memory LRU front (default 512).
	MaxEntries int
	// Dir, when non-empty, persists every entry to this directory (created
	// if missing) and serves memory misses from it — results survive
	// restarts.
	Dir string
	// MaxDiskBytes caps the backing directory's total size; the
	// oldest-written entries are removed beyond it (default 1 GiB; only
	// meaningful with Dir).
	MaxDiskBytes int64
}

// Store is a content-addressed result store. Safe for concurrent use.
type Store struct {
	cfg Config

	mu  sync.Mutex
	mem *lru.Cache[[]byte] // cost = body bytes

	// disk indexes the backing dir: key -> size. evictOrder holds keys
	// oldest-write-first, so the disk cap evicts in write order (the disk
	// tier is an archive, not a working set — recency lives in the memory
	// front).
	disk       map[string]int64
	evictOrder []string
	diskBytes  int64
}

// Open returns a ready store, creating and rescanning the backing
// directory when Config.Dir is set. Entries found on disk are indexed (not
// loaded); a dirty directory over the byte cap is trimmed oldest-first.
func Open(cfg Config) (*Store, error) {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 512
	}
	if cfg.MaxDiskBytes <= 0 {
		cfg.MaxDiskBytes = 1 << 30
	}
	s := &Store{
		cfg:  cfg,
		mem:  lru.New[[]byte](cfg.MaxEntries, 0),
		disk: make(map[string]int64),
	}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	type onDisk struct {
		key  string
		size int64
		mod  time.Time
	}
	var found []onDisk
	for _, e := range entries {
		name := e.Name()
		key, ok := strings.CutSuffix(name, ".json")
		if !ok || e.IsDir() || strings.HasPrefix(name, ".") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		found = append(found, onDisk{key: key, size: info.Size(), mod: info.ModTime()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mod.Before(found[j].mod) })
	for _, f := range found {
		s.disk[f.key] = f.size
		s.evictOrder = append(s.evictOrder, f.key)
		s.diskBytes += f.size
	}
	s.mu.Lock()
	s.evictDiskLocked()
	s.mu.Unlock()
	return s, nil
}

// Get returns the stored body for key. Memory misses fall through to the
// backing directory; a disk hit is promoted into the memory front. The
// returned slice is shared — callers must treat it as read-only.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	if body, ok := s.mem.Get(key); ok {
		s.mu.Unlock()
		return body, true
	}
	_, onDisk := s.disk[key]
	s.mu.Unlock()
	if !onDisk {
		return nil, false
	}
	body, err := os.ReadFile(s.path(key))
	if err != nil {
		// The file vanished under us (external cleanup); drop the index
		// entry so the key reads as a clean miss from now on.
		s.mu.Lock()
		s.dropDiskLocked(key)
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Lock()
	s.mem.Add(key, body, int64(len(body)))
	s.mu.Unlock()
	return body, true
}

// Put stores body under key, in the memory front and (when configured) the
// backing directory. The store owns body after the call. Disk failures are
// swallowed: persistence is an optimization, and a result that only made
// the memory tier is still a correct replay source.
func (s *Store) Put(key string, body []byte) {
	s.mu.Lock()
	s.mem.Add(key, body, int64(len(body)))
	_, exists := s.disk[key]
	s.mu.Unlock()
	if s.cfg.Dir == "" || exists {
		return
	}
	// Atomic write-then-rename in the same directory: readers (and crash
	// recovery) only ever see whole bodies under final names.
	tmp, err := os.CreateTemp(s.cfg.Dir, ".tmp-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	s.mu.Lock()
	if _, dup := s.disk[key]; !dup {
		s.disk[key] = int64(len(body))
		s.evictOrder = append(s.evictOrder, key)
		s.diskBytes += int64(len(body))
		s.evictDiskLocked()
	}
	s.mu.Unlock()
}

// Len returns the stored entry count: distinct keys across both tiers.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Dir == "" {
		return s.mem.Len()
	}
	n := len(s.disk)
	s.mem.Each(func(key string, _ []byte) {
		if _, onDisk := s.disk[key]; !onDisk {
			n++
		}
	})
	return n
}

// Bytes returns the stored result bytes: the backing directory's total when
// one is configured, the memory front's otherwise.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Dir == "" {
		return s.mem.Cost()
	}
	return s.diskBytes
}

func (s *Store) path(key string) string {
	return filepath.Join(s.cfg.Dir, key+".json")
}

func (s *Store) evictDiskLocked() {
	for s.diskBytes > s.cfg.MaxDiskBytes && len(s.evictOrder) > 0 {
		key := s.evictOrder[0]
		s.dropDiskLocked(key)
		os.Remove(s.path(key))
	}
}

func (s *Store) dropDiskLocked(key string) {
	size, ok := s.disk[key]
	if !ok {
		return
	}
	delete(s.disk, key)
	s.diskBytes -= size
	for i, k := range s.evictOrder {
		if k == key {
			s.evictOrder = append(s.evictOrder[:i], s.evictOrder[i+1:]...)
			break
		}
	}
}
