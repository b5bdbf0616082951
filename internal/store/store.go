// Package store is the fleet's artifact store: chunked,
// content-addressed, deduplicating storage for snapshot and
// checkpoint blobs (DESIGN.md §16).
//
// A blob stored for (run, cycle) is cut into chunks, each addressed
// by FNV-1a hash + length and written once — consecutive checkpoints
// of one run share their unchanged chunks, so a chain costs about the
// diff. Chunk files carry a codec byte (raw or stdlib flate, chosen
// per chunk by whichever is smaller), and a per-run index file maps
// cycle → chunk list. Everything is verified on the way out: each
// chunk against its address, the reassembled blob against the
// whole-blob hash recorded at Put time.
//
// The store root doubles as the server's ParkDir: `<id>.park`
// metadata lives beside the chunks/ and runs/ subdirectories. The
// store does not read it; a parked session's blob is rooted by its
// run index like any other artifact.
package store

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

const (
	chunksDirName = "chunks"
	runsDirName   = "runs"
)

// ErrNotFound reports a run or cycle the store has no artifact for.
var ErrNotFound = errors.New("store: not found")

// Options configure a store. The zero value is the production
// configuration.
type Options struct {
	// ChunkSize is the fixed chunk size. 0 selects the default,
	// 4 KiB — small enough that a few changed registers don't
	// re-store a whole RAM image, large enough that index overhead
	// stays trivial.
	ChunkSize int
}

// DefaultChunkSize is the fixed chunk size when Options.ChunkSize is 0.
const DefaultChunkSize = 4096

// Store is a chunked artifact store rooted at one directory. Methods
// are safe for concurrent use; distinct processes sharing a root are
// coordinated by content-addressing (chunk writes are idempotent) and
// atomic index replacement.
type Store struct {
	root string
	opts Options
	mu   sync.Mutex
}

// Open returns a store rooted at dir, creating the directory layout
// if needed.
func Open(dir string, opts Options) (*Store, error) {
	if opts.ChunkSize == 0 {
		opts.ChunkSize = DefaultChunkSize
	}
	if opts.ChunkSize < 64 || opts.ChunkSize > maxChunkLen {
		return nil, fmt.Errorf("store: chunk size %d out of range", opts.ChunkSize)
	}
	for _, sub := range []string{chunksDirName, runsDirName} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	return &Store{root: dir, opts: opts}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// ValidRun reports whether a run name is acceptable as an index file
// stem: non-empty, bounded, and drawn from the same URL- and
// filename-safe alphabet session ids use.
func ValidRun(run string) bool {
	if run == "" || len(run) > 256 {
		return false
	}
	for i := 0; i < len(run); i++ {
		c := run[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	// ".." (and "." ) are valid by alphabet but not as path stems.
	return run != "." && run != ".."
}

// PutStats describes what one Put cost: how much of the blob was
// already present (dedup) and how many bytes actually reached disk
// after the codec stage.
type PutStats struct {
	Chunks    int   // chunks the blob split into
	NewChunks int   // chunks not already in the store
	NewBytes  int64 // on-disk bytes written for the new chunks
}

func blobSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Put stores blob as the artifact for (run, cycle), replacing any
// previous artifact at the same cycle. A corrupt index for the run is
// discarded and rebuilt from this entry alone — Put is the recovery
// path after index damage, so it must not refuse to write.
func (s *Store) Put(run string, cycle uint64, blob []byte) (PutStats, error) {
	var st PutStats
	if !ValidRun(run) {
		return st, fmt.Errorf("store: invalid run name %q", run)
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	refs := splitFixed(blob, s.opts.ChunkSize)
	st.Chunks = len(refs)

	off := 0
	for _, ref := range refs {
		raw := blob[off : off+int(ref.Len)]
		off += int(ref.Len)
		path := chunkPath(s.root, ref)
		if _, err := os.Stat(path); err == nil {
			continue // content-addressed: already stored
		}
		file := encodeChunk(raw)
		if err := WriteFileAtomic(path, file); err != nil {
			return st, err
		}
		st.NewChunks++
		st.NewBytes += int64(len(file))
	}

	entries, err := loadIndex(s.root, run)
	if err != nil {
		// A corrupt index means the run's history is unreadable
		// anyway; start a fresh one rather than wedging every future
		// checkpoint. GC is the one that must refuse on corruption.
		entries = nil
	}
	e := Entry{Cycle: cycle, Len: uint64(len(blob)), Sum: blobSum(blob), Chunks: refs}
	i := sort.Search(len(entries), func(i int) bool { return entries[i].Cycle >= cycle })
	if i < len(entries) && entries[i].Cycle == cycle {
		entries[i] = e
	} else {
		entries = append(entries, Entry{})
		copy(entries[i+1:], entries[i:])
		entries[i] = e
	}
	return st, WriteFileAtomic(indexPath(s.root, run), encodeIndex(run, entries))
}

// get reassembles and verifies the blob for one index entry.
func (s *Store) get(e Entry) ([]byte, error) {
	blob := make([]byte, 0, e.Len)
	for _, ref := range e.Chunks {
		raw, err := readChunk(s.root, ref)
		if err != nil {
			return nil, err
		}
		blob = append(blob, raw...)
	}
	if uint64(len(blob)) != e.Len || blobSum(blob) != e.Sum {
		return nil, fmt.Errorf("store: reassembled blob for cycle %d fails verification", e.Cycle)
	}
	return blob, nil
}

// Get returns the artifact stored for exactly (run, cycle).
func (s *Store) Get(run string, cycle uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := loadIndex(s.root, run)
	if err != nil {
		return nil, err
	}
	e, ok := findEntry(entries, cycle)
	if !ok || e.Cycle != cycle {
		return nil, fmt.Errorf("%w: run %q cycle %d", ErrNotFound, run, cycle)
	}
	return s.get(e)
}

// At returns the artifact at the largest stored cycle ≤ cycle — the
// time-travel primitive: restore here, then replay deterministically
// to the cycle you actually wanted.
func (s *Store) At(run string, cycle uint64) (Entry, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := loadIndex(s.root, run)
	if err != nil {
		return Entry{}, nil, err
	}
	e, ok := findEntry(entries, cycle)
	if !ok {
		return Entry{}, nil, fmt.Errorf("%w: run %q has no checkpoint at or before cycle %d", ErrNotFound, run, cycle)
	}
	blob, err := s.get(e)
	return e, blob, err
}

// Latest returns the artifact at the run's largest stored cycle.
func (s *Store) Latest(run string) (Entry, []byte, error) {
	return s.At(run, ^uint64(0))
}

// Entries returns the run's index, sorted by cycle.
func (s *Store) Entries(run string) ([]Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return loadIndex(s.root, run)
}

// Runs lists every run with an index file.
func (s *Store) Runs() ([]string, error) {
	des, err := os.ReadDir(filepath.Join(s.root, runsDirName))
	if err != nil {
		return nil, err
	}
	var runs []string
	for _, de := range des {
		if name, ok := strings.CutSuffix(de.Name(), ".idx"); ok && !de.IsDir() {
			runs = append(runs, name)
		}
	}
	sort.Strings(runs)
	return runs, nil
}

// DeleteRun drops a run's index. Its chunks stay until GC, which is
// what makes delete safe against concurrent readers — they hold the
// entry list and the chunks remain addressable until the next sweep.
func (s *Store) DeleteRun(run string) error {
	if !ValidRun(run) {
		return fmt.Errorf("store: invalid run name %q", run)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := os.Remove(indexPath(s.root, run))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Stats summarize a store for `osmstore stat`.
type Stats struct {
	Runs         int   // indexed runs
	Entries      int   // artifacts across all runs
	LogicalBytes int64 // sum of artifact sizes as stored blobs claim
	Chunks       int   // chunk files on disk
	ChunkBytes   int64 // on-disk bytes under chunks/
}

// Stat walks the store and reports its shape.
func (s *Store) Stat() (Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st Stats
	runs, err := s.runsLocked()
	if err != nil {
		return st, err
	}
	st.Runs = len(runs)
	for _, run := range runs {
		entries, err := loadIndex(s.root, run)
		if err != nil {
			return st, fmt.Errorf("run %q: %w", run, err)
		}
		st.Entries += len(entries)
		for _, e := range entries {
			st.LogicalBytes += int64(e.Len)
		}
	}
	err = walkChunks(s.root, func(path string, size int64) {
		st.Chunks++
		st.ChunkBytes += size
	})
	return st, err
}

func (s *Store) runsLocked() ([]string, error) {
	des, err := os.ReadDir(filepath.Join(s.root, runsDirName))
	if err != nil {
		return nil, err
	}
	var runs []string
	for _, de := range des {
		if name, ok := strings.CutSuffix(de.Name(), ".idx"); ok && !de.IsDir() {
			runs = append(runs, name)
		}
	}
	return runs, nil
}

// walkChunks visits every chunk file under chunks/.
func walkChunks(root string, visit func(path string, size int64)) error {
	chunksDir := filepath.Join(root, chunksDirName)
	shards, err := os.ReadDir(chunksDir)
	if err != nil {
		return err
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		des, err := os.ReadDir(filepath.Join(chunksDir, shard.Name()))
		if err != nil {
			return err
		}
		for _, de := range des {
			if de.IsDir() || !strings.HasSuffix(de.Name(), ".c") {
				continue
			}
			info, err := de.Info()
			if err != nil {
				continue // raced with a concurrent GC
			}
			visit(filepath.Join(chunksDir, shard.Name(), de.Name()), info.Size())
		}
	}
	return nil
}

// tmpPrefix names WriteFileAtomic's temp files; GC sweeps the ones a
// crash left behind.
const tmpPrefix = ".tmp-"

// WriteFileAtomic writes data at path via a temp file in the same
// directory and a rename, so a crash leaves either the old content or
// the new — never a torn file. A temp file orphaned by a crash inside
// a store root is removed by the next GC.
func WriteFileAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), tmpPrefix+"*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
