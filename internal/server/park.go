package server

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"repro/internal/runner"
	"repro/internal/store"
)

// Session parking: instead of discarding an idle-evicted session's
// state, the janitor writes its final snapshot to Config.ParkDir so a
// gateway can resurrect the session later on any worker. The park
// directory is an internal/store root: the snapshot blob is chunked,
// deduplicated and compressed into the store under the session id
// (run = session id, cycle = park cycle), and a small JSON metadata
// file binds the id to its originating spec:
//
//	<id>.park         JSON metadata: spec, target, cycle, and the
//	                  whole-blob checksum the restore is verified
//	                  against
//	chunks/, runs/    the store's content-addressed chunk files and
//	                  per-run indexes
//
// Metadata is written with store.WriteFileAtomic (temp file + rename)
// so a concurrent reader never observes a torn park. Store chunks left
// unreferenced after a park is consumed, and temp files a crash left
// behind, are reclaimed by ParkGC (`osmstore gc` or the janitor hook).

// ParkMeta is the parked-session metadata record.
type ParkMeta struct {
	ID string `json:"id"`
	// Checksum is the 64-bit FNV-1a digest of the snapshot blob,
	// formatted %016x; the reassembled blob is verified against it.
	Checksum string `json:"checksum"`
	Target   string `json:"target"`
	Cycle    uint64 `json:"cycle"`
	// TraceLimit is the session's recorder retention, so resurrection
	// recreates the session with the same trace window.
	TraceLimit int         `json:"trace_limit"`
	Spec       runner.Spec `json:"spec"`
	ParkedAt   time.Time   `json:"parked_at"`
}

// ParkMetaPath returns the metadata path for a session id.
func ParkMetaPath(dir, id string) string { return filepath.Join(dir, id+".park") }

// BlobChecksum returns the content name of a snapshot blob: its
// 64-bit FNV-1a digest formatted %016x.
func BlobChecksum(blob []byte) string {
	h := fnv.New64a()
	h.Write(blob)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ReadParkMeta reads and validates a parked session's metadata record
// without touching the blob.
func ReadParkMeta(dir, id string) (ParkMeta, error) {
	raw, err := os.ReadFile(ParkMetaPath(dir, id))
	if err != nil {
		return ParkMeta{}, err
	}
	var meta ParkMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return ParkMeta{}, fmt.Errorf("park metadata for %s: %w", id, err)
	}
	if meta.ID != id {
		return ParkMeta{}, fmt.Errorf("park metadata for %s names session %s", id, meta.ID)
	}
	return meta, nil
}

// LoadPark reads a parked session's metadata and blob, verifying the
// blob against its recorded checksum. The blob comes from the chunk
// store. A missing park metadata file returns os.ErrNotExist
// (wrapped), so callers can distinguish "never parked" from damage.
func LoadPark(dir, id string) (ParkMeta, []byte, error) {
	meta, err := ReadParkMeta(dir, id)
	if err != nil {
		return ParkMeta{}, nil, err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return ParkMeta{}, nil, err
	}
	blob, err := st.Get(id, meta.Cycle)
	if err != nil {
		return ParkMeta{}, nil, fmt.Errorf("park blob for %s: %w", id, err)
	}
	if got := BlobChecksum(blob); got != meta.Checksum {
		return ParkMeta{}, nil, fmt.Errorf("park blob for %s: checksum %s, content named %s", id, got, meta.Checksum)
	}
	return meta, blob, nil
}

// ConsumePark removes a parked session's metadata and drops the
// session's run from the store index after resurrection. The chunks
// themselves stay until the next GC sweep — concurrent readers that
// already hold the entry list can still reassemble — at which point
// anything no other run references is reclaimed.
func ConsumePark(dir, id string) error {
	if st, err := store.Open(dir, store.Options{}); err == nil {
		if err := st.DeleteRun(id); err != nil {
			return err
		}
	}
	return os.Remove(ParkMetaPath(dir, id))
}

// parkStore lazily opens the chunk store rooted at ParkDir.
func (m *Manager) parkStore() (*store.Store, error) {
	m.storeOnce.Do(func() {
		m.store, m.storeErr = store.Open(m.cfg.ParkDir, store.Options{})
	})
	return m.store, m.storeErr
}

// park writes the evicted session's final snapshot into the ParkDir
// store. The session has already been removed from the table, so no
// new requests can reach it; taking s.mu waits out any quantum still
// running.
func (m *Manager) park(s *Session) error {
	s.mu.Lock()
	data, cycle, err := m.snapshotLocked(s)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	st, err := m.parkStore()
	if err != nil {
		return err
	}
	stats, err := st.Put(s.ID, cycle, data)
	if err != nil {
		return err
	}
	meta := ParkMeta{
		ID:         s.ID,
		Checksum:   BlobChecksum(data),
		Target:     s.Spec.Target,
		Cycle:      cycle,
		TraceLimit: s.traceLimit,
		Spec:       s.Spec,
		ParkedAt:   time.Now().UTC(),
	}
	raw, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return err
	}
	if err := store.WriteFileAtomic(ParkMetaPath(m.cfg.ParkDir, s.ID), raw); err != nil {
		return err
	}
	m.Metrics.SessionsParked.Add(1)
	m.logf("session %s: parked at cycle %d (%d bytes, %d/%d chunks new, %d on disk)",
		s.ID, cycle, len(data), stats.NewChunks, stats.Chunks, stats.NewBytes)
	return nil
}

// ParkGCGrace is the janitor's GC grace window: unreferenced store
// files younger than this survive a sweep, protecting parks another
// process is mid-way through writing (workers and gateways share one
// park directory).
const ParkGCGrace = time.Minute

// ParkGC sweeps the ParkDir store: chunks no park references anymore
// (because ConsumePark dropped their run) and stale temp files are
// removed. The janitor calls this periodically; `osmstore gc` is the
// manual form.
func (m *Manager) ParkGC(grace time.Duration) (store.GCStats, error) {
	if m.cfg.ParkDir == "" {
		return store.GCStats{}, nil
	}
	st, err := m.parkStore()
	if err != nil {
		return store.GCStats{}, err
	}
	stats, err := st.GC(store.GCOptions{Grace: grace})
	if err != nil {
		return stats, err
	}
	if stats.SweptChunks > 0 || stats.SweptTemps > 0 {
		m.logf("park gc: swept %d chunks (%d bytes) and %d temp files, %d live chunks",
			stats.SweptChunks, stats.SweptBytes, stats.SweptTemps, stats.LiveChunks)
	}
	return stats, nil
}
