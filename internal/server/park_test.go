package server

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/store"
)

// Parking goes through the chunk store and back: the blob a
// resurrection loads must be byte-identical to the snapshot the
// eviction wrote.
func TestParkStoreRoundTripByteIdentity(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{IdleTimeout: -1, ParkDir: dir})
	defer m.Close()

	s, err := m.Create(runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 40}, 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(s, 2000, time.Second); err != nil {
		t.Fatal(err)
	}
	want, cycle, err := m.Snapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.park(s); err != nil {
		t.Fatal(err)
	}

	meta, blob, err := LoadPark(dir, s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatal("park round trip through the store is not byte-identical")
	}
	if meta.Cycle != cycle || meta.Target != "strongarm" || meta.TraceLimit != 128 {
		t.Fatalf("park metadata = %+v", meta)
	}
	// The park is its metadata plus the store's chunks/ and runs/:
	// no whole-blob file, no leftover temp file.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	if want := []string{"chunks", "runs", s.ID + ".park"}; strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("park dir holds %v, want %v", names, want)
	}

	// Restoring the parked blob into a fresh session continues the
	// run with trace continuity (cycle and checksum carried over).
	m2 := NewManager(Config{IdleTimeout: -1})
	defer m2.Close()
	s2, err := m2.CreateWithID(s.ID, meta.Spec, meta.TraceLimit)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.Restore(s2, blob)
	if err != nil {
		t.Fatal(err)
	}
	if got != cycle {
		t.Fatalf("restored at cycle %d, parked at %d", got, cycle)
	}
}

// The leak fix: after a park is consumed, a GC sweep must leave zero
// unreferenced blobs or chunks in the park directory.
func TestParkGCAfterConsumeLeavesNothingUnreferenced(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{IdleTimeout: -1, ParkDir: dir})
	defer m.Close()

	// Park two sessions, consume one.
	var ids []string
	for i := 0; i < 2; i++ {
		s, err := m.Create(runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 40}, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Step(s, uint64(1000*(i+1)), time.Second); err != nil {
			t.Fatal(err)
		}
		if err := m.park(s); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	if err := ConsumePark(dir, ids[0]); err != nil {
		t.Fatal(err)
	}

	stats, err := m.ParkGC(0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SweptChunks == 0 {
		t.Fatal("consuming a park freed no chunks")
	}

	// The surviving park must still load...
	if _, _, err := LoadPark(dir, ids[1]); err != nil {
		t.Fatal(err)
	}
	// ...and a second sweep must find the store fully referenced:
	// every chunk on disk belongs to the remaining park.
	stats, err = m.ParkGC(0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SweptChunks != 0 || stats.SweptTemps != 0 || stats.KeptRecent != 0 {
		t.Fatalf("unreferenced files remain after gc: %+v", stats)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sstat, err := st.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if sstat.Runs != 1 {
		t.Fatalf("store not clean: %+v", sstat)
	}
}

// Content addressing dedups identical snapshot content to zero new
// chunks — across re-parks of the same session and across sessions
// that reached the same deterministic state.
func TestParkContentDedup(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{IdleTimeout: -1, ParkDir: dir})
	defer m.Close()

	st, err := m.parkStore()
	if err != nil {
		t.Fatal(err)
	}
	spec := runner.Spec{Target: "ppc750", Workload: "mpeg2/enc", N: 200}
	var blobs [][]byte
	var cycles []uint64
	ids := []string{"twin-a", "twin-b"}
	for _, id := range ids {
		s, err := m.CreateWithID(id, spec, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Step(s, 2000, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		blob, cycle, err := m.Snapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
		cycles = append(cycles, cycle)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("deterministic twin runs produced different snapshots; test premise broken")
	}
	first, err := st.Put(ids[0], cycles[0], blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	// (NewChunks may trail Chunks even here: repeated content inside
	// one blob dedups against itself.)
	if first.NewChunks == 0 || first.NewBytes == 0 {
		t.Fatalf("first park: %+v", first)
	}
	// The twin's park stores zero new chunks: its blob is
	// chunk-for-chunk the content already on disk.
	second, err := st.Put(ids[1], cycles[1], blobs[1])
	if err != nil {
		t.Fatal(err)
	}
	if second.NewChunks != 0 || second.NewBytes != 0 {
		t.Fatalf("identical content re-stored %d chunks (%d bytes)", second.NewChunks, second.NewBytes)
	}
	// Both parks restore byte-identically even though the chunks are
	// shared.
	for i, id := range ids {
		got, err := st.Get(id, cycles[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blobs[i]) {
			t.Fatalf("park %s not byte-identical", id)
		}
	}
}

// Session info carries the originating spec on the single-session
// surface only — the gateway's create-body re-derivation depends on
// it; lists must stay lean.
func TestInfoSpecExposure(t *testing.T) {
	m := NewManager(Config{IdleTimeout: -1})
	defer m.Close()
	s, err := m.Create(runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 40}, 77)
	if err != nil {
		t.Fatal(err)
	}
	inf := m.Info(s)
	if inf.Spec == nil || inf.Spec.Target != "strongarm" || inf.TraceLimit != 77 {
		t.Fatalf("single-session info lacks spec: %+v", inf)
	}
	for _, li := range m.List() {
		if li.Spec != nil || li.TraceLimit != 0 {
			t.Fatalf("list info leaks spec: %+v", li)
		}
	}
}

// The janitor parks idle-evicted sessions into the store and its GC
// hook reclaims consumed parks without disturbing live ones.
func TestJanitorParksIntoStore(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{IdleTimeout: 30 * time.Millisecond, ParkDir: dir})
	m.Start()
	defer m.Close()

	s, err := m.Create(runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 40}, 64)
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(ParkMetaPath(dir, id)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never parked the idle session")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, _, err := LoadPark(dir, id); err != nil {
		t.Fatal(err)
	}
	// The store holds the blob.
	entries, err := os.ReadDir(filepath.Join(dir, "chunks"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no chunk shards written: %v", err)
	}
}
