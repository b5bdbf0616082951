package osm

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/snap"
)

// snapModel is a director with one of every built-in manager and a
// handful of machines over a shared state graph, used to exercise the
// snapshot codec. build must be deterministic: the round-trip tests
// construct it twice and expect identical shape.
type snapModel struct {
	d        *Director
	states   []*State
	machines []*Machine
	pool     *PoolManager
	queue    *QueueManager
	regs     *RegFileManager
	unit     *UnitManager
	bypass   *BypassManager
	reset    *ResetManager
}

func buildSnapModel() *snapModel {
	sm := &snapModel{}
	a, b, c, e := NewState("A"), NewState("B"), NewState("C"), NewState("E")
	a.Connect("ab", b)
	b.Connect("bc", c)
	c.Connect("ce", e)
	e.Connect("ea", a)
	sm.states = []*State{a, b, c, e}

	sm.pool = NewPoolManager("pool", 4)
	sm.queue = NewQueueManager("queue", 5)
	sm.regs = NewRegFileManager("regs", 8)
	sm.regs.RenameDepth = 2
	sm.unit = NewUnitManager("unit", 3)
	sm.bypass = NewBypassManager("bypass")
	sm.reset = NewResetManager("reset")

	sm.d = NewDirector()
	for i := 0; i < 6; i++ {
		m := NewMachine("m", a)
		m.cur = a
		sm.machines = append(sm.machines, m)
	}
	sm.d.AddMachine(sm.machines...)
	sm.d.AddManager(sm.pool, sm.queue, sm.regs, sm.unit, sm.bypass, sm.reset)
	return sm
}

// randomize drives the model into an arbitrary but structurally valid
// configuration by poking state directly, the way a long run would
// leave it at a control-step boundary.
func (sm *snapModel) randomize(rng *rand.Rand) {
	maybeMachine := func() *Machine {
		if rng.Intn(3) == 0 {
			return nil
		}
		return sm.machines[rng.Intn(len(sm.machines))]
	}
	sm.d.step = rng.Uint64() % 1_000_000
	sm.d.nextAge = 100 + rng.Uint64()%1000
	for _, m := range sm.machines {
		m.cur = sm.states[rng.Intn(len(sm.states))]
		m.Age = rng.Uint64() % sm.d.nextAge
		m.Tag = rng.Intn(1000)
		m.tokens = m.tokens[:0]
		for i, n := 0, rng.Intn(4); i < n; i++ {
			mgr := sm.d.managers[rng.Intn(len(sm.d.managers))]
			m.tokens = append(m.tokens, Token{
				Mgr:  mgr,
				ID:   TokenID(rng.Int63n(1 << 33)),
				Data: rng.Uint64(),
			})
		}
	}
	sm.pool.free = rng.Intn(sm.pool.capacity + 1)
	sm.pool.seq = TokenID(rng.Int63n(1 << 40))

	sm.queue.head = rng.Intn(sm.queue.capacity)
	sm.queue.n = rng.Intn(sm.queue.capacity + 1)
	sm.queue.seq = TokenID(rng.Int63n(1 << 40))
	for i := 0; i < sm.queue.n; i++ {
		*sm.queue.at(i) = queueEntry{id: TokenID(rng.Int63n(1 << 40)), owner: maybeMachine()}
	}

	for i := range sm.regs.vals {
		sm.regs.vals[i] = rng.Uint64()
		sm.regs.pending[i] = rng.Intn(3)
		sm.regs.writers[i] = sm.regs.writers[i][:0]
		for j, n := 0, rng.Intn(3); j < n; j++ {
			sm.regs.writers[i] = append(sm.regs.writers[i], sm.machines[rng.Intn(len(sm.machines))])
		}
	}

	sm.unit.step = rng.Uint64() % 1_000_000
	for i := range sm.unit.owner {
		sm.unit.owner[i] = maybeMachine()
		sm.unit.busyUntil[i] = rng.Uint64() % 1_000_000
	}

	sm.bypass.step = rng.Uint64() % 1_000_000
	sm.bypass.entries = make(map[int]bypassEntry)
	for i, n := 0, rng.Intn(6); i < n; i++ {
		sm.bypass.entries[rng.Intn(32)] = bypassEntry{val: rng.Uint64(), until: rng.Uint64() % 1_000_000}
	}

	sm.reset.marked = make(map[*Machine]bool)
	for i, n := 0, rng.Intn(4); i < n; i++ {
		sm.reset.marked[sm.machines[rng.Intn(len(sm.machines))]] = true
	}
}

func (sm *snapModel) encode(t *testing.T) []byte {
	t.Helper()
	w := snap.NewWriter()
	if err := sm.d.Snapshot(w); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return w.Bytes()
}

// TestSnapshotRoundTripProperty is the codec property test: for many
// random model states, encode → decode into a fresh identically-built
// model → re-encode must be byte-identical, and the restored model
// must observably match the original.
func TestSnapshotRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 50; iter++ {
		src := buildSnapModel()
		src.randomize(rng)
		b1 := src.encode(t)

		dst := buildSnapModel()
		if err := dst.d.Restore(snap.NewReader(b1)); err != nil {
			t.Fatalf("iter %d: Restore: %v", iter, err)
		}
		b2 := dst.encode(t)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("iter %d: re-encode differs: %d vs %d bytes", iter, len(b1), len(b2))
		}

		if dst.d.step != src.d.step || dst.d.nextAge != src.d.nextAge {
			t.Fatalf("iter %d: director counters differ", iter)
		}
		for i, m := range src.machines {
			dm := dst.machines[i]
			if dm.cur.Name != m.cur.Name || dm.Age != m.Age || dm.Tag != m.Tag {
				t.Fatalf("iter %d: machine %d state differs", iter, i)
			}
			if len(dm.tokens) != len(m.tokens) {
				t.Fatalf("iter %d: machine %d has %d tokens, want %d", iter, i, len(dm.tokens), len(m.tokens))
			}
			for j, tok := range m.tokens {
				dtok := dm.tokens[j]
				if dtok.ID != tok.ID || dtok.Data != tok.Data || dtok.Mgr.Name() != tok.Mgr.Name() {
					t.Fatalf("iter %d: machine %d token %d differs", iter, i, j)
				}
			}
		}
		if dst.pool.free != src.pool.free || dst.queue.n != src.queue.n {
			t.Fatalf("iter %d: manager occupancy differs", iter)
		}
	}
}

// TestSnapshotQueueHeadNormalized checks that the ring head position
// is not part of the logical snapshot: two queues with the same
// content at different ring offsets encode identically.
func TestSnapshotQueueHeadNormalized(t *testing.T) {
	enc := func(head int) []byte {
		sm := buildSnapModel()
		sm.queue.head = head
		sm.queue.n = 2
		*sm.queue.at(0) = queueEntry{id: 7, owner: sm.machines[1]}
		*sm.queue.at(1) = queueEntry{id: 8, owner: sm.machines[2]}
		return sm.encode(t)
	}
	if !bytes.Equal(enc(0), enc(3)) {
		t.Fatal("queue snapshots differ across ring offsets")
	}
}

// TestSnapshotTruncationNeverPanics feeds every truncated prefix of a
// valid snapshot to Restore; each must return an error (never panic,
// never succeed).
func TestSnapshotTruncationNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := buildSnapModel()
	src.randomize(rng)
	full := src.encode(t)
	for n := 0; n < len(full); n++ {
		dst := buildSnapModel()
		if err := dst.d.Restore(snap.NewReader(full[:n])); err == nil {
			t.Fatalf("restore of %d/%d byte prefix succeeded", n, len(full))
		}
	}
}

// TestSnapshotVersionSkew checks that a snapshot from a different
// format version is rejected with an error.
func TestSnapshotVersionSkew(t *testing.T) {
	src := buildSnapModel()
	full := src.encode(t)
	skew := append([]byte(nil), full...)
	skew[0] = byte(directorSnapVersion + 1) // version tag is the first u16
	dst := buildSnapModel()
	if err := dst.d.Restore(snap.NewReader(skew)); err == nil {
		t.Fatal("version-skewed snapshot accepted")
	}
}

// TestSnapshotShapeMismatch checks restores into a differently-built
// director fail cleanly.
func TestSnapshotShapeMismatch(t *testing.T) {
	src := buildSnapModel()
	full := src.encode(t)

	dst := buildSnapModel()
	dst.d.AddMachine(NewMachine("extra", dst.states[0]))
	if err := dst.d.Restore(snap.NewReader(full)); err == nil {
		t.Fatal("machine-count mismatch accepted")
	}

	dst2 := buildSnapModel()
	dst2.d.AddManager(NewPoolManager("extra", 1))
	if err := dst2.d.Restore(snap.NewReader(full)); err == nil {
		t.Fatal("manager-count mismatch accepted")
	}
}

type opaqueManager struct{ BaseManager }

func (o *opaqueManager) Allocate(m *Machine, id TokenID) (Token, bool) { return Token{}, false }
func (o *opaqueManager) Inquire(m *Machine, id TokenID) bool           { return false }
func (o *opaqueManager) Release(m *Machine, t Token) bool              { return false }

// TestSnapshotRequiresSnapshotter checks that Snapshot refuses
// directors with managers that cannot be captured, instead of writing
// a silently incomplete snapshot.
func TestSnapshotRequiresSnapshotter(t *testing.T) {
	sm := buildSnapModel()
	sm.d.AddManager(&opaqueManager{BaseManager{ManagerName: "opaque"}})
	if err := sm.d.Snapshot(snap.NewWriter()); err == nil {
		t.Fatal("Snapshot accepted a manager without Snapshotter")
	}
}

// TestSnapshotRestoreResumesSchedule runs a live pipeline to a
// boundary, snapshots, restores into a fresh clone, and checks both
// continue identically under both schedulers.
func TestSnapshotRestoreResumesSchedule(t *testing.T) {
	for _, scan := range []bool{true, false} {
		build := func() (*Director, *Recorder) {
			d, _, _ := twoStage(2)
			if scan {
				d.Engine = EngineScan
			}
			rec := NewRecorder()
			d.Tracer = rec
			return d, rec
		}
		ref, refRec := build()
		for i := 0; i < 20; i++ {
			if err := ref.Step(); err != nil {
				t.Fatal(err)
			}
		}

		src, _ := build()
		for i := 0; i < 9; i++ {
			if err := src.Step(); err != nil {
				t.Fatal(err)
			}
		}
		w := snap.NewWriter()
		if err := src.Snapshot(w); err != nil {
			t.Fatalf("scan=%v: %v", scan, err)
		}
		dst, dstRec := build()
		if err := dst.Restore(snap.NewReader(w.Bytes())); err != nil {
			t.Fatalf("scan=%v: %v", scan, err)
		}
		for i := 0; i < 11; i++ {
			if err := dst.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if dst.StepCount() != ref.StepCount() {
			t.Fatalf("scan=%v: resumed run at step %d, reference at %d", scan, dst.StepCount(), ref.StepCount())
		}
		want := refRec.Events()
		var tail []Event
		for _, tr := range want {
			if tr.Step >= 9 {
				tail = append(tail, tr)
			}
		}
		got := dstRec.Events()
		if len(got) != len(tail) {
			t.Fatalf("scan=%v: resumed run recorded %d transitions, want %d", scan, len(got), len(tail))
		}
		for i := range got {
			if got[i].Step != tail[i].Step || got[i].Machine != tail[i].Machine ||
				got[i].Edge != tail[i].Edge || got[i].From != tail[i].From || got[i].To != tail[i].To {
				t.Fatalf("scan=%v: transition %d differs: %+v vs %+v", scan, i, got[i], tail[i])
			}
		}
	}
}
