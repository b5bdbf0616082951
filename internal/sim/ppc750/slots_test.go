package ppc750

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/osm"
	"repro/internal/snap"
	"repro/internal/workload"
)

var allEngines = []osm.Engine{osm.EngineScan, osm.EngineEvent, osm.EngineCompiled, osm.EngineGenerated}

// newKernelSim builds the model for a workload kernel at n iterations.
func newKernelSim(t *testing.T, name string, n int, cfg Config) *Sim {
	t.Helper()
	p, err := workload.ByName(name).PPCProgram(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// stepTo advances s to the given cycle, failing if the program ends
// first.
func stepTo(t *testing.T, s *Sim, cycle uint64) {
	t.Helper()
	for s.Cycle() < cycle {
		if s.Done() {
			t.Fatalf("program finished at cycle %d, before cycle %d", s.Cycle(), cycle)
		}
		if err := s.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
}

// cursor walks a snapshot with a snap.Reader while tracking absolute
// byte offsets, so tests can corrupt individual fields in place.
type cursor struct {
	r       *snap.Reader
	base, n int
}

func (c cursor) at() int { return c.base + c.n - c.r.Remaining() }

func (c cursor) blob() cursor {
	p := c.at()
	b := c.r.Blob()
	return cursor{r: b, base: p + 4, n: b.Remaining()}
}

// snapLayout records where a version-2 snapshot keeps the fields the
// corrupt-snapshot tests rewrite.
type snapLayout struct {
	versionAt  int
	opCountAt  int
	ops        []opLayout
	lastWriter [numIdx]struct{ at, ordinal int }
}

type opLayout struct {
	depCountAt int
	depsAt     []int
}

func layoutOf(t *testing.T, data []byte) snapLayout {
	t.Helper()
	var l snapLayout
	top := cursor{r: snap.NewReader(data), n: len(data)}
	top.r.U32()
	_ = top.r.String()
	l.versionAt = top.at()
	top.r.U16()
	for i := 0; i < 5; i++ { // ISS, memory, kernel, BHT, BTIC
		top.r.Blob()
	}
	top.r.U32()
	top.r.Bool()
	top.r.Bool()
	for i := 0; i < 4; i++ {
		top.r.U64()
	}
	_ = top.r.String()

	tb := top.blob()
	l.opCountAt = tb.at()
	nOps := tb.r.Int()
	for i := 0; i < nOps; i++ {
		ob := tb.blob()
		for j := 0; j < 3; j++ {
			ob.r.U32()
		}
		ob.r.Bool()
		ob.r.Bool()
		ob.r.U64()
		ob.r.Int()
		ob.r.U64()
		ob.r.U32()
		ob.r.Bool()
		ob.r.Bool()
		ol := opLayout{depCountAt: ob.at()}
		nd := ob.r.Int()
		for j := 0; j < nd; j++ {
			ol.depsAt = append(ol.depsAt, ob.at())
			ob.r.Int()
		}
		if err := ob.r.Close("op"); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		l.ops = append(l.ops, ol)
	}

	db := top.blob()
	db.r.U16()
	db.r.U64()
	db.r.U64()
	nm := db.r.Int()
	for i := 0; i < nm; i++ {
		db.r.Blob()
	}
	nmgr := db.r.Int()
	found := false
	for i := 0; i < nmgr; i++ {
		if db.r.String() != "regfiles+rename" {
			db.r.Blob()
			continue
		}
		rb := db.blob()
		rb.r.U16()
		rb.r.U64()
		n := rb.r.Int()
		for j := 0; j < n; j++ {
			rb.r.U64()
		}
		for j := range l.lastWriter {
			l.lastWriter[j].at = rb.at()
			l.lastWriter[j].ordinal = rb.r.Int()
		}
		found = true
	}
	if err := top.r.Err(); err != nil || !found {
		t.Fatalf("snapshot layout: err %v, renamer found %v", err, found)
	}
	return l
}

// TestOpGraphBounded pins the op-slot design: the live operation state
// is one op per machine, so a snapshot's op table has exactly Machines
// entries at any cycle and the snapshot does not grow with simulated
// time. Retired producers used to stay reachable through captured
// dependences, growing the table from ~800 ops at cycle 2,000 to
// ~27,000 at cycle 60,000.
func TestOpGraphBounded(t *testing.T) {
	for _, eng := range allEngines {
		s := newKernelSim(t, "gsm/dec", 500, Config{Engine: eng})
		var size [2]int
		for i, cycle := range []uint64{2_000, 60_000} {
			stepTo(t, s, cycle)
			data, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if n := len(layoutOf(t, data).ops); n != s.cfg.Machines {
				t.Errorf("%v: cycle %d: op table has %d entries, want %d (one per machine)", eng, cycle, n, s.cfg.Machines)
			}
			size[i] = len(data)
		}
		if d := size[1] - size[0]; d*10 > size[0] || -d*10 > size[0] {
			t.Errorf("%v: snapshot grew from %d to %d bytes between cycles 2,000 and 60,000 (more than 10%%)", eng, size[0], size[1])
		}
	}
}

// TestSteadyStateZeroAllocs requires the simulated cycle loop to
// allocate nothing once caches and the decode cache are warm, on every
// kernel under every engine.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, w := range workload.All() {
		for _, eng := range allEngines {
			s := newKernelSim(t, w.Name, w.DefaultN, Config{Engine: eng})
			label := fmt.Sprintf("%s/%v", w.Name, eng)
			if allocs := warmAllocs(t, s, label); allocs != 0 {
				t.Errorf("%s: %v allocations per 1000 cycles in steady state, want 0", label, allocs)
			}
		}
	}
}

// TestRecordedSteadyStateZeroAllocs extends the zero-allocation bound
// to a traced run: a session-sized trace Recorder (Limit 4096) on the
// event engine must not allocate once its ring is full and every edge
// has its counter.
func TestRecordedSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, w := range workload.All() {
		s := newKernelSim(t, w.Name, w.DefaultN, Config{Engine: osm.EngineEvent})
		rec := osm.NewRecorder()
		rec.Limit = 4096
		s.Director().Tracer = rec
		if allocs := warmAllocs(t, s, w.Name); allocs != 0 {
			t.Errorf("%s: %v allocations per 1000 recorded cycles in steady state, want 0", w.Name, allocs)
		}
		if rec.Total() == 0 {
			t.Fatalf("%s: recorder saw no transitions", w.Name)
		}
	}
}

// warmAllocs runs s for 5000 warm-up cycles, then returns the average
// allocations per further 1000 cycles.
func warmAllocs(t *testing.T, s *Sim, label string) float64 {
	t.Helper()
	var stepErr error
	steps := func(n int) {
		for i := 0; i < n; i++ {
			if err := s.StepCycle(); err != nil && stepErr == nil {
				stepErr = err
			}
		}
	}
	steps(5_000)
	allocs := testing.AllocsPerRun(5, func() { steps(1000) })
	if stepErr != nil {
		t.Fatalf("%s: %v", label, stepErr)
	}
	if s.Done() {
		t.Fatalf("%s: program finished inside the measured window", label)
	}
	return allocs
}

// refFixture is a renamer over a four-slot table, one machine per
// slot, with the current step at 5.
func refFixture() (*renamer, []op, []*osm.Machine) {
	r := newRenamer(6)
	slots := make([]op, 4)
	r.slots = slots
	st := osm.NewState("I")
	ms := make([]*osm.Machine, len(slots))
	for i := range slots {
		slots[i].slot = i
		slots[i].gen = 1
		ms[i] = osm.NewMachine("op", st)
		ms[i].Ctx = &slots[i]
	}
	r.cycle = 5
	return r, slots, ms
}

func TestRefStaleGenerationReadsReady(t *testing.T) {
	r, slots, _ := refFixture()
	if !r.ready(ref{}) {
		t.Error("the zero ref must read ready")
	}
	slots[0].resultAt = 9 // executing, result in the future
	old := slots[0].ref()
	if r.ready(old) {
		t.Error("a live ref with a future result must not read ready")
	}
	slots[0].resultAt = 5
	if !r.ready(old) {
		t.Error("a live ref whose result time has come must read ready")
	}
	// The slot is refetched and its new operation has a future result:
	// the old ref is stale (its producer retired) and reads ready,
	// while a ref to the new operation does not.
	slots[0].gen++
	slots[0].resultAt = notReady
	if r.live(old) != nil || !r.ready(old) {
		t.Error("a stale ref must read ready")
	}
	if r.ready(slots[0].ref()) {
		t.Error("a ref to the slot's new in-flight operation must not read ready")
	}
}

func TestRenamerCancelAllocateRestoresWriters(t *testing.T) {
	r, slots, ms := refFixture()
	// Slot 1 is a live, executing producer of r3; slot 2's entry for
	// the CR is stale (slot 2 was refetched since).
	slots[1].resultAt = 9
	r.lastWriter[3] = slots[1].ref()
	r.lastWriter[idxCR] = ref{slot: 2, gen: 1}
	slots[2].gen = 2
	// Slot 0 reads r3 and the CR and writes r3, the CR and r3 again
	// (repeated destinations must still unwind exactly).
	o := &slots[0]
	o.srcs = []int{3, idxCR}
	o.dsts, o.gprDsts = []int{3, idxCR, 3}, 2
	before := r.lastWriter

	tok, ok := r.Allocate(ms[0], WriterToken)
	if !ok {
		t.Fatal("allocate refused with free rename buffers")
	}
	if len(o.deps) != 1 || o.deps[0] != slots[1].ref() {
		t.Errorf("deps = %v, want only the live producer %v", o.deps, slots[1].ref())
	}
	if r.lastWriter[3] != o.ref() || r.lastWriter[idxCR] != o.ref() {
		t.Error("allocate did not register the operation as newest writer")
	}
	if r.pending != 1 || r.bufUsed != 2 {
		t.Errorf("pending %d, bufUsed %d after allocate; want 1, 2", r.pending, r.bufUsed)
	}
	r.CancelAllocate(ms[0], tok)
	if r.lastWriter != before {
		t.Errorf("cancel left lastWriter %v, want %v", r.lastWriter, before)
	}
	if r.pending != 0 || r.bufUsed != 0 || len(o.undo) != 0 {
		t.Errorf("cancel left pending %d, bufUsed %d, undo %v", r.pending, r.bufUsed, o.undo)
	}

	if _, ok := r.Allocate(ms[0], WriterToken); !ok {
		t.Fatal("allocate refused after cancel")
	}
	r.CommitAllocate(ms[0], tok)
	if r.pending != 0 || len(o.undo) != 0 || r.lastWriter[3] != o.ref() {
		t.Errorf("commit left pending %d, undo %v, lastWriter[3] %v", r.pending, o.undo, r.lastWriter[3])
	}
}

func TestRenamerDiscardedUnhooksOnlyLiveRef(t *testing.T) {
	r, slots, ms := refFixture()
	slots[0].gen = 2
	slots[0].renameBufs = 1
	r.bufUsed = 3
	live := slots[0].ref()
	stale := ref{slot: 0, gen: 1}
	other := slots[1].ref()
	r.lastWriter[1] = live
	r.lastWriter[2] = stale
	r.lastWriter[4] = other
	r.lastWriter[idxLR] = live

	r.Discarded(ms[0], osm.Token{Mgr: r, ID: WriterToken})
	if r.lastWriter[1] != (ref{}) || r.lastWriter[idxLR] != (ref{}) {
		t.Error("the discarded operation's live refs were not unhooked")
	}
	if r.lastWriter[2] != stale || r.lastWriter[4] != other {
		t.Error("Discarded touched refs to other operations")
	}
	if r.bufUsed != 2 {
		t.Errorf("bufUsed %d after discard, want 2", r.bufUsed)
	}
}

// TestSlotReuseWithFutureResultFails checks that refetching a slot
// whose operation has not yet delivered its result is a loud model
// error rather than a silently early "ready".
func TestSlotReuseWithFutureResultFails(t *testing.T) {
	s := newKernelSim(t, "gsm/dec", 5, Config{})
	stepTo(t, s, 100)
	m := s.director.Machines()[0]
	o := opOf(m)
	o.resultAt = s.director.StepCount() + 3
	gen := o.gen
	s.fetchOne(m)
	var sre *SlotReuseError
	if !errors.As(s.execErr, &sre) {
		t.Fatalf("execErr = %v, want a *SlotReuseError", s.execErr)
	}
	if sre.Slot != 0 || sre.ResultAt != s.director.StepCount()+3 {
		t.Errorf("error %+v names the wrong slot or result time", sre)
	}
	if o.gen != gen+1 {
		t.Errorf("slot generation %d after refetch, want %d", o.gen, gen+1)
	}
}

// TestSnapshotRoundTripByteIdentical checks snapshot -> restore ->
// snapshot under every engine at several cycles.
func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	for _, eng := range allEngines {
		s := newKernelSim(t, "gsm/dec", 500, Config{Engine: eng})
		for _, cycle := range []uint64{0, 1_000, 7_777} {
			stepTo(t, s, cycle)
			a, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			fresh := newKernelSim(t, "gsm/dec", 500, Config{Engine: eng})
			if err := fresh.Restore(a); err != nil {
				t.Fatalf("%v: cycle %d: restore: %v", eng, cycle, err)
			}
			b, err := fresh.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%v: cycle %d: re-snapshot differs (%d vs %d bytes)", eng, cycle, len(a), len(b))
			}
		}
	}
}

// TestRestoreRejectsCorruptSnapshots corrupts single fields of a real
// mid-run snapshot and requires Restore to refuse each.
func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	s := newKernelSim(t, "gsm/dec", 20, Config{})
	// Step until some captured dependence and newest-writer entry are
	// live, so every corruption below has a field to hit.
	var data []byte
	var l snapLayout
	depOp, writer := -1, -1
	for depOp < 0 || writer < 0 {
		stepTo(t, s, s.Cycle()+1)
		var err error
		if data, err = s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		l = layoutOf(t, data)
		depOp, writer = -1, -1
		for i, o := range l.ops {
			if len(o.depsAt) > 0 {
				depOp = i
			}
		}
		for i, w := range l.lastWriter {
			if w.ordinal >= 0 {
				writer = i
			}
		}
	}
	machines := int64(len(l.ops))
	put := func(at int, v int64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[at:], uint64(v)) }
	}
	cases := []struct {
		name    string
		corrupt func([]byte)
		want    string
	}{
		{"op table shorter than machines", put(l.opCountAt, machines-1), "ops"},
		{"op table longer than machines", put(l.opCountAt, machines+1), "ops"},
		{"dep ordinal past the table", put(l.ops[depOp].depsAt[0], machines), "dep ordinal"},
		{"negative dep ordinal", put(l.ops[depOp].depsAt[0], -1), "dep ordinal"},
		{"dep count above source count", put(l.ops[depOp].depCountAt, int64(len(s.slots[depOp].srcs)+1)), "dep count"},
		{"negative dep count", put(l.ops[depOp].depCountAt, -1), "dep count"},
		{"writer ordinal past the table", put(l.lastWriter[writer].at, machines), "writer ordinal"},
		{"writer ordinal below -1", put(l.lastWriter[writer].at, -2), "writer ordinal"},
		{"version 1 blob", func(b []byte) { binary.LittleEndian.PutUint16(b[l.versionAt:], 1) }, "snapshot version 1"},
	}
	for _, c := range cases {
		bad := append([]byte(nil), data...)
		c.corrupt(bad)
		fresh := newKernelSim(t, "gsm/dec", 20, Config{})
		err := fresh.Restore(bad)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: restore error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
	// The uncorrupted snapshot restores.
	if err := newKernelSim(t, "gsm/dec", 20, Config{}).Restore(data); err != nil {
		t.Fatal(err)
	}
}
