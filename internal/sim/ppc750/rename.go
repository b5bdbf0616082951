package ppc750

import (
	"math"

	"repro/internal/isa/ppc"
	"repro/internal/osm"
)

// Scoreboard indices: GPR0..31, then the condition, link and count
// registers.
const (
	idxCR  = 32
	idxLR  = 33
	idxCTR = 34
	numIdx = 35
)

// Token identifiers of the rename manager's namespace.
const (
	// SrcsToken inquires, at dispatch time, whether every source of
	// the requesting operation has either committed or been produced
	// by an already-executed in-flight writer.
	SrcsToken osm.TokenID = 200
	// DepsToken inquires, from a reservation station, whether the
	// producers captured at dispatch have all executed.
	DepsToken osm.TokenID = 201
	// WriterToken claims rename buffers for the operation's GPR
	// destinations and registers it as the newest writer of all its
	// destinations. Released at completion.
	WriterToken osm.TokenID = 202
)

// notReady marks a result that has not been produced yet.
const notReady = math.MaxUint64

// trackedSrcs lists the scoreboard indices an operation reads.
func trackedSrcs(ins *ppc.Instr) []int {
	out := ins.SrcRegs()
	if ins.ReadsCR() {
		out = append(out, idxCR)
	}
	if ins.ReadsLR() {
		out = append(out, idxLR)
	}
	if ins.ReadsCTR() {
		out = append(out, idxCTR)
	}
	return out
}

// trackedDsts lists the scoreboard indices an operation writes; the
// second result is the number of GPR rename buffers it needs.
func trackedDsts(ins *ppc.Instr) (out []int, gprs int) {
	out = ins.DstRegs()
	gprs = len(out)
	if ins.WritesCR() {
		out = append(out, idxCR)
	}
	if ins.WritesLR() {
		out = append(out, idxLR)
	}
	if ins.WritesCTR() {
		out = append(out, idxCTR)
	}
	return out, gprs
}

// ref names a producer operation by its op slot and the slot's
// generation when the producer was fetched. The zero ref names no
// producer (fetch numbers generations from 1). Once the slot is
// refetched the ref is stale: its producer has retired, and retired
// producers are ready — a slot is only refetched after its previous
// operation's result time has passed (fetchOne enforces this), and
// result times never move after issue.
type ref struct {
	slot int
	gen  uint64
}

// renamer is the register-file module of the 750 model: it combines
// the architected register files with their rename buffers. Rather
// than tracking values (the ISS executes in order at dispatch and is
// always architecturally exact), it tracks data dependences the way
// rename hardware does: per architectural register, the newest
// in-flight producer; per operation, the cycle its result appears on
// the result buses.
type renamer struct {
	osm.BaseManager
	cycle uint64
	// resultTimes holds the not-yet-reached result times of in-flight
	// operations; when one is reached at BeginStep, readiness
	// inquiries that previously failed can now succeed.
	resultTimes []uint64
	lastWriter  [numIdx]ref
	// slots is the model's op-slot table (Sim.slots), which refs index.
	slots []op
	// Rename-buffer pool for GPR destinations.
	bufCap, bufUsed int
	// pending counts WriterToken grants not yet committed or
	// cancelled; each keeps its undo log in its op (op.undo).
	pending int
}

// undoEntry records one newest-writer entry an uncommitted grant
// overwrote.
type undoEntry struct {
	idx  int
	prev ref
}

func newRenamer(renameBuffers int) *renamer {
	return &renamer{
		BaseManager: osm.BaseManager{ManagerName: "regfiles+rename"},
		bufCap:      renameBuffers,
	}
}

// live returns the operation p names, or nil when p is the zero ref
// or its producer has retired.
func (r *renamer) live(p ref) *op {
	if p.gen == 0 {
		return nil
	}
	if o := &r.slots[p.slot]; o.gen == p.gen {
		return o
	}
	return nil
}

// ready reports whether the producer p names has delivered its result
// by the current step: the zero ref and retired producers always
// have.
func (r *renamer) ready(p ref) bool {
	o := r.live(p)
	return o == nil || o.resultAt <= r.cycle
}

// BeginStep tracks the current control step (osm.Stepper) and wakes
// waiters when an in-flight result reaches the buses this cycle.
func (r *renamer) BeginStep(cycle uint64) {
	r.cycle = cycle
	wake := false
	kept := r.resultTimes[:0]
	for _, at := range r.resultTimes {
		if at <= cycle {
			wake = true
			continue
		}
		kept = append(kept, at)
	}
	r.resultTimes = kept
	if wake {
		r.Wake()
	}
}

// noteResult records the cycle at which an issued operation's result
// appears on the result buses, scheduling a wake for that step.
func (r *renamer) noteResult(at uint64) { r.resultTimes = append(r.resultTimes, at) }

// SleepSafeManager reports that machines blocked on the manager may be
// suspended (osm.SleepSafe): every availability change is either a
// committed transaction or a result-time crossing announced by
// BeginStep.
func (r *renamer) SleepSafeManager() bool { return true }

// Inquire implements both operand checks. SrcsToken consults the
// newest-writer table (valid only at dispatch time, before the
// requester registers itself); DepsToken consults the producer set
// the operation captured when it was dispatched into a reservation
// station.
func (r *renamer) Inquire(m *osm.Machine, id osm.TokenID) bool {
	o := opOf(m)
	switch id {
	case SrcsToken:
		if !o.decodeOK {
			return true // surfaces as a dispatch-time model error
		}
		for _, s := range o.srcs {
			if !r.ready(r.lastWriter[s]) {
				return false
			}
		}
		return true
	case DepsToken:
		for _, dep := range o.deps {
			if !r.ready(dep) {
				return false
			}
		}
		return true
	}
	return false
}

// Allocate grants WriterToken when enough rename buffers are free.
// It snapshots the operation's producer set — the newest in-flight,
// not-yet-executed writer of each source, exactly what dispatch
// hardware latches into a reservation station — and then tentatively
// registers the operation as the newest writer of its destinations.
// The snapshot happens first so an operation that reads and writes
// the same register depends on the older producer, not on itself.
func (r *renamer) Allocate(m *osm.Machine, id osm.TokenID) (osm.Token, bool) {
	if id != WriterToken {
		return osm.Token{}, false
	}
	o := opOf(m)
	dsts, gprs := o.dsts, o.gprDsts
	if r.bufUsed+gprs > r.bufCap {
		return osm.Token{}, false
	}
	self := o.ref()
	o.deps = o.deps[:0]
	for _, s := range o.srcs {
		// Capture every live producer, including one already
		// executing: readiness is judged against its result time at
		// issue. A retired producer (stale ref) is ready for good, so
		// it is not captured.
		if w := r.lastWriter[s]; w != self && r.live(w) != nil {
			o.deps = append(o.deps, w)
		}
	}
	r.bufUsed += gprs
	o.renameBufs = gprs
	o.undo = o.undo[:0]
	for _, d := range dsts {
		o.undo = append(o.undo, undoEntry{idx: d, prev: r.lastWriter[d]})
		r.lastWriter[d] = self
	}
	r.pending++
	return osm.Token{Mgr: r, ID: WriterToken}, true
}

// CancelAllocate restores the newest-writer table and the buffer pool.
func (r *renamer) CancelAllocate(m *osm.Machine, t osm.Token) {
	o := opOf(m)
	r.bufUsed -= o.renameBufs
	for i := len(o.undo) - 1; i >= 0; i-- {
		r.lastWriter[o.undo[i].idx] = o.undo[i].prev
	}
	o.undo = o.undo[:0]
	r.pending--
}

// CommitAllocate discards the undo log; the registration stands.
func (r *renamer) CommitAllocate(m *osm.Machine, t osm.Token) {
	o := opOf(m)
	o.undo = o.undo[:0]
	r.pending--
}

// Release accepts the writer token back at completion.
func (r *renamer) Release(m *osm.Machine, t osm.Token) bool { return true }

// The manager opts in to the compiled engine's check-then-commit fast
// path: a grant depends only on the identifier and the free rename
// buffers, and CancelAllocate restores the manager exactly. (The
// interpreter's cancelled grants additionally rewrite the requester's
// producer set, but that set is rebuilt by every successful grant
// before it can be read, so skipping failed attempts is unobservable.)
var _ osm.CheckableManager = (*renamer)(nil)

// CanAllocate predicts Allocate: WriterToken succeeds when enough
// rename buffers are free for the operation's GPR destinations.
func (r *renamer) CanAllocate(m *osm.Machine, id osm.TokenID) bool {
	return id == WriterToken && r.bufUsed+opOf(m).gprDsts <= r.bufCap
}

// CanRelease predicts Release, which always accepts the token back.
func (r *renamer) CanRelease(m *osm.Machine, t osm.Token) bool { return true }

// CommitRelease frees the rename buffers. The newest-writer table
// keeps its ref: until the slot is refetched the completed producer's
// resultAt is in the past, and afterwards the ref is stale; either way
// readers see it as ready, and dropping the entry eagerly would race
// younger registered writers.
func (r *renamer) CommitRelease(m *osm.Machine, t osm.Token) {
	r.bufUsed -= opOf(m).renameBufs
}

// Discarded reclaims the buffers of a squashed operation and unhooks
// its live ref from the newest-writer table. Only held (committed)
// tokens are discarded, so no undo log is open.
func (r *renamer) Discarded(m *osm.Machine, t osm.Token) {
	o := opOf(m)
	r.bufUsed -= o.renameBufs
	self := o.ref()
	for i := range r.lastWriter {
		if r.lastWriter[i] == self {
			r.lastWriter[i] = ref{}
		}
	}
	// A squashed writer disappearing can make sources ready; Discarded
	// is also reachable outside edge commits via Machine.Reset.
	r.Wake()
}
