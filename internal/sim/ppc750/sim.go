package ppc750

import (
	"fmt"

	"repro/internal/de"
	"repro/internal/isa/ppc"
	"repro/internal/iss"
	"repro/internal/mem"
	"repro/internal/osm"
)

// Config parameterizes the model.
type Config struct {
	// Hier sizes the memory subsystem; the zero value selects a
	// 750-like organization (32 KiB 8-way split caches).
	Hier mem.HierarchyConfig
	// RAMKB sizes the memory image; the zero value selects 1024.
	RAMKB int
	// Machines is the OSM population; the zero value selects 16.
	Machines int
	// FetchQueue, CompletionQueue and RenameBuffers size the front
	// end; zero values select the 750's 6/6/6.
	FetchQueue, CompletionQueue, RenameBuffers int
	// FetchWidth, DispatchWidth and CompleteWidth are the per-cycle
	// bandwidths; zero values select the 750's 4/2/2.
	FetchWidth, DispatchWidth, CompleteWidth int
	// BHTEntries and BTICEntries size the predictors (defaults
	// 512/64).
	BHTEntries, BTICEntries int
	// NoRestart disables the director's outer-loop restart as an
	// ablation. Unlike the in-order StrongARM, this model genuinely
	// needs the restart: out-of-order issue lets a junior operation
	// occupy a function unit a senior reservation-station waiter
	// wants, so the senior can depend on a junior for a resource.
	NoRestart bool
	// NoReservationStations removes the per-unit reservation
	// stations: operations dispatch only when the unit and operands
	// are ready (an ablation knob showing what the Fig. 2 multi-path
	// OSM buys).
	NoReservationStations bool
	// Engine selects the director's execution engine (event-driven
	// interpreter by default, reference scan, compiled guard programs,
	// or generated Go edge functions). All four are trace-equivalent;
	// see DESIGN.md §12-13.
	Engine osm.Engine
}

func (c *Config) fill() {
	if c.RAMKB == 0 {
		c.RAMKB = 1024
	}
	if c.Machines == 0 {
		c.Machines = 16
	}
	if c.FetchQueue == 0 {
		c.FetchQueue = 6
	}
	if c.CompletionQueue == 0 {
		c.CompletionQueue = 6
	}
	if c.RenameBuffers == 0 {
		c.RenameBuffers = 6
	}
	if c.FetchWidth == 0 {
		c.FetchWidth = 4
	}
	if c.DispatchWidth == 0 {
		c.DispatchWidth = 2
	}
	if c.CompleteWidth == 0 {
		c.CompleteWidth = 2
	}
	if c.BHTEntries == 0 {
		c.BHTEntries = 512
	}
	if c.BTICEntries == 0 {
		c.BTICEntries = 64
	}
	if c.Hier == (mem.HierarchyConfig{}) {
		c.Hier = mem.HierarchyConfig{
			ICacheKB: 32, DCacheKB: 32, Ways: 8, LineBytes: 32,
			HitLatency: 0, MemLatency: 25,
			TLBEntries: 64, TLBMissPenalty: 25,
			WriteBack: true,
		}
	}
}

// Stats reports a finished simulation.
type Stats struct {
	Cycles      uint64
	Instrs      uint64
	Dispatched  uint64
	Mispredicts uint64
	BHTAccuracy float64
	ICache      mem.CacheStats
	DCache      mem.CacheStats
}

// IPC returns instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instrs) / float64(s.Cycles)
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instrs)
}

// decoded caches the static per-instruction facts (the program text
// is immutable, so each word decodes once).
type decoded struct {
	ins   ppc.Instr
	ok    bool
	class ppc.Class
	srcs  []int
	dsts  []int
	gprs  int
}

// op is the per-operation payload. The model owns one op slot per
// machine (Sim.slots), bound to the machine's Ctx at build time; every
// fetch resets the slot in place and keeps its slices' capacity, so
// the steady state allocates nothing and the live operation state is
// bounded by the machine population. gen counts the operations the
// slot has held: producer references (ref) carry the generation they
// were taken at, and a stale generation names a retired producer.
type op struct {
	slot          int
	gen           uint64
	pc            uint32
	ins           ppc.Instr
	decodeOK      bool
	class         ppc.Class
	predictedNext uint32
	actualNext    uint32
	indirect      bool
	redirect      bool
	deps          []ref
	undo          []undoEntry // open WriterToken grant (renamer)
	srcs, dsts    []int
	gprDsts       int
	resultAt      uint64
	renameBufs    int
	execLat       uint64 // fixed at dispatch (multiplier width etc.)
	memAddr       uint32
	isMem         bool
	isStore       bool
}

func opOf(m *osm.Machine) *op { return m.Ctx.(*op) }

// ref returns a reference to the operation the slot holds now.
func (o *op) ref() ref { return ref{slot: o.slot, gen: o.gen} }

// recycle clears the slot for a new operation at pc. The new
// generation turns every ref to the previous operation stale; the
// slices keep their capacity.
func (o *op) recycle(pc uint32) {
	*o = op{slot: o.slot, gen: o.gen + 1, pc: pc, deps: o.deps[:0], undo: o.undo[:0]}
}

// SlotReuseError reports a model invariant violation: a fetch reused
// an op slot whose previous operation's result was still in the
// future. Producer references to that operation would then read ready
// too early, so the simulation stops instead of going silently wrong.
type SlotReuseError struct {
	Slot     int
	PC       uint32 // the retiring operation's address
	ResultAt uint64
	Step     uint64
}

func (e *SlotReuseError) Error() string {
	return fmt.Sprintf("ppc750: model invariant violated: op slot %d refetched at step %d while its operation at %#x delivers its result at step %d",
		e.Slot, e.Step, e.PC, e.ResultAt)
}

// ratedQueue is an in-order queue whose releases are limited to a
// per-cycle bandwidth: the dispatch and completion limits of the 750.
type ratedQueue struct {
	*osm.QueueManager
	max int
	n   int
}

func newRatedQueue(name string, depth, perCycle int) *ratedQueue {
	return &ratedQueue{QueueManager: osm.NewQueueManager(name, depth), max: perCycle}
}

// BeginStep resets the per-cycle release budget (osm.Stepper). When
// the budget was exhausted, refused releases can now succeed, so the
// manager wakes its waiters.
func (q *ratedQueue) BeginStep(cycle uint64) {
	if q.n >= q.max {
		q.Wake()
	}
	q.n = 0
}

// Allocate re-tags the grant so the token routes back through the
// rate-limiting wrapper rather than the embedded queue.
func (q *ratedQueue) Allocate(m *osm.Machine, id osm.TokenID) (osm.Token, bool) {
	t, ok := q.QueueManager.Allocate(m, id)
	if ok {
		t.Mgr = q
	}
	return t, ok
}

// Release additionally enforces the per-cycle bandwidth.
func (q *ratedQueue) Release(m *osm.Machine, t osm.Token) bool {
	if q.n >= q.max {
		return false
	}
	if !q.QueueManager.Release(m, t) {
		return false
	}
	q.n++
	return true
}

// CancelRelease refunds the budget.
func (q *ratedQueue) CancelRelease(m *osm.Machine, t osm.Token) {
	q.n--
	q.QueueManager.CancelRelease(m, t)
}

// The manager opts in to the compiled engine's check-then-commit fast
// path: grants depend only on queue occupancy, releases on head order
// and the per-cycle budget, and the embedded queue's cancels are
// exact. The model installs no release gate, so Inquire predicts
// Release completely.
var _ osm.CheckableManager = (*ratedQueue)(nil)

// CanAllocate predicts Allocate: the embedded queue grants whenever it
// has a free entry (the identifier is ignored).
func (q *ratedQueue) CanAllocate(m *osm.Machine, id osm.TokenID) bool {
	return q.Len() < q.Cap()
}

// CanRelease predicts Release: budget left this cycle and t at the
// head of the queue.
func (q *ratedQueue) CanRelease(m *osm.Machine, t osm.Token) bool {
	return q.n < q.max && q.QueueManager.Inquire(m, t.ID)
}

// unit is one function unit with its reservation station.
type unit struct {
	name string
	fu   *osm.UnitManager
	rs   *osm.UnitManager
	w    *osm.State
	e    *osm.State
	// takes reports whether the unit executes the class.
	takes func(c ppc.Class) bool
}

// Sim is a PowerPC 750 micro-architecture simulator instance.
type Sim struct {
	ISS    *iss.PPC
	Hier   *mem.Hierarchy
	Kernel *de.Kernel
	BHT    *BHT
	BTIC   *BTIC

	cfg         Config
	decodeCache map[uint32]*decoded
	slots       []op // one per machine, in registration order
	director    *osm.Director
	fq, cq      *ratedQueue
	ren         *renamer
	reset       *osm.ResetManager
	units       []*unit

	fetchPC       uint32
	fetchStop     bool
	fetchHeld     bool
	fetchResumeAt uint64
	fetchCount    int
	retired       uint64
	dispatched    uint64
	mispredicts   uint64
	execErr       error
}

// New builds a simulator for the program.
func New(p *ppc.Program, cfg Config) (*Sim, error) {
	cfg.fill()
	is, err := iss.NewPPC(p, cfg.RAMKB)
	if err != nil {
		return nil, err
	}
	s := &Sim{
		ISS:     is,
		Hier:    mem.NewHierarchy(cfg.Hier),
		BHT:     NewBHT(cfg.BHTEntries),
		BTIC:    NewBTIC(cfg.BTICEntries),
		cfg:     cfg,
		fq:      newRatedQueue("fetch-queue", cfg.FetchQueue, cfg.DispatchWidth),
		cq:      newRatedQueue("completion-queue", cfg.CompletionQueue, cfg.CompleteWidth),
		ren:     newRenamer(cfg.RenameBuffers),
		reset:   osm.NewResetManager("reset"),
		fetchPC: p.Entry,
	}
	s.decodeCache = make(map[uint32]*decoded)
	if err := s.buildModel(); err != nil {
		return nil, err
	}
	return s, nil
}

// The When predicates below are named methods, not builder-local
// closures, so the generated edge functions (edges_gen.go) can call
// exactly the predicates the interpreted model evaluates.

// whenFetch gates the fetch edge (I -> Q).
func (s *Sim) whenFetch(m *osm.Machine) bool { return s.fetchOK() }

// whenDisp gates a fast-dispatch edge (Q -> Eu): only the queue head
// may dispatch (in-order; checking here keeps non-head machines from
// probing the whole edge fan every control step), and the unit must
// execute the operation's class. An undecodable operation at the head
// of the queue is a model error; it routes to the system unit so
// dispatch can surface it instead of wedging.
func (s *Sim) whenDisp(u *unit, m *osm.Machine) bool {
	if s.fq.Head() != m {
		return false
	}
	o := opOf(m)
	if !o.decodeOK {
		return u.name == "sru"
	}
	return u.takes(o.class)
}

// whenDispRS gates a reservation-station dispatch edge (Q -> Wu).
// Undecodable operations only use the fast path above.
func (s *Sim) whenDispRS(u *unit, m *osm.Machine) bool {
	if s.fq.Head() != m {
		return false
	}
	o := opOf(m)
	return o.decodeOK && u.takes(o.class)
}

func (s *Sim) buildModel() error {
	d := osm.NewDirector()
	d.NoRestart = s.cfg.NoRestart
	d.Engine = s.cfg.Engine
	s.director = d

	mkUnit := func(name string, takes func(ppc.Class) bool) *unit {
		return &unit{
			name:  name,
			fu:    osm.NewUnitManager(name, 1),
			rs:    osm.NewUnitManager(name+"-rs", 1),
			w:     osm.NewState("W" + name),
			e:     osm.NewState("E" + name),
			takes: takes,
		}
	}
	// Unit priority order: simple integer work prefers IU2, keeping
	// IU1 free for multiplies and divides.
	s.units = []*unit{
		mkUnit("iu2", func(c ppc.Class) bool { return c == ppc.ClassALU }),
		mkUnit("iu1", func(c ppc.Class) bool { return c == ppc.ClassALU || c == ppc.ClassMul }),
		mkUnit("lsu", func(c ppc.Class) bool { return c == ppc.ClassLoad || c == ppc.ClassStore }),
		mkUnit("bpu", func(c ppc.Class) bool { return c == ppc.ClassBranch }),
		mkUnit("sru", func(c ppc.Class) bool { return c == ppc.ClassSys }),
	}

	iSt := osm.NewState("I")
	qSt := osm.NewState("Q")
	cSt := osm.NewState("C")

	fetch := iSt.Connect("fetch", qSt, osm.Alloc(s.fq, osm.AnyUnit))
	fetch.When = s.whenFetch
	fetch.Action = func(m *osm.Machine) { s.fetchOne(m) }

	for _, u := range s.units {
		u := u
		// Fast dispatch: operands and unit available — straight into
		// the execute stage (paper Fig. 2's high-priority path).
		fast := qSt.Connect("disp-"+u.name, u.e,
			osm.ReleaseF(s.fq, anyHeld),
			osm.Alloc(s.cq, osm.AnyUnit),
			osm.Inquire(s.ren, SrcsToken),
			osm.Alloc(s.ren, WriterToken),
			osm.Alloc(u.fu, 0))
		fast.When = func(m *osm.Machine) bool { return s.whenDisp(u, m) }
		fast.Action = func(m *osm.Machine) {
			s.dispatchExec(m)
			s.enterExec(m, u)
		}
	}
	if !s.cfg.NoReservationStations {
		for _, u := range s.units {
			u := u
			// Slow dispatch: into the unit's reservation station.
			slow := qSt.Connect("rs-"+u.name, u.w,
				osm.ReleaseF(s.fq, anyHeld),
				osm.Alloc(s.cq, osm.AnyUnit),
				osm.Alloc(s.ren, WriterToken),
				osm.Alloc(u.rs, 0))
			slow.When = func(m *osm.Machine) bool { return s.whenDispRS(u, m) }
			slow.Action = func(m *osm.Machine) { s.dispatchExec(m) }
		}
	}
	// Only the execute-stage releases can free a resource a senior
	// machine waits on (a junior that issued ahead of a senior
	// reservation-station waiter vacating the function unit), so only
	// those transitions trigger the director's rescan.
	restartEdges := make(map[*osm.Edge]bool)
	for _, u := range s.units {
		u := u
		issue := u.w.Connect("issue-"+u.name, u.e,
			osm.Release(u.rs, 0),
			osm.Inquire(s.ren, DepsToken),
			osm.Alloc(u.fu, 0))
		issue.Action = func(m *osm.Machine) { s.enterExec(m, u) }

		fin := u.e.Connect("fin-"+u.name, cSt, osm.Release(u.fu, 0))
		restartEdges[fin] = true
	}
	d.RestartPolicy = func(m *osm.Machine, e *osm.Edge) bool { return restartEdges[e] }

	complete := cSt.Connect("complete", iSt,
		osm.ReleaseF(s.cq, anyHeld),
		osm.Release(s.ren, WriterToken))
	complete.Action = func(m *osm.Machine) { s.retired++ }

	// Wrong-path operations live only in the fetch queue; the reset
	// edge kills them there.
	osm.ResetEdge(qSt, iSt, s.reset)

	d.AddManager(s.fq, s.cq, s.ren, s.reset)
	for _, u := range s.units {
		d.AddManager(u.fu, u.rs)
	}
	s.slots = make([]op, s.cfg.Machines)
	s.ren.slots = s.slots
	for k := range s.slots {
		s.slots[k].slot = k
		m := osm.NewMachine(fmt.Sprintf("op%d", k), iSt)
		m.Ctx = &s.slots[k]
		d.AddMachine(m)
	}

	s.Kernel = de.NewKernel()
	s.Kernel.OnEdge = func(cycle uint64) error {
		s.fetchCount = 0
		return d.Step()
	}

	// The generated engine's edge functions (edges_gen.go, emitted by
	// cmd/osmgen) attach unconditionally: an attachment is derived
	// state the other engines simply ignore, and it keeps a snapshot
	// taken under any engine restorable into a generated-engine
	// director. The NoReservationStations variant leaves the rs-*
	// entries of the map unused, which resolution permits. A
	// resolution error (the generated file drifted from the model) is
	// fatal only when the generated engine was actually requested;
	// otherwise it resurfaces on the first Step if the engine is ever
	// switched.
	if err := d.AttachGenerated(s.genEdges()); err != nil && s.cfg.Engine == osm.EngineGenerated {
		return err
	}
	return nil
}

// anyHeld resolves a release against whichever token the machine
// holds from the manager (queue grants carry dynamic sequence ids).
func anyHeld(m *osm.Machine) osm.TokenID { return osm.AnyUnit }

func (s *Sim) fetchOK() bool {
	return !s.fetchStop && !s.fetchHeld &&
		s.director.StepCount() >= s.fetchResumeAt &&
		s.fetchCount < s.cfg.FetchWidth
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// fetchOne fetches along the predicted path: direct branches are
// predicted by the BHT (with the BTIC hiding the taken-redirect
// bubble); indirect branches stop fetch until they resolve. The
// machine's op slot is recycled in place for the new operation.
func (s *Sim) fetchOne(m *osm.Machine) {
	step := s.director.StepCount()
	o := opOf(m)
	if o.resultAt > step && s.execErr == nil {
		s.execErr = &SlotReuseError{Slot: o.slot, PC: o.pc, ResultAt: o.resultAt, Step: step}
		s.fetchStop = true
	}
	o.recycle(s.fetchPC)
	if lat := s.Hier.FetchLatency(s.fetchPC); lat > 0 {
		s.fetchResumeAt = max64(s.fetchResumeAt, step+lat)
	}
	if d := s.decode(s.fetchPC); d.ok {
		o.ins, o.decodeOK = d.ins, true
		o.class = d.class
		o.srcs, o.dsts, o.gprDsts = d.srcs, d.dsts, d.gprs
	}
	o.predictedNext = o.pc + 4
	if o.decodeOK {
		switch o.ins.Op {
		case ppc.B:
			o.predictedNext = s.directTarget(o, int64(o.ins.LI), o.ins.AA)
			s.takenRedirect(o, step)
		case ppc.BC:
			if s.BHT.Predict(o.pc) {
				o.predictedNext = s.directTarget(o, int64(o.ins.BD), o.ins.AA)
				s.takenRedirect(o, step)
			}
		case ppc.BCLR, ppc.BCCTR:
			// Target unknown until the branch reads LR/CTR: fetch
			// holds until resolution.
			o.indirect = true
			s.fetchHeld = true
		}
	}
	s.fetchPC = o.predictedNext
	s.fetchCount++
}

func (s *Sim) directTarget(o *op, disp int64, abs bool) uint32 {
	if abs {
		return uint32(disp)
	}
	return uint32(int64(o.pc) + disp)
}

// takenRedirect charges the one-cycle fetch bubble of a predicted-
// taken branch unless the BTIC supplies the target instruction.
func (s *Sim) takenRedirect(o *op, step uint64) {
	if _, hit := s.BTIC.Lookup(o.pc); !hit {
		s.fetchResumeAt = max64(s.fetchResumeAt, step+1)
	}
}

// decode returns the cached static decoding of the word at pc.
func (s *Sim) decode(pc uint32) *decoded {
	if d, ok := s.decodeCache[pc]; ok {
		return d
	}
	d := &decoded{}
	if pc+4 <= s.ISS.RAM.Size() {
		if ins, err := ppc.Decode(s.ISS.RAM.Read32(pc)); err == nil {
			d.ins, d.ok = ins, true
			d.class = ins.Class()
			d.srcs = trackedSrcs(&ins)
			d.dsts, d.gprs = trackedDsts(&ins)
		}
	}
	s.decodeCache[pc] = d
	return d
}

// dispatchExec performs the in-order functional execution at dispatch
// time: architectural state stays exact while timing plays out in the
// machine layer. It also fixes dispatch-time timing facts (memory
// address, multiplier width) and detects mispredictions.
func (s *Sim) dispatchExec(m *osm.Machine) {
	o := opOf(m)
	if !o.decodeOK || s.ISS.CPU.Halted {
		s.execErr = fmt.Errorf("ppc750: wrong-path operation dispatched at %#x", o.pc)
		s.fetchStop = true
		return
	}
	s.dispatched++
	s.deriveTiming(o)
	s.ISS.CPU.NextPC = o.pc
	if _, err := s.ISS.Step(); err != nil {
		s.execErr = fmt.Errorf("at %#x: %w", o.pc, err)
		s.fetchStop = true
		s.squashYounger(m)
		return
	}
	if s.ISS.CPU.Halted {
		s.fetchStop = true
		s.squashYounger(m)
		return
	}
	actual := s.ISS.CPU.NextPC
	o.actualNext = actual
	if o.indirect || actual != o.predictedNext {
		if !o.indirect {
			s.mispredicts++
		}
		o.redirect = true
		if dbgRedirect != nil {
			dbgRedirect("osm-detect", s.director.StepCount())
		}
		s.fetchPC = actual
		s.fetchHeld = true
		// Cancel pending wrong-path fetch stalls (an in-flight wrong-
		// path icache miss must not delay the correct path).
		s.fetchResumeAt = 0
		s.squashYounger(m)
	}
}

// deriveTiming fixes the operation's execute latency and memory
// address from the pre-execution register state.
func (s *Sim) deriveTiming(o *op) {
	c := s.ISS.CPU
	ins := &o.ins
	switch o.class {
	case ppc.ClassMul:
		switch ins.Op {
		case ppc.DIVW, ppc.DIVWU:
			o.execLat = 19
		case ppc.MULLI:
			o.execLat = 3
		default: // mullw: early termination on the second operand
			v := c.R[ins.RB]
			switch {
			case v < 1<<16:
				o.execLat = 2
			case v < 1<<24:
				o.execLat = 3
			default:
				o.execLat = 4
			}
		}
	case ppc.ClassLoad, ppc.ClassStore:
		o.isMem = true
		o.isStore = o.class == ppc.ClassStore
		o.execLat = 2
		base := uint32(0)
		if ins.RA != 0 || !memRAZero(ins.Op) {
			base = c.R[ins.RA]
		}
		switch ins.Op {
		case ppc.LWZU, ppc.STWU:
			base = c.R[ins.RA]
		}
		if isIndexed(ins.Op) {
			o.memAddr = base + c.R[ins.RB]
		} else {
			o.memAddr = base + uint32(ins.SI)
		}
	default:
		o.execLat = 1
	}
	o.resultAt = notReady
}

func memRAZero(op ppc.Op) bool {
	switch op {
	case ppc.LWZ, ppc.LBZ, ppc.LHZ, ppc.LHA, ppc.STW, ppc.STB, ppc.STH,
		ppc.LWZX, ppc.STWX, ppc.LBZX, ppc.STBX, ppc.LHZX, ppc.LHAX, ppc.STHX:
		return true
	}
	return false
}

func isIndexed(op ppc.Op) bool {
	switch op {
	case ppc.LWZX, ppc.STWX, ppc.LBZX, ppc.STBX, ppc.LHZX, ppc.LHAX, ppc.STHX:
		return true
	}
	return false
}

// enterExec starts the operation in its function unit: the unit stays
// busy for the latency, the result appears on the buses when it
// finishes, and branches resolve (training the predictors and
// releasing a held fetch).
func (s *Sim) enterExec(m *osm.Machine, u *unit) {
	o := opOf(m)
	cycle := s.director.StepCount()
	lat := o.execLat
	if o.isMem {
		lat += s.Hier.DataLatency(o.memAddr, o.isStore)
	}
	if lat == 0 {
		lat = 1
	}
	if lat > 1 {
		u.fu.SetBusy(0, lat-1)
	}
	o.resultAt = cycle + lat
	s.ren.noteResult(o.resultAt)
	if o.class == ppc.ClassBranch {
		s.resolveBranch(o, cycle)
	}
}

func (s *Sim) resolveBranch(o *op, cycle uint64) {
	actualTaken := o.actualNext != o.pc+4
	if o.ins.Op == ppc.BC {
		s.BHT.Update(o.pc, actualTaken)
	}
	if actualTaken && !o.indirect {
		s.BTIC.Insert(o.pc, o.actualNext)
	}
	if o.redirect {
		if dbgRedirect != nil {
			dbgRedirect("osm-resolve", cycle)
		}
		s.fetchHeld = false
		s.fetchResumeAt = max64(s.fetchResumeAt, cycle+1)
	}
}

func (s *Sim) squashYounger(cause *osm.Machine) {
	for _, m := range s.director.Machines() {
		if m != cause && !m.InInitial() && m.Age > cause.Age {
			s.reset.Mark(m)
		}
	}
}

// StepCycle advances the simulation by one clock cycle.
func (s *Sim) StepCycle() error { return s.Kernel.StepCycle() }

// Cycle returns the number of completed clock cycles.
func (s *Sim) Cycle() uint64 { return s.Kernel.Cycle() }

// Done reports whether the program has exited (or died) and the
// pipeline has fully drained.
func (s *Sim) Done() bool {
	if !s.ISS.CPU.Halted && s.execErr == nil {
		return false
	}
	for _, m := range s.director.Machines() {
		if !m.InInitial() {
			return false
		}
	}
	return true
}

// Finalize checks the end-of-run invariants of a completed simulation
// and returns its statistics.
func (s *Sim) Finalize() (Stats, error) {
	if s.execErr != nil {
		return s.stats(), s.execErr
	}
	if s.retired != s.ISS.Stats.Instrs {
		return s.stats(), fmt.Errorf("ppc750: model invariant violated: %d retired vs %d executed",
			s.retired, s.ISS.Stats.Instrs)
	}
	return s.stats(), nil
}

// Run simulates until the program exits or maxCycles elapse.
func (s *Sim) Run(maxCycles uint64) (Stats, error) {
	_, finished, err := s.Kernel.RunUntil(s.Done, maxCycles)
	if err != nil {
		return s.stats(), err
	}
	if s.execErr != nil {
		return s.stats(), s.execErr
	}
	if !finished {
		return s.stats(), fmt.Errorf("ppc750: program did not finish within %d cycles", maxCycles)
	}
	return s.Finalize()
}

func (s *Sim) stats() Stats {
	st := Stats{
		Cycles:      s.Kernel.Cycle(),
		Instrs:      s.ISS.Stats.Instrs,
		Dispatched:  s.dispatched,
		Mispredicts: s.mispredicts,
	}
	if s.BHT.Lookups > 0 {
		st.BHTAccuracy = float64(s.BHT.Hits) / float64(s.BHT.Lookups)
	}
	if s.Hier.ICache != nil {
		st.ICache = s.Hier.ICache.Stats
	}
	if s.Hier.DCache != nil {
		st.DCache = s.Hier.DCache.Stats
	}
	return st
}

var dbgRedirect func(string, uint64)

// DbgSetRedirect installs a debug hook (tests only).
func DbgSetRedirect(f func(string, uint64)) { dbgRedirect = f }

// Director exposes the model's director for tracing and analysis.
func (s *Sim) Director() *osm.Director { return s.director }
