package osm

import "fmt"

// RankFunc orders machines for a control step. It reports whether a
// should be scheduled before b (a has the higher rank). Rankings may
// be based on the status and identity of the operations the machines
// represent.
type RankFunc func(a, b *Machine) bool

// AgeRank is the default ranking used by the paper's case studies:
// machines are ranked by their ages, i.e. the order in which they last
// left the initial state. Seniors (smaller Age) rank higher; machines
// resting in their initial state rank below all active machines and
// among themselves keep their registration order, which keeps the
// model deterministic.
func AgeRank(a, b *Machine) bool {
	ai, bi := a.InInitial(), b.InInitial()
	if ai != bi {
		return bi // active machine outranks idle machine
	}
	if ai { // both idle: registration order (Age holds index 0 here,
		// so fall through to stable sort order — see Director.Step)
		return false
	}
	return a.Age < b.Age
}

// Tracer observes director activity. Implementations must be cheap;
// the director invokes them on every transition when installed.
type Tracer interface {
	// Transition is called after machine m commits edge e at the
	// given control step.
	Transition(step uint64, m *Machine, e *Edge)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(step uint64, m *Machine, e *Edge)

// Transition calls f.
func (f TracerFunc) Transition(step uint64, m *Machine, e *Edge) { f(step, m, e) }

// Director coordinates the state transitions of a population of
// operation state machines, one control step per clock edge, using the
// deterministic scheduling algorithm of the paper's Figure 3:
//
//   - state transition occurs at most once per machine per step;
//   - a transition occurs as soon as an outgoing edge's condition is
//     satisfied;
//   - higher-priority edges are preferred;
//   - machines are served in rank order, and (unless NoRestart is set)
//     the scan restarts from the highest-ranked remaining machine
//     whenever some machine transitions, because that transition may
//     have freed resources a higher-ranked machine was blocked on.
type Director struct {
	// Rank orders the machines at the beginning of each control step.
	// Nil means AgeRank.
	Rank RankFunc
	// NoRestart disables the outer-loop restart. The paper's case
	// studies enable this optimization because with age-based ranking
	// no senior operation depends on a junior operation for
	// resources. An ablation benchmark measures its effect.
	NoRestart bool
	// RestartPolicy, when non-nil and NoRestart is false, limits the
	// outer-loop restart to transitions for which it returns true. A
	// model that knows which edges can free resources senior machines
	// wait on (in the 750 model, only the execute-stage releases)
	// uses this to avoid pointless rescans while keeping Figure 3's
	// semantics for the transitions that matter.
	RestartPolicy func(m *Machine, e *Edge) bool
	// Tracer, if non-nil, observes every committed transition.
	Tracer Tracer
	// OnDeadlock, if non-nil, is consulted when CheckDeadlock finds a
	// cyclic wait; returning nil suppresses the abort.
	OnDeadlock func(cycle []*Machine) error
	// CheckDeadlock enables wait-for-cycle detection on steps where
	// no machine could move. Deadlocks are pathological (a cyclic
	// pipeline); the director aborts with ErrDeadlock when one is
	// found.
	CheckDeadlock bool
	// Engine selects the execution engine (see the Engine type):
	// event-driven (default), the reference Figure 3 scan, compiled
	// guard programs or generated edge functions. All produce the
	// identical transition schedule. EngineCompiled compiles the model
	// lazily on the first step; a compile error aborts that Step. The
	// event-driven engines require the default age-based ranking, so a
	// custom Rank forces EngineScan. Choose the engine before the
	// first Step.
	Engine Engine
	// Check, if non-nil, runs at the end of every control step,
	// before the step counter advances — the hook the invariant
	// checker (internal/osm/invariant) installs. A non-nil error
	// aborts Step. A nil Check costs one predictable branch per step.
	Check func(d *Director) error

	machines []*Machine
	managers []TokenManager
	steppers []Stepper
	step     uint64
	nextAge  uint64
	// scratch reused across steps to avoid per-step allocation.
	list []*Machine
	// ev is the event-driven scheduler's state (director_event.go).
	ev eventSched
	// primInit records that identifier slots were assigned and the
	// machines' memo tables sized; reset by AddMachine.
	primInit bool
	// comp is the compiled guard program (compiled.go), built lazily
	// when Engine is EngineCompiled; invalidated by AddMachine and
	// AddManager. Compiled state is derived from the model and is
	// never serialized: Snapshot ignores it and Restore keeps it.
	comp *GuardProgram
	// useComp is true while the current step serves machines through
	// their compiled programs.
	useComp bool
	// genFns holds the generated edge functions installed with
	// AttachGenerated; gen is their resolution against the current
	// model (generated.go), rebuilt lazily after AddMachine/AddManager
	// invalidate it. Like comp, gen is derived state and is never
	// serialized.
	genFns map[string]GenEdge
	gen    *GenProgram
	// useGen is true while the current step serves machines through
	// their generated edge functions.
	useGen bool
}

// NewDirector returns an empty director with default (age-based)
// ranking.
func NewDirector() *Director { return &Director{} }

// AddMachine registers a machine with the director. Registration
// order breaks ranking ties, so it must be deterministic.
func (d *Director) AddMachine(ms ...*Machine) {
	d.machines = append(d.machines, ms...)
	d.ev.init = false
	d.primInit = false
	d.comp = nil
	d.gen = nil
}

// AddManager registers a token manager. Managers implementing Stepper
// receive BeginStep at the start of every control step in registration
// order.
func (d *Director) AddManager(ms ...TokenManager) {
	for _, m := range ms {
		d.managers = append(d.managers, m)
		if s, ok := m.(Stepper); ok {
			d.steppers = append(d.steppers, s)
		}
	}
	d.ev.init = false
	d.comp = nil
	d.gen = nil
}

// Machines returns the registered machines in registration order.
func (d *Director) Machines() []*Machine { return d.machines }

// Managers returns the registered managers in registration order.
func (d *Director) Managers() []TokenManager { return d.managers }

// StepCount returns the number of completed control steps.
func (d *Director) StepCount() uint64 { return d.step }

// Step runs one control step: it notifies Stepper managers, ranks the
// machines, and serves token-transaction requests until no machine can
// transition, per the paper's Figure 3. It returns ErrDeadlock (via
// errors.Is) if deadlock checking is enabled and a cyclic resource
// wait is detected.
//
// Two scheduler implementations produce this schedule: the reference
// scan (Figure 3 verbatim) and the default event-driven scheduler,
// which skips machines whose blocking resources did not change. See
// the Engine field.
func (d *Director) Step() error {
	if d.engine() == EngineScan {
		return d.stepScan()
	}
	return d.stepEvent()
}

// ensurePrims assigns identifier slots to every dynamic primitive
// reachable from a machine's initial state and sizes the machines'
// memo tables, once per model build. Machines of one model share a
// state graph, so the walk is deduplicated by initial state. Restored
// machines always rest in states reachable from their initial state
// (Restore resolves states by name from the initial graph), so the
// initial walk covers every primitive any engine can evaluate.
func (d *Director) ensurePrims() {
	if d.primInit {
		return
	}
	sizes := make(map[*State]int, 1)
	for _, m := range d.machines {
		n, ok := sizes[m.Initial]
		if !ok {
			n = assignPrimSlots(m.Initial)
			sizes[m.Initial] = n
		}
		m.sizeDynMemo(n)
	}
	d.primInit = true
}

// assignPrimSlots walks the state graph from initial and gives every
// dynamic primitive (ID != nil) without a slot the next free slot
// number in this graph. It returns the highest slot in use, i.e. the
// memo table size machines of this graph need. Assignment is
// idempotent: primitives keep their slot across walks, so machines
// sharing a graph agree on the numbering.
func assignPrimSlots(initial *State) int {
	var states []*State
	seen := make(map[*State]bool)
	var walk func(s *State)
	walk = func(s *State) {
		if seen[s] {
			return
		}
		seen[s] = true
		states = append(states, s)
		for _, e := range s.Out {
			walk(e.To)
		}
	}
	walk(initial)
	next := int32(0)
	for _, s := range states {
		for _, e := range s.Out {
			for pi := range e.Prims {
				if e.Prims[pi].slot > next {
					next = e.Prims[pi].slot
				}
			}
		}
	}
	for _, s := range states {
		for _, e := range s.Out {
			for pi := range e.Prims {
				p := &e.Prims[pi]
				if p.ID != nil && p.slot == 0 {
					next++
					p.slot = next
				}
			}
		}
	}
	return int(next)
}

// serveMachine evaluates m's outgoing edges in priority order and
// commits the first satisfied one, maintaining ages and the tracer.
// Both schedulers serve machines through it. The second result is the
// committed edge. On failure it leaves the failed primitives of the
// final pass in m.blocked and records in m.sched.untracked whether
// any edge failed outside the token protocol (a When predicate).
func (d *Director) serveMachine(m *Machine) (bool, *Edge, error) {
	wasInitial := m.InInitial()
	m.blocked = m.blocked[:0] // keep only this pass's failures
	m.sched.untracked = false
	if d.useGen {
		if gs := d.gen.stateOf(m.cur); gs != nil {
			return d.serveGenerated(m, gs, wasInitial)
		}
		// A state unknown to the program (the graph was mutated after
		// resolution) falls back to the interpreted path.
	}
	if d.useComp {
		if cs := d.comp.stateOf(m.cur); cs != nil {
			return d.serveCompiled(m, cs, wasInitial)
		}
		// A state unknown to the program (the graph was mutated after
		// compilation) falls back to the interpreted path.
	}
	for _, e := range m.cur.Out {
		before := len(m.blocked)
		ok, err := m.tryEdge(e)
		if err != nil {
			return false, nil, fmt.Errorf("osm: step %d: %w", d.step, err)
		}
		if !ok {
			if len(m.blocked) == before {
				m.sched.untracked = true
			}
			continue
		}
		if wasInitial && !m.InInitial() {
			d.nextAge++
			m.Age = d.nextAge
		}
		if d.Tracer != nil {
			d.Tracer.Transition(d.step, m, e)
		}
		return true, e, nil
	}
	return false, nil, nil
}

// stepScan is the reference scheduler: the paper's Figure 3, executed
// over the full machine population every control step.
func (d *Director) stepScan() error {
	d.useComp = false
	d.useGen = false
	d.ensurePrims()
	for _, s := range d.steppers {
		s.BeginStep(d.step)
	}
	// updateOSMList: rank the machines. Stable sort keeps
	// registration order for ties, making the schedule deterministic.
	d.list = d.list[:0]
	d.list = append(d.list, d.machines...)
	rank := d.Rank
	if rank == nil {
		rank = AgeRank
	}
	// Stable insertion sort: machine counts are small and this keeps
	// the per-step scheduling allocation-free.
	for i := 1; i < len(d.list); i++ {
		for j := i; j > 0 && rank(d.list[j], d.list[j-1]); j-- {
			d.list[j], d.list[j-1] = d.list[j-1], d.list[j]
		}
	}

	list := d.list
	progressed := false
	i := 0
	for i < len(list) {
		m := list[i]
		if m == nil { // already transitioned this step
			i++
			continue
		}
		moved, moveEdge, err := d.serveMachine(m)
		if err != nil {
			return err
		}
		if moved {
			progressed = true
			// Mark m served so it is not scheduled again this step.
			// Index marking keeps removal O(1) where a slice shift
			// would be O(n) on every transition.
			list[i] = nil
			if d.NoRestart || (d.RestartPolicy != nil && !d.RestartPolicy(m, moveEdge)) {
				i++
				continue
			}
			// Restart from the remaining machine with the highest
			// rank: m's transition may have freed resources that a
			// higher-ranked machine was blocked on.
			i = 0
			continue
		}
		i++
	}
	d.list = list[:0]

	if !progressed && d.CheckDeadlock {
		if err := d.deadlockCheck(); err != nil {
			return err
		}
	}
	if d.Check != nil {
		if err := d.Check(d); err != nil {
			return err
		}
	}
	d.step++
	return nil
}

// EventDriven reports whether an event-driven scheduler serves the
// director's steps — the default engine and the compiled engine both
// do (see Engine; a custom Rank forces the scan).
func (d *Director) EventDriven() bool { return d.engine() != EngineScan }

// WillEvaluate reports whether machine m is queued for evaluation at
// the next control step. Under the scan scheduler every machine is
// re-evaluated each step, so the answer is always true; under the
// event-driven scheduler a machine is evaluated only while it sits in
// the ready set — suspended machines wait for a manager wake. The
// invariant checker uses this to verify that the event scheduler
// never leaves a machine with a satisfiable edge asleep.
func (d *Director) WillEvaluate(m *Machine) bool {
	if !d.EventDriven() || !d.ev.init {
		return true
	}
	return m.sched.inReady || m.sched.inPend
}

// deadlockCheck runs wait-for-cycle detection after a step in which no
// machine could move.
func (d *Director) deadlockCheck() error {
	cyc := d.findWaitCycle()
	if cyc == nil {
		return nil
	}
	if d.OnDeadlock != nil {
		return d.OnDeadlock(cyc)
	}
	return fmt.Errorf("%w: %s", ErrDeadlock, cycleString(cyc))
}

// Run executes control steps until done returns true or an error
// occurs, and returns the number of steps executed.
func (d *Director) Run(done func() bool) (uint64, error) {
	start := d.step
	for !done() {
		if err := d.Step(); err != nil {
			return d.step - start, err
		}
	}
	return d.step - start, nil
}

// Reset returns every machine to its initial state and restarts the
// step and age counters. Manager state is not touched; callers
// normally rebuild or reset managers alongside.
func (d *Director) Reset() {
	for _, m := range d.machines {
		m.Reset()
	}
	d.step = 0
	d.nextAge = 0
	d.ev.init = false
}
