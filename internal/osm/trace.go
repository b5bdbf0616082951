package osm

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/snap"
)

// Recorder is a Tracer that accumulates a transition history and
// per-state / per-edge statistics — the raw material for pipeline
// diagrams and utilization reports. Install it with
// director.Tracer = recorder (or chain it from another Tracer).
//
// Transition does constant pointer work: it bumps one counter per
// distinct *Edge, stores a compact (step, machine, edge) record in the
// ring, and folds the transition into the running checksum. Names are
// resolved only when read: Events and EventsSince build Event values,
// and EdgeCount, StateEntries, Utilization, Report and SaveState sum
// the per-edge counters by edge name or by destination-state name.
type Recorder struct {
	// Limit bounds the retained history to the most recent Limit
	// events (0 = unlimited). Statistics always cover the whole run.
	Limit int
	// Next, if non-nil, receives every transition after it is
	// recorded, so a bounded Recorder can be chained in front of
	// another Tracer without hiding events from it.
	Next Tracer

	ring  []record
	start int // ring start when len(ring) == Limit
	// tallies holds one commit counter per distinct edge; slot maps an
	// edge to its counter.
	slot    map[*Edge]int
	tallies []tally
	// baseEdge and baseState are the name-keyed counts a LoadState
	// restored; reads add the live tallies to them.
	baseEdge  map[string]uint64
	baseState map[string]uint64
	firstStep uint64
	lastStep  uint64
	any       bool
	total     uint64
	sum       uint64
}

// record is one retained transition. Names are read through the
// pointers when an Event is built.
type record struct {
	step uint64
	m    *Machine
	e    *Edge
}

// tally counts the commits of one edge and carries the edge's part of
// the checksum byte stream in folded form.
type tally struct {
	e    *Edge
	n    uint64
	fold *fnvFold
}

// Event is one recorded transition. The JSON tags are the wire form
// the HTTP trace stream uses.
type Event struct {
	// Step is the control step the transition committed in.
	Step uint64 `json:"step"`
	// Machine is the transitioning machine's name.
	Machine string `json:"machine"`
	// Edge, From and To identify the transition.
	Edge string `json:"edge"`
	From string `json:"from"`
	To   string `json:"to"`
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Transition implements Tracer.
func (r *Recorder) Transition(step uint64, m *Machine, e *Edge) {
	if !r.any {
		r.firstStep, r.any = step, true
	}
	r.lastStep = step
	i, ok := r.slot[e]
	if !ok {
		i = r.newTally(e)
	}
	t := &r.tallies[i]
	t.n++
	r.total++
	r.sum = t.fold.apply(hashName(hashStep(r.sum, step), m.Name))
	rec := record{step: step, m: m, e: e}
	if r.Limit == 0 || len(r.ring) < r.Limit {
		r.ring = append(r.ring, rec)
	} else {
		// History is full: overwrite the oldest event so the retained
		// window tracks the end of the run, not its beginning.
		r.ring[r.start] = rec
		r.start++
		if r.start == r.Limit {
			r.start = 0
		}
	}
	if r.Next != nil {
		r.Next.Transition(step, m, e)
	}
}

// newTally gives e its commit counter on its first transition.
func (r *Recorder) newTally(e *Edge) int {
	if r.slot == nil {
		r.slot = make(map[*Edge]int)
	}
	i := len(r.tallies)
	r.slot[e] = i
	r.tallies = append(r.tallies, tally{e: e, fold: newFNVFold(e.Name + "\xff" + e.From.Name + "\xff" + e.To.Name + "\xff")})
	return i
}

// at returns the i-th retained record in commit order.
func (r *Recorder) at(i int) *record {
	i += r.start
	if i >= len(r.ring) {
		i -= len(r.ring)
	}
	return &r.ring[i]
}

// Events returns the retained history in commit order. With a Limit
// set, these are the most recent Limit events. The slice is freshly
// built on every call; the caller may keep or modify it.
func (r *Recorder) Events() []Event { return r.eventsFrom(0) }

// EventsSince returns the retained events with Step >= step, in
// commit order — the incremental form a live trace consumer (such as
// the HTTP trace stream) uses to pick up where it left off. Events
// that fell out of a bounded ring are gone; compare Total against the
// consumed count to detect the gap. Like Events, the slice is freshly
// built and belongs to the caller.
func (r *Recorder) EventsSince(step uint64) []Event {
	// The ring is in commit order, so steps are non-decreasing:
	// binary-search the first index at or past step.
	lo, hi := 0, len(r.ring)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.at(mid).step < step {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return r.eventsFrom(lo)
}

// eventsFrom builds the Events of the retained records from index
// lo (in commit order) to the newest.
func (r *Recorder) eventsFrom(lo int) []Event {
	if r.ring == nil {
		return nil
	}
	out := make([]Event, len(r.ring)-lo)
	for i := range out {
		rec := r.at(lo + i)
		out[i] = Event{
			Step: rec.step, Machine: rec.m.Name, Edge: rec.e.Name,
			From: rec.e.From.Name, To: rec.e.To.Name,
		}
	}
	return out
}

// Total returns the number of transitions ever recorded, independent
// of the retention Limit.
func (r *Recorder) Total() uint64 { return r.total }

// Checksum returns an order-dependent FNV-1a digest over every
// transition ever recorded (independent of the retention Limit), so
// two runs can be compared for trace identity without retaining their
// full histories.
func (r *Recorder) Checksum() uint64 { return r.sum }

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// fnvPrimePow[k] is fnvPrime^k mod 2^64: FNV-1a over k zero bytes is
// a multiply by it, since sum ^ 0 == sum.
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// The checksum's byte stream for one transition is the step as 8
// little-endian bytes, then the machine, edge, source-state and
// destination-state names, each followed by a 0xff separator.

// hashStep starts a transition: it folds the step's bytes into an
// FNV-1a running digest.
func hashStep(sum, step uint64) uint64 {
	if sum == 0 {
		sum = fnvOffset
	}
	k := 0
	for v := step; v != 0; v >>= 8 {
		sum = (sum ^ v&0xff) * fnvPrime
		k++
	}
	return sum * fnvPrimePow[8-k] // the step's zero high bytes
}

// hashName folds s and a field separator into an FNV-1a digest.
func hashName(sum uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		sum = (sum ^ uint64(s[i])) * fnvPrime
	}
	return (sum ^ 0xff) * fnvPrime
}

// fnvFold is FNV-1a over a fixed byte string as a function of the
// incoming digest x: apply(x) = x*mul + add[x&0xff], exactly. For a
// byte b, x^b == x + d with d = (x&0xff)^b - x&0xff, so each byte's
// step (x^b)*p == x*p + d*p adds a term that depends only on the low
// byte of the digest — and the low byte of a product or sum mod 2^64
// depends only on the operands' low bytes. Unrolled over the string,
// the result is x*p^len plus a sum that is a function of x&0xff alone,
// tabulated once per string.
type fnvFold struct {
	mul uint64
	add [256]uint64
}

func newFNVFold(s string) *fnvFold {
	f := &fnvFold{mul: 1}
	for range len(s) {
		f.mul *= fnvPrime
	}
	for lo := range uint64(len(f.add)) {
		h := lo
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnvPrime
		}
		f.add[lo] = h - lo*f.mul
	}
	return f
}

func (f *fnvFold) apply(sum uint64) uint64 { return sum*f.mul + f.add[sum&0xff] }

// EdgeCount returns how many times the named edge committed.
func (r *Recorder) EdgeCount(edge string) uint64 { return r.edgeCounts()[edge] }

// StateEntries returns how many times any machine entered the named
// state.
func (r *Recorder) StateEntries(state string) uint64 { return r.stateCounts()[state] }

// edgeCounts and stateCounts return the whole-run commit counts keyed
// by edge name and by destination-state name: the restored base plus
// the live per-edge tallies.
func (r *Recorder) edgeCounts() map[string]uint64 {
	return r.countsBy(r.baseEdge, func(e *Edge) string { return e.Name })
}

func (r *Recorder) stateCounts() map[string]uint64 {
	return r.countsBy(r.baseState, func(e *Edge) string { return e.To.Name })
}

func (r *Recorder) countsBy(base map[string]uint64, key func(*Edge) string) map[string]uint64 {
	m := make(map[string]uint64, len(base)+len(r.tallies))
	for k, n := range base {
		m[k] = n
	}
	for _, t := range r.tallies {
		m[key(t.e)] += t.n
	}
	return m
}

// Steps returns the number of control steps spanned by the recording.
func (r *Recorder) Steps() uint64 {
	if !r.any {
		return 0
	}
	return r.lastStep - r.firstStep + 1
}

// Utilization returns entries-per-step for the named state — for a
// single-unit pipeline stage this is its occupancy utilization.
func (r *Recorder) Utilization(state string) float64 {
	return r.utilization(r.StateEntries(state))
}

func (r *Recorder) utilization(entries uint64) float64 {
	steps := r.Steps()
	if steps == 0 {
		return 0
	}
	return float64(entries) / float64(steps)
}

// Report writes a per-edge and per-state summary, sorted by name for
// determinism. The header gives the whole-run transition count and,
// separately, how many events the history retains.
func (r *Recorder) Report(w io.Writer) {
	fmt.Fprintf(w, "steps: %d, transitions: %d, retained: %d\n", r.Steps(), r.total, len(r.ring))
	edges := r.edgeCounts()
	for _, e := range sortedKeys(edges) {
		fmt.Fprintf(w, "  edge %-12s %6d\n", e, edges[e])
	}
	states := r.stateCounts()
	for _, s := range sortedKeys(states) {
		fmt.Fprintf(w, "  state %-11s %6d entries (%.2f/step)\n",
			s, states[s], r.utilization(states[s]))
	}
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// recorderVersion versions the SaveState/LoadState encoding.
const recorderVersion = 1

// SaveState serializes the recorder — whole-run aggregates (total,
// checksum, step span, per-edge and per-state counts) plus the
// retained event window in commit order — so a session's trace
// context can travel with its snapshot across a live migration. The
// encoding is deterministic: map keys are sorted, the ring is
// normalized.
func (r *Recorder) SaveState(w *snap.Writer) {
	w.Version(recorderVersion)
	w.U64(r.total)
	w.U64(r.sum)
	w.U64(r.firstStep)
	w.U64(r.lastStep)
	w.Bool(r.any)
	w.U32(uint32(len(r.ring)))
	for i := range r.ring {
		rec := r.at(i)
		w.U64(rec.step)
		w.String(rec.m.Name)
		w.String(rec.e.Name)
		w.String(rec.e.From.Name)
		w.String(rec.e.To.Name)
	}
	saveCountMap(w, r.edgeCounts())
	saveCountMap(w, r.stateCounts())
}

// LoadState replaces the recording with a saved one. The retained
// window is clamped to the recorder's own Limit (keeping the most
// recent events) so a snapshot taken under a larger retention restores
// cleanly into a smaller one; aggregates are retention-independent and
// restore exactly. Restored events point at stand-in Machine, Edge and
// State values that carry the saved names, one per distinct name; the
// restored counts become the base that later transitions add to.
func (r *Recorder) LoadState(rd *snap.Reader) error {
	rd.Version("recorder", recorderVersion)
	total := rd.U64()
	sum := rd.U64()
	first := rd.U64()
	last := rd.U64()
	any := rd.Bool()
	n := int(rd.U32())
	if rd.Err() != nil {
		return rd.Err()
	}
	// An event encodes to at least 8 + 4×4 bytes; an implausible count
	// fails before allocation, like every untrusted decoder here.
	if n > rd.Remaining()/24 {
		rd.Failf("recorder: implausible event count %d (%d bytes remaining)", n, rd.Remaining())
		return rd.Err()
	}
	in := newStandIns()
	recs := make([]record, 0, n)
	for i := 0; i < n; i++ {
		step := rd.U64()
		machine := rd.String()
		edge, from, to := rd.String(), rd.String(), rd.String()
		recs = append(recs, record{step: step, m: in.machine(machine), e: in.edge(edge, from, to)})
	}
	edgeCount, err := loadCountMap(rd)
	if err != nil {
		return err
	}
	stateEnter, err := loadCountMap(rd)
	if err != nil {
		return err
	}
	if r.Limit > 0 && len(recs) > r.Limit {
		recs = recs[len(recs)-r.Limit:]
	}
	r.ring = append(r.ring[:0], recs...)
	r.start = 0
	r.slot = nil
	r.tallies = nil
	r.total = total
	r.sum = sum
	r.firstStep = first
	r.lastStep = last
	r.any = any
	r.baseEdge = edgeCount
	r.baseState = stateEnter
	return nil
}

// standIns interns the Machine, Edge and State values that carry the
// names of restored events.
type standIns struct {
	machines map[string]*Machine
	states   map[string]*State
	edges    map[[3]string]*Edge
}

func newStandIns() *standIns {
	return &standIns{
		machines: make(map[string]*Machine),
		states:   make(map[string]*State),
		edges:    make(map[[3]string]*Edge),
	}
}

func (in *standIns) machine(name string) *Machine {
	m := in.machines[name]
	if m == nil {
		m = &Machine{Name: name}
		in.machines[name] = m
	}
	return m
}

func (in *standIns) state(name string) *State {
	s := in.states[name]
	if s == nil {
		s = &State{Name: name}
		in.states[name] = s
	}
	return s
}

func (in *standIns) edge(name, from, to string) *Edge {
	key := [3]string{name, from, to}
	e := in.edges[key]
	if e == nil {
		e = &Edge{Name: name, From: in.state(from), To: in.state(to)}
		in.edges[key] = e
	}
	return e
}

func saveCountMap(w *snap.Writer, m map[string]uint64) {
	keys := sortedKeys(m)
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.String(k)
		w.U64(m[k])
	}
}

func loadCountMap(rd *snap.Reader) (map[string]uint64, error) {
	n := int(rd.U32())
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	if n > rd.Remaining()/12 {
		rd.Failf("recorder: implausible count-map size %d (%d bytes remaining)", n, rd.Remaining())
		return nil, rd.Err()
	}
	m := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		k := rd.String()
		m[k] = rd.U64()
	}
	return m, rd.Err()
}

// Reset clears the recording.
func (r *Recorder) Reset() {
	r.ring = r.ring[:0]
	r.start = 0
	r.slot = nil
	r.tallies = nil
	r.baseEdge = nil
	r.baseState = nil
	r.any = false
	r.total = 0
	r.sum = 0
}
