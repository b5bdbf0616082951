// Package server is the simulation-as-a-service layer: a concurrent
// session manager exposing the framework's cycle-accurate models over
// HTTP/JSON. A session wraps one runner.Instance behind its own mutex
// with a strict lifecycle (created → running ⇄ paused → done, or
// broken, and finally evicted); the manager bounds the session table
// (admission control with 429 backpressure), evicts idle sessions,
// and drains gracefully on shutdown. Observability is first-class:
// hand-rolled Prometheus-text /metrics, /healthz and /debug/pprof.
// It is the library behind cmd/osmserve.
package server

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/osm"
	"repro/internal/osm/invariant"
	"repro/internal/runner"
	"repro/internal/snap"
	"repro/internal/store"
)

// MaxSessionIDLen bounds a client-supplied session id.
const MaxSessionIDLen = 64

// State is a session lifecycle state.
type State string

// The session lifecycle. Created moves to Running on the first step
// request; Running returns to Paused when the request completes and
// to Done when the program finishes; a simulation error or an
// isolated panic moves to Broken; eviction (API, idle timeout or
// drain) is terminal and removes the session from the table.
const (
	StateCreated State = "created"
	StateRunning State = "running"
	StatePaused  State = "paused"
	StateDone    State = "done"
	StateBroken  State = "broken"
	StateEvicted State = "evicted"
)

// Config parameterizes a Manager. Zero values select the defaults.
type Config struct {
	// MaxSessions bounds the session table; creations beyond it are
	// rejected with 429 (default 64).
	MaxSessions int
	// IdleTimeout evicts sessions unused for this long (default 5m;
	// negative disables idle eviction).
	IdleTimeout time.Duration
	// MaxStepCycles caps the cycles of a single step request
	// (default 50M).
	MaxStepCycles uint64
	// MaxStepDeadline caps a step request's deadline (default 30s).
	MaxStepDeadline time.Duration
	// DefaultStepDeadline applies when a step request names none
	// (default 10s).
	DefaultStepDeadline time.Duration
	// TraceLimit is the default Recorder retention per session
	// (default 4096 events; sessions may override at creation).
	TraceLimit int
	// MaxMemRead caps a single memory-peek request (default 1 MiB).
	MaxMemRead uint32
	// Workers sizes the step scheduler's worker pool — the bound on
	// concurrently executing simulation quanta (default GOMAXPROCS).
	Workers int
	// StepQuantum is the cycle slice a worker runs before a step job
	// returns to the run queue (default 4096). Smaller quanta trade
	// throughput for fairness under many concurrently stepping
	// sessions.
	StepQuantum uint64
	// MaxQueuedSteps bounds step jobs in flight (queued + running)
	// across both protocol planes; submissions beyond it are refused
	// with backpressure — HTTP 429, wire NackBackpressure (default
	// 1024).
	MaxQueuedSteps int
	// ParkDir, when set, makes the idle-eviction janitor park a final
	// snapshot of each session it evicts instead of discarding the
	// state: the blob lands in this directory content-named by its
	// FNV-1a checksum, next to a per-session metadata file, so a
	// gateway (cmd/osmgate) can resurrect the session later on any
	// worker.
	ParkDir string
	// Build, if non-nil, replaces runner.New as the session
	// constructor — the seam scale tests use to host tens of
	// thousands of scripted sessions without tens of thousands of
	// simulator RAM images.
	Build func(runner.Spec) (*runner.Instance, error)
	// Logf, if non-nil, receives one line per notable event.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.MaxStepCycles == 0 {
		c.MaxStepCycles = 50_000_000
	}
	if c.MaxStepDeadline == 0 {
		c.MaxStepDeadline = 30 * time.Second
	}
	if c.DefaultStepDeadline == 0 {
		c.DefaultStepDeadline = 10 * time.Second
	}
	if c.TraceLimit == 0 {
		c.TraceLimit = 4096
	}
	if c.MaxMemRead == 0 {
		c.MaxMemRead = 1 << 20
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.StepQuantum == 0 {
		c.StepQuantum = 4096
	}
	if c.MaxQueuedSteps == 0 {
		c.MaxQueuedSteps = 1024
	}
	if c.Build == nil {
		c.Build = runner.New
	}
}

// Session is one simulation pinned behind its own mutex. The mutex
// serializes simulator access (step, peek, snapshot, restore); the
// metadata mirror below it is updated after every operation so list
// and info requests never block behind a long step.
type Session struct {
	ID   string
	Spec runner.Spec

	// traceLimit is the recorder retention the session was created
	// with — immutable, so info and park can report it without taking
	// the simulator mutex.
	traceLimit int

	mu   sync.Mutex
	inst *runner.Instance
	rec  *osm.Recorder

	meta struct {
		sync.Mutex
		state         State
		created       time.Time
		lastUsed      time.Time
		cycle         uint64
		cyclesStepped uint64
		done          bool
		traceTotal    uint64
		traceSum      uint64
		errMsg        string
		result        *runner.Result
	}
}

// syncMeta mirrors the simulator-side observables into the metadata
// block. Callers hold s.mu.
func (s *Session) syncMeta(state State) {
	cycle := s.inst.Cycle()
	done := s.inst.Done()
	total := s.rec.Total()
	sum := s.rec.Checksum()
	s.meta.Lock()
	defer s.meta.Unlock()
	if s.meta.state == StateEvicted {
		return // eviction is terminal
	}
	s.meta.state = state
	s.meta.cycle = cycle
	s.meta.done = done
	s.meta.traceTotal = total
	s.meta.traceSum = sum
	s.meta.lastUsed = time.Now()
}

// Info is the JSON session summary.
type Info struct {
	ID            string         `json:"id"`
	State         State          `json:"state"`
	Target        string         `json:"target"`
	Workload      string         `json:"workload,omitempty"`
	Arch          string         `json:"arch"`
	Cycle         uint64         `json:"cycle"`
	CyclesStepped uint64         `json:"cycles_stepped"`
	Done          bool           `json:"done"`
	TraceTotal    uint64         `json:"trace_total"`
	TraceChecksum string         `json:"trace_checksum"`
	CreatedAt     time.Time      `json:"created_at"`
	LastUsed      time.Time      `json:"last_used"`
	Error         string         `json:"error,omitempty"`
	Result        *runner.Result `json:"result,omitempty"`

	// Spec and TraceLimit are reported on single-session info only
	// (not list responses — Spec can carry a whole program image).
	// They let a gateway that did not place this session re-derive
	// its create body, so drain and rebalance survive gateway
	// restarts.
	Spec       *runner.Spec `json:"spec,omitempty"`
	TraceLimit int          `json:"trace_limit,omitempty"`
}

// info snapshots the metadata mirror. withSpec additionally attaches
// the full originating spec and trace limit.
func (s *Session) info(arch string, withSpec bool) Info {
	inf := s.infoBase(arch)
	if withSpec {
		spec := s.Spec
		inf.Spec = &spec
		inf.TraceLimit = s.traceLimit
	}
	return inf
}

func (s *Session) infoBase(arch string) Info {
	s.meta.Lock()
	defer s.meta.Unlock()
	return Info{
		ID:            s.ID,
		State:         s.meta.state,
		Target:        s.Spec.Target,
		Workload:      s.Spec.Workload,
		Arch:          arch,
		Cycle:         s.meta.cycle,
		CyclesStepped: s.meta.cyclesStepped,
		Done:          s.meta.done,
		TraceTotal:    s.meta.traceTotal,
		TraceChecksum: fmt.Sprintf("%016x", s.meta.traceSum),
		CreatedAt:     s.meta.created,
		LastUsed:      s.meta.lastUsed,
		Error:         s.meta.errMsg,
		Result:        s.meta.result,
	}
}

// Errors mapped to HTTP statuses by the handler layer.
var (
	// ErrBackpressure reports a full session table (HTTP 429).
	ErrBackpressure = errors.New("session table full, retry later")
	// ErrDraining reports a server shutting down (HTTP 503).
	ErrDraining = errors.New("server is draining")
	// ErrNotFound reports an unknown or evicted session (HTTP 404).
	ErrNotFound = errors.New("no such session")
	// ErrConflict reports an operation invalid in the session's
	// current state (HTTP 409).
	ErrConflict = errors.New("operation invalid in this session state")
	// ErrOverloaded reports a full step run queue (HTTP 429 / wire
	// NackBackpressure).
	ErrOverloaded = errors.New("step queue full, retry later")
)

// Manager owns the bounded session table.
type Manager struct {
	cfg     Config
	Metrics *Metrics
	sched   *scheduler

	mu       sync.Mutex
	sessions map[string]*Session
	reserved int // admissions granted but not yet inserted
	nextID   uint64
	draining bool

	janitorStop chan struct{}
	janitorDone chan struct{}
	closeOnce   sync.Once

	// The ParkDir chunk store, opened on first use.
	storeOnce sync.Once
	store     *store.Store
	storeErr  error
}

// NewManager returns a manager with an empty session table and a
// running step scheduler. Call Start to enable idle eviction and
// Close to drain.
func NewManager(cfg Config) *Manager {
	cfg.fill()
	m := &Manager{
		cfg:      cfg,
		Metrics:  NewMetrics(),
		sessions: make(map[string]*Session),
	}
	m.Metrics.Live = m.LiveCount
	m.sched = newScheduler(m, cfg.Workers, cfg.MaxQueuedSteps, cfg.StepQuantum)
	m.Metrics.QueueDepth = m.sched.depth
	return m
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// LiveCount returns the number of resident sessions.
func (m *Manager) LiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Draining reports whether the manager has begun shutting down.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Start launches the idle-eviction janitor. It is a no-op when idle
// eviction is disabled.
func (m *Manager) Start() {
	if m.cfg.IdleTimeout <= 0 || m.janitorStop != nil {
		return
	}
	m.janitorStop = make(chan struct{})
	m.janitorDone = make(chan struct{})
	interval := m.cfg.IdleTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	go func() {
		defer close(m.janitorDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		ticks := 0
		for {
			select {
			case <-m.janitorStop:
				return
			case <-t.C:
				m.evictIdle()
				// Reclaim park-store chunks orphaned by consumed parks
				// every few passes; the grace window keeps the sweep
				// safe against other processes sharing the directory.
				if ticks++; ticks%8 == 0 && m.cfg.ParkDir != "" {
					if _, err := m.ParkGC(ParkGCGrace); err != nil {
						m.logf("park gc: %v", err)
					}
				}
			}
		}
	}()
}

// evictIdle removes sessions unused for longer than IdleTimeout.
func (m *Manager) evictIdle() {
	cutoff := time.Now().Add(-m.cfg.IdleTimeout)
	m.mu.Lock()
	var stale []*Session
	for _, s := range m.sessions {
		s.meta.Lock()
		idle := s.meta.lastUsed.Before(cutoff)
		s.meta.Unlock()
		if idle {
			stale = append(stale, s)
		}
	}
	m.mu.Unlock()
	for _, s := range stale {
		if m.remove(s.ID, cutoff) {
			m.Metrics.EvictedIdle.Add(1)
			if m.cfg.ParkDir != "" {
				if err := m.park(s); err != nil {
					m.logf("session %s: park failed, state discarded: %v", s.ID, err)
				}
			}
			m.logf("session %s: evicted idle", s.ID)
		}
	}
}

// remove evicts the session if it is still resident and (when cutoff
// is nonzero) still idle — a request may have slipped in since the
// candidate scan.
func (m *Manager) remove(id string, cutoff time.Time) bool {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok && !cutoff.IsZero() {
		s.meta.Lock()
		if !s.meta.lastUsed.Before(cutoff) {
			ok = false
		}
		s.meta.Unlock()
	}
	if ok {
		delete(m.sessions, id)
	}
	m.mu.Unlock()
	if ok {
		s.meta.Lock()
		s.meta.state = StateEvicted
		s.meta.Unlock()
	}
	return ok
}

// Drain stops admitting sessions. In-flight requests on existing
// sessions continue; pair with http.Server.Shutdown and then Close.
func (m *Manager) Drain() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
}

// Close drains, stops the scheduler and janitor, and evicts every
// remaining session. It is idempotent: drain paths routinely call it
// both explicitly and from a deferred cleanup.
func (m *Manager) Close() {
	m.Drain()
	m.closeOnce.Do(m.sched.close)
	if m.janitorStop != nil {
		close(m.janitorStop)
		<-m.janitorDone
		m.janitorStop = nil
	}
	m.mu.Lock()
	ids := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	for _, id := range ids {
		if m.remove(id, time.Time{}) {
			m.Metrics.EvictedDrain.Add(1)
		}
	}
}

// Create admits and builds a new session with a server-assigned id.
func (m *Manager) Create(spec runner.Spec, traceLimit int) (*Session, error) {
	return m.CreateWithID("", spec, traceLimit)
}

// ValidSessionID reports whether a client-supplied session id is
// acceptable: non-empty, bounded, and drawn from the URL- and
// filename-safe alphabet the gateway mints from.
func ValidSessionID(id string) bool {
	if id == "" || len(id) > MaxSessionIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// CreateWithID admits and builds a new session. An empty id selects a
// server-assigned one; a non-empty id is the caller's (the gateway
// places sessions under globally-routable ids this way) and must be
// valid and unused. The admission slot is reserved before the
// (comparatively slow) simulator construction so concurrent creates
// cannot overshoot MaxSessions.
func (m *Manager) CreateWithID(id string, spec runner.Spec, traceLimit int) (*Session, error) {
	if id != "" && !ValidSessionID(id) {
		return nil, fmt.Errorf("%w: invalid session id %q", ErrConflict, id)
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if id != "" {
		if _, dup := m.sessions[id]; dup {
			m.mu.Unlock()
			return nil, fmt.Errorf("%w: session %s already exists", ErrConflict, id)
		}
	}
	if len(m.sessions)+m.reserved >= m.cfg.MaxSessions {
		m.mu.Unlock()
		m.Metrics.SessionsRejected.Add(1)
		return nil, ErrBackpressure
	}
	m.reserved++
	if id == "" {
		m.nextID++
		id = fmt.Sprintf("s-%06d", m.nextID)
	}
	m.mu.Unlock()

	release := func() {
		m.mu.Lock()
		m.reserved--
		m.mu.Unlock()
	}

	inst, err := m.cfg.Build(spec)
	if err != nil {
		release()
		return nil, err
	}
	rec := osm.NewRecorder()
	rec.Limit = traceLimit
	inst.Director().Tracer = rec

	s := &Session{ID: id, Spec: inst.Spec(), traceLimit: traceLimit, inst: inst, rec: rec}
	now := time.Now()
	s.meta.state = StateCreated
	s.meta.created = now
	s.meta.lastUsed = now

	m.mu.Lock()
	m.reserved--
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if _, dup := m.sessions[id]; dup {
		// Two concurrent creates raced on the same caller-supplied id
		// and both reserved a slot; the loser backs out.
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: session %s already exists", ErrConflict, id)
	}
	m.sessions[id] = s
	m.mu.Unlock()
	m.Metrics.SessionsCreated.Add(1)
	m.logf("session %s: created (%s %s)", id, spec.Target, spec.Workload)
	return s, nil
}

// Get returns the session by id.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	return s, nil
}

// Evict removes the session via the API.
func (m *Manager) Evict(id string) error {
	if !m.remove(id, time.Time{}) {
		return ErrNotFound
	}
	m.Metrics.EvictedAPI.Add(1)
	m.logf("session %s: evicted by request", id)
	return nil
}

// List returns every resident session's info, sorted by id.
func (m *Manager) List() []Info {
	m.mu.Lock()
	ss := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	m.mu.Unlock()
	infos := make([]Info, 0, len(ss))
	for _, s := range ss {
		infos = append(infos, s.info(s.inst.Arch(), false))
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// StepResult reports one step request.
type StepResult struct {
	Stepped          uint64         `json:"stepped"`
	Cycle            uint64         `json:"cycle"`
	Done             bool           `json:"done"`
	State            State          `json:"state"`
	DeadlineExceeded bool           `json:"deadline_exceeded,omitempty"`
	Result           *runner.Result `json:"result,omitempty"`
}

// Step advances the session up to n cycles or until the program
// completes or the deadline passes, whichever is first. The request
// is validated and clamped here, then executed as a run-queue job: a
// worker steps the model in quanta, interleaving with other sessions'
// jobs, and this goroutine merely parks on the job's completion. A
// full run queue refuses the request immediately with ErrOverloaded.
func (m *Manager) Step(s *Session, n uint64, deadline time.Duration) (StepResult, error) {
	if n == 0 {
		return StepResult{}, fmt.Errorf("%w: cycles must be >= 1", ErrConflict)
	}
	if n > m.cfg.MaxStepCycles {
		n = m.cfg.MaxStepCycles
	}
	if deadline <= 0 {
		deadline = m.cfg.DefaultStepDeadline
	}
	if deadline > m.cfg.MaxStepDeadline {
		deadline = m.cfg.MaxStepDeadline
	}

	j := &stepJob{
		s:     s,
		want:  n,
		limit: time.Now().Add(deadline),
		done:  make(chan struct{}),
	}
	if err := m.sched.submit(j); err != nil {
		return StepResult{}, err
	}
	<-j.done
	return j.res, j.err
}

// stepable checks the lifecycle allows simulator mutation. Callers
// hold s.mu. StateRunning is steppable: a second request on a busy
// session queues behind the first (their jobs' quanta interleave),
// exactly as it used to queue on the session mutex.
func (s *Session) stepable() error {
	s.meta.Lock()
	defer s.meta.Unlock()
	switch s.meta.state {
	case StateCreated, StatePaused, StateRunning:
		return nil
	case StateDone:
		return fmt.Errorf("%w: session is done", ErrConflict)
	case StateBroken:
		return fmt.Errorf("%w: session is broken: %s", ErrConflict, s.meta.errMsg)
	default:
		return fmt.Errorf("%w: session is %s", ErrConflict, s.meta.state)
	}
}

// poison marks the session broken. Callers hold s.mu.
func (s *Session) poison(err error) {
	s.meta.Lock()
	defer s.meta.Unlock()
	if s.meta.state != StateEvicted {
		s.meta.state = StateBroken
	}
	s.meta.errMsg = err.Error()
	s.meta.lastUsed = time.Now()
}

// Poison marks the session broken from the request-isolation layer
// (an in-handler panic may have left the simulator inconsistent).
func (s *Session) Poison(err error) { s.poison(err) }

// Info returns the session's current summary, including the full
// originating spec (single-session surface; lists omit it).
func (m *Manager) Info(s *Session) Info { return s.info(s.inst.Arch(), true) }

// Registers returns the session's named architectural registers.
func (m *Manager) Registers(s *Session) (uint64, []runner.Reg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	regs := s.inst.Registers()
	s.touch()
	return s.inst.Cycle(), regs
}

// CheckInvariants runs the one-shot structural invariant check over
// the session's model (debug surface; works whether or not the spec
// enabled per-step checking).
func (m *Manager) CheckInvariants(s *Session) (uint64, []invariant.Violation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := s.inst.CheckInvariants()
	s.touch()
	return s.inst.Cycle(), vs
}

// ReadMem copies a range of the session's simulated memory.
func (m *Manager) ReadMem(s *Session, addr, n uint32) ([]byte, error) {
	if n > m.cfg.MaxMemRead {
		return nil, fmt.Errorf("%w: read of %d bytes exceeds the %d-byte cap", ErrConflict, n, m.cfg.MaxMemRead)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := s.inst.ReadMem(addr, n)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConflict, err)
	}
	s.touch()
	return data, nil
}

// touch refreshes the idle clock. Callers hold s.mu.
func (s *Session) touch() {
	s.meta.Lock()
	s.meta.lastUsed = time.Now()
	s.meta.Unlock()
}

// The session-snapshot wire format: the internal/snap stream the
// simulators produce, wrapped with a header binding it to the target
// so a snapshot cannot be restored into a mismatched model. Version 2
// appends the session's Recorder state (whole-run trace totals,
// checksum and retained window), so a session migrated between
// workers — or parked and resurrected — keeps its full-run trace
// checksum, not just the tail after the hop. Version-1 blobs are
// refused by the version check.
const (
	sessHeader     = "osmserve-session"
	sessVersion    = 2
	sessFlagTracer = 1 // recorder state present
)

// Snapshot encodes the session's full simulation state in the
// internal/snap wire format.
func (m *Manager) Snapshot(s *Session) ([]byte, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, cycle, err := m.snapshotLocked(s)
	if err != nil {
		return nil, 0, err
	}
	s.touch()
	m.Metrics.SnapshotBytesOut.Add(uint64(len(data)))
	return data, cycle, nil
}

// snapshotLocked encodes the session snapshot. Callers hold s.mu.
func (m *Manager) snapshotLocked(s *Session) ([]byte, uint64, error) {
	blob, err := s.inst.Snapshot()
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrConflict, err)
	}
	cycle := s.inst.Cycle()
	w := snap.NewWriter()
	w.U32(snap.Magic)
	w.String(sessHeader)
	w.Version(sessVersion)
	w.String(s.Spec.Target)
	w.U64(cycle)
	w.Bytes32(blob)
	w.U8(sessFlagTracer)
	w.Blob(s.rec.SaveState)
	return w.Bytes(), cycle, nil
}

// SessionSnapshot is the decoded form of the session-snapshot wire
// format: the target-bound simulator blob plus the recorder state.
type SessionSnapshot struct {
	Target string
	Cycle  uint64
	Blob   []byte
	// Tracer is a reader over the recorder state, nil when the
	// snapshot's flag says it carries none. Blob and Tracer alias the
	// input data.
	Tracer *snap.Reader
}

// DecodeSessionSnapshot parses the session-snapshot wire format
// without touching any session — the shared decoder behind Restore
// and offline consumers (osmstore's time-travel query replays parked
// snapshots through it).
func DecodeSessionSnapshot(data []byte) (SessionSnapshot, error) {
	var ss SessionSnapshot
	r := snap.NewReader(data)
	if r.U32() != snap.Magic || r.String() != sessHeader {
		return ss, errors.New("not an osmserve session snapshot")
	}
	if version := r.U16(); version != sessVersion {
		return ss, fmt.Errorf("session snapshot version %d, this build reads %d", version, sessVersion)
	}
	ss.Target = r.String()
	ss.Cycle = r.U64()
	ss.Blob = r.Bytes32()
	if flags := r.U8(); flags&sessFlagTracer != 0 {
		ss.Tracer = r.Blob()
	}
	if err := r.Err(); err != nil {
		return SessionSnapshot{}, err
	}
	return ss, nil
}

// IsSessionSnapshot reports whether data starts with the
// session-snapshot header (any version).
func IsSessionSnapshot(data []byte) bool {
	r := snap.NewReader(data)
	return r.U32() == snap.Magic && r.String() == sessHeader && r.Err() == nil
}

// Restore replaces the session's simulation state from an uploaded
// snapshot. The session returns to the paused state (or effectively
// done, discovered on the next step). The snapshot carries the
// originating session's trace state and restores it — migration does
// not reset the whole-run checksum.
func (m *Manager) Restore(s *Session, data []byte) (uint64, error) {
	ss, err := DecodeSessionSnapshot(data)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrConflict, err)
	}
	target, cycle, blob, tracer := ss.Target, ss.Cycle, ss.Blob, ss.Tracer

	s.mu.Lock()
	defer s.mu.Unlock()
	if target != s.Spec.Target {
		return 0, fmt.Errorf("%w: snapshot is for target %s, session is %s", ErrConflict, target, s.Spec.Target)
	}
	s.meta.Lock()
	state := s.meta.state
	s.meta.Unlock()
	switch state {
	case StateCreated, StatePaused, StateDone:
	default:
		return 0, fmt.Errorf("%w: cannot restore a %s session", ErrConflict, state)
	}
	if err := s.inst.Restore(blob); err != nil {
		s.poison(err)
		return 0, fmt.Errorf("%w: %v", ErrConflict, err)
	}
	s.rec.Reset()
	if tracer != nil {
		if err := s.rec.LoadState(tracer); err != nil {
			// The simulator state is already restored and consistent;
			// only the trace continuity is lost. Start a fresh trace
			// rather than failing the whole restore.
			s.rec.Reset()
			m.logf("session %s: snapshot trace state unreadable, trace restarted: %v", s.ID, err)
		}
	}
	s.meta.Lock()
	s.meta.result = nil
	s.meta.errMsg = ""
	s.meta.Unlock()
	s.syncMeta(StatePaused)
	m.Metrics.SnapshotBytesIn.Add(uint64(len(data)))
	m.logf("session %s: restored at cycle %d", s.ID, cycle)
	return s.inst.Cycle(), nil
}

// AdminDrain stops admitting sessions and reports the ids still
// resident — the handle a gateway uses to drive migrate-out before a
// worker shuts down. Existing sessions keep serving (step, snapshot,
// evict) so their state can be copied off.
func (m *Manager) AdminDrain() []string {
	m.mu.Lock()
	m.draining = true
	ids := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	sort.Strings(ids)
	m.logf("admin drain: admissions stopped, %d sessions resident", len(ids))
	return ids
}

// TraceEvents returns the retained trace events with Step >= since
// plus the live totals, under the session lock.
func (m *Manager) TraceEvents(s *Session, since uint64) ([]osm.Event, uint64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// EventsSince builds a fresh slice, so it stays valid after the
	// lock is released and the ring rotates.
	evs := s.rec.EventsSince(since)
	s.touch()
	return evs, s.rec.Total(), s.rec.Checksum()
}
