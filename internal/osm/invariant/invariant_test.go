package invariant_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/osm"
	"repro/internal/osm/invariant"
)

// pipeline builds a clean two-stage model — I -> F -> I over a
// single-unit stage plus a pool of fetch credits — with n machines.
func pipeline(n int) (*osm.Director, []*osm.Machine) {
	i, f := osm.NewState("I"), osm.NewState("F")
	mf := osm.NewUnitManager("fetch", 1)
	credits := osm.NewPoolManager("credits", 2)
	i.Connect("acquire", f, osm.Alloc(mf, 0), osm.Alloc(credits, osm.AnyUnit))
	f.Connect("retire", i, osm.Release(mf, 0), osm.Release(credits, osm.AnyUnit))
	d := osm.NewDirector()
	d.AddManager(mf, credits)
	for k := 0; k < n; k++ {
		d.AddMachine(osm.NewMachine(fmt.Sprintf("op%d", k), i))
	}
	return d, d.Machines()
}

func TestCleanModelNoViolations(t *testing.T) {
	for _, scan := range []bool{false, true} {
		d, _ := pipeline(3)
		if scan {
			d.Engine = osm.EngineScan
		}
		c := invariant.Attach(d)
		for s := 0; s < 200; s++ {
			if err := d.Step(); err != nil {
				t.Fatalf("scan=%v step %d: %v", scan, s, err)
			}
		}
		if got := c.CheckNow(); len(got) != 0 {
			t.Fatalf("scan=%v CheckNow: unexpected violations %v", scan, got)
		}
		if c.Checks() == 0 {
			t.Fatalf("scan=%v: structural checks never ran", scan)
		}
	}
}

// amnesiac wraps a UnitManager but, once forget is set, denies all
// knowledge of its outstanding grants — a manager-side accounting bug.
type amnesiac struct {
	*osm.UnitManager
	forget bool
}

func (a *amnesiac) Allocate(m *osm.Machine, id osm.TokenID) (osm.Token, bool) {
	tok, ok := a.UnitManager.Allocate(m, id)
	if ok {
		tok.Mgr = a // route the token back through the wrapper
	}
	return tok, ok
}

func (a *amnesiac) OutstandingGrants(yield func(osm.Grant)) {
	if a.forget {
		return
	}
	a.UnitManager.OutstandingGrants(yield)
}

func TestConservationLeakDetected(t *testing.T) {
	// F has no outgoing edge, so the machine parks there holding the
	// token and the books must keep balancing.
	i, f := osm.NewState("I"), osm.NewState("F")
	mf := &amnesiac{UnitManager: osm.NewUnitManager("fetch", 1)}
	i.Connect("acquire", f, osm.Alloc(mf, 0))
	d := osm.NewDirector()
	d.AddManager(mf)
	d.AddMachine(osm.NewMachine("op0", i))
	invariant.Attach(d)

	if err := d.Step(); err != nil { // grant committed, books balance
		t.Fatal(err)
	}
	mf.forget = true
	err := d.Step()
	var verr *invariant.Error
	if !errors.As(err, &verr) {
		t.Fatalf("step after forget: got %v, want *invariant.Error", err)
	}
	v := verr.Violations[0]
	if v.Kind != invariant.Conservation || v.Machine != "op0" || v.Manager != "fetch" {
		t.Fatalf("violation = %+v, want conservation/op0/fetch", v)
	}
	if !strings.Contains(err.Error(), "no matching grant") {
		t.Fatalf("error text %q should name the missing grant", err)
	}
}

// phantom wraps a UnitManager and additionally reports a grant to a
// machine that never allocated — an asymmetric binding.
type phantom struct {
	*osm.UnitManager
	ghost *osm.Machine
}

func (p *phantom) OutstandingGrants(yield func(osm.Grant)) {
	p.UnitManager.OutstandingGrants(yield)
	if p.ghost != nil {
		yield(osm.Grant{Owner: p.ghost, ID: 7})
	}
}

func TestBindingOrphanDetected(t *testing.T) {
	d, ms := pipeline(1)
	ghost := osm.NewMachine("ghost", ms[0].Initial)
	d.AddMachine(ghost)
	mf := &phantom{UnitManager: osm.NewUnitManager("spare", 1), ghost: ghost}
	d.AddManager(mf)
	c := invariant.New(d)

	vs := c.CheckNow()
	if len(vs) != 1 {
		t.Fatalf("CheckNow: got %d violations %v, want 1", len(vs), vs)
	}
	v := vs[0]
	if v.Kind != invariant.Binding || v.Machine != "ghost" || v.Manager != "spare" {
		t.Fatalf("violation = %+v, want binding/ghost/spare", v)
	}
	if !strings.Contains(v.Detail, "outlived the operation") {
		t.Fatalf("detail %q should say the binding outlived the operation (ghost is idle)", v.Detail)
	}
}

func TestPoolCountMismatchDetected(t *testing.T) {
	// The pool's grants are anonymous, so conservation is a count
	// comparison. Grant one token behind the checker's back.
	d, _ := pipeline(1)
	pool := d.Managers()[1].(*osm.PoolManager)
	if _, ok := pool.Allocate(nil, osm.AnyUnit); !ok {
		t.Fatal("pool allocate failed")
	}
	vs := invariant.New(d).CheckNow()
	if len(vs) != 1 || vs[0].Kind != invariant.Conservation || vs[0].Manager != "credits" {
		t.Fatalf("violations = %v, want one conservation/credits count mismatch", vs)
	}
}

// mute is a gate manager that claims the sleep-safe wake contract but
// breaks it: Open flips its inquiry to true without waking waiters.
type mute struct {
	osm.BaseManager
	open bool
}

func (g *mute) Allocate(m *osm.Machine, id osm.TokenID) (osm.Token, bool) {
	return osm.Token{}, false
}
func (g *mute) Inquire(m *osm.Machine, id osm.TokenID) bool { return g.open }
func (g *mute) Release(m *osm.Machine, t osm.Token) bool    { return false }
func (g *mute) SleepSafeManager() bool                      { return true }
func (g *mute) OutstandingGrants(yield func(osm.Grant))     {}

func TestScheduleViolationOnMissedWake(t *testing.T) {
	i, f := osm.NewState("I"), osm.NewState("F")
	gate := &mute{BaseManager: osm.BaseManager{ManagerName: "gate"}}
	i.Connect("go", f, osm.Inquire(gate, 0))
	d := osm.NewDirector()
	d.AddManager(gate)
	d.AddMachine(osm.NewMachine("op0", i))
	invariant.Attach(d)

	if err := d.Step(); err != nil { // machine suspends on the gate
		t.Fatal(err)
	}
	gate.open = true // contract violation: no Wake()
	err := d.Step()
	var verr *invariant.Error
	if !errors.As(err, &verr) {
		t.Fatalf("step after silent open: got %v, want *invariant.Error", err)
	}
	v := verr.Violations[0]
	if v.Kind != invariant.Schedule || v.Machine != "op0" || v.Edge != "go" {
		t.Fatalf("violation = %+v, want schedule/op0/go", v)
	}

	// The scan scheduler evaluates everyone each step, so the same
	// model under EngineScan commits the edge instead of violating.
	d2 := osm.NewDirector()
	gate2 := &mute{BaseManager: osm.BaseManager{ManagerName: "gate"}}
	i2, f2 := osm.NewState("I"), osm.NewState("F")
	i2.Connect("go", f2, osm.Inquire(gate2, 0))
	d2.AddManager(gate2)
	m2 := osm.NewMachine("op0", i2)
	d2.AddMachine(m2)
	d2.Engine = osm.EngineScan
	invariant.Attach(d2)
	if err := d2.Step(); err != nil {
		t.Fatal(err)
	}
	gate2.open = true
	if err := d2.Step(); err != nil {
		t.Fatalf("scan scheduler: %v", err)
	}
	if m2.State() != f2 {
		t.Fatal("scan scheduler should have committed the edge")
	}
}

func TestLivelockDetected(t *testing.T) {
	// op0 enters F and can never leave: the gate never opens.
	i, f := osm.NewState("I"), osm.NewState("F")
	gate := &mute{BaseManager: osm.BaseManager{ManagerName: "gate"}}
	i.Connect("enter", f)
	f.Connect("leave", i, osm.Inquire(gate, 0))
	d := osm.NewDirector()
	d.AddManager(gate)
	d.AddMachine(osm.NewMachine("op0", i))
	c := invariant.Attach(d)
	c.LivelockBound = 5

	var err error
	for s := 0; s < 20 && err == nil; s++ {
		err = d.Step()
	}
	var verr *invariant.Error
	if !errors.As(err, &verr) {
		t.Fatalf("got %v, want *invariant.Error within 20 steps", err)
	}
	v := verr.Violations[0]
	if v.Kind != invariant.Livelock || v.Machine != "op0" {
		t.Fatalf("violation = %+v, want livelock/op0", v)
	}
	if !strings.Contains(v.Detail, `state "F"`) {
		t.Fatalf("detail %q should name the stuck state", v.Detail)
	}
}

func TestEveryCadenceSkipsStructuralChecks(t *testing.T) {
	d, _ := pipeline(2)
	c := invariant.Attach(d)
	c.Every = 10
	for s := 0; s < 100; s++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Checks(); got != 10 {
		t.Fatalf("Checks() = %d after 100 steps with Every=10, want 10", got)
	}
}

func TestProbeEdgeIsSideEffectFree(t *testing.T) {
	// Probing a satisfiable multi-primitive edge must leave every
	// manager exactly as it was.
	d, ms := pipeline(2)
	mf := d.Managers()[0].(*osm.UnitManager)
	pool := d.Managers()[1].(*osm.PoolManager)
	m := ms[0]
	e := m.Initial.Out[0]
	if !m.ProbeEdge(e) {
		t.Fatal("acquire edge should probe satisfiable on an empty pipeline")
	}
	if mf.Free() != 1 || pool.Free() != 2 {
		t.Fatalf("probe leaked state: fetch free=%d (want 1), credits free=%d (want 2)", mf.Free(), pool.Free())
	}
	if len(m.Tokens()) != 0 {
		t.Fatalf("probe granted tokens: %v", m.Tokens())
	}
	// After op0 takes the unit, the same edge probes false for op1
	// and still leaves no trace.
	if err := d.Step(); err != nil {
		t.Fatal(err)
	}
	if ms[1].ProbeEdge(e) {
		t.Fatal("acquire edge should probe unsatisfiable while the unit is owned")
	}
	if mf.Free() != 0 || pool.Free() != 1 {
		t.Fatalf("failed probe leaked state: fetch free=%d (want 0), credits free=%d (want 1)", mf.Free(), pool.Free())
	}
}

func TestViolationStringAndErrorText(t *testing.T) {
	v := invariant.Violation{
		Step: 42, Kind: invariant.Schedule,
		Machine: "op1", Manager: "fetch", Edge: "go",
		Detail: "missed wake",
	}
	s := v.String()
	for _, want := range []string{"step 42", "schedule", "op1", "fetch", "go", "missed wake"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
	e := &invariant.Error{Violations: []invariant.Violation{v, v}}
	if !strings.Contains(e.Error(), "2 violation(s)") {
		t.Fatalf("Error() = %q, should count violations", e.Error())
	}
}
