package osm

import "testing"

// Micro-benchmarks of the scheduling core, for tracking the cost of
// the director machinery itself (the efficiency discussion in
// EXPERIMENTS.md). Each model is benchmarked under the default
// event-driven scheduler and under the reference Figure 3 scan
// (EngineScan), so the scheduling overhead of each shows up
// side by side.

// benchPipeline builds a saturated 5-stage ring: 6 machines, ~6
// transitions per step. Saturation is the event scheduler's worst
// case — everything is ready every step.
func benchPipeline() *Director {
	stages := make([]*UnitManager, 5)
	states := make([]*State, 6)
	states[0] = NewState("I")
	for k := 0; k < 5; k++ {
		stages[k] = NewUnitManager("s", 1)
		states[k+1] = NewState("S")
	}
	states[0].Connect("in", states[1], Alloc(stages[0], 0))
	for k := 1; k < 5; k++ {
		states[k].Connect("adv", states[k+1], Release(stages[k-1], 0), Alloc(stages[k], 0))
	}
	states[5].Connect("out", states[0], Release(stages[4], 0))
	d := NewDirector()
	d.NoRestart = true
	for _, s := range stages {
		d.AddManager(s)
	}
	for k := 0; k < 6; k++ {
		d.AddMachine(NewMachine("m", states[0]))
	}
	return d
}

// benchIdle builds a fully blocked population: the cost of a step
// that moves nothing. The event scheduler suspends every machine on
// the wedged unit's wait list, so steps cost O(1); the scan
// re-evaluates all 8 machines.
func benchIdle() *Director {
	u := NewUnitManager("u", 1)
	i, s := NewState("I"), NewState("S")
	i.Connect("go", s, Alloc(u, 0))
	s.Connect("stay", i, Release(u, 0))
	u.SetBusy(0, 1<<62)
	d := NewDirector()
	d.AddManager(u)
	for k := 0; k < 8; k++ {
		d.AddMachine(NewMachine("m", i))
	}
	d.Step() // settle: every machine blocks on the busy gate
	return d
}

func benchSteps(b *testing.B, d *Director) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDirectorStepPipeline(b *testing.B) {
	benchSteps(b, benchPipeline())
}

func BenchmarkDirectorStepPipelineScan(b *testing.B) {
	d := benchPipeline()
	d.Engine = EngineScan
	benchSteps(b, d)
}

// BenchmarkDirectorStepEventDriven is the explicit-name alias for the
// default scheduler on the saturated ring, for benchstat runs that
// compare the two schedulers by name.
func BenchmarkDirectorStepEventDriven(b *testing.B) {
	d := benchPipeline()
	d.Engine = EngineEvent
	benchSteps(b, d)
}

// BenchmarkDirectorStepPipelineCompiled runs the saturated ring
// through compiled guard programs (EngineCompiled). The CI bench-smoke
// job holds it to within 10% of the event-driven interpreter on this
// micro-model; the macro speedups are measured in
// internal/experiments (SpeedEngines).
func BenchmarkDirectorStepPipelineCompiled(b *testing.B) {
	d := benchPipeline()
	d.Engine = EngineCompiled
	benchSteps(b, d)
}

// BenchmarkDirectorStepPipelineRecorded runs the saturated ring with
// a session-sized trace Recorder (Limit 4096) installed, the tracing
// every osmserve session pays. The CI bench-regression job gates it
// against the base branch like the devirtualized engines.
func BenchmarkDirectorStepPipelineRecorded(b *testing.B) {
	d := benchPipeline()
	rec := NewRecorder()
	rec.Limit = 4096
	d.Tracer = rec
	benchSteps(b, d)
}

func BenchmarkDirectorStepIdle(b *testing.B) {
	benchSteps(b, benchIdle())
}

func BenchmarkDirectorStepIdleScan(b *testing.B) {
	d := benchIdle()
	d.Engine = EngineScan
	benchSteps(b, d)
}

func BenchmarkDirectorStepEventDrivenIdle(b *testing.B) {
	d := benchIdle()
	d.Engine = EngineEvent
	benchSteps(b, d)
}

// BenchmarkDirectorStepIdleCompiled measures the idle step under the
// compiled engine. Together with the Idle and IdleScan variants it
// backs the 0 allocs/op claim for the idle path of all three engines
// (every benchSteps reports allocations).
func BenchmarkDirectorStepIdleCompiled(b *testing.B) {
	d := benchIdle()
	d.Engine = EngineCompiled
	if err := d.Step(); err != nil { // compile + settle under the new engine
		b.Fatal(err)
	}
	benchSteps(b, d)
}

func BenchmarkTryEdgeConjunction(b *testing.B) {
	// One machine cycling a 4-primitive edge pair.
	u1 := NewUnitManager("u1", 1)
	u2 := NewUnitManager("u2", 1)
	rf := NewRegFileManager("rf", 8)
	i, s := NewState("I"), NewState("S")
	i.Connect("go", s, Alloc(u1, 0), Alloc(u2, 0), Inquire(rf, 3), Alloc(rf, UpdateToken(4)))
	s.Connect("back", i, Release(u1, 0), Release(u2, 0), Release(rf, UpdateToken(4)))
	d := NewDirector()
	d.AddManager(u1, u2, rf)
	d.AddMachine(NewMachine("m", i))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
