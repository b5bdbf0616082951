package strongarm

import (
	"fmt"
	"testing"

	"repro/internal/osm"
	"repro/internal/workload"
)

// TestSteadyStateZeroAllocs requires the simulated cycle loop to
// allocate nothing once caches and the decode cache are warm, under
// every engine.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, w := range workload.All() {
		for _, eng := range []osm.Engine{osm.EngineScan, osm.EngineEvent, osm.EngineCompiled, osm.EngineGenerated} {
			s := newKernelSim(t, w, eng)
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
		s := newKernelSim(t, w, osm.EngineEvent)
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

func newKernelSim(t *testing.T, w *workload.Workload, eng osm.Engine) *Sim {
	t.Helper()
	p, err := w.ARMProgram(w.DefaultN)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	return s
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
