package strongarm

import (
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
			p, err := w.ARMProgram(w.DefaultN)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(p, Config{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
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
				t.Fatal(stepErr)
			}
			if s.Done() {
				t.Fatalf("%s/%v: program finished inside the measured window", w.Name, eng)
			}
			if allocs != 0 {
				t.Errorf("%s/%v: %v allocations per 1000 cycles in steady state, want 0", w.Name, eng, allocs)
			}
		}
	}
}
