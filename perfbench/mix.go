package main

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/baseline/hwcentric"
	"repro/internal/baseline/sscalar"
	"repro/internal/isa/arm"
	"repro/internal/isa/ppc"
	"repro/internal/iss"
	"repro/internal/mem"
	"repro/internal/osm"
	"repro/internal/sim/ppc750"
	"repro/internal/sim/strongarm"
	"repro/internal/workload"
)

// maxCycles bounds every in-process run; the kernels finish far
// below it.
const maxCycles = 1_000_000_000

// engines are the OSM execution engines in report order; the event
// engine is the default. Index len(engines) in per-simulator arrays
// is the target's hand-written baseline.
var engines = []osm.Engine{osm.EngineEvent, osm.EngineGenerated, osm.EngineCompiled, osm.EngineScan}

const (
	simEvent = 0
	simBase  = 4
	numSims  = 5
)

// simStats is what one completed in-process run reports.
type simStats struct {
	cycles, instrs uint64
	icache, dcache mem.CacheStats
}

// sim is one built simulator, ready to run to completion.
type sim struct {
	run      func() (simStats, error)
	director *osm.Director // nil for the baselines
	reported func() []uint32
}

// program is one assembled kernel with constructors for every
// simulator that runs it.
type program struct {
	osm      func(eng osm.Engine) (*sim, error)
	baseline func() (*sim, error)
	iss      func() (instrs uint64, reported []uint32, err error)
}

// target is one case study: its model, baseline and kernel set.
type target struct {
	name     string
	baseline string
	kernels  []*workload.Workload
	// mixScale multiplies DefaultN for the in-process mix, so one
	// round (every kernel under five simulators) takes about a
	// second and a run holds many rounds.
	mixScale float64
	// sessionScale multiplies DefaultN for fabric sessions, so a
	// session spans several bulk steps before it completes.
	sessionScale float64
	// bulkRate, migrateRate and checkpointRate are fabric requests
	// per client per second of the fabric phase. They size the
	// count-bounded sub-phases (see fabricRounds) so that on the
	// reference host bulk steps take about a quarter of the phase,
	// migrations about a sixth and checkpoints about a tenth.
	bulkRate, migrateRate, checkpointRate float64
	assemble                              func(w *workload.Workload, n int) (*program, error)
}

// prepareEngine resolves an engine's guard programs or generated edge
// functions eagerly, as session creation does, so that cost is
// set-up rather than run time.
func prepareEngine(d *osm.Director, eng osm.Engine) error {
	switch eng {
	case osm.EngineCompiled:
		_, err := d.Compile()
		return err
	case osm.EngineGenerated:
		_, err := d.Generated()
		return err
	}
	return nil
}

func strongARMTarget() *target {
	return &target{
		name: "strongarm", baseline: "sscalar", kernels: workload.All(),
		mixScale: 1, sessionScale: 4,
		bulkRate: 15, migrateRate: 30, checkpointRate: 2,
		assemble: func(w *workload.Workload, n int) (*program, error) {
			p, err := w.ARMProgram(n)
			if err != nil {
				return nil, err
			}
			return armProgram(p), nil
		},
	}
}

func armProgram(p *arm.Program) *program {
	return &program{
		osm: func(eng osm.Engine) (*sim, error) {
			m, err := strongarm.New(p, strongarm.Config{Engine: eng})
			if err != nil {
				return nil, err
			}
			if err := prepareEngine(m.Director(), eng); err != nil {
				return nil, err
			}
			return &sim{
				director: m.Director(),
				reported: func() []uint32 { return m.ISS.Reported },
				run: func() (simStats, error) {
					st, err := m.Run(maxCycles)
					return simStats{st.Cycles, st.Instrs, st.ICache, st.DCache}, err
				},
			}, nil
		},
		baseline: func() (*sim, error) {
			m, err := sscalar.New(p, sscalar.Config{})
			if err != nil {
				return nil, err
			}
			return &sim{
				reported: func() []uint32 { return m.ISS.Reported },
				run: func() (simStats, error) {
					st, err := m.Run(maxCycles)
					return simStats{st.Cycles, st.Instrs, st.ICache, st.DCache}, err
				},
			}, nil
		},
		iss: func() (uint64, []uint32, error) {
			is, err := iss.NewARM(p, 1024)
			if err != nil {
				return 0, nil, err
			}
			err = is.Run(maxCycles)
			return is.Stats.Instrs, is.Reported, err
		},
	}
}

func ppc750Target() *target {
	return &target{
		name: "ppc750", baseline: "hwcentric", kernels: workload.Mix(),
		mixScale: 0.35, sessionScale: 2,
		bulkRate: 4, migrateRate: 4, checkpointRate: 0.2,
		assemble: func(w *workload.Workload, n int) (*program, error) {
			p, err := w.PPCProgram(n)
			if err != nil {
				return nil, err
			}
			return ppcProgram(p), nil
		},
	}
}

func ppcProgram(p *ppc.Program) *program {
	return &program{
		osm: func(eng osm.Engine) (*sim, error) {
			m, err := ppc750.New(p, ppc750.Config{Engine: eng})
			if err != nil {
				return nil, err
			}
			if err := prepareEngine(m.Director(), eng); err != nil {
				return nil, err
			}
			return &sim{
				director: m.Director(),
				reported: func() []uint32 { return m.ISS.Reported },
				run: func() (simStats, error) {
					st, err := m.Run(maxCycles)
					return simStats{st.Cycles, st.Instrs, st.ICache, st.DCache}, err
				},
			}, nil
		},
		baseline: func() (*sim, error) {
			m, err := hwcentric.New(p, hwcentric.Config{})
			if err != nil {
				return nil, err
			}
			return &sim{
				reported: func() []uint32 { return m.ISS.Reported },
				run: func() (simStats, error) {
					st, err := m.Run(maxCycles)
					return simStats{cycles: st.Cycles, instrs: st.Instrs}, err
				},
			}, nil
		},
		iss: func() (uint64, []uint32, error) {
			is, err := iss.NewPPC(p, 1024)
			if err != nil {
				return 0, nil, err
			}
			err = is.Run(maxCycles)
			return is.Stats.Instrs, is.Reported, err
		},
	}
}

// kernelPlan fixes one kernel's iteration count for the whole run.
type kernelPlan struct {
	w *workload.Workload
	n int
}

// planKernels draws each kernel's iteration count from the seed:
// scale x DefaultN x a factor in [0.9, 1.1]. The range is narrow
// because a run's aggregate rates weight each kernel by its cycles:
// a wider one would move them from seed to seed by more than the
// host's own noise.
func planKernels(kernels []*workload.Workload, scale float64, rng *rand.Rand) []kernelPlan {
	plans := make([]kernelPlan, len(kernels))
	for i, w := range kernels {
		f := 0.9 + 0.2*rng.Float64()
		plans[i] = kernelPlan{w: w, n: max(1, int(float64(w.DefaultN)*scale*f))}
	}
	return plans
}

// kernelName renders a kernel name for a metric ("gsm/dec" ->
// "gsm-dec").
func kernelName(w *workload.Workload) string {
	b := []byte(w.Name)
	for i, c := range b {
		if c == '/' {
			b[i] = '-'
		}
	}
	return string(b)
}

// round is one pass over every kernel under every simulator. Times
// are host times; speed converts them to reference-host time (see
// hostref.go).
type round struct {
	speed   float64
	cycles  [numSims]uint64
	wall    [numSims]time.Duration
	setup   time.Duration
	mallocs uint64 // heap allocations during the event-engine runs
	bytes   uint64 // heap bytes allocated during the event-engine runs
	// perKernel holds the event engine's cycles and host time.
	perKernel map[string]kernelRun
	icache    mem.CacheStats
	dcache    mem.CacheStats
}

type kernelRun struct {
	cycles uint64
	wall   time.Duration
}

// rate returns simulator i's cycles per reference-host second.
func (r *round) rate(i int) float64 { return r.hostRate(i) / r.speed }

// hostRate returns simulator i's cycles per host second.
func (r *round) hostRate(i int) float64 { return float64(r.cycles[i]) / r.wall[i].Seconds() }

// scale converts a measured interval to reference-host time at host
// speed h.
func scale(d time.Duration, h float64) time.Duration { return time.Duration(float64(d) * h) }

// mixResult is the in-process phase's measurement.
type mixResult struct {
	rounds []round
	// kernelCycles is each kernel's event-engine cycle count; every
	// round and every engine must reproduce it.
	kernelCycles map[string]uint64
}

func (m *mixResult) medianOver(f func(r *round) float64) float64 {
	xs := make([]float64, len(m.rounds))
	for i := range m.rounds {
		xs[i] = f(&m.rounds[i])
	}
	return median(xs)
}

// minRounds is the fewest rounds a mix phase runs, however short its
// time budget.
const minRounds = 3

// runMix runs rounds until the deadline passes (and at least
// minRounds). Each round visits the kernels in a seeded order; for
// each kernel it assembles the program and builds all five
// simulators (set-up), then runs them one after another on fresh,
// empty caches, rotating which simulator goes first from round to
// round so slow drift in the host hits every simulator alike.
func (b *bench) runMix(ctx context.Context, plans []kernelPlan, rng *rand.Rand, deadline time.Time, phase int64) *mixResult {
	res := &mixResult{kernelCycles: map[string]uint64{}}
	for len(res.rounds) < minRounds || time.Now().Before(deadline) {
		r := round{perKernel: map[string]kernelRun{}}
		probes := len(b.speeds)
		for _, ki := range rng.Perm(len(plans)) {
			b.runKernel(ctx, plans[ki], len(res.rounds), &r, res, phase)
		}
		r.speed = b.speedSince(probes)
		res.rounds = append(res.rounds, r)
	}
	return res
}

func (b *bench) runKernel(ctx context.Context, kp kernelPlan, roundNo int, r *round, res *mixResult, phase int64) {
	name := kernelName(kp.w)
	t0 := time.Now()
	sp := b.spans.begin("setup.build."+name, phase, 0)
	p, err := b.tg.assemble(kp.w, kp.n)
	if !b.check(err == nil, "assemble %s: %v", kp.w.Name, err) {
		return
	}
	var sims [numSims]*sim
	for i, eng := range engines {
		sims[i], err = p.osm(eng)
		if !b.check(err == nil, "build %s/%v: %v", kp.w.Name, eng, err) {
			return
		}
	}
	sims[simBase], err = p.baseline()
	if !b.check(err == nil, "build %s/%s: %v", kp.w.Name, b.tg.baseline, err) {
		return
	}
	b.spans.end(sp)
	setup := time.Since(t0)
	runtime.GC() // start every kernel from the same heap state
	b.probeHost(ctx, 1)

	want := kp.w.Ref(kp.n)
	var got [numSims]simStats
	var took [numSims]time.Duration
	for j := 0; j < numSims; j++ {
		i := (j + roundNo) % numSims
		s := sims[i]
		simName := b.tg.baseline
		if i < len(engines) {
			simName = engines[i].String()
		}
		label := "mix"
		if i == simEvent {
			label = "event"
		}
		var st simStats
		var d time.Duration
		pprof.Do(ctx, pprof.Labels("phase", label), func(context.Context) {
			sp := b.spans.begin("run."+simName+"."+name, phase, 0)
			// The allocation window holds the run alone, not the
			// label or span bookkeeping around it.
			var m0, m1 runtime.MemStats
			if i == simEvent {
				runtime.ReadMemStats(&m0)
			}
			start := time.Now()
			st, err = s.run()
			d = time.Since(start)
			if i == simEvent {
				runtime.ReadMemStats(&m1)
				r.mallocs += m1.Mallocs - m0.Mallocs
				r.bytes += m1.TotalAlloc - m0.TotalAlloc
			}
			b.spans.end(sp)
		})
		b.attempt()
		if !b.check(err == nil, "run %s/%s: %v", kp.w.Name, simName, err) {
			return
		}
		rep := s.reported()
		b.check(len(rep) > 0 && rep[len(rep)-1] == want,
			"%s/%s n=%d reported %x, want last value %#x", kp.w.Name, simName, kp.n, rep, want)
		got[i], took[i] = st, d
	}
	r.setup += setup
	for i := range got {
		r.cycles[i] += got[i].cycles
		r.wall[i] += took[i]
	}
	r.perKernel[name] = kernelRun{cycles: got[simEvent].cycles, wall: took[simEvent]}
	addCache(&r.icache, got[simEvent].icache)
	addCache(&r.dcache, got[simEvent].dcache)
	for i := 1; i < len(engines); i++ {
		b.check(got[i].cycles == got[simEvent].cycles,
			"%s: %v engine took %d cycles, event engine %d", kp.w.Name, engines[i], got[i].cycles, got[simEvent].cycles)
	}
	if prev, ok := res.kernelCycles[name]; ok {
		b.check(prev == got[simEvent].cycles, "%s: %d cycles, an earlier round took %d", kp.w.Name, got[simEvent].cycles, prev)
	} else {
		res.kernelCycles[name] = got[simEvent].cycles
	}
}

func addCache(dst *mem.CacheStats, s mem.CacheStats) {
	dst.Accesses += s.Accesses
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Evictions += s.Evictions
	dst.Writebacks += s.Writebacks
}

// counter is a Director.Tracer that counts committed transitions.
type counter struct{ n uint64 }

func (c *counter) Transition(uint64, *osm.Machine, *osm.Edge) { c.n++ }

// layerProbe holds the mix-side per-layer measurements taken outside
// the timed rounds.
type layerProbe struct {
	cycles, steps, transitions uint64
	issInstrs                  uint64
	issWall                    time.Duration
	// withRec and without are event-engine wall times over the same
	// kernels with and without a session-style osm.Recorder.
	withRec, without time.Duration
}

// probeLayers runs each kernel once more on the event engine with a
// counting tracer (transitions, director steps), runs the functional
// ISS alone, and times the event engine with and without a trace
// recorder. The cycle counts must match the timed rounds'.
func (b *bench) probeLayers(plans []kernelPlan, res *mixResult) layerProbe {
	var lp layerProbe
	for ki, kp := range plans {
		name := kernelName(kp.w)
		p, err := b.tg.assemble(kp.w, kp.n)
		if !b.check(err == nil, "assemble %s: %v", kp.w.Name, err) {
			continue
		}
		// Counting tracer.
		s, err := p.osm(osm.EngineEvent)
		if !b.check(err == nil, "build %s: %v", kp.w.Name, err) {
			continue
		}
		c := &counter{}
		s.director.Tracer = c
		st, err := s.run()
		b.attempt()
		if b.check(err == nil, "counted run %s: %v", kp.w.Name, err) {
			b.check(st.cycles == res.kernelCycles[name], "%s: counted run took %d cycles, timed rounds %d",
				kp.w.Name, st.cycles, res.kernelCycles[name])
			lp.cycles += st.cycles
			lp.steps += s.director.StepCount()
			lp.transitions += c.n
		}
		// ISS alone.
		t0 := time.Now()
		instrs, rep, err := p.iss()
		lp.issWall += time.Since(t0)
		b.attempt()
		if b.check(err == nil, "iss %s: %v", kp.w.Name, err) {
			want := kp.w.Ref(kp.n)
			b.check(len(rep) > 0 && rep[len(rep)-1] == want, "iss %s reported %x, want %#x", kp.w.Name, rep, want)
			lp.issInstrs += instrs
		}
		// Recorder cost: alternate which side runs first.
		for k := 0; k < 2; k++ {
			withRec := (k+ki)%2 == 0
			s, err := p.osm(osm.EngineEvent)
			if !b.check(err == nil, "build %s: %v", kp.w.Name, err) {
				break
			}
			if withRec {
				rec := osm.NewRecorder()
				rec.Limit = sessionTraceLimit
				s.director.Tracer = rec
			}
			runtime.GC()
			t0 := time.Now()
			st, err := s.run()
			d := time.Since(t0)
			b.attempt()
			if !b.check(err == nil && st.cycles == res.kernelCycles[name], "recorder run %s: %d cycles, err %v", kp.w.Name, st.cycles, err) {
				break
			}
			if withRec {
				lp.withRec += d
			} else {
				lp.without += d
			}
		}
	}
	return lp
}

// sessionTraceLimit is the server's default per-session trace
// retention, which the recorder-cost probe mirrors.
const sessionTraceLimit = 4096
