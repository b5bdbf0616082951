// Perfbench is the repository's benchmark: simulated cycles per host
// second under every execution engine on both case studies, against
// each case study's hand-written baseline, and session step latency,
// migration pause and artifact-store cost through an in-process
// osmgate fleet. README.md in this directory describes the workloads,
// the metrics and which layer each metric is meant to expose.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload strongarm --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 reports the per-layer metrics of a traced run,
// writes its spans and CPU profile, and reports the tracing overhead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef is one reported metric. The lists below are the contract
// with BENCHMARK.json: a run reports exactly these names.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"cycles_per_s", "1/s"},
	{"cycles_per_s.generated", "1/s"},
	{"cycles_per_s.compiled", "1/s"},
	{"cycles_per_s.scan", "1/s"},
	{"vs_baseline", "ratio"},
	{"allocs_per_kcycle", "count"},
	{"setup_s", "s"},
	{"step_wire_p50_us", "us"},
	{"step_wire_p90_us", "us"},
	{"step_http_p50_us", "us"},
	{"step_http_p90_us", "us"},
	{"session_cycles_per_s", "1/s"},
}

// tableKernels are the paper's Table 1 kernels, common to both case
// studies; each gets its own per-layer rate and cycle count.
var tableKernels = []string{"gsm-dec", "gsm-enc", "g721-dec", "g721-enc", "mpeg2-dec", "mpeg2-enc"}

func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"osm.ns_per_cycle", "ns"},
		{"osm.steps_per_cycle", "ratio"},
		{"osm.transitions_per_cycle", "ratio"},
		{"runtime.gc_share", "share"},
		{"alloc.bytes_per_kcycle", "bytes"},
		{"iss.ns_per_instr", "ns"},
		{"mem.icache_miss_rate", "ratio"},
		{"mem.dcache_miss_rate", "ratio"},
		{"sim.cycles", "count"},
		{"trace.recorder_cost", "ratio"},
		{"server.step_wire_p50_us", "us"},
		{"server.step_http_p50_us", "us"},
		{"gate.hop_wire_us", "us"},
		{"gate.hop_http_us", "us"},
		{"wire.hello_p50_us", "us"},
		{"http.healthz_p50_us", "us"},
		{"server.step_latency_p50_us", "us"},
		{"fabric.step_wire_p99_us", "us"},
		{"fabric.step_http_p99_us", "us"},
		{"fabric.migrate_pause_ms", "ms"},
		{"snap.snapshot_ms", "ms"},
		{"snap.restore_ms", "ms"},
		{"snap.bytes", "bytes"},
		{"store.put_ms", "ms"},
		{"store.at_ms", "ms"},
		{"store.new_bytes_ratio", "ratio"},
		{"store.chunks_per_put", "count"},
		{"trace.overhead.cycles_per_s", "ratio"},
		{"trace.overhead.step_wire_p50_us", "ratio"},
		{"trace.overhead.session_cycles_per_s", "ratio"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_share", "share"})
	}
	for _, k := range tableKernels {
		defs = append(defs, metricDef{"kernel." + k + ".cycles_per_s", "1/s"}, metricDef{"kernel." + k + ".cycles", "count"})
	}
	return defs
}

// bench is one benchmark run.
type bench struct {
	tg      *target
	seed    int64
	seconds time.Duration
	outDir  string
	spans   *spanLog    // non-nil only during a traced pass
	speeds  []float64   // host-speed probes of the current pass
	ref     []*refState // probeHost's working memory, one per goroutine

	attempted, failed atomic.Int64
	failMu            sync.Mutex
	failures          []string
}

// attempt counts one operation or check.
func (b *bench) attempt() { b.attempted.Add(1) }

// check records a failed correctness check; it returns ok.
func (b *bench) check(ok bool, format string, args ...any) bool {
	if !ok {
		b.failed.Add(1)
		msg := fmt.Sprintf(format, args...)
		b.failMu.Lock()
		if len(b.failures) < 50 {
			b.failures = append(b.failures, msg)
		}
		b.failMu.Unlock()
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", msg)
	}
	return ok
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "", "workload: strongarm | ppc750")
		seed         = flag.Int64("seed", 1, "input seed: kernel order and iteration counts, session kernels, request order, migration points")
		seconds      = flag.Int("seconds", 30, "measured seconds per run")
		traceMode    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		outDir       = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result, span and profile files")
	)
	flag.Parse()
	var tg *target
	switch *workloadName {
	case "strongarm":
		tg = strongARMTarget()
	case "ppc750":
		tg = ppc750Target()
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want strongarm or ppc750)\n", *workloadName)
		return 2
	}
	if *seconds < 1 || (*traceMode != 0 && *traceMode != 1) || flag.NArg() != 0 {
		flag.Usage()
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{tg: tg, seed: *seed, seconds: time.Duration(*seconds) * time.Second, outDir: *outDir}
	host := hostInfo(b, *traceMode)
	fmt.Println("host", host)

	var metrics map[string]float64
	var defs []metricDef
	var err error
	if *traceMode == 0 {
		defs = endToEnd
		var p *passResult
		if p, err = b.pass(b.seconds, false); err == nil {
			metrics = p.e2e
			p.print()
		}
	} else {
		defs = perLayerDefs()
		metrics, err = b.traced()
	}
	if err != nil {
		b.check(false, "%v", err)
	}

	rep := report{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !b.check(ok && !math.IsNaN(v) && !math.IsInf(v, 0), "metric %s not measured (%v)", d.name, v) {
			v = 0
		}
		rep.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Printf("metric %-40s %16.6g %s\n", d.name, v, d.unit)
	}
	rep.Attempted = max(b.attempted.Load(), 1)
	rep.Failed = b.failed.Load()
	rep.Correct = rep.Failed == 0
	fmt.Printf("failed_share %.6g (%d of %d operations and checks)\n", float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)

	if err := writeResult(b, *traceMode, host, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// hostInfo describes the machine and build, recorded with every
// result so that later runs compare like with like.
func hostInfo(b *bench, traceMode int) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+dirty"
				}
			}
		}
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"cpu": cpu, "commit": commit, "os": runtime.GOOS + "/" + runtime.GOARCH,
		"workload": b.tg.name, "seed": b.seed, "seconds": b.seconds.Seconds(), "trace": traceMode,
	}
}

// writeResult saves the report with its host record.
func writeResult(b *bench, traceMode int, host map[string]any, rep report) error {
	data, err := json.MarshalIndent(map[string]any{"host": host, "report": rep, "failures": b.failures}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(b.outPath(traceMode, "result.json"), data, 0o644)
}

func (b *bench) outPath(traceMode int, suffix string) string {
	return filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d-trace%d.%s", b.tg.name, b.seed, traceMode, suffix))
}

// passResult is one measured pass: the in-process mix, then the
// fabric.
type passResult struct {
	b            *bench
	plans        []kernelPlan // in-process mix
	sessionPlans []kernelPlan // fabric sessions
	mix          *mixResult
	fab          *fabricResult
	e2e          map[string]float64 // reference-host time
	hostE2E      map[string]float64 // the same in host time
	speeds       []float64          // host-speed probes
	spans        *spanLog           // traced passes only
}

// pass measures the mix for half of dur and the fabric for the other
// half, then checks the fabric's sessions and counters.
func (b *bench) pass(dur time.Duration, traced bool) (*passResult, error) {
	rng := rand.New(rand.NewSource(b.seed))
	b.speeds = nil
	p := &passResult{b: b, plans: planKernels(b.tg.kernels, b.tg.mixScale, rng)}
	p.sessionPlans = planKernels(b.tg.kernels, b.tg.sessionScale, rng)
	storeDir, err := os.MkdirTemp(b.outDir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)

	var prof *os.File
	if traced {
		p.spans = newSpanLog()
		b.spans = p.spans
		defer func() { b.spans = nil }()
		runtime.SetCPUProfileRate(profileHz)
		if prof, err = os.Create(b.outPath(1, "cpu.pprof")); err != nil {
			return nil, err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}
	ctx := context.Background()
	mixPhase := b.spans.begin("phase.mix", 0, 0)
	p.mix = b.runMix(ctx, p.plans, rng, time.Now().Add(dur/2), mixPhase)
	b.spans.end(mixPhase)

	fabPhase := b.spans.begin("phase.fabric", 0, 0)
	pprof.Do(ctx, pprof.Labels("phase", "fabric"), func(ctx context.Context) {
		p.fab, err = b.runFabric(ctx, p.sessionPlans, dur/2, fabPhase, storeDir)
	})
	b.spans.end(fabPhase)
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	b.verifyFabric(p.fab)
	b.reconcile(p.fab)
	p.speeds = b.speeds
	p.e2e, p.hostE2E = p.endToEnd(false), p.endToEnd(true)
	return p, nil
}

// profileHz is the traced pass's CPU sampling rate, above the 100 Hz
// default so that short phases still collect enough samples.
const profileHz = 250

// endToEnd computes the end-to-end metrics in reference-host time
// (see hostref.go), or with host set, in host time.
func (p *passResult) endToEnd(host bool) map[string]float64 {
	m := map[string]float64{}
	mix := p.mix
	names := []string{"cycles_per_s", "cycles_per_s.generated", "cycles_per_s.compiled", "cycles_per_s.scan"}
	for i, n := range names {
		m[n] = mix.medianOver(func(r *round) float64 {
			if host {
				return r.hostRate(i)
			}
			return r.rate(i)
		})
	}
	m["vs_baseline"] = mix.medianOver(func(r *round) float64 { return r.rate(simEvent) / r.rate(simBase) })
	m["allocs_per_kcycle"] = mix.medianOver(func(r *round) float64 { return float64(r.mallocs) / float64(r.cycles[simEvent]) * 1000 })

	fab := p.fab
	setups := make([]float64, len(fab.setup))
	for i, d := range fab.setup {
		setups[i] = d.Seconds()
	}
	m["setup_s"] = mix.medianOver(func(r *round) float64 { return r.setup.Seconds() * r.speed }) + median(setups)

	// h scales the fabric's rates and migration pauses, l its request
	// latencies.
	h, l := fab.speed, durUS(refRTTNominal)/fab.rtt
	if host {
		h, l = 1, 1
	}
	var migrate []float64
	var bulkCycles uint64
	var bulkWall time.Duration
	for _, c := range fab.clients {
		// Step latency quantiles are taken per round, then the median
		// over rounds, so one disturbed round does not move them.
		var p50, p90, p99 []float64
		for _, xs := range c.step1 {
			p50 = append(p50, quantile(xs, 0.5)*l)
			p90 = append(p90, quantile(xs, 0.9)*l)
			p99 = append(p99, quantile(xs, 0.99)*l)
		}
		m["step_"+c.plane+"_p50_us"] = median(p50)
		m["step_"+c.plane+"_p90_us"] = median(p90)
		m["fabric.step_"+c.plane+"_p99_us"] = median(p99)
		for _, x := range c.migrate {
			migrate = append(migrate, x*h)
		}
		bulkCycles += c.bulkCycles
		bulkWall += scale(c.bulkWall, h)
	}
	m["session_cycles_per_s"] = float64(bulkCycles) / bulkWall.Seconds()
	m["fabric.migrate_pause_ms"] = median(migrate)
	return m
}

// print writes the per-kernel and per-engine detail lines.
func (p *passResult) print() {
	for _, kp := range p.plans {
		name := kernelName(kp.w)
		rates := make([]float64, len(p.mix.rounds))
		for i := range p.mix.rounds {
			r := &p.mix.rounds[i]
			k := r.perKernel[name]
			rates[i] = float64(k.cycles) / k.wall.Seconds() / r.speed
		}
		fmt.Printf("kernel %-12s n=%-5d cycles=%-8d event_cycles_per_s=%.0f\n", kp.w.Name, kp.n, p.mix.kernelCycles[name], median(rates))
	}
	for i := range p.mix.rounds {
		r := &p.mix.rounds[i]
		fmt.Printf("round %d cycles_per_s event=%.0f generated=%.0f compiled=%.0f scan=%.0f %s=%.0f\n", i, r.rate(0), r.rate(1), r.rate(2), r.rate(3), p.b.tg.baseline, r.rate(4))
	}
	fmt.Printf("baseline %s cycles_per_s=%.0f\n", p.b.tg.baseline, p.mix.medianOver(func(r *round) float64 { return r.rate(simBase) }))
	steps := map[string]int{}
	var migrations int
	for _, c := range p.fab.clients {
		for _, xs := range c.step1 {
			steps[c.plane] += len(xs)
		}
		migrations += len(c.migrate)
	}
	fmt.Printf("samples mix_rounds=%d step_wire=%d step_http=%d migrations=%d\n",
		len(p.mix.rounds), steps["wire"], steps["http"], migrations)
	fmt.Printf("host_speed median=%.4f min=%.4f max=%.4f over %d probes (1 = the reference host)\n",
		median(p.speeds), slices.Min(p.speeds), slices.Max(p.speeds), len(p.speeds))
	for _, d := range endToEnd {
		if v, ok := p.hostE2E[d.name]; ok && d.name != "setup_s" {
			fmt.Printf("host_time %-34s %16.6g %s\n", d.name, v, d.unit)
		}
	}
	for _, d := range []metricDef{{"fabric.step_wire_p99_us", "us"}, {"fabric.step_http_p99_us", "us"}, {"fabric.migrate_pause_ms", "ms"}} {
		fmt.Printf("fabric %s %.6g %s (host time %.6g %s)\n", d.name, p.e2e[d.name], d.unit, p.hostE2E[d.name], d.unit)
	}
}

// traced runs an untraced pass and a traced pass of half the run
// length each with the same seed, and returns the per-layer metrics
// plus the traced/untraced ratios of three end-to-end metrics.
func (b *bench) traced() (map[string]float64, error) {
	plain, err := b.pass(b.seconds/2, false)
	if err != nil {
		return nil, err
	}
	tp, err := b.pass(b.seconds/2, true)
	if err != nil {
		return nil, err
	}
	// The traced run must simulate exactly what the untraced run did.
	for name, c := range plain.mix.kernelCycles {
		b.attempt()
		b.check(tp.mix.kernelCycles[name] == c, "%s: traced run took %d cycles, untraced %d", name, tp.mix.kernelCycles[name], c)
	}
	// Overheads compare reference-host time, so host drift between
	// the passes cancels. The probes pay the profiler's signal cost
	// too, which this hides; the spans' cost it does not.
	m := map[string]float64{}
	for _, n := range []string{"cycles_per_s", "step_wire_p50_us", "session_cycles_per_s"} {
		m["trace.overhead."+n] = tp.e2e[n] / plain.e2e[n]
	}

	// h converts the probes' host times below to reference-host time.
	h := median(tp.speeds)
	gz, err := os.ReadFile(b.outPath(1, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	prof, err := summarize(gz)
	if err != nil {
		return nil, err
	}
	sum := 0.0
	for _, l := range layers {
		m[l+".self_share"] = prof.share(l)
		sum += prof.share(l)
	}
	b.attempt()
	b.check(math.Abs(sum-1) < 1e-9, "profile layer shares sum to %v, want 1", sum)
	m["runtime.gc_share"] = float64(prof.gc) / float64(prof.total)

	mix := tp.mix
	var eventCycles uint64
	for i := range mix.rounds {
		eventCycles += mix.rounds[i].cycles[simEvent]
	}
	m["osm.ns_per_cycle"] = float64(prof.byPhase["event"]["osm"]) / float64(eventCycles) * h
	m["alloc.bytes_per_kcycle"] = mix.medianOver(func(r *round) float64 { return float64(r.bytes) / float64(r.cycles[simEvent]) * 1000 })
	r0 := &mix.rounds[0]
	for i := range mix.rounds {
		r := &mix.rounds[i]
		b.check(r.icache == r0.icache && r.dcache == r0.dcache, "round %d: simulated cache statistics differ from round 0", i)
	}
	m["mem.icache_miss_rate"] = float64(r0.icache.Misses) / float64(r0.icache.Accesses)
	m["mem.dcache_miss_rate"] = float64(r0.dcache.Misses) / float64(r0.dcache.Accesses)
	var simCycles uint64
	for _, c := range mix.kernelCycles {
		simCycles += c
	}
	m["sim.cycles"] = float64(simCycles)
	for _, k := range tableKernels {
		m["kernel."+k+".cycles"] = float64(mix.kernelCycles[k])
		m["kernel."+k+".cycles_per_s"] = mix.medianOver(func(r *round) float64 {
			kr, ok := r.perKernel[k]
			if !ok {
				return math.NaN()
			}
			return float64(kr.cycles) / kr.wall.Seconds() / r.speed
		})
	}

	lp := b.probeLayers(tp.plans, mix)
	m["osm.steps_per_cycle"] = float64(lp.steps) / float64(lp.cycles)
	m["osm.transitions_per_cycle"] = float64(lp.transitions) / float64(lp.cycles)
	m["iss.ns_per_instr"] = float64(lp.issWall.Nanoseconds()) / float64(lp.issInstrs) * h
	m["trace.recorder_cost"] = lp.without.Seconds() / lp.withRec.Seconds()

	// Request latencies are scaled by the latency reference, as the
	// step latencies they break down are.
	l := durUS(refRTTNominal) / tp.fab.rtt
	probe := tp.fab.probe
	m["server.step_wire_p50_us"] = median(probe["server.step.wire"]) * l
	m["server.step_http_p50_us"] = median(probe["server.step.http"]) * l
	m["gate.hop_wire_us"] = median(probe["gate.step.wire"])*l - m["server.step_wire_p50_us"]
	m["gate.hop_http_us"] = median(probe["gate.step.http"])*l - m["server.step_http_p50_us"]
	m["wire.hello_p50_us"] = median(probe["wire.hello"]) * l
	m["http.healthz_p50_us"] = median(probe["http.healthz"]) * l
	m["server.step_latency_p50_us"] = tp.fab.stepP50 * l
	for _, n := range []string{"fabric.step_wire_p99_us", "fabric.step_http_p99_us", "fabric.migrate_pause_ms"} {
		m[n] = tp.e2e[n]
	}

	snapMS, restoreMS, snapBytes := b.probeSnapshots(tp.sessionPlans)
	m["snap.snapshot_ms"], m["snap.restore_ms"], m["snap.bytes"] = snapMS*h, restoreMS*h, snapBytes
	var newBytes, blobBytes int64
	var chunks, puts int
	var put, at []float64
	for _, c := range tp.fab.clients {
		put = append(put, c.put...)
		at = append(at, c.at...)
		for i, ps := range c.putStats {
			newBytes += ps.NewBytes
			blobBytes += int64(c.snapBytes[i])
			chunks += ps.Chunks
			puts++
		}
	}
	m["store.new_bytes_ratio"] = float64(newBytes) / float64(blobBytes)
	m["store.chunks_per_put"] = float64(chunks) / float64(puts)
	m["store.put_ms"] = median(put) * h
	m["store.at_ms"] = median(at) * h
	fmt.Printf("store %d puts: Put writes each new chunk and the index as temp file + rename, without fsync, so store.put_ms is page-cache and file-system metadata cost\n", puts)

	for _, st := range tp.spans.summary() {
		fmt.Printf("span %-40s count=%-7d busy=%.4fs self=%.4fs\n", st.Name, st.Count, st.Busy.Seconds(), st.Self.Seconds())
	}
	f, err := os.Create(b.outPath(1, "spans.jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := tp.spans.writeJSONL(f); err != nil {
		return nil, err
	}
	return m, f.Close()
}
