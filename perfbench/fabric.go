package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/gate"
	"repro/internal/osm"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/internal/workload"
)

// ---- the fleet: two workers behind one gateway, over loopback TCP ----

type worker struct {
	id       string
	mgr      *server.Manager
	hs       *http.Server
	ws       *server.WireServer
	lns      []net.Listener
	wg       sync.WaitGroup
	url      string
	wireAddr string
}

func startWorker(id string) (*worker, error) {
	w := &worker{id: id}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hl.Close()
		return nil, err
	}
	w.lns = []net.Listener{hl, wl}
	w.mgr = server.NewManager(server.Config{IdleTimeout: -1})
	w.mgr.Start()
	w.hs = &http.Server{Handler: w.mgr.Handler(), ReadHeaderTimeout: 10 * time.Second}
	w.ws = server.NewWireServer(w.mgr)
	w.url = "http://" + hl.Addr().String()
	w.wireAddr = wl.Addr().String()
	w.wg.Add(2)
	go func() { defer w.wg.Done(); w.hs.Serve(hl) }()
	go func() { defer w.wg.Done(); w.ws.Serve(wl) }()
	return w, nil
}

func (w *worker) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.ws.Shutdown(ctx)
	w.hs.Shutdown(ctx)
	for _, ln := range w.lns {
		ln.Close() // Serve may not have installed it before Shutdown ran
	}
	w.wg.Wait()
	w.mgr.Close()
}

type fleet struct {
	workers  []*worker
	g        *gate.Gateway
	hs       *http.Server
	wp       *gate.WireProxy
	lns      []net.Listener
	wg       sync.WaitGroup
	url      string
	wireAddr string
}

// startFleet brings up the workers and the gateway and registers the
// workers over the gateway's HTTP registration endpoint.
func startFleet() (*fleet, error) {
	f := &fleet{}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hl.Close()
		return nil, err
	}
	f.lns = []net.Listener{hl, wl}
	f.g = gate.New(gate.Config{})
	f.g.Start()
	f.hs = &http.Server{Handler: f.g.Handler(), ReadHeaderTimeout: 10 * time.Second}
	f.wp = gate.NewWireProxy(f.g)
	f.url = "http://" + hl.Addr().String()
	f.wireAddr = wl.Addr().String()
	f.wg.Add(2)
	go func() { defer f.wg.Done(); f.hs.Serve(hl) }()
	go func() { defer f.wg.Done(); f.wp.Serve(wl) }()
	for _, id := range []string{"w1", "w2"} {
		w, err := startWorker(id)
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, w)
		if err := gate.RegisterWorker(f.url, id, w.url, w.wireAddr, 5*time.Second); err != nil {
			f.close()
			return nil, fmt.Errorf("registering %s: %w", id, err)
		}
	}
	return f, nil
}

func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.wp.Shutdown(ctx)
	f.hs.Shutdown(ctx)
	for _, ln := range f.lns {
		ln.Close()
	}
	f.wg.Wait()
	f.g.Close()
	for _, w := range f.workers {
		w.close()
	}
}

func (f *fleet) worker(id string) *worker {
	for _, w := range f.workers {
		if w.id == id {
			return w
		}
	}
	return nil
}

// ---- HTTP helpers ----

// newHTTPClient returns a client that holds at most one connection.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// do issues one request and returns status, headers and body.
func do(hc *http.Client, method, url string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// doJSON issues a request with a JSON body and decodes a 2xx JSON
// response into out.
func doJSON(hc *http.Client, method, url string, in, out any) (http.Header, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return nil, err
		}
	}
	status, hdr, data, err := do(hc, method, url, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if status/100 != 2 {
		return hdr, fmt.Errorf("%s %s: status %d: %s", method, url, status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return hdr, fmt.Errorf("%s %s: %w", method, url, err)
		}
	}
	return hdr, nil
}

// ---- sessions and clients ----

// session is one live fabric session, owned by one client. The other
// client may migrate it; busy counts such migrations in flight so the
// owner never deletes a session mid-migration.
type session struct {
	id    string
	spec  runner.Spec
	cycle uint64 // as last reported by a step
	busy  int
}

// observation is a session's state as the fabric reported it,
// checked afterwards against an in-process run of the same spec.
type observation struct {
	spec     runner.Spec
	cycle    uint64
	checksum string
	regs     []runner.Reg
	done     bool
}

// registry lists each client's current sessions for the other
// client's migrations.
type registry struct {
	mu    sync.Mutex
	cond  *sync.Cond
	owned [][]*session
}

func newRegistry(clients int) *registry {
	r := &registry{owned: make([][]*session, clients)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// borrow marks one of owner's sessions busy and returns it.
func (r *registry) borrow(owner int, pick int) *session {
	r.mu.Lock()
	defer r.mu.Unlock()
	ss := r.owned[owner]
	if len(ss) == 0 {
		return nil
	}
	s := ss[pick%len(ss)]
	s.busy++
	return s
}

func (r *registry) giveBack(s *session) {
	r.mu.Lock()
	s.busy--
	r.mu.Unlock()
	r.cond.Broadcast()
}

// replace swaps old for next in owner's list once no migration of old
// is in flight.
func (r *registry) replace(owner int, old, next *session) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for old.busy > 0 {
		r.cond.Wait()
	}
	for i, s := range r.owned[owner] {
		if s == old {
			r.owned[owner][i] = next
		}
	}
}

// client is one closed-loop client: it sends its next request only
// after the previous one completes.
type client struct {
	b     *bench
	f     *fleet
	idx   int
	plane string // "wire" or "http": the plane its steps take
	rng   *rand.Rand
	hc    *http.Client
	wc    *wire.Client
	reg   *registry
	st    *store.Store
	plans []kernelPlan
	phase int64

	step1      [][]float64 // 1-cycle step latency per round, µs
	bulkCycles uint64
	bulkWall   time.Duration
	migrate    []float64 // ms
	put, at    []float64 // ms

	putStats  []store.PutStats
	snapBytes []int

	// Counts to reconcile against the servers' /metrics: requests
	// through the gateway per plane, and wire frames sent straight to
	// a worker.
	steps, cycles, gwWire, gwHTTP, direct, migrations uint64

	obs []observation

	// nextMigrate counts this client's migrations of the other
	// client's sessions, which it takes in turn.
	nextMigrate int
}

// bulkCycles is the size of a bulk step.
const bulkCycles = 10_000

// fabricRounds splits the fabric phase into rounds. A round runs
// both clients at once through three sub-phases, one request kind
// each: 1-cycle steps for a fixed time (step_*_us), then a fixed
// number of bulk steps (session_cycles_per_s) and of forced
// migrations (fabric.migrate_pause_ms) per client. After the last round a
// fixed number of checkpoints per client exercises the store.
//
// Keeping one request kind per sub-phase keeps the rare expensive
// ones out of the step-latency tail, and repeating short sub-phases
// spreads slow drift in the host over all of them alike. Bounding
// the bulk, migration and checkpoint sub-phases by count rather than
// time leaves every run of a seed with its sessions in the same
// states, so a migration moves the same snapshot sizes each run.
// Checkpoints come last because the store writes many small files
// without fsync, and the kernel's writeback of them would slow
// whichever sub-phase came next.
const fabricRounds = 10

// latencyShare is the part of the fabric phase spent on 1-cycle steps.
const latencyShare = 0.5

// newSession creates a session of one kernel through the gateway.
func (c *client) newSession(kp kernelPlan) (*session, error) {
	spec := runner.Spec{Target: c.b.tg.name, Workload: kp.w.Name, N: kp.n}
	var info server.Info
	c.gwHTTP++
	if _, err := doJSON(c.hc, "POST", c.f.url+"/v1/sessions", server.CreateRequest{Spec: spec}, &info); err != nil {
		return nil, err
	}
	return &session{id: info.ID, spec: spec}, nil
}

// stepResult is the common part of a step answer on either plane.
type stepResult struct {
	stepped, cycle uint64
	done           bool
	reported       []uint32
}

func (c *client) step(s *session, n uint64, viaWire bool) (stepResult, error) {
	if viaWire {
		c.gwWire++
		resp, err := c.wc.Step(s.id, n, 0)
		if err != nil {
			return stepResult{}, err
		}
		return stepResult{resp.Stepped, resp.Cycle, resp.Done, resp.Reported}, nil
	}
	c.gwHTTP++
	var res server.StepResult
	if _, err := doJSON(c.hc, "POST", c.f.url+"/v1/sessions/"+s.id+"/step", server.StepRequest{Cycles: n}, &res); err != nil {
		return stepResult{}, err
	}
	out := stepResult{stepped: res.Stepped, cycle: res.Cycle, done: res.Done}
	if res.Result != nil {
		out.reported = res.Result.Reported
	}
	return out, nil
}

// doStep steps one session, checks the answer and, when the run
// completes, records it and replaces the session.
func (c *client) doStep(slot int, n uint64) {
	s := c.reg.owned[c.idx][slot] // only this client writes its own slots
	req := c.b.spans.newReq()
	sp := c.b.spans.begin("gate.step."+c.plane, c.phase, req)
	t0 := time.Now()
	res, err := c.step(s, n, c.plane == "wire")
	d := time.Since(t0)
	c.b.spans.end(sp)
	c.b.attempt()
	c.steps++
	if !c.b.check(err == nil, "step %s: %v", s.id, err) {
		return
	}
	c.cycles += res.stepped
	c.b.check(res.stepped <= n && res.cycle == s.cycle+res.stepped,
		"step %s by %d: stepped %d to cycle %d, from cycle %d", s.id, n, res.stepped, res.cycle, s.cycle)
	s.cycle = res.cycle
	switch n {
	case 1:
		c.step1[len(c.step1)-1] = append(c.step1[len(c.step1)-1], durUS(d))
	case bulkCycles:
		c.bulkCycles += res.stepped
		c.bulkWall += d
	}
	if !res.done {
		c.b.check(res.stepped == n, "step %s: stepped %d of %d before completion", s.id, res.stepped, n)
		return
	}
	c.observe(s, true, res.reported)
	next, err := c.newSession(c.plans[slot]) // the same kernel, so every kernel stays live
	c.b.attempt()
	if !c.b.check(err == nil, "create: %v", err) {
		return
	}
	c.warm(next)
	c.reg.replace(c.idx, s, next)
	c.gwHTTP++
	_, err = doJSON(c.hc, "DELETE", c.f.url+"/v1/sessions/"+s.id, nil, nil)
	c.b.attempt()
	c.b.check(err == nil, "delete %s: %v", s.id, err)
}

// warmCycles is how far a new session runs before the clients use
// it. A session's snapshot carries its trace recorder, whose retained
// window fills within its first thousand or so cycles; until then the
// session migrates several times faster than one in steady state.
const warmCycles = 5000

// warm runs a new session warmCycles cycles over HTTP.
func (c *client) warm(s *session) {
	var res server.StepResult
	c.gwHTTP++
	c.steps++
	_, err := doJSON(c.hc, "POST", c.f.url+"/v1/sessions/"+s.id+"/step", server.StepRequest{Cycles: warmCycles}, &res)
	c.b.attempt()
	if c.b.check(err == nil && res.Stepped == warmCycles && res.Cycle == warmCycles && !res.Done,
		"warm %s: stepped %d to %d (done %v): %v", s.id, res.Stepped, res.Cycle, res.Done, err) {
		s.cycle = res.Cycle
		c.cycles += res.Stepped
	}
}

// observe records a session's cycle, trace checksum and registers as
// the fabric reports them.
func (c *client) observe(s *session, done bool, reported []uint32) {
	var info server.Info
	c.gwHTTP++
	_, err := doJSON(c.hc, "GET", c.f.url+"/v1/sessions/"+s.id, nil, &info)
	c.b.attempt()
	if !c.b.check(err == nil, "info %s: %v", s.id, err) {
		return
	}
	var regs []runner.Reg
	if c.plane == "wire" {
		c.gwWire++
		resp, err := c.wc.Registers(s.id)
		c.b.attempt()
		if !c.b.check(err == nil, "wire registers %s: %v", s.id, err) {
			return
		}
		for _, r := range resp.Regs {
			regs = append(regs, runner.Reg{Name: r.Name, Value: r.Value})
		}
	} else {
		var out struct {
			Registers []runner.Reg `json:"registers"`
		}
		c.gwHTTP++
		_, err := doJSON(c.hc, "GET", c.f.url+"/v1/sessions/"+s.id+"/registers", nil, &out)
		c.b.attempt()
		if !c.b.check(err == nil, "registers %s: %v", s.id, err) {
			return
		}
		regs = out.Registers
	}
	c.b.check(info.Cycle == s.cycle && info.Done == done, "info %s: cycle %d done %v, client saw cycle %d done %v",
		s.id, info.Cycle, info.Done, s.cycle, done)
	if done {
		want := workload.ByName(s.spec.Workload).Ref(s.spec.N)
		c.b.check(len(reported) > 0 && reported[len(reported)-1] == want,
			"session %s (%s n=%d) reported %x, want last value %#x", s.id, s.spec.Workload, s.spec.N, reported, want)
	}
	c.obs = append(c.obs, observation{spec: s.spec, cycle: info.Cycle, checksum: info.TraceChecksum,
		regs: regs, done: done})
}

// migrateOther forces a migration of the other client's next session
// in turn through the gateway's admin endpoint. Taking the sessions
// in turn migrates every kernel equally often; a kernel's snapshot
// size, and so its pause, differs from the next one's.
func (c *client) migrateOther() {
	c.nextMigrate++
	s := c.reg.borrow(1-c.idx, c.nextMigrate)
	if s == nil {
		return
	}
	defer c.reg.giveBack(s)
	sp := c.b.spans.begin("gate.migrate", c.phase, c.b.spans.newReq())
	var out struct{ From, To string }
	t0 := time.Now()
	_, err := doJSON(c.hc, "POST", c.f.url+"/v1/admin/migrate", map[string]string{"session": s.id}, &out)
	d := time.Since(t0)
	c.b.spans.end(sp)
	c.b.attempt()
	c.migrations++
	if c.b.check(err == nil, "migrate %s: %v", s.id, err) {
		c.b.check(out.From != out.To && out.To != "", "migrate %s: %q -> %q", s.id, out.From, out.To)
		c.migrate = append(c.migrate, durMS(d))
	}
}

// checkpointCycles is how far a session advances between two of its
// checkpoints, so every Put stores a new state that shares most of its
// chunks with the session's previous checkpoint.
const checkpointCycles = 2000

// checkpoint advances a session, downloads its snapshot through the
// gateway, stores it, and reads it back.
func (c *client) checkpoint(slot int) {
	c.doStep(slot, checkpointCycles)
	s := c.reg.owned[c.idx][slot]
	req := c.b.spans.newReq()
	op := c.b.spans.begin("client.checkpoint", c.phase, req)
	defer c.b.spans.end(op)
	sp := c.b.spans.begin("gate.snapshot", op, req)
	c.gwHTTP++
	status, hdr, blob, err := do(c.hc, "GET", c.f.url+"/v1/sessions/"+s.id+"/snapshot", nil)
	c.b.spans.end(sp)
	c.b.attempt()
	if !c.b.check(err == nil && status == http.StatusOK, "snapshot %s: status %d: %v", s.id, status, err) {
		return
	}
	cycle, err := strconv.ParseUint(hdr.Get("X-Osm-Cycle"), 10, 64)
	if !c.b.check(err == nil && cycle == s.cycle, "snapshot %s at cycle %q, client saw %d", s.id, hdr.Get("X-Osm-Cycle"), s.cycle) {
		return
	}
	c.snapBytes = append(c.snapBytes, len(blob))

	sp = c.b.spans.begin("store.put", op, req)
	t0 := time.Now()
	ps, err := c.st.Put(s.id, cycle, blob)
	d := time.Since(t0)
	c.b.spans.end(sp)
	c.b.attempt()
	if !c.b.check(err == nil, "store put %s@%d: %v", s.id, cycle, err) {
		return
	}
	c.put = append(c.put, durMS(d))
	c.putStats = append(c.putStats, ps)

	sp = c.b.spans.begin("store.at", op, req)
	t0 = time.Now()
	e, back, err := c.st.At(s.id, cycle)
	d = time.Since(t0)
	c.b.spans.end(sp)
	c.b.attempt()
	if !c.b.check(err == nil, "store at %s@%d: %v", s.id, cycle, err) {
		return
	}
	c.at = append(c.at, durMS(d))
	c.b.check(e.Cycle == cycle && bytes.Equal(back, blob), "store at %s@%d returned %d bytes at cycle %d, put %d bytes",
		s.id, cycle, len(back), e.Cycle, len(blob))
}

// latency is the client's closed loop of 1-cycle steps until the
// deadline, recorded as one round of samples. The seeded rng picks
// the session each request targets.
func (c *client) latency(deadline time.Time) {
	c.step1 = append(c.step1, nil)
	for time.Now().Before(deadline) {
		c.doStep(c.rng.Intn(len(c.plans)), 1)
	}
}

// repeat runs op n times on sessions the seeded rng picks.
func (c *client) repeat(n int, op func(slot int)) {
	for i := 0; i < n; i++ {
		op(c.rng.Intn(len(c.plans)))
	}
}

// runClients runs fn for every client concurrently and returns
// when all are done, with the time they took.
func runClients(clients []*client, fn func(c *client)) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
	return time.Since(t0)
}

// fabricResult is the fabric phase's measurement.
type fabricResult struct {
	setup   []time.Duration // reference-host time
	clients []*client
	// speed is the host speed over the phase and rtt the median
	// rttRef round trip, µs (see hostref.go); the clients' samples
	// are host times.
	speed, rtt float64
	// Direct-versus-gateway probe (traced passes only), µs.
	probe map[string][]float64
	// Counter reconciliation inputs.
	metrics map[string]float64 // summed over workers, plus gateway
	stepP50 float64            // worker step-latency histogram p50, µs
}

// setupReps is how many times the fleet is brought up for the set-up
// time; the last one is measured.
const setupReps = 5

// runFabric brings the fleet up setupReps times (timing each), then
// runs two closed-loop clients, one per plane, through fabricRounds
// rounds and the closing checkpoints, about dur in all.
func (b *bench) runFabric(ctx context.Context, plans []kernelPlan, dur time.Duration, phase int64, storeDir string) (*fabricResult, error) {
	res := &fabricResult{}
	var f *fleet
	var clients []*client
	for rep := 0; rep < setupReps; rep++ {
		if f != nil {
			closeClients(clients)
			f.close()
		}
		probes := len(b.speeds)
		b.probeHost(ctx, 1)
		sp := b.spans.begin("setup.fleet", phase, 0)
		t0 := time.Now()
		var err error
		f, clients, err = b.setupFleet(plans, phase, storeDir)
		res.setup = append(res.setup, scale(time.Since(t0), b.speedSince(probes)))
		b.spans.end(sp)
		b.attempt()
		if err != nil {
			b.check(false, "fleet set-up: %v", err)
			if f != nil {
				closeClients(clients)
				f.close()
			}
			return nil, err
		}
	}
	defer f.close()
	defer closeClients(clients)
	ref, err := startRTTRef()
	if err != nil {
		b.check(false, "latency reference: %v", err)
		return nil, err
	}
	defer ref.close()

	for _, c := range clients {
		for _, s := range c.reg.owned[c.idx] {
			c.warm(s)
		}
	}
	tg := b.tg
	perRound := func(rate float64) int { return max(1, int(math.Round(rate*dur.Seconds()/fabricRounds))) }
	nBulk, nMigrate := perRound(tg.bulkRate), perRound(tg.migrateRate)
	// Host-speed probes run between sub-phases, while the clients
	// wait, on as many goroutines as there are clients. The fabric's
	// rates and migration pauses are scaled by the median of all of
	// them, so only the slow drift is taken out; its request latencies
	// by the median rttRef probe, one after each latency sub-phase.
	fabricProbes := len(b.speeds)
	n := len(clients)
	var rtts []float64
	for r := 0; r < fabricRounds; r++ {
		b.probeHost(ctx, n)
		deadline := time.Now().Add(time.Duration(float64(dur) * latencyShare / fabricRounds))
		runClients(clients, func(c *client) { c.latency(deadline) })
		rtt, err := ref.probe(ctx)
		b.attempt()
		if !b.check(err == nil, "latency reference: %v", err) {
			return nil, err
		}
		rtts = append(rtts, rtt)
		b.probeHost(ctx, n)
		var wall0 [2]time.Duration
		var bulk0 [2]uint64
		var mig0 [2]int
		for i, c := range clients {
			wall0[i], bulk0[i], mig0[i] = c.bulkWall, c.bulkCycles, len(c.migrate)
		}
		bulkT := runClients(clients, func(c *client) { c.repeat(nBulk, func(slot int) { c.doStep(slot, bulkCycles) }) })
		b.probeHost(ctx, n)
		migT := runClients(clients, func(c *client) { c.repeat(nMigrate, func(int) { c.migrateOther() }) })
		b.probeHost(ctx, n)
		line := fmt.Sprintf("fabric round %d (host speed %.3f, reference round trip %.1fus):", r, b.speedSince(len(b.speeds)-12), rtt)
		for i, c := range clients {
			xs := c.step1[len(c.step1)-1]
			line += fmt.Sprintf(" %s step p50=%.1fus p99=%.1fus n=%d, bulk %.0f cycles/s, migrate p50=%.2fms;", c.plane,
				quantile(xs, 0.5), quantile(xs, 0.99), len(xs), float64(c.bulkCycles-bulk0[i])/(c.bulkWall-wall0[i]).Seconds(),
				median(append([]float64(nil), c.migrate[mig0[i]:]...)))
		}
		fmt.Printf("%s bulk %.2fs, migrate %.2fs\n", line, bulkT.Seconds(), migT.Seconds())
	}
	nCheckpoint := max(1, int(math.Round(tg.checkpointRate*dur.Seconds())))
	ckT := runClients(clients, func(c *client) { c.repeat(nCheckpoint, c.checkpoint) })
	res.speed = b.speedSince(fabricProbes)
	res.rtt = median(rtts)
	fmt.Printf("fabric checkpoints: %d per client in %.2fs\n", nCheckpoint, ckT.Seconds())
	res.clients = clients

	if b.spans != nil {
		res.probe = b.probeHops(f, clients[0], phase)
	}
	for _, c := range clients {
		for _, s := range c.reg.owned[c.idx] {
			c.observe(s, false, nil)
		}
	}
	res.metrics, res.stepP50 = b.scrape(f)
	return res, nil
}

// setupFleet starts a fleet and the two clients, each with one
// session per kernel created through the gateway.
func (b *bench) setupFleet(plans []kernelPlan, phase int64, storeDir string) (*fleet, []*client, error) {
	f, err := startFleet()
	if err != nil {
		return nil, nil, err
	}
	reg := newRegistry(2)
	var clients []*client
	for i, plane := range []string{"wire", "http"} {
		// Each client checkpoints into a store of its own: the store
		// serializes Put and At behind one mutex, and a shared store
		// would time one client's Put waiting on the other's.
		st, err := store.Open(filepath.Join(storeDir, plane), store.Options{})
		if err != nil {
			return f, clients, err
		}
		c := &client{b: b, f: f, idx: i, plane: plane, reg: reg, st: st, plans: plans, phase: phase,
			rng: rand.New(rand.NewSource(b.seed*7919 + int64(i))), hc: newHTTPClient()}
		c.nextMigrate = c.rng.Intn(len(plans))
		clients = append(clients, c)
		if plane == "wire" {
			if c.wc, err = wire.Dial(f.wireAddr); err != nil {
				return f, clients, err
			}
			c.wc.Timeout = 60 * time.Second
		}
		for _, kp := range plans {
			s, err := c.newSession(kp)
			if err != nil {
				return f, clients, err
			}
			reg.owned[i] = append(reg.owned[i], s)
		}
	}
	return f, clients, nil
}

func closeClients(cs []*client) {
	for _, c := range cs {
		if c.wc != nil {
			c.wc.Close()
		}
		c.hc.CloseIdleConnections()
	}
}

// hopProbeRounds is how many times the traced pass sends each probe
// request.
const hopProbeRounds = 300

// probeHops sends 1-cycle steps to one session alternately through
// the gateway and straight to its worker, on both planes, plus the
// transport floors (wire hello and HTTP /healthz answered by the
// gateway itself). One client, nothing else running.
func (b *bench) probeHops(f *fleet, c *client, phase int64) map[string][]float64 {
	out := map[string][]float64{}
	s, err := c.newSession(c.plans[0])
	b.attempt()
	if !b.check(err == nil, "probe session: %v", err) {
		return out
	}
	c.gwHTTP++
	hdr, err := doJSON(c.hc, "GET", f.url+"/v1/sessions/"+s.id, nil, nil)
	b.attempt()
	if !b.check(err == nil, "probe session info: %v", err) {
		return out
	}
	w := f.worker(hdr.Get(gate.WorkerHeader))
	if !b.check(w != nil, "probe session on unknown worker %q", hdr.Get(gate.WorkerHeader)) {
		return out
	}
	dw, err := wire.Dial(w.wireAddr)
	if !b.check(err == nil, "dial worker wire: %v", err) {
		return out
	}
	defer dw.Close()
	dh := newHTTPClient()
	defer dh.CloseIdleConnections()

	time1 := func(name string, fn func() error) {
		sp := b.spans.begin(name, phase, b.spans.newReq())
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		b.spans.end(sp)
		b.attempt()
		if b.check(err == nil, "%s: %v", name, err) {
			out[name] = append(out[name], durUS(d))
		}
	}
	stepWire := func(wc *wire.Client) func() error {
		return func() error {
			r, err := wc.Step(s.id, 1, 0)
			if err == nil && r.Stepped != 1 {
				err = fmt.Errorf("stepped %d", r.Stepped)
			}
			s.cycle += r.Stepped
			c.steps++
			c.cycles += r.Stepped
			return err
		}
	}
	stepHTTP := func(hc *http.Client, base string) func() error {
		return func() error {
			var r server.StepResult
			_, err := doJSON(hc, "POST", base+"/v1/sessions/"+s.id+"/step", server.StepRequest{Cycles: 1}, &r)
			if err == nil && r.Stepped != 1 {
				err = fmt.Errorf("stepped %d", r.Stepped)
			}
			s.cycle += r.Stepped
			c.steps++
			c.cycles += r.Stepped
			return err
		}
	}
	probes := []struct {
		name string
		fn   func() error
	}{
		{"gate.step.wire", stepWire(c.wc)},
		{"server.step.wire", stepWire(dw)},
		{"gate.step.http", stepHTTP(c.hc, f.url)},
		{"server.step.http", stepHTTP(dh, w.url)},
		{"wire.hello", func() error { _, err := c.wc.Hello("perfbench"); return err }},
		{"http.healthz", func() error {
			status, _, _, err := do(c.hc, "GET", f.url+"/healthz", nil)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			}
			return err
		}},
	}
	for i := 0; i < hopProbeRounds; i++ {
		for j := range probes {
			p := probes[(i+j)%len(probes)]
			switch p.name {
			case "gate.step.wire":
				c.gwWire++
			case "gate.step.http":
				c.gwHTTP++
			case "server.step.wire":
				c.direct++
			}
			time1(p.name, p.fn)
		}
	}
	c.observe(s, false, nil)
	return out
}

var metricLine = regexp.MustCompile(`(?m)^([a-z_]+(?:\{[^}]*\})?) ([0-9.e+-]+)$`)

// parseMetrics reads Prometheus text into name -> value, summing into
// dst.
func parseMetrics(dst map[string]float64, text string) {
	for _, m := range metricLine.FindAllStringSubmatch(text, -1) {
		v, err := strconv.ParseFloat(m[2], 64)
		if err == nil {
			dst[m[1]] += v
		}
	}
}

// scrape sums the workers' /metrics and adds the gateway's, and
// returns the p50 of the workers' step-latency histogram in µs.
func (b *bench) scrape(f *fleet) (map[string]float64, float64) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	all := map[string]float64{}
	for _, u := range append([]string{f.url}, f.workers[0].url, f.workers[1].url) {
		status, _, body, err := do(hc, "GET", u+"/metrics", nil)
		b.attempt()
		if b.check(err == nil && status == http.StatusOK, "scrape %s: status %d: %v", u, status, err) {
			parseMetrics(all, string(body))
		}
	}
	return all, histogramP50(all, "osmserve_step_latency_seconds") * 1e6
}

// histogramP50 interpolates the median of a cumulative Prometheus
// histogram within its bucket, as histogram_quantile does.
func histogramP50(m map[string]float64, name string) float64 {
	type bucket struct{ le, count float64 }
	var bs []bucket
	for k, v := range m {
		rest, ok := strings.CutPrefix(k, name+`_bucket{le="`)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil {
			continue // +Inf
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := m[name+"_count"]
	if total == 0 || len(bs) == 0 {
		return 0
	}
	rank := total / 2
	lo, below := 0.0, 0.0
	for _, bk := range bs {
		if bk.count >= rank {
			return lo + (bk.le-lo)*(rank-below)/(bk.count-below)
		}
		lo, below = bk.le, bk.count
	}
	return lo
}

// verifyFabric checks every observation against an in-process run of
// the same spec with a trace recorder, stepped to the same cycle.
func (b *bench) verifyFabric(res *fabricResult) {
	bySpec := map[string][]observation{}
	for _, c := range res.clients {
		for _, o := range c.obs {
			key := fmt.Sprintf("%s %d", o.spec.Workload, o.spec.N)
			bySpec[key] = append(bySpec[key], o)
		}
	}
	for _, obs := range bySpec {
		spec := obs[0].spec
		sort.Slice(obs, func(i, j int) bool { return obs[i].cycle < obs[j].cycle })
		inst, err := runner.New(spec)
		if !b.check(err == nil, "reference %v: %v", spec, err) {
			continue
		}
		rec := osm.NewRecorder()
		rec.Limit = sessionTraceLimit
		inst.Director().Tracer = rec
		for _, o := range obs {
			for inst.Cycle() < o.cycle && err == nil {
				err = inst.StepCycle()
			}
			b.attempt()
			if !b.check(err == nil, "reference %s n=%d: %v", spec.Workload, spec.N, err) {
				break
			}
			sum := fmt.Sprintf("%016x", rec.Checksum())
			b.check(sum == o.checksum, "%s n=%d at cycle %d: fabric trace checksum %s, in-process %s",
				spec.Workload, spec.N, o.cycle, o.checksum, sum)
			b.check(regsEqual(inst.Registers(), o.regs), "%s n=%d at cycle %d: registers differ from the in-process run",
				spec.Workload, spec.N, o.cycle)
			b.check(inst.Done() == o.done, "%s n=%d at cycle %d: fabric done=%v, in-process %v",
				spec.Workload, spec.N, o.cycle, o.done, inst.Done())
		}
	}
}

func regsEqual(a, b []runner.Reg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reconcile checks the servers' counters against what the clients
// issued.
func (b *bench) reconcile(res *fabricResult) {
	var steps, cycles, gwWire, gwHTTP, direct, migrations uint64
	for _, c := range res.clients {
		steps += c.steps
		cycles += c.cycles
		gwWire += c.gwWire
		gwHTTP += c.gwHTTP
		direct += c.direct
		migrations += c.migrations
	}
	m := res.metrics
	for _, r := range []struct {
		name string
		want uint64
	}{
		{"osmserve_step_requests_total", steps},
		{"osmserve_cycles_simulated_total", cycles},
		{"osmserve_wire_requests_total", gwWire + direct},
		{`osmgate_proxied_requests_total{plane="wire"}`, gwWire},
		{`osmgate_proxied_requests_total{plane="http"}`, gwHTTP},
		{`osmgate_migrations_total{reason="rebalance"}`, migrations},
		{"osmgate_migration_failures_total", 0},
	} {
		b.attempt()
		b.check(m[r.name] == float64(r.want), "counter %s = %v, benchmark issued %d", r.name, m[r.name], r.want)
	}
}

// snapProbeCycles is how far the snapshot probe steps each kernel
// before snapshotting it.
const snapProbeCycles = 5000

// probeSnapshots times the snapshot codec in process: each session
// kernel is stepped snapProbeCycles cycles, snapshotted, and restored
// into a fresh instance, which must then agree on cycle and
// registers. It returns median snapshot and restore times and the
// median snapshot size.
func (b *bench) probeSnapshots(plans []kernelPlan) (snapMS, restoreMS, size float64) {
	var snaps, restores, sizes []float64
	for _, kp := range plans {
		spec := runner.Spec{Target: b.tg.name, Workload: kp.w.Name, N: kp.n}
		inst, err := runner.New(spec)
		if !b.check(err == nil, "snapshot probe %s: %v", kp.w.Name, err) {
			continue
		}
		for inst.Cycle() < snapProbeCycles && !inst.Done() && err == nil {
			err = inst.StepCycle()
		}
		if !b.check(err == nil, "snapshot probe %s: %v", kp.w.Name, err) {
			continue
		}
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			blob, err := inst.Snapshot()
			snaps = append(snaps, durMS(time.Since(t0)))
			b.attempt()
			if !b.check(err == nil, "snapshot %s: %v", kp.w.Name, err) {
				break
			}
			sizes = append(sizes, float64(len(blob)))
			fresh, err := runner.New(spec)
			if !b.check(err == nil, "snapshot probe %s: %v", kp.w.Name, err) {
				break
			}
			t0 = time.Now()
			err = fresh.Restore(blob)
			restores = append(restores, durMS(time.Since(t0)))
			b.attempt()
			b.check(err == nil && fresh.Cycle() == inst.Cycle() && regsEqual(fresh.Registers(), inst.Registers()),
				"restore %s: cycle %d want %d, err %v", kp.w.Name, fresh.Cycle(), inst.Cycle(), err)
		}
	}
	return median(snaps), median(restores), median(sizes)
}
