package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/osm"
	"repro/internal/runner"
	"repro/internal/snap"
)

// ---- client helpers ----

type client struct {
	t    testing.TB
	base string
	hc   *http.Client
}

func newTestServer(t testing.TB, cfg Config) (*Manager, *client, func()) {
	t.Helper()
	mgr := NewManager(cfg)
	mgr.Start()
	ts := httptest.NewServer(mgr.Handler())
	cl := &client{t: t, base: ts.URL, hc: ts.Client()}
	return mgr, cl, func() {
		ts.Close()
		mgr.Close()
	}
}

func (c *client) do(method, path string, body []byte, contentType string) (*http.Response, []byte) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.t.Fatal(err)
	}
	return resp, data
}

func (c *client) doJSON(method, path string, reqBody, out any) (*http.Response, []byte) {
	c.t.Helper()
	var body []byte
	if reqBody != nil {
		var err error
		body, err = json.Marshal(reqBody)
		if err != nil {
			c.t.Fatal(err)
		}
	}
	resp, data := c.do(method, path, body, "application/json")
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			c.t.Fatalf("%s %s: bad JSON %q: %v", method, path, data, err)
		}
	}
	return resp, data
}

func (c *client) create(spec runner.Spec) Info {
	c.t.Helper()
	var info Info
	resp, data := c.doJSON("POST", "/v1/sessions", CreateRequest{Spec: spec}, &info)
	if resp.StatusCode != http.StatusCreated {
		c.t.Fatalf("create: status %d: %s", resp.StatusCode, data)
	}
	if info.State != StateCreated {
		c.t.Fatalf("created session in state %q", info.State)
	}
	return info
}

func (c *client) step(id string, cycles uint64) StepResult {
	c.t.Helper()
	var res StepResult
	resp, data := c.doJSON("POST", "/v1/sessions/"+id+"/step", StepRequest{Cycles: cycles}, &res)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("step: status %d: %s", resp.StatusCode, data)
	}
	return res
}

// stepToDone drives the session to completion in bounded chunks.
func (c *client) stepToDone(id string, chunk uint64) StepResult {
	c.t.Helper()
	for i := 0; i < 10_000; i++ {
		res := c.step(id, chunk)
		if res.Done {
			return res
		}
	}
	c.t.Fatalf("session %s did not finish", id)
	return StepResult{}
}

func (c *client) registers(id string) []runner.Reg {
	c.t.Helper()
	var out struct {
		Cycle     uint64       `json:"cycle"`
		Registers []runner.Reg `json:"registers"`
	}
	resp, data := c.doJSON("GET", "/v1/sessions/"+id+"/registers", nil, &out)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("registers: status %d: %s", resp.StatusCode, data)
	}
	return out.Registers
}

func (c *client) info(id string) Info {
	c.t.Helper()
	var info Info
	resp, data := c.doJSON("GET", "/v1/sessions/"+id, nil, &info)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("info: status %d: %s", resp.StatusCode, data)
	}
	return info
}

// ---- in-process reference runs ----

type refRun struct {
	cycles   uint64
	instrs   uint64
	reported []uint32
	regs     []runner.Reg
	checksum string
}

// runRef runs the spec in-process to completion and returns the
// observables the HTTP path must reproduce exactly.
func runRef(t *testing.T, spec runner.Spec) refRun {
	t.Helper()
	inst, err := runner.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := osm.NewRecorder()
	rec.Limit = 1024
	inst.Director().Tracer = rec
	for !inst.Done() {
		if inst.Cycle() > 20_000_000 {
			t.Fatal("reference run too long")
		}
		if err := inst.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := inst.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return refRun{
		cycles:   res.Cycles,
		instrs:   res.Instrs,
		reported: res.Reported,
		regs:     inst.Registers(),
		checksum: fmt.Sprintf("%016x", rec.Checksum()),
	}
}

func compareRegs(t *testing.T, label string, want, got []runner.Reg) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d registers, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: register %s = %#x, want %s = %#x",
				label, got[i].Name, got[i].Value, want[i].Name, want[i].Value)
		}
	}
}

var diffSpecs = []runner.Spec{
	{Target: "strongarm", Workload: "gsm/dec", N: 60},
	{Target: "ppc750", Workload: "spec/crc", N: 50},
}

// A workload stepped to completion through the HTTP API must be
// indistinguishable from the in-process run: same cycle count, final
// architectural registers, reported values and whole-run trace
// checksum.
func TestDifferentialHTTP(t *testing.T) {
	_, cl, done := newTestServer(t, Config{})
	defer done()
	for _, spec := range diffSpecs {
		ref := runRef(t, spec)
		info := cl.create(spec)
		final := cl.stepToDone(info.ID, 10_000)
		if final.Cycle != ref.cycles {
			t.Fatalf("%s: HTTP run took %d cycles, in-process %d", spec.Target, final.Cycle, ref.cycles)
		}
		if final.Result == nil {
			t.Fatalf("%s: done without a result", spec.Target)
		}
		if final.Result.Instrs != ref.instrs {
			t.Fatalf("%s: %d instrs, want %d", spec.Target, final.Result.Instrs, ref.instrs)
		}
		if fmt.Sprint(final.Result.Reported) != fmt.Sprint(ref.reported) {
			t.Fatalf("%s: reported %v, want %v", spec.Target, final.Result.Reported, ref.reported)
		}
		compareRegs(t, spec.Target, ref.regs, cl.registers(info.ID))
		end := cl.info(info.ID)
		if end.State != StateDone {
			t.Fatalf("%s: state %q after completion", spec.Target, end.State)
		}
		if end.TraceChecksum != ref.checksum {
			t.Fatalf("%s: trace checksum %s, want %s", spec.Target, end.TraceChecksum, ref.checksum)
		}
		if end.TraceTotal == 0 {
			t.Fatalf("%s: no transitions traced", spec.Target)
		}
	}
}

// A session snapshotted over HTTP, restored into a fresh server and
// run to completion must match the uninterrupted run; the tail trace
// must match an in-process restore of the same snapshot.
func TestSnapshotRestoreAcrossServers(t *testing.T) {
	for _, spec := range diffSpecs {
		ref := runRef(t, spec)

		_, clA, doneA := newTestServer(t, Config{})
		info := clA.create(spec)
		cut := ref.cycles / 2
		res := clA.step(info.ID, cut)
		if res.Stepped != cut || res.Done {
			t.Fatalf("%s: stepped %d of %d, done=%v", spec.Target, res.Stepped, cut, res.Done)
		}
		resp, wrapped := clA.do("GET", "/v1/sessions/"+info.ID+"/snapshot", nil, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: snapshot: status %d", spec.Target, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Osm-Cycle"); got != strconv.FormatUint(cut, 10) {
			t.Fatalf("%s: snapshot at cycle %s, want %d", spec.Target, got, cut)
		}
		doneA()

		// In-process restore of the same wire bytes: the tail
		// reference for the trace checksum.
		rd := snap.NewReader(wrapped)
		if rd.U32() != snap.Magic || rd.String() != sessHeader {
			t.Fatalf("%s: snapshot is not in the session wire format", spec.Target)
		}
		rd.Version(sessHeader, sessVersion)
		if target := rd.String(); target != spec.Target {
			t.Fatalf("%s: wire header names target %q", spec.Target, target)
		}
		rd.U64() // cycle
		blob := rd.Bytes32()
		if rd.Err() != nil {
			t.Fatalf("%s: %v", spec.Target, rd.Err())
		}
		// A v2 snapshot carries the trace recorder after the instance
		// blob, so the whole-run checksum survives migration.
		if flags := rd.U8(); flags&sessFlagTracer == 0 || rd.Err() != nil {
			t.Fatalf("%s: v2 snapshot without tracer section (flags %#x, err %v)", spec.Target, flags, rd.Err())
		}
		inst, err := runner.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Restore(blob); err != nil {
			t.Fatalf("%s: in-process restore: %v", spec.Target, err)
		}
		rec := osm.NewRecorder()
		rec.Limit = 1024
		inst.Director().Tracer = rec
		for !inst.Done() {
			if err := inst.StepCycle(); err != nil {
				t.Fatal(err)
			}
		}
		tailRes, err := inst.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if tailRes.Cycles != ref.cycles {
			t.Fatalf("%s: in-process restored run took %d cycles, want %d", spec.Target, tailRes.Cycles, ref.cycles)
		}

		// Fresh server: create, upload, run to completion.
		_, clB, doneB := newTestServer(t, Config{})
		defer doneB()
		infoB := clB.create(spec)
		resp, data := clB.do("POST", "/v1/sessions/"+infoB.ID+"/restore", wrapped, "application/octet-stream")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: restore: status %d: %s", spec.Target, resp.StatusCode, data)
		}
		var restored struct {
			Cycle uint64 `json:"cycle"`
		}
		if err := json.Unmarshal(data, &restored); err != nil {
			t.Fatal(err)
		}
		if restored.Cycle != cut {
			t.Fatalf("%s: restored at cycle %d, want %d", spec.Target, restored.Cycle, cut)
		}
		final := clB.stepToDone(infoB.ID, 10_000)
		if final.Cycle != ref.cycles {
			t.Fatalf("%s: restored run finished at %d cycles, want %d", spec.Target, final.Cycle, ref.cycles)
		}
		if fmt.Sprint(final.Result.Reported) != fmt.Sprint(ref.reported) {
			t.Fatalf("%s: restored reported %v, want %v", spec.Target, final.Result.Reported, ref.reported)
		}
		compareRegs(t, spec.Target+"/restored", ref.regs, clB.registers(infoB.ID))
		// The v2 snapshot restored the recorder along with the machine
		// state, so the whole-run checksum matches an uninterrupted run.
		if got := clB.info(infoB.ID).TraceChecksum; got != ref.checksum {
			t.Fatalf("%s: restored trace checksum %s, want %s", spec.Target, got, ref.checksum)
		}
	}
}

func TestAdmissionControl(t *testing.T) {
	mgr, cl, done := newTestServer(t, Config{MaxSessions: 2, IdleTimeout: -1})
	defer done()
	spec := runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 20}
	a := cl.create(spec)
	cl.create(spec)
	resp, data := cl.doJSON("POST", "/v1/sessions", CreateRequest{Spec: spec}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("3rd create: status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := mgr.Metrics.SessionsRejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	// Evicting frees a slot.
	if resp, data := cl.doJSON("DELETE", "/v1/sessions/"+a.ID, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("evict: status %d: %s", resp.StatusCode, data)
	}
	cl.create(spec)
	if got := mgr.Metrics.EvictedAPI.Load(); got != 1 {
		t.Fatalf("api eviction counter = %d, want 1", got)
	}
	// The evicted session is gone.
	if resp, _ := cl.doJSON("GET", "/v1/sessions/"+a.ID, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session answered %d, want 404", resp.StatusCode)
	}
}

func TestIdleEviction(t *testing.T) {
	mgr, cl, done := newTestServer(t, Config{IdleTimeout: 50 * time.Millisecond})
	defer done()
	info := cl.create(runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 20})
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := cl.doJSON("GET", "/v1/sessions/"+info.ID, nil, nil)
		if resp.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session was not evicted")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := mgr.Metrics.EvictedIdle.Load(); got != 1 {
		t.Fatalf("idle eviction counter = %d, want 1", got)
	}
	if mgr.LiveCount() != 0 {
		t.Fatalf("%d sessions still live", mgr.LiveCount())
	}
}

func TestLifecycleAndValidation(t *testing.T) {
	_, cl, done := newTestServer(t, Config{})
	defer done()

	// Ambiguous spec → 400.
	resp, data := cl.doJSON("POST", "/v1/sessions",
		CreateRequest{Spec: runner.Spec{Target: "strongarm", Workload: "gsm/dec", Src: "nop"}}, nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "ambiguous") {
		t.Fatalf("ambiguous create: status %d: %s", resp.StatusCode, data)
	}
	// Non-steppable target → 400.
	resp, data = cl.doJSON("POST", "/v1/sessions",
		CreateRequest{Spec: runner.Spec{Target: "arm-iss", Workload: "gsm/dec"}}, nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "run-to-completion") {
		t.Fatalf("iss create: status %d: %s", resp.StatusCode, data)
	}
	// Unknown session → 404.
	if resp, _ := cl.doJSON("POST", "/v1/sessions/s-999999/step", StepRequest{Cycles: 1}, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", resp.StatusCode)
	}

	// Completed session: further steps → 409, snapshot still works.
	info := cl.create(runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 20})
	cl.stepToDone(info.ID, 5_000)
	resp, data = cl.doJSON("POST", "/v1/sessions/"+info.ID+"/step", StepRequest{Cycles: 1}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("step after done: status %d: %s", resp.StatusCode, data)
	}
	if resp, _ := cl.do("GET", "/v1/sessions/"+info.ID+"/snapshot", nil, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot of done session: status %d", resp.StatusCode)
	}
	// Zero-cycle step → 409 (explicitly rejected, not a silent no-op).
	info2 := cl.create(runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 20})
	if resp, _ := cl.doJSON("POST", "/v1/sessions/"+info2.ID+"/step", StepRequest{Cycles: 0}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("zero-cycle step: status %d, want 409", resp.StatusCode)
	}
	// Cross-target restore → 409.
	arm := cl.create(runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 20})
	ppc := cl.create(runner.Spec{Target: "ppc750", Workload: "dsp/fir", N: 20})
	resp, wrapped := cl.do("GET", "/v1/sessions/"+arm.ID+"/snapshot", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	resp, data = cl.do("POST", "/v1/sessions/"+ppc.ID+"/restore", wrapped, "application/octet-stream")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cross-target restore: status %d: %s", resp.StatusCode, data)
	}
	// Garbage restore → 409 and the session stays usable.
	resp, _ = cl.do("POST", "/v1/sessions/"+arm.ID+"/restore", []byte("not a snapshot"), "application/octet-stream")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("garbage restore: status %d", resp.StatusCode)
	}
	// A version-1 session snapshot (no recorder state) → 409 naming
	// the version, not a silent restore that drops the trace.
	ss, err := DecodeSessionSnapshot(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	w := snap.NewWriter()
	w.U32(snap.Magic)
	w.String(sessHeader)
	w.Version(1)
	w.String(ss.Target)
	w.U64(ss.Cycle)
	w.Bytes32(ss.Blob)
	resp, data = cl.do("POST", "/v1/sessions/"+arm.ID+"/restore", w.Bytes(), "application/octet-stream")
	if resp.StatusCode != http.StatusConflict || !bytes.Contains(data, []byte("version 1, this build reads 2")) {
		t.Fatalf("v1 restore: status %d: %s", resp.StatusCode, data)
	}
	cl.step(arm.ID, 10)
}

func TestMemAndTraceEndpoints(t *testing.T) {
	_, cl, done := newTestServer(t, Config{})
	defer done()
	info := cl.create(runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 20})
	cl.step(info.ID, 200)

	var mem struct {
		Data string `json:"data"`
	}
	resp, data := cl.doJSON("GET", "/v1/sessions/"+info.ID+"/mem?addr=0x0&len=64", nil, &mem)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mem: status %d: %s", resp.StatusCode, data)
	}
	if mem.Data == "" {
		t.Fatal("mem returned no data")
	}
	if resp, _ := cl.doJSON("GET", "/v1/sessions/"+info.ID+"/mem?addr=0x0&len=999999999", nil, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("oversized mem read: status %d, want 409", resp.StatusCode)
	}

	resp, body := cl.do("GET", "/v1/sessions/"+info.ID+"/trace?since=0", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("trace content type %q", got)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("trace stream is empty")
	}
	var first osm.Event
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("trace line is not JSON: %v (%q)", err, lines[0])
	}
	if first.Machine == "" || first.Edge == "" {
		t.Fatalf("trace event incomplete: %+v", first)
	}
	total, err := strconv.ParseUint(resp.Header.Get("X-Osm-Trace-Total"), 10, 64)
	if err != nil || total == 0 {
		t.Fatalf("bad X-Osm-Trace-Total %q", resp.Header.Get("X-Osm-Trace-Total"))
	}
	// since filters by step.
	since := first.Step + 1
	resp, body2 := cl.do("GET", fmt.Sprintf("/v1/sessions/%s/trace?since=%d", info.ID, since), nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace since: status %d", resp.StatusCode)
	}
	if len(body2) >= len(body) {
		t.Fatal("since did not narrow the stream")
	}
}

func TestPanicIsolationPoisonsSession(t *testing.T) {
	mgr, cl, done := newTestServer(t, Config{})
	defer done()
	info := cl.create(runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 20})
	s, err := mgr.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}

	h := mgr.isolate(http.HandlerFunc(mgr.withSession(func(w http.ResponseWriter, r *http.Request, s *Session) {
		panic("injected fault")
	})))
	req := httptest.NewRequest("POST", "/v1/sessions/"+info.ID+"/boom", nil)
	req.SetPathValue("id", info.ID)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, want 500", rw.Code)
	}
	if got := mgr.Metrics.Panics.Load(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
	// The session is poisoned, the server keeps serving.
	resp, data := cl.doJSON("POST", "/v1/sessions/"+info.ID+"/step", StepRequest{Cycles: 10}, nil)
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(data), "broken") {
		t.Fatalf("step on poisoned session: status %d: %s", resp.StatusCode, data)
	}
	if s.info("arm", false).State != StateBroken {
		t.Fatalf("session state %q, want broken", s.info("arm", false).State)
	}
	// Other sessions are unaffected.
	other := cl.create(runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 20})
	cl.step(other.ID, 10)
}

func TestDrain(t *testing.T) {
	mgr, cl, done := newTestServer(t, Config{})
	defer done()
	cl.create(runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 20})
	mgr.Drain()
	if resp, _ := cl.doJSON("GET", "/healthz", nil, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", resp.StatusCode)
	}
	resp, _ := cl.doJSON("POST", "/v1/sessions",
		CreateRequest{Spec: runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 20}}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: status %d, want 503", resp.StatusCode)
	}
	mgr.Close()
	if mgr.LiveCount() != 0 {
		t.Fatalf("%d sessions survived Close", mgr.LiveCount())
	}
	if got := mgr.Metrics.EvictedDrain.Load(); got != 1 {
		t.Fatalf("drain eviction counter = %d, want 1", got)
	}
}

// metricValue extracts one sample from the Prometheus text output.
func metricValue(t *testing.T, text, name string) uint64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, text)
	}
	v, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// The load test: ≥16 concurrent sessions driven through overlapping
// step/peek/snapshot/trace requests; afterwards the /metrics counters
// must reconcile exactly with the work the clients performed.
func TestLoadConcurrentSessions(t *testing.T) {
	const (
		nSessions = 16
		nRounds   = 8
		chunk     = 1500
	)
	mgr, cl, done := newTestServer(t, Config{MaxSessions: nSessions, IdleTimeout: -1})
	defer done()

	specs := []runner.Spec{
		{Target: "strongarm", Workload: "gsm/dec", N: 200},
		{Target: "ppc750", Workload: "spec/crc", N: 200},
	}
	ids := make([]string, nSessions)
	for i := range ids {
		ids[i] = cl.create(specs[i%len(specs)]).ID
	}

	var (
		mu           sync.Mutex
		totalStepped uint64
		stepCalls    uint64
		snapBytes    uint64
	)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			var stepped, calls, snaps uint64
			for r := 0; r < nRounds; r++ {
				res := cl.step(id, chunk)
				stepped += res.Stepped
				calls++
				switch r % 3 {
				case 0:
					if regs := cl.registers(id); len(regs) == 0 {
						t.Errorf("session %s: no registers", id)
					}
				case 1:
					resp, body := cl.do("GET", "/v1/sessions/"+id+"/snapshot", nil, "")
					if resp.StatusCode != http.StatusOK {
						t.Errorf("session %s: snapshot status %d", id, resp.StatusCode)
					}
					snaps += uint64(len(body))
				case 2:
					if resp, _ := cl.do("GET", "/v1/sessions/"+id+"/trace?since=0", nil, ""); resp.StatusCode != http.StatusOK {
						t.Errorf("session %s: trace status %d", id, resp.StatusCode)
					}
				}
				if res.Done {
					break
				}
			}
			mu.Lock()
			totalStepped += stepped
			stepCalls += calls
			snapBytes += snaps
			mu.Unlock()
		}(i, id)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Cross-check the server's own accounting...
	var sessionSum uint64
	for _, id := range ids {
		sessionSum += cl.info(id).CyclesStepped
	}
	if sessionSum != totalStepped {
		t.Fatalf("sessions report %d cycles stepped, clients counted %d", sessionSum, totalStepped)
	}

	// ...and the exported metrics, scraped like Prometheus would.
	resp, body := cl.do("GET", "/metrics", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	text := string(body)
	if got := metricValue(t, text, "osmserve_cycles_simulated_total"); got != totalStepped {
		t.Fatalf("cycles_simulated_total = %d, clients stepped %d", got, totalStepped)
	}
	if got := metricValue(t, text, "osmserve_step_requests_total"); got != stepCalls {
		t.Fatalf("step_requests_total = %d, clients made %d", got, stepCalls)
	}
	if got := metricValue(t, text, "osmserve_sessions_created_total"); got != nSessions {
		t.Fatalf("sessions_created_total = %d, want %d", got, nSessions)
	}
	if got := metricValue(t, text, "osmserve_sessions_live"); got != nSessions {
		t.Fatalf("sessions_live = %d, want %d", got, nSessions)
	}
	if got := metricValue(t, text, `osmserve_snapshot_bytes_total{dir="download"}`); got != snapBytes {
		t.Fatalf("snapshot download bytes = %d, clients received %d", got, snapBytes)
	}
	if got := metricValue(t, text, "osmserve_request_panics_total"); got != 0 {
		t.Fatalf("request_panics_total = %d, want 0", got)
	}
	if got := mgr.Metrics.StepLatency.Count(); got != stepCalls {
		t.Fatalf("step latency histogram holds %d observations, want %d", got, stepCalls)
	}
	// Histogram consistency: _count equals the cumulative +Inf bucket.
	if !strings.Contains(text, `osmserve_step_latency_seconds_bucket{le="+Inf"} `+strconv.FormatUint(stepCalls, 10)) {
		t.Fatalf("+Inf bucket does not match count %d:\n%s", stepCalls, text)
	}
}

func TestMetricsRender(t *testing.T) {
	m := NewMetrics()
	m.SessionsCreated.Add(3)
	m.StepLatency.Observe(0.002)
	m.StepLatency.Observe(0.5)
	m.StepLatency.Observe(99)
	var b strings.Builder
	m.Render(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE osmserve_sessions_live gauge",
		"# TYPE osmserve_step_latency_seconds histogram",
		"osmserve_sessions_created_total 3",
		`osmserve_step_latency_seconds_bucket{le="0.003"} 1`,
		`osmserve_step_latency_seconds_bucket{le="1"} 2`,
		`osmserve_step_latency_seconds_bucket{le="+Inf"} 3`,
		"osmserve_step_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// TestEngineSelectionOverHTTP pins the wire-level engine field: a raw
// session-create body with "engine": "compiled" or "engine":
// "generated" must run under that engine and remain indistinguishable
// from the default event-driven session — same cycle count and
// whole-run trace checksum — and an unknown engine must be rejected at
// creation.
func TestEngineSelectionOverHTTP(t *testing.T) {
	_, cl, done := newTestServer(t, Config{})
	defer done()
	for _, spec := range diffSpecs {
		ref := cl.create(spec)
		refFinal := cl.stepToDone(ref.ID, 10_000)
		for _, engine := range []string{"scan", "compiled", "generated"} {
			body := fmt.Sprintf(`{"target":%q,"workload":%q,"n":%d,"engine":%q}`,
				spec.Target, spec.Workload, spec.N, engine)
			resp, data := cl.do("POST", "/v1/sessions", []byte(body), "application/json")
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("%s: create with engine=%s: status %d: %s", spec.Target, engine, resp.StatusCode, data)
			}
			var info Info
			if err := json.Unmarshal(data, &info); err != nil {
				t.Fatal(err)
			}
			final := cl.stepToDone(info.ID, 10_000)
			if final.Cycle != refFinal.Cycle {
				t.Fatalf("%s: %s run took %d cycles, event run %d", spec.Target, engine, final.Cycle, refFinal.Cycle)
			}
			if a, b := cl.info(info.ID).TraceChecksum, cl.info(ref.ID).TraceChecksum; a != b {
				t.Fatalf("%s: %s trace checksum %s, event %s", spec.Target, engine, a, b)
			}
		}
	}
	for _, body := range []string{
		`{"target":"strongarm","workload":"gsm/dec","n":10,"engine":"vliw"}`,   // unknown engine
		`{"target":"arm-iss","workload":"gsm/dec","n":10,"engine":"compiled"}`, // no OSM director
		`{"target":"strongarm","workload":"gsm/dec","n":10,"scan":true}`,       // retired selector
	} {
		if resp, data := cl.do("POST", "/v1/sessions", []byte(body), "application/json"); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", body, resp.StatusCode, data)
		}
	}
}
