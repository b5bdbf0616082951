package batch

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/snap"
	"repro/internal/store"
	"repro/internal/workload"
)

// smallJobs is a mixed ARM+PPC set sized for tests: two workloads on
// both models at a reduced iteration count.
func smallJobs() []Job {
	return []Job{
		{Arch: "arm", Workload: "gsm/dec", N: 40},
		{Arch: "ppc", Workload: "gsm/dec", N: 40},
		{Arch: "arm", Workload: "g721/enc", N: 30},
		{Arch: "ppc", Workload: "g721/enc", N: 30},
	}
}

func checkOK(t *testing.T, res Result) {
	t.Helper()
	if res.Status != StatusOK {
		t.Fatalf("job %s: status %q (%s)", res.Job.Name, res.Status, res.Error)
	}
	if res.RefOK == nil || !*res.RefOK {
		t.Fatalf("job %s: reference checksum not verified", res.Job.Name)
	}
	w := workload.ByName(res.Job.Workload)
	if len(res.Reported) != 1 || res.Reported[0] != w.Ref(res.Job.N) {
		t.Fatalf("job %s: reported %v, want %#x", res.Job.Name, res.Reported, w.Ref(res.Job.N))
	}
	if res.Cycles == 0 || res.Instrs == 0 {
		t.Fatalf("job %s: empty stats %d cycles / %d instrs", res.Job.Name, res.Cycles, res.Instrs)
	}
}

// TestRunMixedParallel runs the mixed ARM+PPC set across 4 workers and
// verifies every job completes with the workload's reference checksum.
func TestRunMixedParallel(t *testing.T) {
	r := &Runner{Workers: 4}
	m := r.Run(smallJobs())
	if len(m.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(m.Results))
	}
	if m.Failed() != 0 {
		t.Fatalf("%d jobs failed", m.Failed())
	}
	for _, res := range m.Results {
		checkOK(t, res)
	}
	// The manifest must round-trip through JSON (it is the osmbatch
	// output format).
	data, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 4 || back.Results[0].Status != StatusOK {
		t.Fatalf("manifest did not survive JSON round-trip: %+v", back)
	}
}

// TestPanicIsolation injects a fault into one job and verifies the
// worker survives: the faulted job reports StatusPanic and every other
// job still completes correctly.
func TestPanicIsolation(t *testing.T) {
	jobs := smallJobs()
	jobs[1].PanicAt = 500
	r := &Runner{Workers: 2}
	m := r.Run(jobs)
	for i, res := range m.Results {
		if i == 1 {
			if res.Status != StatusPanic {
				t.Fatalf("faulted job: status %q, want %q", res.Status, StatusPanic)
			}
			if res.Error == "" {
				t.Fatal("faulted job: no error recorded")
			}
			continue
		}
		checkOK(t, res)
	}
}

// TestDeadline verifies a job that cannot finish in time is cut off
// with StatusDeadline rather than hanging the batch.
func TestDeadline(t *testing.T) {
	jobs := []Job{{Arch: "arm", Workload: "gsm/dec", N: 5000}}
	r := &Runner{Workers: 1, Deadline: time.Millisecond}
	m := r.Run(jobs)
	if got := m.Results[0].Status; got != StatusDeadline {
		t.Fatalf("status %q, want %q", got, StatusDeadline)
	}
}

// TestResumeFromCheckpoint simulates a killed run: the first Run is
// abandoned mid-job (via an injected panic after the checkpoint), then
// a second Run with the same checkpoint directory must resume from the
// checkpoint and produce the same totals as an uninterrupted run.
func TestResumeFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	job := Job{Arch: "ppc", Workload: "gsm/dec", N: 40}

	// Uninterrupted reference.
	ref := (&Runner{Workers: 1}).Run([]Job{job}).Results[0]
	checkOK(t, ref)

	// First attempt: checkpoint every 200 cycles, die at cycle 1000.
	killed := job
	killed.PanicAt = 1000
	first := (&Runner{
		Workers:         1,
		CheckpointDir:   dir,
		CheckpointEvery: 200,
	}).Run([]Job{killed}).Results[0]
	if first.Status != StatusPanic {
		t.Fatalf("first attempt: status %q, want %q", first.Status, StatusPanic)
	}
	if first.Checkpoints == 0 {
		t.Fatal("first attempt wrote no checkpoints")
	}
	if _, err := os.Stat(filepath.Join(dir, "runs", first.Job.Name+".idx")); err != nil {
		t.Fatalf("checkpoint store index missing after kill: %v", err)
	}

	// Second attempt resumes and completes.
	second := (&Runner{
		Workers:         1,
		CheckpointDir:   dir,
		CheckpointEvery: 200,
	}).Run([]Job{job}).Results[0]
	if !second.Resumed {
		t.Fatal("second attempt did not resume from the checkpoint")
	}
	checkOK(t, second)
	if second.Cycles != ref.Cycles || second.Instrs != ref.Instrs {
		t.Fatalf("resumed run: %d cycles / %d instrs, uninterrupted: %d / %d",
			second.Cycles, second.Instrs, ref.Cycles, ref.Instrs)
	}
	// A successful job removes its checkpoints so the next batch starts
	// fresh — the store run is dropped.
	if _, err := os.Stat(filepath.Join(dir, "runs", second.Job.Name+".idx")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint run not cleaned up after success: %v", err)
	}
}

// TestCheckpointIdentityMismatch verifies a checkpoint written for a
// different job configuration is ignored instead of restored.
func TestCheckpointIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	job := Job{Name: "fixed-name", Arch: "arm", Workload: "gsm/dec", N: 40, PanicAt: 800}
	r := &Runner{Workers: 1, CheckpointDir: dir, CheckpointEvery: 200}
	if got := r.Run([]Job{job}).Results[0]; got.Status != StatusPanic {
		t.Fatalf("setup run: status %q", got.Status)
	}

	// Same name, different iteration count: must not resume.
	other := Job{Name: "fixed-name", Arch: "arm", Workload: "gsm/dec", N: 50}
	res := (&Runner{Workers: 1, CheckpointDir: dir, CheckpointEvery: 200}).Run([]Job{other}).Results[0]
	if res.Resumed {
		t.Fatal("resumed from a checkpoint with a different job identity")
	}
	checkOK(t, res)
}

// TestCheckpointIdentityIgnoresCheck: the invariant checker is a pure
// observer and the engines are trace-equivalent, so toggling Job.Check
// or switching Job.Engine must not invalidate an existing checkpoint
// (same exclusion PanicAt gets), and the resumed run must end exactly
// where an uninterrupted one does.
func TestCheckpointIdentityIgnoresCheck(t *testing.T) {
	ref := (&Runner{Workers: 1}).Run([]Job{{Arch: "arm", Workload: "gsm/dec", N: 40}}).Results[0]
	checkOK(t, ref)
	for _, tc := range []struct {
		name     string
		from, to Job
	}{
		{"check", Job{}, Job{Check: true}},
		{"scan-to-event", Job{Engine: "scan"}, Job{Engine: "event"}},
		{"event-to-generated", Job{Engine: "event"}, Job{Engine: "generated"}},
		{"compiled-to-scan", Job{Engine: "compiled"}, Job{Engine: "scan"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			job := Job{Name: "fixed-name", Arch: "arm", Workload: "gsm/dec", N: 40,
				Engine: tc.from.Engine, Check: tc.from.Check, PanicAt: 800}
			r := &Runner{Workers: 1, CheckpointDir: dir, CheckpointEvery: 200}
			if got := r.Run([]Job{job}).Results[0]; got.Status != StatusPanic {
				t.Fatalf("setup run: status %q", got.Status)
			}

			resumed := Job{Name: "fixed-name", Arch: "arm", Workload: "gsm/dec", N: 40,
				Engine: tc.to.Engine, Check: tc.to.Check}
			res := (&Runner{Workers: 1, CheckpointDir: dir, CheckpointEvery: 200}).Run([]Job{resumed}).Results[0]
			if !res.Resumed {
				t.Fatal("checkpoint invalidated")
			}
			checkOK(t, res)
			if res.Cycles != ref.Cycles || res.Instrs != ref.Instrs {
				t.Fatalf("resumed run: %d cycles / %d instrs, uninterrupted: %d / %d",
					res.Cycles, res.Instrs, ref.Cycles, ref.Instrs)
			}
		})
	}
}

// TestCorruptCheckpointRestarts verifies an unusable checkpoint does
// not kill the job: it is logged, the job restarts from scratch and
// still succeeds. Two kinds: a truncated run index, and a version-1
// record (whose identity still carried the retired scan flag) stored
// as the latest checkpoint, which must be refused by version rather
// than misread.
func TestCorruptCheckpointRestarts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string, st *store.Store)
		log    string
	}{
		{"truncated-index", func(t *testing.T, dir string, _ *store.Store) {
			path := filepath.Join(dir, "runs", "c.idx")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}, "stored checkpoint unusable"},
		{"v1-record", func(t *testing.T, _ string, st *store.Store) {
			j := Job{Name: "c", Arch: "arm", Workload: "gsm/dec", N: 40}
			j.fill()
			w := snap.NewWriter()
			w.U32(snap.Magic)
			w.String(ckptHeader)
			w.Version(1)
			w.String(j.Name)
			w.String(j.Arch)
			w.String(j.Workload)
			w.Int(j.N)
			w.Bool(false) // v1's scan flag
			w.U64(j.MaxCycles)
			w.U64(1 << 20)
			w.Bytes32([]byte("stale"))
			if _, err := st.Put(j.Name, 1<<20, w.Bytes()); err != nil {
				t.Fatal(err)
			}
		}, "snapshot version 1, this build reads 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			job := Job{Name: "c", Arch: "arm", Workload: "gsm/dec", N: 40, PanicAt: 800}
			r := &Runner{Workers: 1, CheckpointDir: dir, CheckpointEvery: 200}
			if got := r.Run([]Job{job}).Results[0]; got.Status != StatusPanic {
				t.Fatalf("setup run: status %q", got.Status)
			}
			st, err := r.checkpointStore()
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(t, dir, st)

			var log strings.Builder
			clean := Job{Name: "c", Arch: "arm", Workload: "gsm/dec", N: 40}
			res := (&Runner{Workers: 1, CheckpointDir: dir, CheckpointEvery: 200, Log: &log}).Run([]Job{clean}).Results[0]
			if res.Resumed {
				t.Fatal("resumed from an unusable checkpoint")
			}
			checkOK(t, res)
			if !strings.Contains(log.String(), tc.log) {
				t.Fatalf("log lacks %q:\n%s", tc.log, log.String())
			}
		})
	}
}

// TestMixJobs checks the standard job set covers every workload on
// both models with unique names.
func TestMixJobs(t *testing.T) {
	jobs := MixJobs(0)
	want := 2 * len(workload.Mix())
	if len(jobs) != want {
		t.Fatalf("got %d jobs, want %d", len(jobs), want)
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		j.fill()
		if seen[j.Name] {
			t.Fatalf("duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
		if j.N == 0 {
			t.Fatalf("job %s: default N not filled", j.Name)
		}
	}
}

// A batch interrupted mid-run must flush a checkpoint for the job in
// progress (so a rerun resumes it) and account for every queued job
// in the manifest.
func TestInterruptFlushesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	interrupt := make(chan struct{})
	jobs := []Job{
		{Arch: "arm", Workload: "gsm/dec", N: 20000},
		{Arch: "ppc", Workload: "gsm/dec", N: 20000},
	}
	r := &Runner{Workers: 1, CheckpointDir: dir, Interrupt: interrupt}
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(interrupt)
	}()
	m := r.Run(jobs)
	if len(m.Results) != 2 {
		t.Fatalf("manifest has %d results, want 2", len(m.Results))
	}
	first := m.Results[0]
	if first.Status != StatusInterrupted {
		t.Fatalf("in-progress job: status %q (%s), want %q", first.Status, first.Error, StatusInterrupted)
	}
	if first.Checkpoints == 0 {
		t.Fatal("interrupt did not flush a checkpoint for the in-progress job")
	}
	if _, err := os.Stat(filepath.Join(dir, "runs", first.Job.Name+".idx")); err != nil {
		t.Fatalf("flushed checkpoint store index missing: %v", err)
	}
	// The flushed checkpoint must pass the identity check and carry a
	// mid-run cycle, i.e. a rerun with the same directory resumes.
	j := jobs[0]
	j.fill()
	blob, cycle, ok := r.loadCheckpoint(j)
	if !ok {
		t.Fatal("flushed checkpoint does not load for the same job identity")
	}
	if cycle == 0 || len(blob) == 0 {
		t.Fatalf("flushed checkpoint is empty: cycle %d, %d bytes", cycle, len(blob))
	}
	second := m.Results[1]
	if second.Status != StatusInterrupted {
		t.Fatalf("queued job: status %q, want %q", second.Status, StatusInterrupted)
	}
	if second.Error != "interrupted before start" {
		t.Fatalf("queued job error %q, want interrupted-before-start", second.Error)
	}
}

// An interrupt raised before the batch starts still yields a complete
// manifest: every job is recorded as interrupted, none crash or hang.
func TestInterruptBeforeStart(t *testing.T) {
	interrupt := make(chan struct{})
	close(interrupt)
	m := (&Runner{Workers: 2, Interrupt: interrupt}).Run(smallJobs())
	if len(m.Results) != len(smallJobs()) {
		t.Fatalf("manifest has %d results, want %d", len(m.Results), len(smallJobs()))
	}
	for _, res := range m.Results {
		if res.Status != StatusInterrupted {
			t.Fatalf("job %s: status %q, want %q", res.Job.Name, res.Status, StatusInterrupted)
		}
		if res.Job.Name == "" {
			t.Fatal("interrupted job left without a derived name")
		}
	}
	if m.Failed() != len(m.Results) {
		t.Fatalf("Failed() = %d, want %d", m.Failed(), len(m.Results))
	}
}
