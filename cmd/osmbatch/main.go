// Osmbatch runs a set of simulation jobs across a worker pool with
// periodic checkpoints, per-job deadlines and panic isolation, and
// writes a JSON results manifest. A killed or crashed batch is
// restarted with the same -checkpoint-dir and resumes each unfinished
// job from its last checkpoint.
//
// Usage:
//
//	osmbatch -mix -workers 4 -out results.json
//	osmbatch -jobs jobs.json -checkpoint-dir ckpt -checkpoint-every 100000
//	osmbatch -mix -n 60 -scheduler compiled -deadline 2m
//
// The -jobs file is a JSON array of job objects:
//
//	[{"arch": "arm", "workload": "gsm/dec", "n": 500},
//	 {"arch": "ppc", "workload": "mpeg2/enc"}]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/batch"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size")
		jobsFile  = flag.String("jobs", "", "JSON file with the job array")
		mix       = flag.Bool("mix", false, "run the standard mixed ARM+PPC set over every workload")
		n         = flag.Int("n", 0, "iteration count for -mix jobs (0 = per-workload default)")
		scheduler = flag.String("scheduler", "event", "execution engine: event, scan, compiled or generated")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for per-job checkpoint files (enables resume)")
		ckptEvery = flag.Uint64("checkpoint-every", 0, "cycles between checkpoints (0 = none)")
		deadline  = flag.Duration("deadline", 0, "per-job wall-clock deadline (0 = none)")
		maxCycles = flag.Uint64("max-cycles", 0, "per-job cycle bound (0 = 20M)")
		out       = flag.String("out", "", "write the JSON manifest to this file (default stdout)")
		quiet     = flag.Bool("quiet", false, "suppress per-job progress lines")
		injectAt  = flag.Uint64("inject-panic", 0, "fault injection: panic the first job at this cycle")
		check     = flag.Bool("check", false, "verify OSM invariants every control step on every job")
	)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "osmbatch:", err)
		return 1
	}

	var jobs []batch.Job
	switch {
	case *jobsFile != "" && *mix:
		return fail(fmt.Errorf("-jobs and -mix are mutually exclusive"))
	case *jobsFile != "":
		data, err := os.ReadFile(*jobsFile)
		if err != nil {
			return fail(err)
		}
		// Strict decode: a field this build no longer reads (such as
		// the retired "scan" flag; -scheduler selects the engine) is
		// an error, not silently ignored.
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&jobs); err != nil {
			return fail(fmt.Errorf("%s: %w", *jobsFile, err))
		}
	case *mix:
		jobs = batch.MixJobs(*n)
	default:
		flag.Usage()
		return 2
	}
	if len(jobs) == 0 {
		return fail(fmt.Errorf("empty job set"))
	}
	switch *scheduler {
	case "event", "scan", "compiled", "generated":
	default:
		return fail(fmt.Errorf("unknown scheduler %q (want event, scan, compiled or generated)", *scheduler))
	}
	for i := range jobs {
		jobs[i].Engine = *scheduler
		jobs[i].Check = jobs[i].Check || *check
		if *maxCycles > 0 {
			jobs[i].MaxCycles = *maxCycles
		}
	}
	if *injectAt > 0 {
		jobs[0].PanicAt = *injectAt
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return fail(err)
		}
	}
	if *ckptEvery > 0 && *ckptDir == "" {
		return fail(fmt.Errorf("-checkpoint-every requires -checkpoint-dir"))
	}

	r := &batch.Runner{
		Workers:         *workers,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		Deadline:        *deadline,
	}
	if !*quiet {
		r.Log = os.Stderr
	}

	// A first SIGINT/SIGTERM aborts the batch gracefully: in-progress
	// jobs flush a final checkpoint and the partial manifest is still
	// written, so rerunning with the same -checkpoint-dir resumes. A
	// second signal kills the process immediately.
	interrupt := make(chan struct{})
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "osmbatch: interrupted; flushing checkpoints and writing manifest (interrupt again to kill)")
		close(interrupt)
		<-sigCh
		os.Exit(130)
	}()
	r.Interrupt = interrupt

	start := time.Now()
	m := r.Run(jobs)
	if !*quiet {
		fmt.Fprintf(os.Stderr, "osmbatch: %d jobs, %d failed, %v elapsed\n",
			len(m.Results), m.Failed(), time.Since(start).Round(time.Millisecond))
	}

	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fail(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		return fail(err)
	}
	select {
	case <-interrupt:
		return 130
	default:
	}
	if m.Failed() > 0 {
		return 1
	}
	return 0
}
