package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"runtime/pprof"
	"slices"
	"sync"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts by
// ±15-25% over tens of seconds: the same simulation rounds run 1.06M
// to 1.55M cycles/s seconds apart, thread CPU time drifts with wall
// time, and steal time is nil. Every measured interval is therefore
// scaled by the host's speed, measured right next to it by refWork: a
// fixed piece of work that uses only the standard library (map
// updates, branches, a sort), so no change to the repository can
// change it. A scaled interval is in reference-host seconds: the time
// the interval would have taken on a host that runs refWork in
// refNominal. On the reference host, medians of 20 one-second rounds
// drifted by 18% (coefficient of variation) raw and by 4% scaled.
// The scale applied to a round is the median of the probes taken
// during it, so it follows the slow drift but not one probe's noise.
//
// Request latencies have a reference of their own, rttRef below: a
// 1-cycle step is mostly loopback syscalls and goroutine wake-ups,
// which follow refWork only in part.

// refNominal is refWork's median time on the reference host (2-vCPU
// Intel Xeon, Go 1.24), which defines the reference-host second.
const refNominal = 1800 * time.Microsecond

// refProbeCalls is how many refWork calls one host-speed probe times.
const refProbeCalls = 4

// refState is refWork's working memory; concurrent probes each
// have their own.
type refState struct {
	m    map[uint32]uint32
	keys []uint32
	sink uint32
}

func newRefState() *refState {
	return &refState{m: make(map[uint32]uint32, 1<<12), keys: make([]uint32, 1<<12)}
}

// refWork is the host-speed reference. It allocates nothing once the
// map has grown, so the garbage collector does not time into it.
func (st *refState) refWork() uint32 {
	clear(st.m)
	x := uint32(12345)
	var sum uint32
	for i := 0; i < 1<<16; i++ {
		x = x*1664525 + 1013904223
		k := x >> 20
		st.m[k] += x
		if x&3 == 0 {
			sum ^= st.m[k>>1]
		} else {
			sum += k
		}
		st.keys[i&(len(st.keys)-1)] = x
	}
	slices.Sort(st.keys)
	return sum + st.keys[0]
}

// probeHost measures the host's speed relative to the reference
// host three times, timing refProbeCalls calls of refWork each time
// on each of n goroutines at once: above 1 when it runs faster. n is
// how many goroutines the measured work keeps busy, as the host can
// run slower with two busy than with one: in the fabric, whose two
// clients run at once, probes on one goroutine read 1.3-1.5 where
// probes on two read 0.9-1.1. Multiplying a measured interval by the
// speed gives the interval in reference-host seconds. One probe is
// noisy (about 7 ms); speedSince takes the median of many. The probe
// runs under the profiler label phase=probe, which the layer shares
// leave out.
func (b *bench) probeHost(ctx context.Context, n int) {
	for len(b.ref) < n {
		b.ref = append(b.ref, newRefState())
	}
	calls := func(st *refState) {
		for i := 0; i < refProbeCalls; i++ {
			st.sink += st.refWork()
		}
	}
	pprof.Do(ctx, pprof.Labels("phase", "probe"), func(context.Context) {
		for k := 0; k < 3; k++ {
			t0 := time.Now()
			var wg sync.WaitGroup
			for _, st := range b.ref[1:n] {
				wg.Add(1)
				go func() {
					defer wg.Done()
					calls(st)
				}()
			}
			calls(b.ref[0])
			wg.Wait()
			b.speeds = append(b.speeds, float64(refNominal*refProbeCalls)/float64(time.Since(t0)))
		}
	})
}

// speedSince returns the median host speed over the probes from index
// i on.
func (b *bench) speedSince(i int) float64 {
	return median(append([]float64(nil), b.speeds[i:]...))
}

// refRTTNominal is rttRef's median HTTP round trip on the reference
// host, which defines the reference-host microsecond of request
// latencies.
const refRTTNominal = 50 * time.Microsecond

// rttProbe is how long one rttRef probe runs.
const rttProbe = 150 * time.Millisecond

// rttRef is the request-latency reference: a loopback HTTP server and
// a loopback TCP echo, built from the standard library alone, so no
// change to the repository can change them. A probe runs one closed
// loop of small HTTP requests and one of 64-byte echoes at once, as
// the fabric runs one HTTP client and one wire client, and reports
// the HTTP loop's median round trip. Step latencies are scaled by
// refRTTNominal over it. Over six seeds per workload, with one run in
// each whose host-speed probes read 1.4, it held every step-latency
// spread to 3-8%, against 10-20% in host time and 10-19% scaled by
// host speed; over five more, on a host whose speed moved by 20%
// between runs, to 5-16%, against 25-41% in host time.
type rttRef struct {
	hs   *http.Server
	hc   *http.Client
	url  string
	echo net.Conn
	lns  []net.Listener
	wg   sync.WaitGroup
}

func startRTTRef() (*rttRef, error) {
	r := &rttRef{hc: &http.Client{}}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	el, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hl.Close()
		return nil, err
	}
	r.lns = []net.Listener{hl, el}
	body := make([]byte, 200)
	r.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})}
	r.url = "http://" + hl.Addr().String() + "/"
	r.wg.Add(2)
	go func() {
		defer r.wg.Done()
		r.hs.Serve(hl)
	}()
	go func() {
		defer r.wg.Done()
		c, err := el.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	if r.echo, err = net.Dial("tcp", el.Addr().String()); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close stops both servers and waits for them.
func (r *rttRef) close() {
	if r.echo != nil {
		r.echo.Close()
	}
	r.hs.Close()
	for _, ln := range r.lns {
		ln.Close()
	}
	r.hc.CloseIdleConnections()
	r.wg.Wait()
}

// probe runs both loops for rttProbe and returns the HTTP loop's
// median round trip, in µs; it reports an error of either loop.
func (r *rttRef) probe(ctx context.Context) (float64, error) {
	var web []float64
	var webErr, echoErr error
	pprof.Do(ctx, pprof.Labels("phase", "probe"), func(context.Context) {
		deadline := time.Now().Add(rttProbe)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for time.Now().Before(deadline) {
				if _, echoErr = r.echo.Write(buf); echoErr != nil {
					return
				}
				if _, echoErr = io.ReadFull(r.echo, buf); echoErr != nil {
					return
				}
			}
		}()
		for time.Now().Before(deadline) {
			t0 := time.Now()
			resp, err := r.hc.Post(r.url, "application/json", nil)
			if err != nil {
				webErr = err
				break
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil {
				webErr = err
				break
			}
			web = append(web, durUS(time.Since(t0)))
		}
		wg.Wait()
	})
	if webErr != nil {
		return 0, webErr
	}
	return median(web), echoErr
}
